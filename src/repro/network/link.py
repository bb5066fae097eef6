"""Emulated links with latency, bandwidth and loss shaping.

A link connects two ports and carries traffic independently in each
direction.  The model is store-and-forward: a packet first occupies the
transmitter for its serialization time (``wire_size / bandwidth``), then
propagates for the configured latency, then (unless lost or the link was down
when it launched or when it arrives) is delivered to the far port.  Queueing
happens naturally because each direction serializes one packet at a time,
which is how congestion, head-of-line blocking and the bandwidth spikes of
Figure 6d emerge.  All of it is arithmetic at hand-over — the one heap entry
per packet is its arrival (``docs/event_model.md``, "Links and switches");
``tests/test_link_model.py`` is the reference it is held to.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.network.node import Port
from repro.network.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation import Simulator


@dataclass(slots=True)
class _Direction:
    """Per-direction transmit state.  A packet handed over at ``t`` starts
    serializing at ``max(t, busy_until)``: the FIFO queue, with no queue."""

    src: Port
    dst: Port
    busy_until: float = 0.0


@dataclass
class LinkConfig:
    """Shaping parameters of a link (Table I link attributes).

    Attributes
    ----------
    latency_ms:
        One-way propagation delay in milliseconds (``lat``).
    bandwidth_mbps:
        Capacity in megabits per second (``bw``).  ``None`` means unshaped
        (effectively infinite, as in Mininet links without a ``bw`` option).
    loss_percent:
        Random packet loss percentage (``loss``).
    """

    latency_ms: float = 0.0
    bandwidth_mbps: Optional[float] = 1000.0
    loss_percent: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_ms < 0:
            raise ValueError("latency must be non-negative")
        if self.bandwidth_mbps is not None and self.bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 <= self.loss_percent <= 100.0:
            raise ValueError("loss must lie in [0, 100]")

    def __setattr__(self, name: str, value) -> None:
        # The derived values below are read once per packet on the hot data
        # path, so they are plain floats kept in sync on every assignment
        # (fault injectors mutate loss_percent/latency_ms mid-run) instead of
        # per-packet @property arithmetic.
        if name == "bandwidth_mbps" and value is not None and value <= 0:
            # Must stay loud on mutation too: silently mapping 0 to
            # "unshaped" would turn a throttled link into an infinite one.
            raise ValueError("bandwidth must be positive")
        object.__setattr__(self, name, value)
        if name == "latency_ms":
            object.__setattr__(self, "latency_s", value / 1000.0)
        elif name == "loss_percent":
            object.__setattr__(self, "loss_probability", value / 100.0)
        elif name == "bandwidth_mbps":
            # inf encodes "unshaped": size * 8 / inf == 0.0.
            object.__setattr__(
                self,
                "bits_per_second",
                float("inf") if value is None else value * 1e6,
            )

    def serialization_delay(self, wire_size_bytes: int) -> float:
        """Time to clock ``wire_size_bytes`` onto the wire."""
        return wire_size_bytes * 8 / self.bits_per_second


class Link:
    """A bidirectional link between two ports."""

    def __init__(
        self,
        sim: "Simulator",
        port_a: Port,
        port_b: Port,
        config: Optional[LinkConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.port_a = port_a
        self.port_b = port_b
        self.config = config or LinkConfig()
        self.name = name or (
            f"{port_a.node.name}:{port_a.number}<->{port_b.node.name}:{port_b.number}"
        )
        self.up = True
        # When the link went down, came back up, went down, ... so that an
        # arrival can ask about past instants: down after an odd number.
        self._toggles: list = []
        self._rng = sim.rng(f"link-loss:{self.name}")
        self._directions = {
            id(port_a): _Direction(port_a, port_b),
            id(port_b): _Direction(port_b, port_a),
        }
        self.packets_dropped_loss = 0
        self.packets_dropped_down = 0
        self.packets_delivered = 0
        port_a.attach(self)
        port_b.attach(self)

    # -- wiring ----------------------------------------------------------------
    def other_port(self, port: Port) -> Port:
        if port is self.port_a:
            return self.port_b
        if port is self.port_b:
            return self.port_a
        raise ValueError(f"{port!r} is not attached to {self.name}")

    def endpoints(self):
        """The two node names this link connects."""
        return (self.port_a.node.name, self.port_b.node.name)

    # -- state ----------------------------------------------------------------
    def set_down(self) -> None:
        """Administratively disable the link (both directions)."""
        if self.up:
            self.up = False
            self._toggles.append(self.sim.now)

    def set_up(self) -> None:
        if not self.up:
            self.up = True
            self._toggles.append(self.sim.now)

    # -- data path --------------------------------------------------------------
    def transmit(self, packet: Packet, from_port: Port) -> None:
        """Hand ``packet`` to the transmitter facing away from ``from_port``.

        The arrival is due once the transmitter is free, the packet serialized
        and propagated, and the receiving node ready to act on it (a switch's
        forwarding delay, read per packet) — summed in that order, which is
        the float that one heap entry per step would have produced.
        """
        direction = self._directions[id(from_port)]
        config = self.config
        start = max(self.sim.now, direction.busy_until)
        launch = start + packet.wire_size * 8 / config.bits_per_second
        direction.busy_until = launch
        reach = launch + config.latency_s
        due = reach + direction.dst.node.switching_delay
        self.sim.call_at(due, self._arrive, packet, direction, launch, reach)

    def _arrive(self, packet: Packet, direction: _Direction, launch: float, reach: float) -> None:
        """Decide the packet's fate: down at its launch, lost (one draw per
        launched packet, in arrival order), or down when it reached the port."""
        toggles = self._toggles
        if toggles and bisect_right(toggles, launch) & 1:
            self.packets_dropped_down += 1
        elif self._rng.bernoulli(self.config.loss_probability):
            self.packets_dropped_loss += 1
        elif toggles and bisect_right(toggles, reach) & 1:
            self.packets_dropped_down += 1
        else:
            self.packets_delivered += 1
            direction.dst.deliver(packet)
            return
        direction.src.stats.record_tx_drop()

    def __repr__(self) -> str:
        state = "up" if self.up else "down"
        return f"<Link {self.name} {state} {self.config.latency_ms}ms>"
