"""Fault injection: link failures, transient loss, node disconnections.

This is the emulation-level mechanism behind stream2gym's ``faultCfg`` graph
attribute.  A fault is one :class:`Fault` record, whether it comes from a
``faultCfg`` document or from the chaos harness, and one executor runs it:
:meth:`FaultInjector.schedule` brings the affected links down (and later back
up), or raises their loss (and later restores it), on the simulation clock.
On a down or up the network controller recomputes routes — exactly what
happens when an operator runs ``link down`` in Mininet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.simulation.engine import duration_to_seconds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.network import Network

#: Every fault kind and how many targets it takes (``None``: any number).
#: ``link_down`` and ``transient_loss`` name the two ends of one link,
#: ``node_disconnect`` the nodes whose every link goes down.
#: ``leader_failover`` names a ``"topic-partition"``: whoever owns the cluster
#: resolves its leader's host when it fires and schedules a ``node_disconnect``
#: (``repro.testing.chaos`` does); the network alone cannot run it.
KINDS = {
    "link_down": (2, 2),
    "transient_loss": (2, 2),
    "node_disconnect": (1, None),
    "leader_failover": (1, 1),
}
#: What :meth:`FaultInjector.schedule` records when a fault hits and heals.
_ACTIONS = {
    "link_down": ("link-down", "link-up"),
    "node_disconnect": ("node-disconnect", "node-reconnect"),
    "transient_loss": ("loss-raise", "loss-restore"),
}


@dataclass(frozen=True)
class Fault:
    """One fault: ``kind`` (a key of :data:`KINDS`) hits ``targets`` at
    simulated time ``start`` (seconds, relative to when it is scheduled) and
    heals ``duration`` seconds later, or never when ``duration`` is ``None``.
    ``loss_percent`` is the loss a ``transient_loss`` puts on its link."""

    kind: str
    targets: List[str] = field(default_factory=list)
    start: float = 0.0
    duration: Optional[float] = None
    loss_percent: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; use one of {sorted(KINDS)}")
        least, most = KINDS[self.kind]
        if most is not None and len(self.targets) != most:
            raise ValueError(
                f"{self.kind} fault needs exactly {most} targets, got {list(self.targets)}"
            )
        if len(self.targets) < least:
            raise ValueError(f"{self.kind} fault needs at least {least} target")
        if self.start < 0:
            raise ValueError(f"{self.kind} fault start must be non-negative, got {self.start}")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"{self.kind} fault duration must be positive, got {self.duration}")
        if not 0 <= self.loss_percent <= 100:
            raise ValueError(
                f"{self.kind} fault lossPercent must be in [0, 100], got {self.loss_percent}"
            )

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Fault":
        """One entry of a ``faultCfg`` document."""
        targets = data.get("targets") or data.get("links") or data.get("nodes") or []
        if isinstance(targets, str):
            targets = [targets]
        duration = data.get("duration")
        return cls(
            kind=str(data.get("kind") or data.get("type") or "link_down"),
            targets=list(targets),
            start=duration_to_seconds(data.get("start"), 0.0),
            duration=None if duration is None else duration_to_seconds(duration, 0.0),
            loss_percent=float(data.get("lossPercent", data.get("loss", 0.0))),
        )

    def to_dict(self) -> Dict[str, Any]:
        """The ``faultCfg`` entry :meth:`from_dict` reads back as this fault."""
        return {
            "kind": self.kind,
            "targets": list(self.targets),
            "start": self.start,
            "duration": self.duration,
            "lossPercent": self.loss_percent,
        }


@dataclass
class FaultEvent:
    """Record of an executed fault action (for the event log / tests)."""

    time: float
    action: str
    target: str


class FaultInjector:
    """Schedules and executes faults against a network."""

    def __init__(self, network: "Network") -> None:
        self.network = network
        self.events: List[FaultEvent] = []

    def schedule(self, fault: Fault) -> None:
        """Run ``fault`` from ``start`` seconds after now.  Per target, in
        target order, its links go down (or take its loss) at ``start`` and
        come back up (or get their old loss back) ``duration`` later."""
        if fault.kind == "node_disconnect":
            hits = [(node, self.network.links_of(node)) for node in fault.targets]
        elif fault.kind in ("link_down", "transient_loss"):
            link = self.network.link_between(*fault.targets)
            if link is None:
                raise KeyError(f"no link between {fault.targets}")
            hits = [("-".join(fault.targets), [link])]
        else:
            raise ValueError(f"a {fault.kind} fault needs a cluster to resolve its target")
        hit, heal = _ACTIONS[fault.kind]
        loss = fault.loss_percent if fault.kind == "transient_loss" else None
        sim = self.network.sim
        for target, links in hits:
            restore = None if loss is None else links[0].config.loss_percent
            sim.call_later(fault.start, self._set, hit, target, links, False, loss)
            if fault.duration is not None:
                end = fault.start + fault.duration
                sim.call_later(end, self._set, heal, target, links, True, restore)

    def _set(
        self, action: str, target: str, links: list, up: bool, loss: Optional[float]
    ) -> None:
        """Give ``links`` ``loss`` percent loss or, with no ``loss``, set them
        up or down; then record ``action``."""
        for link in links:
            if loss is not None:
                link.config.loss_percent = loss
            elif up:
                link.set_up()
            else:
                link.set_down()
        self._record(action, target)
        if loss is None:
            self.network.controller.handle_topology_change()

    def _record(self, action: str, target: str) -> None:
        self.events.append(
            FaultEvent(time=self.network.sim.now, action=action, target=target)
        )

    def history(self) -> List[FaultEvent]:
        return list(self.events)
