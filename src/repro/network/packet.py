"""Packet model.

The emulation is message-level rather than byte-level: a :class:`Packet`
represents one application-layer message (e.g. a produce request or a fetch
response) together with enough metadata for links and switches to shape and
route it.  Sizes are tracked in bytes so that bandwidth and buffer accounting
remain meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Any, Dict, Optional

#: Fixed per-message protocol overhead in bytes (Ethernet + IP + TCP headers).
HEADER_OVERHEAD_BYTES = 66

_packet_ids = count(1)


@dataclass(slots=True)
class Packet:
    """One message travelling through the emulated network.

    Attributes
    ----------
    src / dst:
        Names of the source and destination *hosts*.
    src_port / dst_port:
        Application-level port numbers (services bind to ports on hosts).
    payload:
        Arbitrary Python object carried by the message.  The network never
        inspects it.
    size:
        Payload size in bytes (excluding protocol overhead).
    created_at:
        Simulated time at which the packet entered the network.
    """

    src: str
    dst: str
    payload: Any
    size: int = 0
    src_port: int = 0
    dst_port: int = 0
    created_at: float = 0.0
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    headers: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"packet size must be non-negative, got {self.size}")

    @property
    def wire_size(self) -> int:
        """Bytes actually occupying the wire (payload + protocol overhead)."""
        return self.size + HEADER_OVERHEAD_BYTES

    def __repr__(self) -> str:
        return (
            f"<Packet #{self.packet_id} {self.src}:{self.src_port} -> "
            f"{self.dst}:{self.dst_port} {self.size}B>"
        )


def _flat_dict_size(payload: dict) -> Optional[int]:
    """What the walk in :func:`estimate_size` sums over a dict whose keys and
    values are all ``str`` / ``int`` / ``float`` (SPE results, control
    messages: the common payload), in one loop; ``None`` for any other dict."""
    total = 0
    for item in payload.items():
        for leaf in item:
            kind = type(leaf)
            if kind is str:
                size = len(leaf) if leaf.isascii() else len(leaf.encode("utf-8"))
                total += size if size > 4 else 4
            elif kind is int or kind is float:
                total += 8
            else:
                return None
    return total


def estimate_size(payload: Any, floor: int = 16) -> int:
    """Best-effort serialized size estimate for arbitrary payloads.

    The broker and SPE compute record sizes explicitly (``ProducerRecord``
    caches its size at construction and batch/reply sizes are summed from
    those), so hot-path wire messages never reach this recursive walk; this
    helper exists for stub components and control-plane messages that send
    plain Python objects.  Checks are ordered by observed frequency, and
    ASCII strings avoid the UTF-8 encode round-trip.
    """
    if type(payload) is dict:
        size = _flat_dict_size(payload)
        if size is not None:
            return size if size > floor else floor
    if payload is None:
        return floor
    if isinstance(payload, str):
        return max(floor, len(payload) if payload.isascii() else len(payload.encode("utf-8")))
    if isinstance(payload, (int, float, bool)):
        return max(floor, 8)
    if isinstance(payload, dict):
        return max(
            floor,
            sum(estimate_size(k, 4) + estimate_size(v, 4) for k, v in payload.items()),
        )
    if isinstance(payload, (list, tuple, set)):
        return max(floor, sum(estimate_size(item, 4) for item in payload))
    if isinstance(payload, (bytes, bytearray)):
        return max(floor, len(payload))
    return max(floor, len(repr(payload)))
