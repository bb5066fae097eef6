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
from typing import Any, Dict, Iterable

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
    #: Bytes actually occupying the wire (payload + protocol overhead), set
    #: by ``__post_init__``: every hop reads it and ``size`` never changes.
    wire_size: int = field(init=False)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"packet size must be non-negative, got {self.size}")
        self.wire_size = self.size + HEADER_OVERHEAD_BYTES

    def __repr__(self) -> str:
        return (
            f"<Packet #{self.packet_id} {self.src}:{self.src_port} -> "
            f"{self.dst}:{self.dst_port} {self.size}B>"
        )


def _leaves_size(leaves: Iterable[Any]) -> int:
    """Sum of ``estimate_size(leaf, 4)`` over ``leaves``, in one loop that
    sizes ``str`` / ``int`` / ``float`` leaves inline."""
    total = 0
    for leaf in leaves:
        kind = type(leaf)
        if kind is str:
            size = len(leaf) if leaf.isascii() else len(leaf.encode("utf-8"))
            total += size if size > 4 else 4
        elif kind is int or kind is float:
            total += 8
        else:
            total += estimate_size(leaf, 4)
    return total


def estimate_size(payload: Any, floor: int = 16) -> int:
    """Best-effort serialized size estimate for arbitrary payloads.

    Broker records and batches carry sizes computed at construction; stub
    components, control-plane messages and the SPE's ``KafkaSink`` (every
    result record, through ``ColumnBatch.size_at``) send plain objects sized
    here, in one walk: :func:`_leaves_size` sizes scalar leaves inline and
    only nested containers recurse.
    """
    if isinstance(payload, dict):
        size = _leaves_size(payload.keys()) + _leaves_size(payload.values())
    elif payload is None:
        return floor
    elif isinstance(payload, str):
        size = len(payload) if payload.isascii() else len(payload.encode("utf-8"))
    elif isinstance(payload, (int, float, bool)):
        size = 8
    elif isinstance(payload, (list, tuple, set)):
        size = _leaves_size(payload)
    elif isinstance(payload, (bytes, bytearray)):
        size = len(payload)
    else:
        size = len(repr(payload))
    return size if size > floor else floor
