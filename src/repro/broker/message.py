"""Record types exchanged between clients and brokers."""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any, Callable, Dict, Iterator, Optional

from repro.network.packet import estimate_size


class ProducerRecord:
    """A record handed to :class:`~repro.broker.producer.Producer.send`.

    Mirrors Kafka's ``ProducerRecord``: a topic, an optional key (used for
    partitioning), a value, and optional headers.  A ``__slots__`` class —
    one instance exists per produced record, so construction is hot.
    """

    __slots__ = ("topic", "value", "key", "partition", "headers", "size")

    def __init__(
        self,
        topic: str,
        value: Any,
        key: Optional[Any] = None,
        partition: Optional[int] = None,
        headers: Optional[Dict[str, Any]] = None,
        size: Optional[int] = None,
    ) -> None:
        self.topic = topic
        self.value = value
        self.key = key
        self.partition = partition
        #: ``None`` when absent: no dict per record (the batch column treats
        #: any falsy headers as "no headers").
        self.headers = headers
        if size is None:
            size = estimate_size(value) + estimate_size(key, floor=0)
        elif size < 0:
            raise ValueError("record size must be non-negative")
        self.size = size

    def __repr__(self) -> str:
        return (
            f"ProducerRecord(topic={self.topic!r}, key={self.key!r}, "
            f"partition={self.partition}, size={self.size})"
        )

    def partition_for(self, n_partitions: int, fallback: int = 0) -> int:
        """Choose the partition: explicit, key-hash, or round-robin fallback.

        ``n_partitions == 0`` means the client has no metadata for the topic
        yet: an explicit partition is trusted (the broker validates it on
        produce), everything else lands on partition 0 — exactly where the
        old "assume 1" fallback put it.
        """
        if self.partition is not None:
            if n_partitions > 0 and not 0 <= self.partition < n_partitions:
                raise ValueError(
                    f"partition {self.partition} out of range [0, {n_partitions})"
                )
            return self.partition
        if n_partitions <= 1:
            # Single-partition (or unknown) topic: every strategy lands on 0.
            return 0
        if self.key is not None:
            return _stable_hash(self.key) % n_partitions
        return fallback % n_partitions


class RecordMetadata:
    """Returned to producers when a record is acknowledged.

    A plain ``__slots__`` class: one instance is created per acknowledged
    record on the producer hot path, so construction cost matters.
    """

    __slots__ = ("topic", "partition", "offset", "timestamp", "produced_at")

    def __init__(
        self,
        topic: str,
        partition: int,
        offset: int,
        timestamp: float,
        produced_at: float,
    ) -> None:
        self.topic = topic
        self.partition = partition
        self.offset = offset
        self.timestamp = timestamp
        self.produced_at = produced_at

    @property
    def commit_latency(self) -> float:
        """Time between the application's send() call and the acknowledgement."""
        return self.timestamp - self.produced_at

    def __repr__(self) -> str:
        return (
            f"RecordMetadata(topic={self.topic!r}, partition={self.partition}, "
            f"offset={self.offset}, timestamp={self.timestamp}, "
            f"produced_at={self.produced_at})"
        )


class DeliveryReport:
    """Final outcome of one record (built when
    :attr:`Producer.reports <repro.broker.producer.Producer.reports>` is read)."""

    __slots__ = (
        "sequence",
        "topic",
        "partition",
        "key",
        "enqueued_at",
        "acknowledged_at",
        "failed_at",
        "offset",
        "duplicate",
    )

    def __init__(self, sequence: int, topic: str, key: Any, enqueued_at: float) -> None:
        self.sequence = sequence
        self.topic = topic
        #: The partition the record was batched for; with ``offset`` the
        #: record's position in the log.  ``None`` while it waits in line.
        self.partition: Optional[int] = None
        self.key = key
        self.enqueued_at = enqueued_at
        self.acknowledged_at: Optional[float] = None
        self.failed_at: Optional[float] = None
        self.offset: Optional[int] = None
        #: True when the acknowledgement was a broker-side dedup hit (the
        #: record was already durable from an earlier attempt whose ack was
        #: lost) — a DuplicateSequence ack, not a silent success.
        self.duplicate = False

    @property
    def acknowledged(self) -> bool:
        return self.acknowledged_at is not None


class DeliveryReports(Sequence):
    """A producer's ``reports``: one :class:`DeliveryReport` per send, in
    sequence order (``reports[seq]`` is the report for sequence ``seq``).

    Read-only and lazy.  Nothing is stored per record: ``slots`` is the
    producer's one-slot-per-send list (its length is all that is read here)
    and ``build(sequence)`` derives a report from the record's batch — its
    columns and its one outcome — at the moment the report is indexed or
    iterated over.  A report is therefore a snapshot: read it after the run,
    or index again, rather than holding one across simulated time.
    """

    __slots__ = ("_slots", "_build")

    def __init__(self, slots: list, build: Callable[[int], DeliveryReport]) -> None:
        self._slots = slots
        self._build = build

    def __len__(self) -> int:
        return len(self._slots)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._build(i) for i in range(*index.indices(len(self._slots)))]
        if index < 0:
            index += len(self._slots)
        if not 0 <= index < len(self._slots):
            raise IndexError("report index out of range")
        return self._build(index)

    def __iter__(self) -> Iterator[DeliveryReport]:
        return map(self._build, range(len(self._slots)))


def _stable_hash(value: Any) -> int:
    """Deterministic (process-independent) hash used for key partitioning."""
    data = repr(value).encode("utf-8")
    accumulator = 2166136261
    for byte in data:
        accumulator ^= byte
        accumulator = (accumulator * 16777619) & 0xFFFFFFFF
    return accumulator
