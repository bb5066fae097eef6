"""Batch-native wire records: the ``RecordBatch`` abstraction.

Every layer of the data plane speaks this one type instead of lists of
per-record dicts, mirroring Kafka's on-disk/wire ``RecordBatch`` format
(KIP-98 v2 message sets): a *batch header* carrying the shared metadata once
(topic, partition, base offset, record count, total payload bytes, leader
epoch) and a *columnar payload* of parallel arrays (keys, values, sizes,
produce timestamps, optional append timestamps / per-record epochs /
headers).

Why columnar
------------
The emulator is message-level, so the "wire format" is a Python object
travelling inside a :class:`~repro.network.packet.Packet`.  What matters for
speed is allocation count: shipping ``n`` records as one ``RecordBatch``
costs O(1) Python objects per hop (plus C-level list extends), where the old
format allocated one dict per record per hop — producer encode, broker
append, fetch encode, consumer decode.  Sizing is O(1) too: ``total_size``
is maintained incrementally in the header, so neither the transport nor the
broker ever re-sums (let alone re-estimates) per-record sizes.

Producer identity (idempotence)
-------------------------------
Mirroring KIP-98, a produce batch may carry a producer identity in its
header: ``producer_id`` (coordinator-allocated), ``producer_epoch`` (bumped
on re-initialization, fencing zombie instances) and ``base_sequence`` (the
per-partition sequence number of the batch's first record; record ``i``
implicitly holds ``base_sequence + i``).  All three default to -1 — "no
producer identity" — and partition leaders use them to drop duplicate
retries (see ``docs/exactly_once.md``).  Batches read back *out of a log*
instead carry per-record ``producer_ids``/``sequences`` columns (a log range
may interleave many producers), which is how replica fetches hand the dedup
state down to followers.  Kafka's v2 batch header already reserves these
fields inside its 61 bytes, so :data:`BATCH_HEADER_OVERHEAD` is unchanged
and non-idempotent wire traffic is byte-identical to the pre-idempotence
format.

Transactions (KIP-98)
---------------------
A produce batch from a transactional producer additionally sets the header's
``transactional`` bit; partition leaders use it to track the first offset of
each producer's open transaction (the Last Stable Offset bookkeeping behind
``read_committed`` consumers).  Transactions end with *control records* —
COMMIT/ABORT markers written by the transaction coordinator, one log entry
carrying ``(marker, producer_id, producer_epoch)``.  Like the producer
columns, ``transactionals``/``controls`` per-record columns appear only on
log-read batches (replica fetches), so markers and the transactional bit
survive leader elections through the ordinary replication path.  Kafka's v2
header carries the transactional/control bits inside its attributes field,
so :data:`BATCH_HEADER_OVERHEAD` is again unchanged and non-transactional
wire traffic stays byte-identical.

Column ownership on fetch replies
---------------------------------
``PartitionLog.read_batch`` builds every reply batch from *fresh* list
slices of the log's columns, and nothing on the broker or transport side
retains a reference after the reply is sent.  A consumer therefore owns the
columns of every fetched batch it receives, and hands its ``on_batch``
observer the reply's visible rows once: the reply batch itself, or — when
the broker named control markers or aborted records — the fresh columns of
:meth:`RecordBatch.without`.  The observer may adopt ``keys``/``values``/
``sizes``/``produced_ats`` wholesale instead of copying — this is what makes the
SPE's fused columnar ingest zero-copy from fetch slice to operator plane
(see :meth:`repro.engine.columns.ColumnBatch.extend_from_wire`).  The one
shared object is :data:`EMPTY_BATCH`, whose columns are empty and must stay
that way — adopters must not take its lists (``extend_from_wire`` never
does: empty batches are not delivered to observers).

Size accounting rules
---------------------
* ``total_size`` is the sum of the per-record payload sizes (the same
  values the per-record path carried), updated on every ``append``/slice.
* ``wire_size`` adds :data:`BATCH_HEADER_OVERHEAD` once per batch — the
  shared header cost that the old format paid per record via dict keys.
* Consumers account ``bytes_consumed`` straight from the header; the
  invariant ``batch.total_size == sum(batch.sizes)`` is locked by tests.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Bytes of shared batch-header overhead charged once per batch on the wire
#: (Kafka's v2 record-batch header is 61 bytes).
BATCH_HEADER_OVERHEAD = 61

#: Payload bytes of one transaction control record (COMMIT/ABORT marker) —
#: Kafka's control records carry a small fixed key/value pair.
CONTROL_RECORD_SIZE = 16


class RecordBatch:
    """One batch of records with a shared header and columnar payload.

    The same object serves as the producer's accumulator drain, the produce
    request payload, the partition-log append/fetch unit and the fetch
    response payload; only the header fields that make sense for a given
    direction are populated (e.g. ``base_offset`` is -1 until the leader
    assigns offsets, ``timestamps``/``leader_epochs`` only exist on batches
    read back out of a log).
    """

    __slots__ = (
        "topic",
        "partition",
        "base_offset",
        "leader_epoch",
        "producer_id",
        "producer_epoch",
        "base_sequence",
        "transactional",
        "keys",
        "values",
        "sizes",
        "produced_ats",
        "timestamps",
        "leader_epochs",
        "producer_ids",
        "producer_epochs",
        "sequences",
        "transactionals",
        "controls",
        "headers",
        "offsets",
        "total_size",
    )

    def __init__(
        self,
        topic: str,
        partition: int = 0,
        base_offset: int = -1,
        leader_epoch: int = -1,
        producer_id: int = -1,
        producer_epoch: int = -1,
        base_sequence: int = -1,
    ) -> None:
        self.topic = topic
        self.partition = partition
        #: Offset of the first record (-1 until assigned by the leader).
        self.base_offset = base_offset
        #: Epoch the whole batch was appended under (-1 = unassigned/mixed).
        self.leader_epoch = leader_epoch
        #: Producer identity of the whole batch (-1 = non-idempotent send).
        self.producer_id = producer_id
        self.producer_epoch = producer_epoch
        #: Per-partition sequence of the first record; record ``i`` holds
        #: ``base_sequence + i``.  Fixed at drain time and reused verbatim
        #: across retries — which is exactly what makes retries dedupable.
        self.base_sequence = base_sequence
        #: True when the batch's records belong to an open transaction
        #: (leaders then track the open transaction's first offset for LSO
        #: accounting).  Rides inside the v2 header's attributes bits, so the
        #: wire size is unchanged.
        self.transactional = False
        self.keys: List[Any] = []
        self.values: List[Any] = []
        self.sizes: List[int] = []
        self.produced_ats: List[float] = []
        #: Broker append timestamps (populated on fetched batches only).
        self.timestamps: Optional[List[float]] = None
        #: Per-record leader epochs (replica-fetch batches only; a batch read
        #: from a log may span an epoch boundary).
        self.leader_epochs: Optional[List[int]] = None
        #: Per-record producer ids / sequences (log-read batches only; a log
        #: range may interleave batches from many producers).  ``None`` when
        #: no record in the range carried a producer identity.
        self.producer_ids: Optional[List[int]] = None
        self.producer_epochs: Optional[List[int]] = None
        self.sequences: Optional[List[int]] = None
        #: Per-record transactional bits / control markers (log-read batches
        #: only; ``None`` when the range holds no transactional traffic).  A
        #: control entry is a ``(marker, producer_id, producer_epoch)`` tuple
        #: — ``"commit"``/``"abort"`` — or ``None`` for data records.
        self.transactionals: Optional[List[bool]] = None
        self.controls: Optional[List[Optional[Tuple[str, int, int]]]] = None
        #: Per-record header dicts, or None when every record's headers are
        #: empty (the overwhelmingly common case — no allocation then).
        self.headers: Optional[List[Optional[Dict[str, Any]]]] = None
        #: Explicit per-record offsets, or None for the contiguous common
        #: case (record ``i`` at ``base_offset + i``).  Only ranges read out
        #: of *compacted* log segments carry this column — compaction keeps
        #: surviving records at their original, now-gapped offsets.
        self.offsets: Optional[List[int]] = None
        #: Sum of per-record payload sizes (maintained incrementally).
        self.total_size = 0

    # -- construction ----------------------------------------------------------------
    def append(
        self,
        key: Any,
        value: Any,
        size: int,
        produced_at: float,
        headers: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Add one record (producer-side accumulation)."""
        self.keys.append(key)
        self.values.append(value)
        self.sizes.append(size)
        self.produced_ats.append(produced_at)
        self.total_size += size
        if headers:
            if self.headers is None:
                self.headers = [None] * (len(self.keys) - 1)
            self.headers.append(dict(headers))
        elif self.headers is not None:
            self.headers.append(None)

    @classmethod
    def from_columns(
        cls,
        topic: str,
        partition: int,
        base_offset: int,
        keys: List[Any],
        values: List[Any],
        sizes: List[int],
        produced_ats: List[float],
        timestamps: Optional[List[float]] = None,
        leader_epochs: Optional[List[int]] = None,
        headers: Optional[List[Optional[Dict[str, Any]]]] = None,
        total_size: Optional[int] = None,
        leader_epoch: int = -1,
        producer_ids: Optional[List[int]] = None,
        producer_epochs: Optional[List[int]] = None,
        sequences: Optional[List[int]] = None,
        transactionals: Optional[List[bool]] = None,
        controls: Optional[List[Optional[Tuple[str, int, int]]]] = None,
    ) -> "RecordBatch":
        """Build a batch directly from columns (log reads, workload synthesis)."""
        batch = cls(topic, partition, base_offset=base_offset, leader_epoch=leader_epoch)
        batch.keys = keys
        batch.values = values
        batch.sizes = sizes
        batch.produced_ats = produced_ats
        batch.timestamps = timestamps
        batch.leader_epochs = leader_epochs
        batch.producer_ids = producer_ids
        batch.producer_epochs = producer_epochs
        batch.sequences = sequences
        batch.transactionals = transactionals
        batch.controls = controls
        batch.headers = headers
        batch.total_size = sum(sizes) if total_size is None else total_size
        return batch

    # -- header accessors -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.values)

    def __bool__(self) -> bool:
        return bool(self.values)

    @property
    def last_offset(self) -> int:
        """Offset of the final record (header arithmetic, no payload walk)."""
        if self.offsets is not None:
            return self.offsets[-1] if self.offsets else self.base_offset - 1
        return self.base_offset + len(self.values) - 1

    @property
    def next_offset(self) -> int:
        if self.offsets is not None:
            return self.offsets[-1] + 1 if self.offsets else self.base_offset
        return self.base_offset + len(self.values)

    @property
    def wire_size(self) -> int:
        """Bytes the batch occupies on the wire: payload + one shared header."""
        return self.total_size + BATCH_HEADER_OVERHEAD

    def headers_at(self, index: int) -> Dict[str, Any]:
        if self.headers is None:
            return {}
        return self.headers[index] or {}

    def timestamp_at(self, index: int, default: float = 0.0) -> float:
        if self.timestamps is None:
            return default
        return self.timestamps[index]

    # -- iteration ---------------------------------------------------------------------
    def iter_records(self) -> Iterator[Tuple[int, Any, Any, int, float]]:
        """Yield ``(offset, key, value, size, produced_at)`` lazily per record."""
        if self.offsets is not None:
            for index, value in enumerate(self.values):
                yield (
                    self.offsets[index],
                    self.keys[index],
                    value,
                    self.sizes[index],
                    self.produced_ats[index],
                )
            return
        base = self.base_offset
        for index, value in enumerate(self.values):
            yield (
                base + index,
                self.keys[index],
                value,
                self.sizes[index],
                self.produced_ats[index],
            )

    def offset_at(self, index: int) -> int:
        if self.offsets is not None:
            return self.offsets[index]
        return self.base_offset + index

    # -- slicing -----------------------------------------------------------------------
    def tail(self, skip: int) -> "RecordBatch":
        """A new batch without the first ``skip`` records (replica overlap trim)."""
        if skip <= 0:
            return self
        trimmed = RecordBatch.from_columns(
            self.topic,
            self.partition,
            base_offset=self.base_offset + skip,
            keys=self.keys[skip:],
            values=self.values[skip:],
            sizes=self.sizes[skip:],
            produced_ats=self.produced_ats[skip:],
            timestamps=self.timestamps[skip:] if self.timestamps is not None else None,
            leader_epochs=(
                self.leader_epochs[skip:] if self.leader_epochs is not None else None
            ),
            producer_ids=(
                self.producer_ids[skip:] if self.producer_ids is not None else None
            ),
            producer_epochs=(
                self.producer_epochs[skip:] if self.producer_epochs is not None else None
            ),
            sequences=self.sequences[skip:] if self.sequences is not None else None,
            transactionals=(
                self.transactionals[skip:] if self.transactionals is not None else None
            ),
            controls=self.controls[skip:] if self.controls is not None else None,
            headers=self.headers[skip:] if self.headers is not None else None,
            leader_epoch=self.leader_epoch,
        )
        trimmed.producer_id = self.producer_id
        trimmed.producer_epoch = self.producer_epoch
        trimmed.transactional = self.transactional
        if self.base_sequence >= 0:
            trimmed.base_sequence = self.base_sequence + skip
        return trimmed

    def run(self, start: int, stop: int) -> "RecordBatch":
        """The contiguous sub-batch covering rows ``[start, stop)`` of a
        *gapped* batch (``offsets`` must be set and contiguous over the run).
        The result is an ordinary contiguous batch based at the run's first
        offset — what lets replication split a compacted-range reply into
        plain appends."""
        offsets = self.offsets
        piece = RecordBatch.from_columns(
            self.topic,
            self.partition,
            base_offset=offsets[start],
            keys=self.keys[start:stop],
            values=self.values[start:stop],
            sizes=self.sizes[start:stop],
            produced_ats=self.produced_ats[start:stop],
            timestamps=(
                self.timestamps[start:stop] if self.timestamps is not None else None
            ),
            leader_epochs=(
                self.leader_epochs[start:stop]
                if self.leader_epochs is not None
                else None
            ),
            producer_ids=(
                self.producer_ids[start:stop]
                if self.producer_ids is not None
                else None
            ),
            producer_epochs=(
                self.producer_epochs[start:stop]
                if self.producer_epochs is not None
                else None
            ),
            sequences=(
                self.sequences[start:stop] if self.sequences is not None else None
            ),
            transactionals=(
                self.transactionals[start:stop]
                if self.transactionals is not None
                else None
            ),
            controls=(
                self.controls[start:stop] if self.controls is not None else None
            ),
            headers=self.headers[start:stop] if self.headers is not None else None,
            leader_epoch=self.leader_epoch,
        )
        return piece

    def without(self, hidden) -> "RecordBatch":
        """The rows whose offsets are not in ``hidden``, kept at their
        original — now gapped — offsets: what a consumer delivers of a fetch
        reply that carries control markers or aborted records.  Carries the
        columns a reader sees, not the producer and transaction columns.

        Costs one list copy per column plus the hidden rows: each column is
        copied whole and the runs of hidden rows are deleted from the copy,
        and a range whose visible rows are contiguous (only a leading or a
        trailing run hidden, such as a COMMIT marker at the end) needs no
        ``offsets`` column."""
        count = len(self.values)
        base, offsets = self.base_offset, self.offsets
        rows = set()
        for offset in hidden:
            row = offset - base if offsets is None else bisect_left(offsets, offset)
            if 0 <= row < count and self.offset_at(row) == offset:
                rows.add(row)
        spans: List[slice] = []
        for row in sorted(rows):
            if spans and spans[-1].stop == row:
                spans[-1] = slice(spans[-1].start, row + 1)
            else:
                spans.append(slice(row, row + 1))
        visible = RecordBatch(self.topic, self.partition, leader_epoch=self.leader_epoch)
        for name in ("keys", "values", "sizes", "produced_ats", "timestamps", "headers"):
            column = getattr(self, name)
            if column is not None:
                setattr(visible, name, _drop(column, spans))
        if offsets is not None:
            visible.offsets = _drop(offsets, spans)
        elif any(0 < span.start and span.stop < count for span in spans):
            visible.offsets = _drop(list(range(base, base + count)), spans)
        first = spans[0].stop if spans and spans[0].start == 0 else 0
        visible.base_offset = self.offset_at(first) if first < count else self.next_offset
        visible.total_size = self.total_size - sum(self.sizes[row] for row in rows)
        return visible

    def __repr__(self) -> str:
        return (
            f"<RecordBatch {self.topic}-{self.partition} base={self.base_offset} "
            f"n={len(self.values)} bytes={self.total_size}>"
        )


def _drop(column, spans: List[slice]) -> list:
    """A fresh copy of ``column`` without its rows in ``spans`` (sorted)."""
    kept = column[:]
    for span in reversed(spans):
        del kept[span]
    return kept


#: Shared immutable-by-convention empty batch.  Idle consumers and replica
#: fetchers poll constantly; answering them must not allocate a batch plus
#: column slices per request.  Receivers always check ``len(batch)`` before
#: touching header fields, so one sentinel serves every empty reply.
EMPTY_BATCH = RecordBatch("", 0)
