"""Columnar micro-batches: the SPE's one micro-batch representation.

A :class:`ColumnBatch` is the SPE-side sibling of the broker's
:class:`~repro.broker.batch.RecordBatch`: one object holding the micro-batch
as five parallel columns (``values``, ``keys``, ``event_times``,
``ingest_times``, ``sizes``).  Sources accumulate one, every operator kernel
(see :mod:`repro.engine.operators`) maps one to the next, and sinks consume
one; a per-record :class:`~repro.engine.records.StreamRecord` exists only as
the row view :meth:`ColumnBatch.to_records` builds for per-record user
callbacks.

Zero-copy ingest
----------------
``PartitionLog.read_batch`` builds every fetch reply from *fresh* column
slices, and the consumer hands the reply batch to its ``on_batch`` observer
without retaining it (see :mod:`repro.broker.consumer`).  The observer
therefore owns the columns, and :meth:`ColumnBatch.extend_from_wire` adopts
them directly — a drained micro-batch whose records all came from one fetch
reuses the broker's slices without copying a single element.

Size-carry rules
----------------
An entry of the ``sizes`` column is either a positive int (observed — e.g.
the wire size from ingest) or ``None`` (deferred — a derived value nobody has
observed yet).  Deferred entries are resolved through the pure
:func:`~repro.network.packet.estimate_size`, at most once, at the point of
observation (batch byte-accounting or a Kafka sink), so what is observed
never depends on how many operators a value passed through.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from repro.engine.records import StreamRecord
from repro.network.packet import estimate_size


class ColumnBatch:
    """One micro-batch as parallel columns (the engine's execution unit).

    Columns are plain Python lists and always the same length.  Kernels
    never mutate an input batch's columns in place — they either return the
    input unchanged (when nothing was dropped or rewritten) or build a new
    :class:`ColumnBatch`, which lets stateful operators (windows) retain and
    re-emit previously seen batches safely.  The one sanctioned mutation is
    resolving a deferred ``sizes`` entry in place, which is observationally
    pure (``estimate_size`` is a pure function of the value).
    """

    __slots__ = ("values", "keys", "event_times", "ingest_times", "sizes")

    def __init__(
        self,
        values: Optional[List[Any]] = None,
        keys: Optional[List[Any]] = None,
        event_times: Optional[List[float]] = None,
        ingest_times: Optional[List[float]] = None,
        sizes: Optional[List[Optional[int]]] = None,
    ) -> None:
        self.values: List[Any] = values if values is not None else []
        self.keys: List[Any] = keys if keys is not None else []
        self.event_times: List[float] = event_times if event_times is not None else []
        self.ingest_times: List[float] = ingest_times if ingest_times is not None else []
        self.sizes: List[Optional[int]] = sizes if sizes is not None else []

    # -- construction ----------------------------------------------------------------
    @classmethod
    def from_records(cls, records: Iterable[StreamRecord]) -> "ColumnBatch":
        """Decompose row views into columns.

        Cached sizes carry over verbatim; unobserved records stay deferred
        (``None``), exactly as they were on the record.
        """
        batch = cls()
        values = batch.values
        keys = batch.keys
        event_times = batch.event_times
        ingest_times = batch.ingest_times
        sizes = batch.sizes
        for record in records:
            values.append(record.value)
            keys.append(record.key)
            event_times.append(record.event_time)
            ingest_times.append(record.ingest_time)
            sizes.append(record._size)
        return batch

    def append(self, record: StreamRecord) -> None:
        """Append one row (a source fed record by record)."""
        self.values.append(record.value)
        self.keys.append(record.key)
        self.event_times.append(record.event_time)
        self.ingest_times.append(record.ingest_time)
        self.sizes.append(record._size)

    def extend_from_wire(self, batch, received_at: float, skip=None) -> int:
        """Ingest one fetched :class:`RecordBatch`; returns records ingested.

        When this ColumnBatch is empty and nothing must be skipped, the wire
        batch's ``values``/``keys``/``sizes``/``produced_ats`` columns are
        adopted wholesale (zero-copy — see the module docstring for the
        ownership contract).  ``skip`` holds offsets the consumer marked
        invisible (control markers, aborted transactions); those records
        must never enter the stream.
        """
        count = len(batch)
        if skip:
            base = batch.base_offset
            offsets = batch.offsets  # gapped (compacted-range) batches only
            values = self.values
            keys = self.keys
            event_times = self.event_times
            ingest_times = self.ingest_times
            sizes = self.sizes
            ingested = 0
            batch_keys = batch.keys
            batch_sizes = batch.sizes
            batch_produced = batch.produced_ats
            for index, value in enumerate(batch.values):
                offset = offsets[index] if offsets is not None else base + index
                if offset in skip:
                    continue
                values.append(value)
                keys.append(batch_keys[index])
                event_times.append(batch_produced[index])
                ingest_times.append(received_at)
                sizes.append(batch_sizes[index])
                ingested += 1
            return ingested
        if not self.values:
            # Adopt the reply's freshly-sliced columns outright.
            self.values = batch.values
            self.keys = batch.keys
            self.event_times = batch.produced_ats
            self.sizes = batch.sizes
            self.ingest_times = [received_at] * count
        else:
            self.values.extend(batch.values)
            self.keys.extend(batch.keys)
            self.event_times.extend(batch.produced_ats)
            self.sizes.extend(batch.sizes)
            self.ingest_times.extend([received_at] * count)
        return count

    def extend(self, other: "ColumnBatch") -> None:
        """Append another batch's columns, TAKING OWNERSHIP of them.

        When this batch is empty the other's column lists are adopted
        outright (and may be appended to later) — callers must relinquish
        ``other`` afterwards.  This is the partition-order merge used by
        ``MergingSource.drain`` over its children's drained (and thereby
        disowned) batches.
        """
        if not self.values:
            self.values = other.values
            self.keys = other.keys
            self.event_times = other.event_times
            self.ingest_times = other.ingest_times
            self.sizes = other.sizes
            return
        self.values.extend(other.values)
        self.keys.extend(other.keys)
        self.event_times.extend(other.event_times)
        self.ingest_times.extend(other.ingest_times)
        self.sizes.extend(other.sizes)

    @classmethod
    def concat(cls, batches: List["ColumnBatch"]) -> "ColumnBatch":
        """Non-destructive concatenation (window emission over live chunks).

        Unlike :meth:`extend`, never adopts or mutates an input's columns —
        a single-element input is returned as-is, anything longer is copied.
        """
        if len(batches) == 1:
            return batches[0]
        merged = cls()
        if not batches:
            return merged
        first = batches[0]
        merged.values = list(first.values)
        merged.keys = list(first.keys)
        merged.event_times = list(first.event_times)
        merged.ingest_times = list(first.ingest_times)
        merged.sizes = list(first.sizes)
        for batch in batches[1:]:
            merged.values.extend(batch.values)
            merged.keys.extend(batch.keys)
            merged.event_times.extend(batch.event_times)
            merged.ingest_times.extend(batch.ingest_times)
            merged.sizes.extend(batch.sizes)
        return merged

    # -- derivation helpers (used by columnar kernels) --------------------------------
    def derive(self, values: List[Any], keys: Optional[List[Any]] = None) -> "ColumnBatch":
        """A new batch with rewritten values (and optionally keys), same provenance.

        Size-carry: an output value that *is* the input value (identity
        rewrite) shares the parent's size state; anything else defers sizing
        until observed.
        """
        old_values = self.values
        sizes = [
            size if new is old else None
            for new, old, size in zip(values, old_values, self.sizes)
        ]
        return ColumnBatch(
            values=values,
            keys=keys if keys is not None else self.keys,
            event_times=self.event_times,
            ingest_times=self.ingest_times,
            sizes=sizes,
        )

    def take(self, indices: List[int]) -> "ColumnBatch":
        """Gather rows by index (filters, key-group regathering)."""
        values = self.values
        keys = self.keys
        event_times = self.event_times
        ingest_times = self.ingest_times
        sizes = self.sizes
        return ColumnBatch(
            values=[values[i] for i in indices],
            keys=[keys[i] for i in indices],
            event_times=[event_times[i] for i in indices],
            ingest_times=[ingest_times[i] for i in indices],
            sizes=[sizes[i] for i in indices],
        )

    # -- observation ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.values)

    def total_bytes(self) -> int:
        """Sum of record sizes, resolving (and caching) deferred entries.

        This is the micro-batch boundary's byte observation.
        """
        sizes = self.sizes
        try:
            return sum(sizes)
        except TypeError:
            pass
        values = self.values
        total = 0
        for index, size in enumerate(sizes):
            if size is None:
                size = estimate_size(values[index])
                sizes[index] = size
            total += size
        return total

    def size_at(self, index: int) -> int:
        """One record's size, resolving a deferred entry in place."""
        size = self.sizes[index]
        if size is None:
            size = estimate_size(self.values[index])
            self.sizes[index] = size
        return size

    def to_records(self) -> List[StreamRecord]:
        """Materialize per-record :class:`StreamRecord` objects.

        Observed sizes carry over verbatim; deferred entries stay deferred
        on the materialized record (sized lazily on first read, as always).
        """
        keys = self.keys
        event_times = self.event_times
        ingest_times = self.ingest_times
        sizes = self.sizes
        records: List[StreamRecord] = []
        append = records.append
        new = StreamRecord.__new__
        for index, value in enumerate(self.values):
            record = new(StreamRecord)
            record.value = value
            record.key = keys[index]
            record.event_time = event_times[index]
            record.ingest_time = ingest_times[index]
            record._size = sizes[index] or None
            append(record)
        return records

    def __repr__(self) -> str:
        return f"<ColumnBatch n={len(self.values)}>"
