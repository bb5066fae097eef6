"""Append-only partition logs (columnar, batch-native, segmented).

Each partition replica is backed by a :class:`PartitionLog`: an append-only
sequence of records with a *log end offset* (next offset to be written) and a
*high watermark* (highest offset known to be replicated to the in-sync
replica set; only records below it are visible to consumers).  Leader
failover and follower rejoin are implemented with epoch bookkeeping and
truncation, which is where the ZooKeeper-mode silent message loss comes from.

One layout (``docs/log_storage.md``)
------------------------------------
The log is an ordered list of :class:`~repro.broker.segment.Segment` objects
whose last element — the *head* — takes every append and never seals.  The
segment owns the columns (parallel arrays of keys/values/sizes/timestamps
rather than one record object per entry) and everything done to one
segment's rows; the log owns the list and the state *derived* from the rows.
The hot paths — :meth:`PartitionLog.append_batch` on produce,
:meth:`PartitionLog.read_batch` on fetch — move whole
:class:`~repro.broker.batch.RecordBatch` payloads with C-level list
extends/slices and compute sizes once from the batch header; the per-record
views (:class:`LogRecord`) are materialized only on the cold paths (tests,
truncation loss accounting, ``record_at`` debugging).

With a :class:`~repro.broker.segment.LogStorageConfig` the head *rolls* when
it reaches ``segment_records`` rows: it stays where it is in the list, now
sealed, and a fresh head opens at the next offset (O(1), nothing is copied).
Sealed segments are the unit of retention (whole-segment deletes advance
``log_start_offset``), key compaction (in-place rewrite keeping original
offsets), cold-tier eviction (columns dropped, faulted back from the segment
file on fetch) and recovery (:meth:`PartitionLog.recover` replays segment
files back into a full replica).  Without storage config the log never rolls
— one segment forever — and every read, scan, truncation and rebuild below
is the same code either way.

Derived state: one fold
-----------------------
The leader-epoch cache (``epoch_boundaries``), the per-producer dedup table
(``producer_state``, :class:`ProducerEntry`; see ``docs/exactly_once.md``) and
the transaction state (open transactions / LSO, ``aborted_ranges``,
``last_markers``) are a fold over the rows in offset order.  Its steps are
``_note_epoch``, ``_note_producer_batch``, ``_note_control`` and the
open-transaction mark; leader appends apply them once per batch from the
batch header, :meth:`PartitionLog._fold_rows` applies them to rows that
arrive as columns (replica fetches), and :meth:`PartitionLog._rebuild_derived`
— truncation and recovery — resets the state and folds every surviving
segment again.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.broker.batch import CONTROL_RECORD_SIZE, EMPTY_BATCH, RecordBatch
from repro.broker.segment import (
    LogRecord,
    LogStorageConfig,
    Segment,
    list_segment_files,
    segment_file_name,
)

_base_offset = attrgetter("base_offset")


class ProducerEntry:
    """Per-producer dedup state of one partition replica.

    Mirrors Kafka's producer state snapshot: the producer's current epoch,
    the sequence number of its last appended record, and the base offset /
    record count of its most recent batch (so a duplicate retry can be
    acknowledged with the *original* offsets).
    """

    __slots__ = ("epoch", "last_sequence", "last_base_offset", "last_count")

    def __init__(
        self,
        epoch: int,
        last_sequence: int,
        last_base_offset: int = -1,
        last_count: int = 0,
    ) -> None:
        self.epoch = epoch
        self.last_sequence = last_sequence
        self.last_base_offset = last_base_offset
        self.last_count = last_count

    def __repr__(self) -> str:
        return (
            f"<ProducerEntry epoch={self.epoch} last_seq={self.last_sequence} "
            f"last_base_offset={self.last_base_offset}>"
        )


class PartitionLog:
    """An append-only log for one replica of one partition."""

    def __init__(
        self,
        topic: str,
        partition: int = 0,
        storage: Optional[LogStorageConfig] = None,
        file_tag: str = "",
    ) -> None:
        self.topic = topic
        self.partition = partition
        #: Storage policy (None = never roll, no maintenance).
        self.storage = storage
        #: What this replica's segment file names start with; ``file_tag``
        #: distinguishes replicas of the same partition in a shared cold-tier
        #: directory (the broker passes its own name).
        self._file_stem = (
            f"{file_tag}-{topic}-{partition}" if file_tag else f"{topic}-{partition}"
        )
        #: Head roll threshold; 0 = never roll.
        self._seg_limit = (storage.segment_records or 0) if storage else 0
        #: Oldest first; the last one is the head.  Every earlier segment is
        #: sealed (immutable but for compaction and truncation).
        self._segments: List[Segment] = [Segment(0)]
        #: First offset still present anywhere in the log; advanced only by
        #: whole-segment retention deletes (compaction keeps boundaries).
        self._log_start = 0
        #: Segments sealed since the last compaction pass.
        self._dirty_sealed = 0
        #: Storage-plane counters (brokers fold these into their metrics).
        self.stats: Dict[str, int] = {
            "segments_sealed": 0,
            "segments_evicted": 0,
            "retention_records_dropped": 0,
            "compaction_records_removed": 0,
            "cold_loads": 0,
        }
        self.high_watermark = 0
        self.truncated_records = 0
        self._reset_derived()

    def _reset_derived(self) -> None:
        #: (epoch, start_offset) pairs, newest last — Kafka's leader epoch cache.
        self.epoch_boundaries: List[Tuple[int, int]] = []
        #: producer_id -> :class:`ProducerEntry`.
        self.producer_state: Dict[int, ProducerEntry] = {}
        #: producer_id -> first offset of its currently *open* transaction in
        #: this partition (removed when the end marker lands).  The Last
        #: Stable Offset is the earliest of these (capped by the HW).
        self._open_txn_first: Dict[int, int] = {}
        #: Aborted-transaction index: ``(first_offset, marker_offset,
        #: producer_id)`` per aborted transaction — what lets committed reads
        #: filter aborted records out without scanning the whole log.
        self.aborted_ranges: List[Tuple[int, int, int]] = []
        #: producer_id -> (epoch, marker, offset) of its latest control
        #: record; lets a leader acknowledge a retried marker write without
        #: appending it twice.
        self.last_markers: Dict[int, Tuple[int, str, int]] = {}

    # -- basic accessors ------------------------------------------------------------
    @property
    def log_end_offset(self) -> int:
        """The offset that the *next* appended record will receive."""
        return self._segments[-1].next_offset

    @property
    def log_start_offset(self) -> int:
        """First offset still held (> 0 once retention dropped segments)."""
        return self._log_start

    def __len__(self) -> int:
        return sum(segment.count for segment in self._segments)

    @property
    def size_bytes(self) -> int:
        """Bytes resident in memory (every segment not evicted).

        This is what the emulated broker's memory accounting charges; evicted
        cold-tier segments cost disk, not RAM.  Equals :attr:`total_size_bytes`
        until something is evicted.
        """
        return sum(
            segment.size_bytes for segment in self._segments if not segment.evicted
        )

    @property
    def total_size_bytes(self) -> int:
        """Bytes across all tiers, including evicted cold segments."""
        return sum(segment.size_bytes for segment in self._segments)

    @property
    def segment_count(self) -> int:
        """Sealed segments plus the head."""
        return len(self._segments)

    @property
    def sealed_segments(self) -> List[Segment]:
        return self._segments[:-1]

    # -- derived state: the fold ---------------------------------------------------------
    def _note_epoch(self, leader_epoch: int, start_offset: int) -> None:
        if self.epoch_boundaries and leader_epoch < self.epoch_boundaries[-1][0]:
            raise ValueError(
                f"appending with stale epoch {leader_epoch} < "
                f"{self.epoch_boundaries[-1][0]}"
            )
        if not self.epoch_boundaries or self.epoch_boundaries[-1][0] != leader_epoch:
            self.epoch_boundaries.append((leader_epoch, start_offset))

    def _note_producer_batch(
        self, producer_id: int, producer_epoch: int, base_sequence: int,
        count: int, base_offset: int,
    ) -> None:
        entry = self.producer_state.get(producer_id)
        last_sequence = base_sequence + count - 1
        if entry is None:
            self.producer_state[producer_id] = ProducerEntry(
                producer_epoch, last_sequence, base_offset, count
            )
            return
        entry.epoch = producer_epoch
        entry.last_sequence = last_sequence
        entry.last_base_offset = base_offset
        entry.last_count = count

    def _note_control(
        self, offset: int, marker: str, producer_id: int, producer_epoch: int
    ) -> None:
        """Fold one control record into LSO / abort-index / fencing state."""
        first = self._open_txn_first.pop(producer_id, None)
        if marker == "abort" and first is not None:
            self.aborted_ranges.append((first, offset, producer_id))
        self.last_markers[producer_id] = (producer_epoch, marker, offset)
        # A marker carries the coordinator's word on the producer's current
        # epoch: bump the dedup entry so a zombie's stale-epoch data batches
        # are fenced at this partition even before the successor produces.
        entry = self.producer_state.get(producer_id)
        if entry is None:
            self.producer_state[producer_id] = ProducerEntry(producer_epoch, -1)
        elif producer_epoch > entry.epoch:
            entry.epoch = producer_epoch
            entry.last_sequence = -1

    def _fold_rows(self, segment: Segment, start: int = 0) -> None:
        """Fold rows ``[start, count)`` of ``segment`` into the derived state
        (rows that arrived as columns: replica fetches, rebuilds)."""
        count = segment.count
        offset_at = segment.offset_at
        epochs = segment.epochs
        last = self.epoch_boundaries[-1][0] if self.epoch_boundaries else None
        for index in range(start, count):
            if epochs[index] != last:
                last = epochs[index]
                self._note_epoch(last, offset_at(index))
        producer_ids = segment.producer_ids
        if producer_ids is not None:
            # Contiguous same-producer runs fold as single batches, so the
            # ProducerEntry carries a real batch extent (last_base_offset /
            # last_count) — what lets a promoted follower echo original
            # offsets and bound the acks=all wait on a duplicate retry.
            producer_epochs = segment.producer_epochs
            sequences = segment.sequences
            offsets = segment.offsets
            index = start
            while index < count:
                producer_id = producer_ids[index]
                if producer_id < 0:
                    index += 1
                    continue
                first = index
                epoch = producer_epochs[index]
                while (
                    index + 1 < count
                    and producer_ids[index + 1] == producer_id
                    and producer_epochs[index + 1] == epoch
                    and sequences[index + 1] == sequences[index] + 1
                    and (offsets is None or offsets[index + 1] == offsets[index] + 1)
                ):
                    index += 1
                self._note_producer_batch(
                    producer_id, epoch, sequences[first], index - first + 1,
                    offset_at(first),
                )
                index += 1
        transactionals = segment.transactionals
        if transactionals is not None:
            # Markers and transaction opens replay in offset order, so a
            # promoted follower holds the same LSO, abort index and fencing
            # state as the old leader.
            controls = segment.controls
            for index in range(start, count):
                control = controls[index]
                if control is not None:
                    self._note_control(offset_at(index), *control)
                elif transactionals[index] and producer_ids is not None:
                    producer_id = producer_ids[index]
                    if producer_id >= 0:
                        self._open_txn_first.setdefault(producer_id, offset_at(index))

    def _rebuild_derived(self) -> None:
        """Recompute the derived state from the rows that survive (truncation
        rolls the dedup table and transactions back with the log; recovery
        starts from the segment files).  Cold path: faults every segment in.

        Batch extents are recoverable only as contiguous sequence runs — good
        enough for duplicate *detection*; the cached ack offsets only matter
        on a live leader, whose state is never rebuilt mid-flight.
        """
        self._reset_derived()
        for segment in self._segments:
            self._ensure_loaded(segment)
            self._fold_rows(segment)

    # -- transaction state ------------------------------------------------------------
    @property
    def has_transactions(self) -> bool:
        """True once any transactional record or control marker landed here
        (a transaction is open, or a marker closed one): lets the fetch path
        skip the invisibility scan otherwise."""
        return bool(self.last_markers or self._open_txn_first)

    @property
    def last_stable_offset(self) -> int:
        """First offset of the earliest open transaction, capped at the HW.

        With no open transaction this equals the high watermark — so the
        non-transactional read path is unchanged.  ``read_committed``
        consumers never fetch at or past this offset.
        """
        if not self._open_txn_first:
            return self.high_watermark
        return min(self.high_watermark, min(self._open_txn_first.values()))

    def open_txn_first_offset(self, producer_id: int) -> Optional[int]:
        return self._open_txn_first.get(producer_id)

    def invisible_offsets(
        self, from_offset: int, up_to: int, isolation: str
    ) -> Tuple[List[int], int]:
        """Offsets in ``[from_offset, up_to)`` a consumer must not observe.

        Control records are invisible to *every* consumer (Kafka never
        delivers them to clients); records of aborted transactions are
        additionally invisible under ``read_committed``.  Returns the sorted
        offset list plus their total payload bytes, so fetch accounting can
        exclude them.  Row lookups go through each segment's offset index,
        so compacted (gapped) segments need no special case.
        """
        if not self.has_transactions:
            return [], 0
        aborted = self.aborted_ranges if isolation == "read_committed" else ()
        skipped: List[int] = []
        bytes_skipped = 0
        for segment, start, end in self._row_ranges(from_offset, up_to):
            self._ensure_loaded(segment)
            controls = segment.controls
            if controls is None:
                continue
            hidden = [
                index for index in range(start, end) if controls[index] is not None
            ]
            transactionals = segment.transactionals
            producer_ids = segment.producer_ids
            if producer_ids is not None:
                for first, marker_offset, producer_id in aborted:
                    lo, hi = segment.index_range(first, marker_offset)
                    for index in range(max(lo, start), min(hi, end)):
                        if transactionals[index] and producer_ids[index] == producer_id:
                            hidden.append(index)
            hidden.sort()
            sizes = segment.sizes
            for index in hidden:
                skipped.append(segment.offset_at(index))
                bytes_skipped += sizes[index]
        return skipped, bytes_skipped

    # -- producer dedup table ---------------------------------------------------------
    def check_producer_batch(
        self,
        producer_id: int,
        producer_epoch: int,
        base_sequence: int,
        count: int = 1,
    ) -> str:
        """Dedup/fencing verdict for an incoming produce batch (pure decision).

        * ``"fenced"`` — the batch carries an epoch older than the producer's
          current one: a zombie instance superseded by a re-initialization.
        * ``"duplicate"`` — same epoch, every sequence of the batch at or
          below the last appended one: a retry of a batch this replica fully
          holds (batches are immutable across retries, so full overlap means
          identity).
        * ``"partial"`` — same epoch, the batch *starts* at or below the last
          appended sequence but runs past it.  Happens only when this replica
          holds a prefix of the batch (a replica fetch sliced mid-batch just
          before a failover): the prefix is a duplicate but the tail was
          never appended anywhere — the caller must append the tail, never
          ack the whole batch as a duplicate.
        * ``"ok"`` — everything else: the next batch, a gap left by an
          expired batch (sequences are consumed at drain time, so a
          delivery-timeout failure legitimately skips numbers), or a fresh
          epoch (which resets the sequence space).
        """
        entry = self.producer_state.get(producer_id)
        if entry is None:
            return "ok"
        if producer_epoch < entry.epoch:
            return "fenced"
        if producer_epoch == entry.epoch and base_sequence <= entry.last_sequence:
            if base_sequence + count - 1 <= entry.last_sequence:
                return "duplicate"
            return "partial"
        return "ok"

    def producer_entry(self, producer_id: int) -> Optional[ProducerEntry]:
        return self.producer_state.get(producer_id)

    # -- writes -----------------------------------------------------------------------
    def append(
        self,
        key: Any,
        value: Any,
        size: int,
        timestamp: float,
        produced_at: float,
        leader_epoch: int,
        headers: Optional[Dict[str, Any]] = None,
    ) -> LogRecord:
        """Append one record and return its view (offset assigned here)."""
        head = self._segments[-1]
        self._note_epoch(leader_epoch, head.next_offset)
        head.extend(
            [key], [value], [size], [timestamp], [produced_at], [leader_epoch], size,
            headers=[dict(headers)] if headers else None,
        )
        record = head.record_view(head.count - 1)
        self._maybe_roll(head)
        return record

    def append_batch(
        self, batch: RecordBatch, timestamp: float, leader_epoch: int
    ) -> int:
        """Append a whole produce batch under one epoch; returns its base offset.

        This is the leader-side hot path: the fold steps run once from the
        batch header, the columns grow by C-level extends, and the size is
        accounted once from the header.  Produce batches are never split
        across segments: the head rolls *after* the whole batch landed (so a
        segment may exceed ``segment_records`` by one batch).
        """
        head = self._segments[-1]
        base_offset = head.next_offset
        count = len(batch)
        if count == 0:
            return base_offset
        self._note_epoch(leader_epoch, base_offset)
        producer_id = batch.producer_id
        producer_ids = producer_epochs = sequences = transactionals = controls = None
        if producer_id >= 0:
            base_sequence = batch.base_sequence
            self._note_producer_batch(
                producer_id, batch.producer_epoch, base_sequence, count, base_offset
            )
            producer_ids = [producer_id] * count
            producer_epochs = [batch.producer_epoch] * count
            sequences = range(base_sequence, base_sequence + count)
            if batch.transactional:
                transactionals = [True] * count
                controls = [None] * count
                self._open_txn_first.setdefault(producer_id, base_offset)
        head.extend(
            batch.keys, batch.values, batch.sizes, [timestamp] * count,
            batch.produced_ats, [leader_epoch] * count, batch.total_size,
            batch.headers, producer_ids, producer_epochs, sequences,
            transactionals, controls,
        )
        self._maybe_roll(head)
        return base_offset

    def append_control(
        self,
        producer_id: int,
        producer_epoch: int,
        marker: str,
        timestamp: float,
        leader_epoch: int,
    ) -> int:
        """Append one COMMIT/ABORT control record; returns its offset.

        Control records live in the log like data records (so they replicate
        and survive elections) but are invisible to consumers.  Landing one
        closes the producer's open transaction here: the LSO advances, and an
        abort marker files the transaction's range in the abort index.
        """
        head = self._segments[-1]
        offset = head.next_offset
        self._note_epoch(leader_epoch, offset)
        head.extend(
            [None], [marker], [CONTROL_RECORD_SIZE], [timestamp], [timestamp],
            [leader_epoch], CONTROL_RECORD_SIZE,
            transactionals=[False],
            controls=[(marker, producer_id, producer_epoch)],
        )
        self._note_control(offset, marker, producer_id, producer_epoch)
        self._maybe_roll(head)
        return offset

    def append_wire_batch(self, batch: RecordBatch) -> int:
        """Append a batch fetched from a leader (replication path).

        The batch may overlap records we already hold (the follower refetches
        from its LEO after a timeout); the already-present prefix is skipped.
        A *gapped* batch — compacted ranges ship per-record ``offsets``, and
        a retention-advanced leader may answer above the follower's LEO — is
        adopted with a forced roll: the head restarts at the batch's base, so
        the follower holds the same records at the same offsets with a
        segment boundary where the leader had the gap.  A log configured
        never to roll (no storage) refuses it: there a gap is corruption.
        Returns the number of records actually appended.
        """
        if batch.offsets is not None:
            return self._append_wire_gapped(batch)
        head = self._segments[-1]
        leo = head.next_offset
        if batch.base_offset > leo:
            self._begin_head_at(batch.base_offset)
            head = self._segments[-1]
        elif batch.base_offset < leo:
            batch = batch.tail(leo - batch.base_offset)
        count = len(batch)
        if count == 0:
            return 0
        transactionals, controls = batch.transactionals, batch.controls
        if transactionals is not None or controls is not None:
            transactionals = transactionals or [False] * count
            controls = controls or [None] * count
        epochs = batch.leader_epochs
        start = head.count
        head.extend(
            batch.keys, batch.values, batch.sizes,
            batch.timestamps if batch.timestamps is not None else batch.produced_ats,
            batch.produced_ats,
            epochs if epochs is not None else [batch.leader_epoch] * count,
            batch.total_size,
            batch.headers,
            batch.producer_ids, batch.producer_epochs, batch.sequences,
            transactionals, controls,
        )
        self._fold_rows(head, start)
        self._maybe_roll(head)
        return count

    def _append_wire_gapped(self, batch: RecordBatch) -> int:
        """Replicate a gapped (compacted-range) batch: split it into its
        contiguous runs and append each, rolling across the gaps."""
        offsets = batch.offsets
        total = len(offsets)
        appended = 0
        start = 0
        while start < total:
            end = start + 1
            while end < total and offsets[end] == offsets[end - 1] + 1:
                end += 1
            run = batch.run(start, end)
            if run.next_offset > self.log_end_offset:
                appended += self.append_wire_batch(run)
            start = end
        return appended

    # -- segment lifecycle -------------------------------------------------------------
    def _maybe_roll(self, head: Segment) -> None:
        if self._seg_limit and head.count >= self._seg_limit:
            self._seal_head()

    def _seal_head(self) -> None:
        """Roll: the head stays in place as a sealed segment and a fresh head
        opens at the next offset.  O(1) in the record count."""
        head = self._segments[-1]
        if head.count == 0:
            return
        head.max_timestamp = max(head.timestamps[0], head.timestamps[-1])
        self._segments.append(Segment(head.next_offset))
        self._dirty_sealed += 1
        self.stats["segments_sealed"] += 1
        storage = self.storage
        if storage is not None and storage.segment_dir is not None:
            name = segment_file_name(self._file_stem, head.base_offset)
            head.write_file(f"{storage.segment_dir}/{name}")

    def _begin_head_at(self, offset: int) -> None:
        """Seal whatever the head holds and restart it at ``offset`` (replica
        adopting a leader's retention/compaction gap)."""
        if self.storage is None:
            raise ValueError(
                f"non-contiguous append: expected offset {self.log_end_offset}, "
                f"got {offset}"
            )
        self._seal_head()
        if len(self._segments) == 1:
            self._log_start = max(self._log_start, offset)
        head = self._segments[-1]
        head.base_offset = head.next_offset = offset

    def _ensure_loaded(self, segment: Segment) -> None:
        """Fault an evicted segment's columns back in from the cold tier."""
        if not segment.evicted:
            return
        segment.load()
        self.stats["cold_loads"] += 1
        retention_bytes = self.storage.retention_bytes
        if retention_bytes is not None:
            # A consumer scanning cold history must not re-inflate the hot
            # tier between maintenance passes: push other resident segments
            # back out so (at worst) only the faulted segment stays hot.
            self._evict_down_to(retention_bytes, spare=segment)

    def _evict_down_to(
        self, retention_bytes: int, spare: Optional[Segment] = None
    ) -> None:
        """Cold tier: evict oldest sealed segments (columns only — the data
        stays readable via fault-in) until hot memory fits the bound."""
        hot = self.size_bytes
        for segment in self._segments[:-1]:
            if hot <= retention_bytes:
                break
            if segment.evicted or segment is spare:
                continue
            segment.evict()
            hot -= segment.size_bytes
            self.stats["segments_evicted"] += 1

    # -- maintenance: retention / compaction / eviction ---------------------------------
    def maybe_maintain(self, now: float) -> bool:
        """One storage-maintenance pass (brokers call this after appends);
        False when the log has no storage policy and so nothing to maintain.

        Order matters: compaction first (it shrinks segments, so retention
        sees real sizes), then time retention (deletes), then the size bound
        (deletes without a cold tier, evicts with one).
        """
        storage = self.storage
        if storage is None:
            return False
        if (
            storage.cleanup_policy == "compact"
            and self._dirty_sealed >= storage.compaction_min_segments
        ):
            self.compact()
        segments = self._segments
        retention_seconds = storage.retention_seconds
        if retention_seconds is not None:
            # Whole sealed segments whose newest append is older than the
            # cutoff go (cold-tier files included); the head never does.
            cutoff = now - retention_seconds
            while len(segments) > 1 and segments[0].max_timestamp < cutoff:
                self._drop_oldest()
        retention_bytes = storage.retention_bytes
        if retention_bytes is not None:
            if storage.segment_dir is not None:
                self._evict_down_to(retention_bytes)
            else:
                while len(segments) > 1 and self.total_size_bytes > retention_bytes:
                    self._drop_oldest()
        return True

    def _drop_oldest(self) -> None:
        segment = self._segments.pop(0)
        self.stats["retention_records_dropped"] += segment.count
        segment.delete_file()
        self._log_start = self._segments[0].base_offset
        self._dirty_sealed = min(self._dirty_sealed, len(self._segments) - 1)

    def compact(self) -> int:
        """Key-compact the sealed segments; returns records removed.

        Deterministic single pass over the sealed tier (the head is never
        compacted): for every key, only its *latest* data record below the
        uncleanable bound survives.  Also retained, so log semantics are
        preserved across the rewrite:

        * control records (COMMIT/ABORT markers) — the LSO/abort replay on
          followers and recovery needs them;
        * each producer's latest-sequence record — the dedup table rebuilt
          from the columns must not regress (aborted records count here too,
          exactly as their sequences counted when first appended);
        * every record at or past the uncleanable bound (the earliest still
          open transaction — Kafka's cleaner also stops at the LSO).

        Retained rows keep their original offsets via the per-segment offset
        index; segment boundaries never move, so ``log_start_offset`` is
        unaffected and followers see stable epochs.  Rows of *aborted*
        transactions lose latest-per-key eligibility entirely (a committed
        read must never resurrect them) and survive only as producer-state
        carriers, still masked by ``aborted_ranges``.
        """
        sealed = self._segments[:-1]
        self._dirty_sealed = 0
        for segment in sealed:
            # Both passes below need every sealed segment resident, so no
            # push-back eviction here; the size bound is re-applied by the
            # eviction step that follows compaction in a maintenance pass.
            if segment.evicted:
                segment.load()
                self.stats["cold_loads"] += 1
        uncleanable = (
            min(self._open_txn_first.values()) if self._open_txn_first else None
        )
        aborted_by_producer: Dict[int, List[Tuple[int, int]]] = {}
        for first, marker_offset, producer_id in self.aborted_ranges:
            aborted_by_producer.setdefault(producer_id, []).append(
                (first, marker_offset)
            )

        def is_aborted(producer_id: int, offset: int) -> bool:
            for first, marker_offset in aborted_by_producer.get(producer_id, ()):
                if first <= offset < marker_offset:
                    return True
            return False

        latest_by_key: Dict[Any, int] = {}
        latest_by_producer: Dict[int, int] = {}
        for segment in sealed:
            controls = segment.controls
            producer_ids = segment.producer_ids
            keys = segment.keys
            for index in range(segment.count):
                offset = segment.offset_at(index)
                if uncleanable is not None and offset >= uncleanable:
                    break
                if controls is not None and controls[index] is not None:
                    continue
                producer_id = producer_ids[index] if producer_ids is not None else -1
                if producer_id >= 0:
                    latest_by_producer[producer_id] = offset
                    if is_aborted(producer_id, offset):
                        continue
                latest_by_key[keys[index]] = offset
        removed = 0
        for segment in sealed:
            controls = segment.controls
            producer_ids = segment.producer_ids
            keys = segment.keys
            keep: List[int] = []
            for index in range(segment.count):
                offset = segment.offset_at(index)
                if uncleanable is not None and offset >= uncleanable:
                    keep.append(index)
                    continue
                if controls is not None and controls[index] is not None:
                    keep.append(index)
                    continue
                producer_id = producer_ids[index] if producer_ids is not None else -1
                if producer_id >= 0 and latest_by_producer.get(producer_id) == offset:
                    keep.append(index)
                    continue
                if (
                    latest_by_key.get(keys[index]) == offset
                    and not (producer_id >= 0 and is_aborted(producer_id, offset))
                ):
                    keep.append(index)
            if len(keep) == segment.count:
                continue
            removed += segment.count - len(keep)
            segment.rewrite(keep)
            if not keep:
                # An emptied segment's boundary range is simply absorbed by
                # its neighbours; the log start never advances on compaction.
                self._segments.remove(segment)
                segment.delete_file()
        self.stats["compaction_records_removed"] += removed
        return removed

    # -- recovery -----------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        topic: str,
        partition: int,
        storage: LogStorageConfig,
        file_tag: str = "",
    ) -> "PartitionLog":
        """Bootstrap a replica by replaying its cold-tier segment files.

        Loads every segment file in base-offset order as the sealed tier,
        opens a fresh head behind it, then rebuilds the derived state with
        the same fold follower replication runs — so the recovered log is
        indistinguishable from one that replicated every record.  The high
        watermark restarts at 0 (the recovered replica re-learns it from the
        leader, exactly like a follower rejoining after an outage).
        """
        if storage.segment_dir is None:
            raise ValueError("recovery needs a cold tier (segment_dir unset)")
        log = cls(topic, partition, storage=storage, file_tag=file_tag)
        sealed = [
            Segment.from_file(path)
            for path in list_segment_files(storage.segment_dir, log._file_stem)
        ]
        if sealed:
            log._segments = sealed + [Segment(sealed[-1].next_offset)]
            log._log_start = sealed[0].base_offset
            log._rebuild_derived()
        return log

    # -- reads -------------------------------------------------------------------------
    def _row_ranges(
        self, from_offset: int, up_to: Optional[int]
    ) -> Iterator[Tuple[Segment, int, int]]:
        """``(segment, start, end)`` for every segment holding rows with
        offsets in ``[from_offset, up_to)``, in offset order; the first one is
        located by bisect over the base offsets."""
        segments = self._segments
        head = segments[-1]
        limit = head.next_offset
        if up_to is not None and up_to < limit:
            limit = up_to
        if from_offset < self._log_start:
            from_offset = self._log_start
        if from_offset >= head.base_offset:
            first = len(segments) - 1
        else:
            first = max(0, bisect_right(segments, from_offset, key=_base_offset) - 1)
        for position in range(first, len(segments)):
            segment = segments[position]
            if segment.base_offset >= limit:
                return
            start, end = segment.index_range(from_offset, limit)
            if start < end:
                yield segment, start, end

    def read_batch(
        self,
        from_offset: int,
        max_records: Optional[int] = None,
        up_to: Optional[int] = None,
        with_epochs: bool = False,
    ) -> RecordBatch:
        """Read a contiguous range as one columnar :class:`RecordBatch`.

        This is the fetch-side hot path: column slices plus one size sum over
        ints — no per-record objects.  A read is served from *one* segment
        per call: fetch replies stop at segment boundaries and the consumer's
        next poll continues in the following segment, mirroring Kafka's
        one-segment fetch answers.
        """
        for segment, start, end in self._row_ranges(from_offset, up_to):
            if max_records is not None and end - start > max_records:
                end = start + max_records
                if end <= start:
                    break
            self._ensure_loaded(segment)
            return segment.batch(self.topic, self.partition, start, end, with_epochs)
        return EMPTY_BATCH

    def committed_read_batch(
        self, from_offset: int, max_records: Optional[int] = None
    ) -> RecordBatch:
        """Batch read of records below the high watermark (consumer rule)."""
        return self.read_batch(
            from_offset, max_records=max_records, up_to=self.high_watermark
        )

    def read(
        self,
        from_offset: int,
        max_records: Optional[int] = None,
        up_to: Optional[int] = None,
    ) -> List[LogRecord]:
        """Read records starting at ``from_offset`` as materialized views."""
        records: List[LogRecord] = []
        for segment, start, end in self._row_ranges(from_offset, up_to):
            if max_records is not None:
                end = min(end, start + max_records - len(records))
            self._ensure_loaded(segment)
            records.extend(segment.record_view(index) for index in range(start, end))
            if max_records is not None and len(records) >= max_records:
                break
        return records

    def committed_read(
        self, from_offset: int, max_records: Optional[int] = None
    ) -> List[LogRecord]:
        """Read only records below the high watermark (consumer visibility rule)."""
        return self.read(from_offset, max_records=max_records, up_to=self.high_watermark)

    def record_at(self, offset: int) -> Optional[LogRecord]:
        for segment, start, _end in self._row_ranges(offset, offset + 1):
            self._ensure_loaded(segment)
            return segment.record_view(start)
        return None

    def all_records(self) -> List[LogRecord]:
        return self.read(self._log_start)

    # -- watermark / truncation ------------------------------------------------------------
    def advance_high_watermark(self, offset: int) -> None:
        """Move the high watermark forward (never backwards) up to the log end."""
        self.high_watermark = max(self.high_watermark, min(offset, self.log_end_offset))

    def set_high_watermark(self, offset: int) -> None:
        """Force the high watermark (used by followers applying the leader's value)."""
        self.high_watermark = min(offset, self.log_end_offset)

    def truncate_to(self, offset: int) -> List[LogRecord]:
        """Discard every record at or beyond ``offset``.

        Returns the discarded records.  This is the mechanism behind the
        silent message loss observed with ZooKeeper-based Kafka: a stale
        leader that accepted writes during a partition truncates them away
        when it rejoins and follows the new leader.  Segments wholly beyond
        the cut are dropped (files included), the one the cut lands in keeps
        its rows below it, and if that was a sealed segment a fresh head
        opens at the cut.
        """
        segments = self._segments
        head = segments[-1]
        if offset >= head.next_offset:
            return []
        offset = max(offset, self._log_start)
        position = len(segments)
        while position and segments[position - 1].next_offset > offset:
            position -= 1
        # Out of the list first: fault-in below may push resident segments
        # back out, and must only ever see segments that keep their files.
        beyond = segments[position:]
        del segments[position:]
        discarded: List[LogRecord] = []
        for segment in beyond:
            self._ensure_loaded(segment)
            cut, _ = segment.index_range(offset, segment.next_offset)
            discarded.extend(
                segment.record_view(index) for index in range(cut, segment.count)
            )
            if cut > 0:
                segment.cut_tail(cut, offset)
                segments.append(segment)
            else:
                segment.delete_file()
        if not segments or segments[-1] is not head:
            segments.append(Segment(offset))
        self._dirty_sealed = min(self._dirty_sealed, len(segments) - 1)
        self.truncated_records += len(discarded)
        self.high_watermark = min(self.high_watermark, offset)
        self._rebuild_derived()
        return discarded

    def __repr__(self) -> str:
        return (
            f"<PartitionLog {self.topic}-{self.partition} "
            f"leo={self.log_end_offset} hw={self.high_watermark}>"
        )
