"""Model-based oracle for :class:`~repro.broker.log.PartitionLog`.

A hypothesis ``RuleBasedStateMachine`` drives one log through arbitrary
interleavings of its operations — leader appends (plain, idempotent,
transactional), producer retries through the dedup gate, COMMIT/ABORT
markers, forced rolls via small ``segment_records``, maintenance passes with
retention / compaction / cold-tier eviction, fault-in reads, truncation into
the head *and* into sealed segments, and ``recover()`` from the segment
files — and compares it after every step against :class:`ReferenceLog`: a
plain list of rows plus a few dicts, whose derived state is one per-row fold
and whose rebuild is "reset, fold every surviving row".

The reference is deliberately naive (every check is a full scan); what it
shares with the log is only the *policy*: which rows a compaction pass keeps,
which whole segments retention drops, and that truncation and recovery
rebuild the derived state from the rows that survive.
"""

import tempfile
from collections import namedtuple

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.broker.batch import CONTROL_RECORD_SIZE, RecordBatch
from repro.broker.log import PartitionLog
from repro.broker.segment import LogStorageConfig

Row = namedtuple(
    "Row", "offset key value size timestamp epoch pid pepoch seq txn control"
)

PRODUCERS = (1, 2)
KEYS = ("k0", "k1", "k2", "k3")
RECORD_SIZE = 10


class ReferenceLog:
    """What a partition log *means*: rows, segment boundaries, folded dicts."""

    def __init__(self, storage):
        self.storage = storage
        self.rows = []
        #: Sealed segments, oldest first: ``[base, next, max_timestamp]``.
        self.sealed = []
        self.head_base = 0
        self.log_start = 0
        self.log_end = 0
        self.high_watermark = 0
        self.dirty = 0
        self.reset_derived()

    # -- derived state: one fold, one rebuild ---------------------------------------
    def reset_derived(self):
        self.epochs = []
        self.producers = {}
        self.open = {}
        self.aborted = []
        self.markers = {}

    def fold(self, row):
        if not self.epochs or self.epochs[-1][0] != row.epoch:
            self.epochs.append((row.epoch, row.offset))
        if row.control is not None:
            marker, pid, pepoch = row.control
            first = self.open.pop(pid, None)
            if marker == "abort" and first is not None:
                self.aborted.append((first, row.offset, pid))
            self.markers[pid] = (pepoch, marker, row.offset)
            entry = self.producers.get(pid)
            if entry is None or pepoch > entry[0]:
                self.producers[pid] = (pepoch, -1)
        elif row.pid >= 0:
            self.producers[row.pid] = (row.pepoch, row.seq)
            if row.txn:
                self.open.setdefault(row.pid, row.offset)

    def rebuild(self):
        self.reset_derived()
        for row in self.rows:
            self.fold(row)

    # -- appends ---------------------------------------------------------------------
    def append(self, rows):
        for row in rows:
            assert row.offset == self.log_end
            self.rows.append(row)
            self.fold(row)
            self.log_end += 1
        head = [row for row in self.rows if row.offset >= self.head_base]
        if len(head) >= self.storage.segment_records:
            self.sealed.append(
                [
                    self.head_base,
                    self.log_end,
                    max(head[0].timestamp, head[-1].timestamp),
                ]
            )
            self.head_base = self.log_end
            self.dirty += 1

    def verdict(self, pid, pepoch, base_seq, count):
        entry = self.producers.get(pid)
        if entry is None:
            return "ok"
        epoch, last = entry
        if pepoch < epoch:
            return "fenced"
        if pepoch == epoch and base_seq <= last:
            return "duplicate" if base_seq + count - 1 <= last else "partial"
        return "ok"

    # -- visibility ------------------------------------------------------------------
    @property
    def last_stable_offset(self):
        return min([self.high_watermark] + list(self.open.values()))

    def is_aborted(self, row):
        return row.txn and any(
            pid == row.pid and first <= row.offset < marker
            for first, marker, pid in self.aborted
        )

    def visible(self, isolation):
        if isolation == "read_committed":
            limit = self.last_stable_offset
        else:
            limit = self.high_watermark
        return [
            row
            for row in self.rows
            if row.offset < limit
            and row.control is None
            and not (isolation == "read_committed" and self.is_aborted(row))
        ]

    # -- maintenance -----------------------------------------------------------------
    def total_bytes(self):
        return sum(row.size for row in self.rows)

    def drop_oldest(self):
        _, next_offset, _ = self.sealed.pop(0)
        self.rows = [row for row in self.rows if row.offset >= next_offset]
        self.log_start = self.sealed[0][0] if self.sealed else self.head_base
        self.dirty = min(self.dirty, len(self.sealed))

    def maintain(self, now):
        storage = self.storage
        if (
            storage.cleanup_policy == "compact"
            and self.dirty >= storage.compaction_min_segments
        ):
            self.compact()
        if storage.retention_ms is not None:
            cutoff = now - storage.retention_ms / 1000.0
            while self.sealed and self.sealed[0][2] < cutoff:
                self.drop_oldest()
        if storage.retention_bytes is not None and storage.segment_dir is None:
            while self.sealed and self.total_bytes() > storage.retention_bytes:
                self.drop_oldest()

    def compact(self):
        """Latest value per key over the sealed rows below the earliest open
        transaction; markers, each producer's newest row and everything at
        or past that bound survive; aborted rows never win a key."""
        self.dirty = 0
        bound = min([self.head_base] + list(self.open.values()))
        latest_key, latest_pid = {}, {}
        for row in self.rows:
            if row.offset >= bound or row.control is not None:
                continue
            if row.pid >= 0:
                latest_pid[row.pid] = row.offset
                if self.is_aborted(row):
                    continue
            latest_key[row.key] = row.offset
        self.rows = [
            row
            for row in self.rows
            if row.offset >= bound
            or row.control is not None
            or latest_pid.get(row.pid) == row.offset
            or latest_key.get(row.key) == row.offset
        ]
        self.sealed = [
            segment for segment in self.sealed if self.rows_in(segment)
        ]

    def rows_in(self, segment):
        return [row for row in self.rows if segment[0] <= row.offset < segment[1]]

    # -- truncation / recovery ---------------------------------------------------------
    def truncate(self, offset):
        if offset >= self.log_end:
            return []
        offset = max(offset, self.log_start)
        discarded = [row for row in self.rows if row.offset >= offset]
        self.rows = [row for row in self.rows if row.offset < offset]
        if offset < self.head_base:
            kept = []
            for segment in self.sealed:
                if segment[1] > offset:
                    segment[1] = offset
                if self.rows_in(segment):
                    kept.append(segment)
            self.sealed = kept
            self.head_base = offset
            self.dirty = min(self.dirty, len(kept))
        self.log_end = offset
        self.high_watermark = min(self.high_watermark, offset)
        self.rebuild()
        return discarded

    def recover(self):
        """Only what reached a segment file survives; the head is lost."""
        self.rows = [row for row in self.rows if row.offset < self.head_base]
        self.log_end = self.head_base = self.sealed[-1][1] if self.sealed else 0
        self.log_start = self.sealed[0][0] if self.sealed else 0
        self.high_watermark = 0
        self.dirty = 0
        self.rebuild()


storage_configs = st.builds(
    dict,
    segment_records=st.sampled_from([3, 5, 8]),
    cleanup_policy=st.sampled_from(["delete", "compact"]),
    retention_bytes=st.sampled_from([None, 120, 300]),
    retention_ms=st.sampled_from([None, 15_000.0]),
    compaction_min_segments=st.sampled_from([1, 2]),
    cold=st.booleans(),
    # Maintenance after every append, as a broker runs it, or only when the
    # ``maintain`` rule fires.
    eager=st.booleans(),
)


class PartitionLogMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = tempfile.TemporaryDirectory(prefix="log-model-")

    def teardown(self):
        self.directory.cleanup()

    @initialize(config=storage_configs)
    def create(self, config):
        cold = config.pop("cold")
        self.eager = config.pop("eager")
        self.storage = LogStorageConfig(
            segment_dir=self.directory.name if cold else None, **config
        )
        self.log = PartitionLog("t", 0, storage=self.storage, file_tag="b0")
        self.model = ReferenceLog(self.storage)
        self.now = 0.0
        self.leader_epoch = 0
        self.serial = 0
        #: Client side of each producer: current epoch, next sequence, and the
        #: last batch it sent (what a retry resends, sequences unchanged).
        self.pepoch = {pid: 0 for pid in PRODUCERS}
        self.next_seq = {pid: 0 for pid in PRODUCERS}
        self.last_sent = {}

    # -- helpers ---------------------------------------------------------------------
    @property
    def evicting(self):
        storage = self.storage
        return storage.segment_dir is not None and storage.retention_bytes is not None

    def tick(self):
        self.now += 1.0
        return self.now

    def submit(self, pid, pepoch, base_seq, keys, values, txn):
        """The broker's produce gate: dedup verdict, then append what is new."""
        count = len(keys)
        verdict = self.log.check_producer_batch(pid, pepoch, base_seq, count)
        assert verdict == self.model.verdict(pid, pepoch, base_seq, count)
        if verdict == "partial":
            skip = self.model.producers[pid][1] - base_seq + 1
            base_seq, keys, values = base_seq + skip, keys[skip:], values[skip:]
        elif verdict != "ok":
            return
        timestamp = self.tick()
        batch = RecordBatch(
            "t", 0, producer_id=pid, producer_epoch=pepoch, base_sequence=base_seq
        )
        batch.transactional = txn
        for key, value in zip(keys, values):
            batch.append(key, value, RECORD_SIZE, timestamp)
        base = self.log.append_batch(
            batch, timestamp=timestamp, leader_epoch=self.leader_epoch
        )
        assert base == self.model.log_end
        self.appended(
            [
                Row(
                    base + index, key, value, RECORD_SIZE, timestamp,
                    self.leader_epoch, pid, pepoch, base_seq + index, txn, None,
                )
                for index, (key, value) in enumerate(zip(keys, values))
            ]
        )

    def appended(self, rows):
        self.model.append(rows)
        if self.eager:
            self.maintain(idle=0.0)

    def fresh_values(self, count):
        values = [f"v{self.serial + index}" for index in range(count)]
        self.serial += count
        return values

    # -- rules -----------------------------------------------------------------------
    @rule(keys=st.lists(st.sampled_from(KEYS), min_size=1, max_size=4))
    def append_plain_batch(self, keys):
        timestamp = self.tick()
        values = self.fresh_values(len(keys))
        batch = RecordBatch("t", 0)
        for key, value in zip(keys, values):
            batch.append(key, value, RECORD_SIZE, timestamp)
        base = self.log.append_batch(
            batch, timestamp=timestamp, leader_epoch=self.leader_epoch
        )
        self.appended(
            [
                Row(
                    base + index, key, value, RECORD_SIZE, timestamp,
                    self.leader_epoch, -1, -1, -1, False, None,
                )
                for index, (key, value) in enumerate(zip(keys, values))
            ]
        )

    @rule(key=st.sampled_from(KEYS))
    def append_single(self, key):
        timestamp = self.tick()
        (value,) = self.fresh_values(1)
        record = self.log.append(
            key=key, value=value, size=RECORD_SIZE, timestamp=timestamp,
            produced_at=timestamp, leader_epoch=self.leader_epoch,
        )
        assert record.offset == self.model.log_end
        self.appended(
            [
                Row(
                    record.offset, key, value, RECORD_SIZE, timestamp,
                    self.leader_epoch, -1, -1, -1, False, None,
                )
            ]
        )

    @rule(
        pid=st.sampled_from(PRODUCERS),
        keys=st.lists(st.sampled_from(KEYS), min_size=1, max_size=4),
        txn=st.booleans(),
    )
    def produce(self, pid, keys, txn):
        # A producer inside a transaction sends transactional batches only.
        txn = txn or pid in self.model.open
        values = self.fresh_values(len(keys))
        sent = (pid, self.pepoch[pid], self.next_seq[pid], keys, values, txn)
        self.next_seq[pid] += len(keys)
        self.last_sent[pid] = sent
        self.submit(*sent)

    @precondition(lambda self: self.last_sent)
    @rule(data=st.data())
    def retry(self, data):
        """Resend a producer's last batch verbatim: a duplicate while the log
        still holds it, re-appended (whole or tail) once truncation or
        recovery took it away."""
        pid = data.draw(st.sampled_from(sorted(self.last_sent)))
        self.submit(*self.last_sent[pid])

    @rule(pid=st.sampled_from(PRODUCERS))
    def reinitialize_producer(self, pid):
        self.pepoch[pid] += 1
        self.next_seq[pid] = 0

    @rule(pid=st.sampled_from(PRODUCERS), marker=st.sampled_from(["commit", "abort"]))
    def end_transaction(self, pid, marker):
        timestamp = self.tick()
        offset = self.log.append_control(
            pid, self.pepoch[pid], marker,
            timestamp=timestamp, leader_epoch=self.leader_epoch,
        )
        assert offset == self.model.log_end
        self.appended(
            [
                Row(
                    offset, None, marker, CONTROL_RECORD_SIZE, timestamp,
                    self.leader_epoch, -1, -1, -1, False,
                    (marker, pid, self.pepoch[pid]),
                )
            ]
        )

    @rule()
    def elect_leader(self):
        self.leader_epoch += 1

    @rule(fraction=st.floats(min_value=0.0, max_value=1.0))
    def advance_high_watermark(self, fraction):
        target = int(self.model.log_end * fraction)
        self.log.advance_high_watermark(target)
        self.model.high_watermark = max(self.model.high_watermark, target)

    @rule(idle=st.sampled_from([0.0, 5.0, 30.0]))
    def maintain(self, idle):
        self.now += idle
        self.log.maybe_maintain(self.now)
        self.model.maintain(self.now)
        if self.evicting:
            # Cold tier: the hot set is within the bound, or down to the head.
            head_bytes = sum(
                row.size for row in self.model.rows
                if row.offset >= self.model.head_base
            )
            assert self.log.size_bytes <= max(
                self.storage.retention_bytes, head_bytes
            )

    @rule(fraction=st.floats(min_value=0.0, max_value=1.0))
    def truncate(self, fraction):
        """Cut anywhere between the log start and the end — inside the head
        or, once the log rolled, inside a sealed (perhaps evicted) segment."""
        span = self.model.log_end - self.model.log_start
        offset = self.model.log_start + int(span * fraction)
        discarded = self.log.truncate_to(offset)
        expected = self.model.truncate(offset)
        assert [(r.offset, r.value) for r in discarded] == [
            (row.offset, row.value) for row in expected
        ]

    @precondition(lambda self: self.storage.segment_dir is not None)
    @rule()
    def recover(self):
        self.log = PartitionLog.recover("t", 0, self.storage, file_tag="b0")
        self.model.recover()

    @precondition(lambda self: self.model.rows)
    @rule(data=st.data())
    def fault_in_read(self, data):
        """Point lookup anywhere in the log (faults evicted segments in)."""
        offset = data.draw(
            st.integers(self.model.log_start, max(self.model.log_end - 1, 0))
        )
        record = self.log.record_at(offset)
        expected = [row for row in self.model.rows if row.offset == offset]
        if not expected:
            assert record is None
            return
        (row,) = expected
        assert (record.key, record.value, record.size, record.leader_epoch) == (
            row.key, row.value, row.size, row.epoch,
        )
        assert (record.producer_id, record.producer_epoch, record.sequence) == (
            row.pid, row.pepoch, row.seq,
        )

    # -- the comparison, after every step ----------------------------------------------
    def scan(self, up_to, isolation=None):
        """Consume ``[log_start, up_to)`` the way a fetch session does,
        dropping what ``isolation`` hides (``None``: every row present)."""
        seen = []
        offset = self.log.log_start_offset
        while True:
            batch = self.log.read_batch(offset, max_records=3, up_to=up_to)
            if not len(batch):
                return seen
            skipped, skipped_bytes = [], 0
            if isolation is not None:
                skipped, skipped_bytes = self.log.invisible_offsets(
                    batch.base_offset, batch.next_offset, isolation
                )
            rows = [
                (batch.offset_at(index), batch.keys[index], batch.values[index])
                for index in range(len(batch))
            ]
            assert batch.total_size == sum(batch.sizes)
            assert skipped_bytes == sum(
                batch.sizes[index]
                for index in range(len(batch))
                if rows[index][0] in skipped
            )
            seen.extend(row for row in rows if row[0] not in skipped)
            offset = batch.next_offset

    @invariant()
    def log_matches_reference(self):
        log, model = self.log, self.model
        assert log.log_start_offset == model.log_start
        assert log.log_end_offset == model.log_end
        assert log.high_watermark == model.high_watermark
        assert log.last_stable_offset == model.last_stable_offset
        assert len(log) == len(model.rows)
        assert log.total_size_bytes == model.total_bytes()
        # Offsets present, then what each isolation level may observe.
        assert self.scan(None) == [
            (row.offset, row.key, row.value) for row in model.rows
        ]
        for isolation in ("read_uncommitted", "read_committed"):
            limit = (
                log.last_stable_offset
                if isolation == "read_committed"
                else log.high_watermark
            )
            assert self.scan(limit, isolation) == [
                (row.offset, row.key, row.value)
                for row in model.visible(isolation)
            ]
        # Derived state.
        assert {
            pid: (entry.epoch, entry.last_sequence)
            for pid, entry in log.producer_state.items()
        } == model.producers
        assert log.epoch_boundaries == model.epochs
        assert log.aborted_ranges == model.aborted
        assert log.last_markers == model.markers
        for pid in PRODUCERS:
            assert log.open_txn_first_offset(pid) == model.open.get(pid)


TestPartitionLogModel = PartitionLogMachine.TestCase
# Sized to a few seconds of the quick tier; derandomized by the profile
# conftest.py loads, so a failure replays from the printed steps alone.
TestPartitionLogModel.settings = settings(max_examples=400, stateful_step_count=50)
