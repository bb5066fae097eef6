"""Log segments, their cold-tier files, and the storage config.

A :class:`~repro.broker.log.PartitionLog` is an ordered list of
:class:`Segment` objects.  The last one — the *head* — takes every append and
is never sealed; when it reaches ``segment_records`` rows the log *rolls*: the
head becomes an ordinary sealed segment where it stands (nothing is copied)
and a fresh empty segment opens at the next offset.  A log without storage
config simply never rolls.  The segment owns the columns and everything that
is done to one segment's rows: extend, slice to a
:class:`~repro.broker.batch.RecordBatch`, materialize a :class:`LogRecord`,
cut the tail, keep a row subset, evict/load and file I/O.

Sealed segments are what retention, compaction and tiering operate on:

* **retention** drops whole sealed segments (never the head) and advances
  the log start offset;
* **compaction** rewrites sealed segments in place keeping the latest value
  per key (retained rows keep their original offsets via a per-segment
  ``offsets`` index, so compacted segments are *gapped* but never renumber);
* the **cold tier** serializes each segment to one file when it is sealed
  (the payload is the segment's columns plus its boundaries) so its columns
  can be evicted from memory and faulted back on fetch, and a replica can
  bootstrap an entire log by replaying the segment files
  (:meth:`~repro.broker.log.PartitionLog.recover`).
"""

from __future__ import annotations

import os
import pickle
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.broker.batch import RecordBatch

#: Segment roll size used when a topic opts into retention/compaction without
#: choosing an explicit ``segment_records`` (rolling is what makes whole-
#: segment retention/compaction possible at all).
DEFAULT_SEGMENT_RECORDS = 4096

#: Cold-tier segment file format version (pickled payload header).
SEGMENT_FILE_VERSION = 1


@dataclass
class LogStorageConfig:
    """Storage policy of one partition log (``None`` = never roll, keep all).

    Attributes
    ----------
    segment_records:
        Roll the head segment once it holds this many records (``None`` =
        never roll: the log stays one segment).
    retention_bytes:
        Size bound.  Without a cold tier, the oldest sealed segments are
        *deleted* while the log's total bytes exceed this.  With a cold tier
        (``segment_dir`` set) they are *evicted* to their segment files
        instead — the hot tier stays under the bound but every offset remains
        readable (faulted back on fetch).
    retention_ms:
        Time bound in milliseconds (Kafka's unit): sealed segments whose
        newest append timestamp is older than this are deleted — from memory
        *and* the cold tier — and ``log_start_offset`` advances.
    cleanup_policy:
        ``"delete"`` (retention only, the default) or ``"compact"`` — sealed
        segments are periodically rewritten keeping only the latest value per
        key (plus control markers and producer-state carriers; see
        ``docs/log_storage.md``).
    segment_dir:
        Directory for cold-tier segment files (``None`` = memory-only
        segments).  Sealed segments are written through at seal time and the
        file is kept in sync by compaction/truncation.
    compaction_min_segments:
        Run the compactor once this many *newly sealed* segments accumulated
        since the last pass (batching keeps the pass amortized).
    """

    segment_records: Optional[int] = None
    retention_bytes: Optional[int] = None
    retention_ms: Optional[float] = None
    cleanup_policy: str = "delete"
    segment_dir: Optional[str] = None
    compaction_min_segments: int = 2

    def __post_init__(self) -> None:
        if self.cleanup_policy not in ("delete", "compact"):
            raise ValueError(
                f"unknown cleanup_policy {self.cleanup_policy!r}; expected "
                "'delete' or 'compact'"
            )
        if self.segment_records is not None and self.segment_records <= 0:
            raise ValueError("segment_records must be positive")
        if self.retention_bytes is not None and self.retention_bytes <= 0:
            raise ValueError("retention_bytes must be positive")
        if self.retention_ms is not None and self.retention_ms <= 0:
            raise ValueError("retention_ms must be positive")
        if self.compaction_min_segments <= 0:
            raise ValueError("compaction_min_segments must be positive")

    @property
    def retention_seconds(self) -> Optional[float]:
        """``retention_ms`` in the simulator's clock unit (seconds)."""
        if self.retention_ms is None:
            return None
        return self.retention_ms / 1000.0


def resolve_log_storage(
    overrides: Optional[Dict[str, Any]],
    default: Optional[LogStorageConfig],
) -> Optional[LogStorageConfig]:
    """Effective storage config for one partition replica.

    ``overrides`` is the per-topic dict the coordinator ships in its metadata
    snapshot (only for topics that set non-default storage); ``default`` is
    the broker-level :class:`LogStorageConfig` (cluster-wide knobs).  Returns
    ``None`` when neither configures storage (a log that never rolls).
    """
    if overrides:
        base = default if default is not None else LogStorageConfig()
        merged = replace(base, **overrides)
        if merged.segment_records is None:
            # A topic that asked for retention/compaction needs the log to
            # actually roll; give it the stock segment size.
            merged.segment_records = DEFAULT_SEGMENT_RECORDS
        return merged
    return default


def segment_file_name(stem: str, base_offset: int) -> str:
    """Kafka-style zero-padded segment file name (sorts by base offset)."""
    return f"{stem}-{base_offset:020d}.seg"


def list_segment_files(segment_dir: str, stem: str) -> List[str]:
    """Paths of ``stem``'s segment files in base-offset order."""
    prefix = f"{stem}-"
    try:
        names = os.listdir(segment_dir)
    except FileNotFoundError:
        return []
    matches = [
        name
        for name in names
        if name.startswith(prefix) and name.endswith(".seg")
    ]
    return [os.path.join(segment_dir, name) for name in sorted(matches)]


@dataclass
class LogRecord:
    """One record as viewed out of a partition log (materialized on demand)."""

    offset: int
    key: Any
    value: Any
    size: int
    timestamp: float
    produced_at: float
    leader_epoch: int
    headers: Dict[str, Any] = field(default_factory=dict)
    #: Producer identity the record was appended under (-1 = non-idempotent).
    producer_id: int = -1
    producer_epoch: int = -1
    sequence: int = -1


#: Columns every resident segment holds, one entry per row.
_CORE_COLUMNS = ("keys", "values", "sizes", "timestamps", "produced_ats", "epochs")
#: Columns materialized (backfilled) by the first row that needs them and
#: ``None`` until then: the overwhelmingly common plain segment neither
#: stores nor slices them.  ``producer_*``/``sequences`` appear together, as
#: do ``transactionals``/``controls``.
_LAZY_COLUMNS = (
    "headers",
    "producer_ids",
    "producer_epochs",
    "sequences",
    "transactionals",
    "controls",
)
_COLUMNS = _CORE_COLUMNS + _LAZY_COLUMNS
#: What a segment file holds besides the columns.
_FILE_FIELDS = ("base_offset", "next_offset", "max_timestamp", "offsets")


class Segment:
    """One chunk of a partition log: parallel columns, row ``i`` at offset
    ``offset_at(i)``.

    A ``None`` ``offsets`` index means the rows are contiguous from
    ``base_offset``; after compaction the retained rows keep their original
    offsets in an explicit sorted ``offsets`` list (the per-segment index
    fetches bisect).  ``[base_offset, next_offset)`` is the offset range the
    segment covers: for the head it ends at the log end and grows with every
    append, for a sealed segment it is fixed (compaction shrinks ``count``
    but never the range, so segment boundaries stay contiguous across the
    log).  The index and boundary metadata stay resident even while the
    columns are **evicted** to the segment file.

    Producer identity lives in the log — not in leader-only session state —
    so a follower's replica fetches rebuild the same dedup table and the
    guarantees survive leader elections.  ``transactionals[i]`` is True for
    records of a transaction, ``controls[i]`` holds a ``(marker, producer_id,
    producer_epoch)`` tuple for COMMIT/ABORT control records (``None`` for
    data); a marker's own producer columns stay -1, keeping it out of the
    sequence-dedup fold.
    """

    __slots__ = _FILE_FIELDS + _COLUMNS + (
        "count",
        "size_bytes",
        "evicted",
        "file_path",
    )

    def __init__(self, base_offset: int) -> None:
        self.base_offset = base_offset
        self.next_offset = base_offset
        self.count = 0
        self.size_bytes = 0
        #: Newest append timestamp, fixed when the segment is sealed (time
        #: retention never looks at the head).
        self.max_timestamp = 0.0
        self.offsets: Optional[List[int]] = None
        self.keys: Optional[List[Any]] = []
        self.values: Optional[List[Any]] = []
        self.sizes: Optional[List[int]] = []
        self.timestamps: Optional[List[float]] = []
        self.produced_ats: Optional[List[float]] = []
        self.epochs: Optional[List[int]] = []
        self.headers: Optional[List[Optional[Dict[str, Any]]]] = None
        self.producer_ids: Optional[List[int]] = None
        self.producer_epochs: Optional[List[int]] = None
        self.sequences: Optional[List[int]] = None
        self.transactionals: Optional[List[bool]] = None
        self.controls: Optional[List[Optional[Tuple[str, int, int]]]] = None
        self.evicted = False
        self.file_path: Optional[str] = None

    # -- offset index -----------------------------------------------------------------
    def offset_at(self, index: int) -> int:
        if self.offsets is None:
            return self.base_offset + index
        return self.offsets[index]

    def index_range(self, from_offset: int, up_to: int) -> Tuple[int, int]:
        """Row range ``[start, end)`` covering offsets ``[from_offset, up_to)``."""
        if self.offsets is None:
            start = max(0, from_offset - self.base_offset)
            end = min(self.count, up_to - self.base_offset)
        else:
            start = bisect_left(self.offsets, from_offset)
            end = bisect_left(self.offsets, up_to)
        return start, max(start, end)

    # -- rows in ------------------------------------------------------------------------
    def extend(
        self,
        keys: List[Any],
        values: List[Any],
        sizes: List[int],
        timestamps: List[float],
        produced_ats: List[float],
        epochs: List[int],
        total_size: int,
        headers: Optional[List[Optional[Dict[str, Any]]]] = None,
        producer_ids: Optional[List[int]] = None,
        producer_epochs: Optional[List[int]] = None,
        sequences: Optional[List[int]] = None,
        transactionals: Optional[List[bool]] = None,
        controls: Optional[List[Optional[Tuple[str, int, int]]]] = None,
    ) -> None:
        """Append rows to the (contiguous, resident) segment: the one place
        columns grow.  C-level extends only; a lazy column group the rows do
        not carry is touched only if the segment already materialized it."""
        before = self.count
        self.keys.extend(keys)
        self.values.extend(values)
        self.sizes.extend(sizes)
        self.timestamps.extend(timestamps)
        self.produced_ats.extend(produced_ats)
        self.epochs.extend(epochs)
        count = len(self.values) - before
        if headers is not None:
            if self.headers is None:
                self.headers = [None] * before
            self.headers.extend(headers)
        elif self.headers is not None:
            self.headers.extend([None] * count)
        if producer_ids is not None:
            if self.producer_ids is None:
                self.producer_ids = [-1] * before
                self.producer_epochs = [-1] * before
                self.sequences = [-1] * before
            self.producer_ids.extend(producer_ids)
            self.producer_epochs.extend(producer_epochs)
            self.sequences.extend(sequences)
        elif self.producer_ids is not None:
            absent = [-1] * count
            self.producer_ids.extend(absent)
            self.producer_epochs.extend(absent)
            self.sequences.extend(absent)
        if transactionals is not None:
            if self.transactionals is None:
                self.transactionals = [False] * before
                self.controls = [None] * before
            self.transactionals.extend(transactionals)
            self.controls.extend(controls)
        elif self.transactionals is not None:
            self.transactionals.extend([False] * count)
            self.controls.extend([None] * count)
        self.count = before + count
        self.next_offset += count
        self.size_bytes += total_size

    # -- rows out -----------------------------------------------------------------------
    def batch(
        self, topic: str, partition: int, start: int, end: int, with_epochs: bool
    ) -> RecordBatch:
        """Rows ``[start, end)`` as one :class:`RecordBatch` of fresh column
        slices — no per-record objects.

        Producer identities and the transaction columns travel only on
        replica fetches (``with_epochs``) — consumer fetches never need them —
        and, like headers, only when the *range* actually holds one (``None``
        otherwise, so all-plain ranges ship no such columns at all).
        """
        headers = self.headers
        if headers is not None:
            headers = headers[start:end]
            if not any(headers):
                headers = None
        producer_ids = producer_epochs = sequences = None
        transactionals = controls = None
        if with_epochs:
            if self.producer_ids is not None:
                producer_ids = self.producer_ids[start:end]
                if any(pid >= 0 for pid in producer_ids):
                    producer_epochs = self.producer_epochs[start:end]
                    sequences = self.sequences[start:end]
                else:
                    producer_ids = None
            if self.transactionals is not None:
                transactionals = self.transactionals[start:end]
                controls = self.controls[start:end]
                if not any(transactionals) and not any(
                    control is not None for control in controls
                ):
                    transactionals = controls = None
        batch = RecordBatch.from_columns(
            topic,
            partition,
            base_offset=self.offset_at(start),
            keys=self.keys[start:end],
            values=self.values[start:end],
            sizes=self.sizes[start:end],
            produced_ats=self.produced_ats[start:end],
            timestamps=self.timestamps[start:end],
            leader_epochs=self.epochs[start:end] if with_epochs else None,
            producer_ids=producer_ids,
            producer_epochs=producer_epochs,
            sequences=sequences,
            transactionals=transactionals,
            controls=controls,
            headers=headers,
        )
        if self.offsets is not None:
            # Compacted range: retained rows keep original (gapped) offsets.
            batch.offsets = self.offsets[start:end]
        return batch

    def record_view(self, index: int) -> LogRecord:
        has_producers = self.producer_ids is not None
        return LogRecord(
            offset=self.offset_at(index),
            key=self.keys[index],
            value=self.values[index],
            size=self.sizes[index],
            timestamp=self.timestamps[index],
            produced_at=self.produced_ats[index],
            leader_epoch=self.epochs[index],
            headers=(self.headers[index] or {}) if self.headers else {},
            producer_id=self.producer_ids[index] if has_producers else -1,
            producer_epoch=self.producer_epochs[index] if has_producers else -1,
            sequence=self.sequences[index] if has_producers else -1,
        )

    # -- rows removed -------------------------------------------------------------------
    def cut_tail(self, cut: int, next_offset: int) -> None:
        """Drop rows ``[cut, count)``; the segment then ends at
        ``next_offset`` (truncation).  Keeps the segment file in step."""
        self.size_bytes -= sum(self.sizes[cut:])
        for name in _COLUMNS:
            column = getattr(self, name)
            if column is not None:
                del column[cut:]
        if self.offsets is not None:
            del self.offsets[cut:]
        self.count = cut
        self.next_offset = next_offset
        if self.file_path is not None:
            self.write_file(self.file_path)

    def rewrite(self, keep: List[int]) -> None:
        """Reduce the segment to the ``keep`` row subset, materializing its
        offset index so the rows keep their offsets (compaction).  Keeps the
        segment file in step unless nothing is left (the log then drops the
        segment and its file)."""
        self.offsets = [self.offset_at(index) for index in keep]
        for name in _COLUMNS:
            column = getattr(self, name)
            if column is not None:
                setattr(self, name, [column[index] for index in keep])
        self.count = len(keep)
        self.size_bytes = sum(self.sizes)
        if self.file_path is not None and keep:
            self.write_file(self.file_path)

    # -- cold tier --------------------------------------------------------------------
    def write_file(self, path: str) -> None:
        """Write-through serialization (called at seal / after a rewrite):
        the boundary fields and the offset index plus the columns as plain
        parallel lists, so a reader replays it like a replica fetch."""
        payload = {name: getattr(self, name) for name in _FILE_FIELDS + _COLUMNS}
        payload["version"] = SEGMENT_FILE_VERSION
        tmp_path = path + ".tmp"
        with open(tmp_path, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_path, path)
        self.file_path = path

    def evict(self) -> None:
        """Drop the data columns; the file (and the offset index) remain."""
        if self.file_path is None:
            raise RuntimeError("cannot evict a segment with no cold file")
        for name in _COLUMNS:
            setattr(self, name, None)
        self.evicted = True

    def load(self) -> None:
        """Fault the data columns back in from the segment file."""
        payload = _read_segment_file(self.file_path)
        for name in _COLUMNS:
            setattr(self, name, payload[name])
        self.evicted = False

    def delete_file(self) -> None:
        if self.file_path is None:
            return
        try:
            os.remove(self.file_path)
        except FileNotFoundError:
            pass
        self.file_path = None

    @classmethod
    def from_file(cls, path: str) -> "Segment":
        """Load one segment file (replica bootstrap / recovery path)."""
        payload = _read_segment_file(path)
        segment = cls(payload["base_offset"])
        for name in _FILE_FIELDS + _COLUMNS:
            setattr(segment, name, payload[name])
        segment.count = len(segment.values)
        segment.size_bytes = sum(segment.sizes)
        segment.file_path = path
        return segment

    def __repr__(self) -> str:
        state = "cold" if self.evicted else "hot"
        return (
            f"<Segment [{self.base_offset},{self.next_offset}) "
            f"n={self.count} bytes={self.size_bytes} {state}>"
        )


def _read_segment_file(path: str) -> Dict[str, Any]:
    with open(path, "rb") as handle:
        payload = pickle.load(handle)
    version = payload.get("version")
    if version != SEGMENT_FILE_VERSION:
        raise ValueError(
            f"unsupported segment file version {version!r} in {path}"
        )
    return payload
