"""Consumer client.

Consumers subscribe to topics, fetch committed records from the partition
leaders — one fetcher per partition, a fetch that finds nothing parked at the
leader until a record becomes visible — track their own offsets and record
per-message delivery latency (time between the producer's send call and local
receipt) — the measurement behind Figures 5, 6b and 6c.

Fetch replies arrive as one :class:`~repro.broker.batch.RecordBatch` per
partition: the consumer decodes the batch *header* (base offset, count,
total size) in O(1) and only materializes per-record
:class:`ConsumerRecord` objects when an observer (``keep_payloads`` or the
``on_record`` callback) actually needs them.  Batch-aware observers can set
``on_batch`` instead and receive the columnar batch directly.

Three assignment modes exist:

* **standalone** (default): the consumer fetches every partition of its
  subscriptions and keeps offsets purely locally;
* **manual** (:meth:`Consumer.assign`): fetch exactly the given partitions —
  the static-sharding mode the partition-aware SPE sources use;
* **group** (``ConsumerConfig.group``): membership, partition assignment and
  committed offsets are managed by the cluster coordinator; the member only
  fetches its assigned partitions and re-syncs on every rebalance (see
  ``docs/partitioning.md`` for the protocol walkthrough).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.broker.batch import RecordBatch
from repro.broker.broker import BROKER_PORT, find_coordinator_host
from repro.broker.coordinator import COORDINATOR_PORT, GROUP_ASSIGNORS
from repro.network.host import Host
from repro.network.transport import RequestTimeout, Transport


@dataclass
class ConsumerConfig:
    """Consumer tunables (YAML ``consCfg`` keys map onto these)."""

    #: Pause between a served fetch of a partition and its next one — the
    #: batching knob, not a floor on latency: a fetch that finds nothing is
    #: parked at the leader and answered when a record becomes visible.
    poll_interval: float = 0.05
    max_records_per_fetch: int = 500
    fetch_timeout: float = 1.0
    metadata_refresh_interval: float = 5.0
    retry_backoff: float = 0.2
    #: Per-record processing cost charged to the consumer's host CPU.
    cpu_per_record: float = 15e-6
    #: Append every received record to ``Consumer.received`` (disable for
    #: large experiments to bound memory; the ``on_record`` callback always
    #: sees the full record either way).
    keep_payloads: bool = True
    #: Consumer group to join (``None`` = standalone: the consumer reads every
    #: partition of its subscriptions and manages offsets purely locally).
    group: Optional[str] = None
    #: Partition assignor the group uses: ``"range"`` or ``"roundrobin"``.
    assignor: str = "range"
    #: How often a group member heartbeats the coordinator (each heartbeat
    #: also commits the member's current offsets).
    group_heartbeat_interval: float = 1.0
    #: ``"read_uncommitted"`` (default — every record below the HW, exactly
    #: today's behaviour) or ``"read_committed"`` — fetches stop at the Last
    #: Stable Offset and records of aborted transactions are filtered out, so
    #: only atomically committed transactions are ever observed.
    isolation_level: str = "read_uncommitted"
    #: What to do when a fetch lands below the partition's log start offset
    #: (retention deleted the requested range): ``"earliest"`` (default,
    #: Kafka's semantics for a consumer that fell behind retention — resume
    #: at the new log start), ``"latest"`` (skip to the log end) or
    #: ``"error"`` (count a fetch error and stop polling the partition).
    auto_offset_reset: str = "earliest"

    def __post_init__(self) -> None:
        if self.isolation_level not in ("read_uncommitted", "read_committed"):
            raise ValueError(
                f"unknown isolation_level {self.isolation_level!r}; expected "
                "'read_uncommitted' or 'read_committed'"
            )
        if self.auto_offset_reset not in ("earliest", "latest", "error"):
            raise ValueError(
                f"unknown auto_offset_reset {self.auto_offset_reset!r}; "
                "expected 'earliest', 'latest' or 'error'"
            )
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if self.max_records_per_fetch <= 0:
            raise ValueError("max_records_per_fetch must be positive")
        if self.group_heartbeat_interval <= 0:
            raise ValueError("group_heartbeat_interval must be positive")
        if self.assignor not in GROUP_ASSIGNORS:
            raise ValueError(
                f"unknown assignor {self.assignor!r}; expected one of {GROUP_ASSIGNORS}"
            )


@dataclass
class ConsumerRecord:
    """One record as observed by a consumer."""

    topic: str
    partition: int
    offset: int
    key: Any
    value: Any
    size: int
    timestamp: float
    produced_at: float
    received_at: float

    @property
    def latency(self) -> float:
        """End-to-end delivery latency (producer send -> consumer receipt)."""
        return self.received_at - self.produced_at


class Consumer:
    """A consumer client bound to an emulated host."""

    def __init__(
        self,
        host: Host,
        bootstrap: List[str],
        config: Optional[ConsumerConfig] = None,
        name: Optional[str] = None,
        on_record: Optional[Callable[[ConsumerRecord], None]] = None,
        on_batch: Optional[Callable[[str, int, RecordBatch, float], None]] = None,
    ) -> None:
        if not bootstrap:
            raise ValueError("bootstrap list must contain at least one broker host")
        self.host = host
        self.sim = host.sim
        self.name = name or f"consumer-{host.name}"
        self.bootstrap = list(bootstrap)
        self.config = config or ConsumerConfig()
        self.on_record = on_record
        #: Batch-level observer: called as ``on_batch(topic, partition, batch,
        #: received_at)`` instead of materializing ConsumerRecords — plus a
        #: trailing ``skip`` frozenset of invisible offsets (control records,
        #: aborted transactions) whenever the batch contains any; the observer
        #: must not surface those records.  Ignored while ``on_record`` or
        #: ``keep_payloads`` demand per-record objects.  Ownership: every
        #: delivered batch is built from fresh column slices and the consumer
        #: never touches it again, so the observer may adopt its column lists
        #: zero-copy (the SPE's fused columnar ingest does — see
        #: ``repro.engine.columns.ColumnBatch.extend_from_wire``).  Empty
        #: batches (including the shared ``EMPTY_BATCH`` sentinel) are never
        #: delivered.
        self.on_batch = on_batch
        self.transport = Transport(
            host, default_timeout=self.config.fetch_timeout, max_retries=0
        )
        self.metadata: dict = {"version": -1, "partitions": {}, "brokers": {}}
        self.subscriptions: List[str] = []
        self.offsets: Dict[str, int] = {}
        #: Partition keys this consumer may fetch.  ``None`` means "every
        #: partition of the subscribed topics" (standalone consumers); a
        #: frozenset restricts polling to a manual or group assignment.
        self._assigned: Optional[frozenset] = None
        #: Partitions with a running fetcher process, and the poll clock the
        #: fetchers share (one pending ``Timeout`` at most).
        self._fetchers: set = set()
        self._poll_tick = None
        #: Group-membership state (meaningful only when ``config.group`` set).
        self.generation = -1
        self.rebalances = 0
        #: Permanent group-protocol error (e.g. an assignor mismatch with the
        #: existing group); set once, then the group loop stops retrying.
        self.group_error: Optional[str] = None
        self._group_joined = False
        self._coordinator_host: Optional[str] = None
        self.received: List[ConsumerRecord] = []
        self.records_consumed = 0
        self.bytes_consumed = 0
        self.fetch_errors = 0
        #: Out-of-range resets applied (``auto_offset_reset`` hits).
        self.offset_resets = 0
        #: Partitions abandoned under ``auto_offset_reset="error"``.
        self._dead_partitions: set = set()
        self.running = False
        host.register_component(self)

    # -- lifecycle -----------------------------------------------------------------
    def subscribe(self, topics: List[str]) -> None:
        for topic in topics:
            if topic not in self.subscriptions:
                self.subscriptions.append(topic)
        self._start_fetchers()

    def assign(self, topic: str, partitions: List[int]) -> None:
        """Manually assign specific partitions (mutually exclusive with a group).

        The consumer polls exactly the given partitions of ``topic`` (plus any
        earlier manual assignments), never the topic's other partitions — the
        client half of a static sharding plan such as one SPE source instance
        per partition.
        """
        if self.config.group:
            raise RuntimeError(
                f"{self.name} is in group {self.config.group!r}; manual assign() "
                "cannot be combined with group-managed assignment"
            )
        self.subscribe([topic])
        assigned = set(self._assigned or ())
        assigned.update(f"{topic}-{partition}" for partition in partitions)
        self._assigned = frozenset(assigned)
        self._start_fetchers()

    def start(self) -> None:
        if self.running:
            return
        if not self.subscriptions:
            raise RuntimeError(f"{self.name} started without subscriptions")
        self.running = True
        if self.config.group:
            # Nothing may be fetched before the coordinator hands out an
            # assignment, or members would double-consume each other's
            # partitions while joining.
            self._assigned = frozenset()
            self.sim.process(self._group_loop(), name=f"{self.name}:group")
        self.sim.process(self._metadata_loop(), name=f"{self.name}:metadata")

    def stop(self) -> None:
        was_running = self.running
        self.running = False
        if was_running and self.config.group and self._group_joined:
            # Graceful leave: commit final offsets so whoever inherits our
            # partitions resumes exactly where we stopped (no re-delivery).
            self._group_joined = False
            self.sim.process(self._leave_group(), name=f"{self.name}:leave-group")

    def seek(self, topic: str, partition: int, offset: int) -> None:
        """Set the next fetch offset for one partition (per-partition positions)."""
        self.offsets[f"{topic}-{partition}"] = offset

    def position(self, topic: str, partition: int = 0) -> int:
        """Next offset this consumer will fetch for ``topic``/``partition``."""
        return self.offsets.get(f"{topic}-{partition}", 0)

    def assignment(self) -> Optional[List[str]]:
        """Currently assigned partition keys (None = all subscribed partitions)."""
        if self._assigned is None:
            return None
        return sorted(self._assigned)

    # -- fetching -------------------------------------------------------------------
    def _metadata_loop(self):
        """Keep the metadata fresh; every refresh starts the fetchers of the
        partitions it made fetchable (how a consumer with nothing to fetch
        yet learns that its topic exists)."""
        while self.running:
            yield from self._refresh_metadata()
            yield self.sim.timeout(self.config.metadata_refresh_interval)

    def _start_fetchers(self) -> None:
        """Run one fetcher per fetchable partition; called wherever the
        metadata, the subscriptions or the assignment change."""
        for key in self.metadata.get("partitions", {}):
            if key not in self._fetchers and self._fetchable(key) is not None:
                self._fetchers.add(key)
                self.sim.process(self._partition_fetcher(key), name=f"{self.name}:fetch:{key}")

    def _partition_fetcher(self, key: str):
        """Fetch ``key`` for as long as this consumer may.

        Partitions are fetched concurrently, one request outstanding each.  A
        fetch that returned records is followed by a pause until the next tick
        of the consumer's poll clock — a busy partition is read in
        ``poll_interval`` batches — while an empty reply, which the leader
        held for its ``FETCH_MAX_WAIT``, is followed by the next fetch at
        once: an idle partition costs one round trip per wait and delivers
        its next record the instant it becomes visible.
        """
        while True:
            info = self._fetchable(key)
            if info is None:
                break
            fetched = yield from self._fetch_partition(key, info)
            if fetched is None:
                # Leader unknown or unreachable: back off a little and
                # refresh metadata so we discover newly elected leaders.
                yield self.sim.timeout(self.config.retry_backoff)
                yield from self._refresh_metadata()
            elif fetched:
                tick = self._poll_tick
                if tick is None or tick.processed:
                    tick = self._poll_tick = self.sim.timeout(self.config.poll_interval)
                yield tick
        self._fetchers.discard(key)

    def _fetchable(self, key: str) -> Optional[dict]:
        """``key``'s metadata entry while this consumer may fetch it: running,
        subscribed to its topic and — a manual or group assignment — assigned
        it.  Standalone consumers see every partition of their subscriptions."""
        if (
            not self.running
            or key in self._dead_partitions
            or not (self._assigned is None or key in self._assigned)
        ):
            return None
        info = self.metadata.get("partitions", {}).get(key)
        return info if info and info["topic"] in self.subscriptions else None

    # -- group membership -----------------------------------------------------------
    def _group_loop(self):
        """Join the configured group, then heartbeat/commit/resync forever."""
        config = self.config
        while self.running:
            if self._coordinator_host is None:
                yield from self._find_coordinator()
                if self._coordinator_host is None:
                    yield self.sim.timeout(config.retry_backoff)
                    continue
            if not self._group_joined:
                joined = yield from self._join_group()
                if self.group_error is not None:
                    # Permanent protocol error (misconfiguration): retrying
                    # would hammer the coordinator forever without progress.
                    return
                if not joined:
                    yield self.sim.timeout(config.retry_backoff)
                    continue
            yield self.sim.timeout(config.group_heartbeat_interval)
            if self.running:
                yield from self._group_heartbeat()

    def _find_coordinator(self):
        self._coordinator_host = yield from find_coordinator_host(
            self.transport, self.bootstrap
        )

    def _join_group(self):
        try:
            reply = yield from self.transport.request(
                self._coordinator_host,
                COORDINATOR_PORT,
                {
                    "type": "join_group",
                    "group": self.config.group,
                    "member": self.name,
                    "topics": list(self.subscriptions),
                    "assignor": self.config.assignor,
                },
                size=96,
                timeout=1.0,
            )
        except RequestTimeout:
            return False
        if reply.get("error") is not None:
            # Join errors are misconfigurations (assignor mismatch/unknown),
            # never transient: record and give up rather than retry forever.
            self.group_error = reply["error"]
            return False
        self._apply_assignment(reply)
        self._group_joined = True
        return True

    def _group_heartbeat(self):
        offsets = {key: self.offsets.get(key, 0) for key in self._assigned or ()}
        try:
            reply = yield from self.transport.request(
                self._coordinator_host,
                COORDINATOR_PORT,
                {
                    "type": "group_heartbeat",
                    "group": self.config.group,
                    "member": self.name,
                    "generation": self.generation,
                    "offsets": offsets,
                },
                size=64 + 16 * len(offsets),
                timeout=1.0,
            )
        except RequestTimeout:
            return
        error = reply.get("error")
        if error is None:
            return
        if error == "rebalance":
            yield from self._sync_group()
        elif error == "unknown_member":
            # Our session expired (e.g. a long coordinator partition): the
            # coordinator has already handed our partitions to other members,
            # so stop fetching them immediately and rejoin from scratch.
            self._fenced()

    def _fenced(self) -> None:
        """Drop group membership and the assignment until a rejoin succeeds."""
        self._group_joined = False
        self._assigned = frozenset()

    def _sync_group(self):
        try:
            reply = yield from self.transport.request(
                self._coordinator_host,
                COORDINATOR_PORT,
                {
                    "type": "sync_group",
                    "group": self.config.group,
                    "member": self.name,
                },
                size=64,
                timeout=1.0,
            )
        except RequestTimeout:
            return
        if reply.get("error") is not None:
            self._fenced()
            return
        self._apply_assignment(reply)

    def _apply_assignment(self, reply: dict) -> None:
        """Adopt a (re)assignment: new partitions start at their committed offset.

        Partitions we already own keep the local position when it is ahead of
        the committed one (commits trail consumption by up to one heartbeat
        interval; rewinding would re-deliver records we already handled).
        """
        new_assigned = frozenset(reply["assignment"])
        committed = reply.get("offsets", {})
        previous = self._assigned or frozenset()
        for key in new_assigned:
            offset = committed.get(key, 0)
            if key in previous:
                offset = max(offset, self.offsets.get(key, 0))
            self.offsets[key] = offset
        if reply["generation"] != self.generation:
            self.rebalances += 1
        self.generation = reply["generation"]
        self._assigned = new_assigned
        self._start_fetchers()

    def _leave_group(self):
        offsets = {key: self.offsets.get(key, 0) for key in self._assigned or ()}
        if self._coordinator_host is None:
            return
        try:
            yield from self.transport.request(
                self._coordinator_host,
                COORDINATOR_PORT,
                {
                    "type": "leave_group",
                    "group": self.config.group,
                    "member": self.name,
                    "offsets": offsets,
                },
                size=64 + 16 * len(offsets),
                timeout=1.0,
            )
        except RequestTimeout:
            return

    def _fetch_partition(self, key: str, info: dict):
        """One fetch of ``key``: the number of records in the reply, or
        ``None`` when the leader is unknown, unreachable or answered an error."""
        leader = info.get("leader")
        broker_entry = self.metadata.get("brokers", {}).get(leader) if leader else None
        if broker_entry is None:
            return None
        leader_host = broker_entry["host"]
        offset = self.offsets.get(key, 0)
        fetch_request = {
            "type": "fetch",
            "topic": info["topic"],
            "partition": info["partition"],
            "offset": offset,
            "max_records": self.config.max_records_per_fetch,
        }
        if self.config.isolation_level != "read_uncommitted":
            # Only stamped when non-default, so default-path requests are
            # byte-identical to the pre-transactions wire format.
            fetch_request["isolation"] = self.config.isolation_level
        try:
            reply = yield from self.transport.request(
                leader_host,
                BROKER_PORT,
                fetch_request,
                size=96,
                timeout=self.config.fetch_timeout,
            )
        except RequestTimeout:
            self.fetch_errors += 1
            return None
        batch: Optional[RecordBatch] = reply.get("batch")  # error replies carry none
        count = len(batch) if batch is not None else 0
        cost = self.config.cpu_per_record * count
        if cost > 0:
            yield from self.host.compute(cost)
        if self._fetchable(key) is None or self.offsets.get(key, 0) != offset:
            # Revoked, fenced, stopped or repositioned while the fetch was in
            # flight — parked at the leader, it can be for FETCH_MAX_WAIT:
            # drop the reply without advancing offsets.  Whoever owns the
            # partition now reads these records, and a group member's
            # leave-time committed offsets must match what it delivered.
            return 0
        if reply.get("error") == "offset_out_of_range":
            # Retention deleted the range we asked for.  Apply the configured
            # reset policy against the bounds the broker returned (exactly
            # Kafka's client-side auto.offset.reset handling).
            policy = self.config.auto_offset_reset
            if policy == "error":
                self.fetch_errors += 1
                self._dead_partitions.add(key)
                return 0
            self.offsets[key] = (
                reply["log_end_offset"]
                if policy == "latest"
                else reply["log_start_offset"]
            )
            self.offset_resets += 1
            return 0
        if reply.get("error") is not None:
            self.fetch_errors += 1
            return None
        if not count:
            return 0
        # Offsets the broker marked invisible: control records (always) and,
        # under read_committed, records of aborted transactions.  They ship
        # inside the contiguous batch but never reach the application, and
        # they do not count towards consumer-visible record/byte metrics.
        skip_offsets = reply.get("skip_offsets")
        if not self.config.keep_payloads and self.on_record is None:
            # Fast path for large experiments: the batch header already
            # carries the count, byte total and next offset — O(1) per fetch.
            if skip_offsets:
                self.records_consumed += count - len(skip_offsets)
                self.bytes_consumed += batch.total_size - reply.get("skipped_bytes", 0)
            else:
                self.records_consumed += count
                self.bytes_consumed += batch.total_size
            self.offsets[key] = batch.next_offset
            if self.on_batch is not None:
                if skip_offsets:
                    self.on_batch(
                        info["topic"],
                        info["partition"],
                        batch,
                        self.sim.now,
                        frozenset(skip_offsets),
                    )
                else:
                    self.on_batch(info["topic"], info["partition"], batch, self.sim.now)
            return count
        now = self.sim.now
        topic = info["topic"]
        partition = info["partition"]
        skip = frozenset(skip_offsets) if skip_offsets else None
        for index, (offset, record_key, value, size, produced_at) in enumerate(
            batch.iter_records()
        ):
            if skip is not None and offset in skip:
                self.offsets[key] = offset + 1
                continue
            consumer_record = ConsumerRecord(
                topic=topic,
                partition=partition,
                offset=offset,
                key=record_key,
                value=value,
                size=size,
                # Row index, not offset arithmetic: compacted ranges carry
                # gapped per-record offsets.
                timestamp=batch.timestamp_at(index, now),
                produced_at=produced_at,
                received_at=now,
            )
            self.records_consumed += 1
            self.bytes_consumed += size
            if self.config.keep_payloads:
                self.received.append(consumer_record)
            if self.on_record is not None:
                self.on_record(consumer_record)
            self.offsets[key] = offset + 1
        return count

    # -- metadata -----------------------------------------------------------------------
    def _refresh_metadata(self):
        for bootstrap_host in self.bootstrap:
            try:
                reply = yield from self.transport.request(
                    bootstrap_host,
                    BROKER_PORT,
                    {"type": "metadata"},
                    size=32,
                    timeout=1.0,
                )
            except RequestTimeout:
                continue
            metadata = reply.get("metadata")
            if metadata and metadata.get("version", -1) >= self.metadata.get("version", -1):
                self.metadata = metadata
                self._start_fetchers()
            return
        return

    # -- experiment helpers -----------------------------------------------------------------
    def latencies(self, topic: Optional[str] = None) -> List[float]:
        return [
            record.latency
            for record in self.received
            if topic is None or record.topic == topic
        ]

    def received_keys(self, topic: Optional[str] = None) -> List[Any]:
        return [
            record.key
            for record in self.received
            if topic is None or record.topic == topic
        ]
