"""Broker server: replicated partition logs plus the produce/fetch protocol."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.broker.coordinator import COORDINATOR_PORT, CoordinationMode
from repro.broker.errors import (
    NotEnoughReplicasError,
    NotLeaderError,
    UnknownTopicError,
)
from repro.broker.batch import CONTROL_RECORD_SIZE, RecordBatch
from repro.broker.log import LogRecord, PartitionLog
from repro.broker.segment import LogStorageConfig, resolve_log_storage
from repro.network.host import Host
from repro.network.packet import estimate_size
from repro.network.transport import Request, RequestTimeout, Response, Transport
from repro.simulation.deadlines import DeadlineHeap
from repro.simulation.events import Event

BROKER_PORT = 9092

#: How long an ``acks="all"`` produce may sit in purgatory waiting for the
#: high watermark before it is answered ``not_enough_replicas``.
PRODUCE_PURGATORY_TIMEOUT = 30.0

#: How long a fetch that finds nothing to return — a consumer's below the high
#: watermark, a follower's at the log end — may sit in purgatory before it is
#: answered empty (Kafka's ``fetch.max.wait.ms`` / ``replica.fetch.wait.max.ms``).
#: Below every client's request timeout, or an idle partition reads as a dead
#: leader.
FETCH_MAX_WAIT = 0.5

#: The log attribute a consumer fetch of each isolation level reads up to.
FETCH_BOUND = {
    "read_uncommitted": "high_watermark",
    "read_committed": "last_stable_offset",
}


def find_coordinator_host(transport: Transport, bootstrap: List[str], timeout: float = 1.0):
    """Generator: ask bootstrap brokers where the coordinator lives.

    Shared by every group-management and idempotent-producer client.  Returns
    the coordinator's host name, or ``None`` when no bootstrap broker answered
    (all timed out) or the first responsive one reported no coordinator —
    mirroring Kafka clients, which take the first broker's word rather than
    polling the rest.
    """
    for bootstrap_host in bootstrap:
        try:
            reply = yield from transport.request(
                bootstrap_host,
                BROKER_PORT,
                {"type": "find_coordinator"},
                size=32,
                timeout=timeout,
            )
        except RequestTimeout:
            continue
        if reply.get("error") is None:
            return reply["coordinator_host"]
        return None
    return None


@dataclass
class BrokerConfig:
    """Tunable broker parameters (a subset of Kafka's ``server.properties``).

    The defaults reflect the "tuned for emulation scale" settings described in
    the paper's design section (smaller buffers, tighter intervals) rather
    than stock Kafka defaults.
    """

    heartbeat_interval: float = 1.5
    #: A follower's pause after a replica fetch that failed (error reply or
    #: timeout).  Not a replication period: a served fetch is followed by the
    #: next one at once, and an idle one is parked at the leader.
    replica_fetch_interval: float = 0.1
    replica_fetch_max_records: int = 500
    replica_lag_max: float = 10.0
    min_insync_replicas: int = 1
    #: CPU seconds charged per handled request and per record, modelling the
    #: JVM broker's request-handler work on the shared emulation host.
    cpu_per_request: float = 60e-6
    cpu_per_record: float = 12e-6
    #: In KRaft mode a leader only accepts produce requests while its
    #: coordinator session has been refreshed within this horizon.
    leadership_lease: float = 4.0
    #: Broker-wide default log storage policy (segment roll size, retention,
    #: cleanup policy, cold tier).  ``None`` — the default — means logs
    #: never roll and keep every record; per-topic overrides from
    #: the metadata snapshot are merged on top (``resolve_log_storage``).
    log_storage: Optional[LogStorageConfig] = None


@dataclass
class ReplicaState:
    """Leader-side bookkeeping for one locally-led partition."""

    follower_offsets: Dict[str, int] = field(default_factory=dict)
    follower_caught_up_at: Dict[str, float] = field(default_factory=dict)
    #: When this broker (re)took leadership — new followers get a grace
    #: period of ``replica_lag_max`` from this point before ISR eviction.
    since: float = 0.0


class Broker:
    """One broker process bound to an emulated host."""

    def __init__(
        self,
        host: Host,
        name: Optional[str] = None,
        coordinator_host: Optional[str] = None,
        mode: CoordinationMode = CoordinationMode.ZOOKEEPER,
        config: Optional[BrokerConfig] = None,
    ) -> None:
        self.host = host
        self.sim = host.sim
        self.name = name or f"broker-{host.name}"
        self.coordinator_host = coordinator_host
        self.mode = CoordinationMode(mode)
        self.config = config or BrokerConfig()
        self.transport = Transport(host, default_timeout=1.0, max_retries=0)
        self.logs: Dict[str, PartitionLog] = {}
        self.metadata: dict = {"version": -1, "partitions": {}, "brokers": {}}
        self.replica_states: Dict[str, ReplicaState] = {}
        self._local_epochs: Dict[str, int] = {}
        self._truncation_pending: Dict[str, bool] = {}
        #: The purgatory: per partition, the parked produces and fetches as
        #: ``(bound, target, waiter)`` — released once ``getattr(log, bound)``
        #: reaches ``target`` (see _park).  Their deadlines share one heap,
        #: swept by one armed timer.
        self._purgatory: Dict[str, List[Tuple[str, int, Event]]] = {}
        self._deadlines = DeadlineHeap(
            host.sim, lambda parked: parked[1][2].triggered, self._expire
        )
        #: Partitions this broker is running a replica fetcher for.
        self._fetchers: Set[str] = set()
        self.last_session_refresh: float = host.sim.now
        self._metadata_size_cache: tuple = (None, 0)
        self.running = False
        self.records_appended = 0
        self.records_served = 0
        self.produce_rejections = 0
        #: Idempotence counters (tests observe dedup hits here): batches and
        #: records dropped as duplicate retries, and produces rejected
        #: because a newer producer epoch fenced the sender.
        self.metrics: Dict[str, int] = {
            "duplicate_batches": 0,
            "duplicate_records": 0,
            "fenced_produces": 0,
            #: Transaction counters: COMMIT/ABORT control records appended on
            #: locally-led partitions and the log bytes they occupy.
            "control_batches": 0,
            "control_batch_bytes": 0,
            #: Storage-plane counters, folded up from per-log ``stats`` after
            #: every maintenance pass (all zero on flat-layout logs).
            "segments_sealed": 0,
            "segments_evicted": 0,
            "retention_records_dropped": 0,
            "compaction_records_removed": 0,
        }
        self.lost_records: List[LogRecord] = []
        self.transport.register(BROKER_PORT, self._handle)
        host.register_component(self)

    # -- lifecycle -----------------------------------------------------------------------
    def start(self) -> None:
        """Register with the coordinator and start background loops."""
        if self.running:
            return
        self.running = True
        self.sim.process(self._control_loop(), name=f"{self.name}:control")
        self._follow_leaders()

    def stop(self) -> None:
        self.running = False

    # -- control plane -------------------------------------------------------------------
    def _control_loop(self):
        """Register, then heartbeat and refresh metadata forever."""
        if self.coordinator_host is not None:
            while True:
                try:
                    yield from self.transport.request(
                        self.coordinator_host,
                        COORDINATOR_PORT,
                        {"type": "register", "broker": self.name, "host": self.host.name},
                        timeout=1.0,
                    )
                    self.last_session_refresh = self.sim.now
                    break
                except RequestTimeout:
                    yield self.sim.timeout(1.0)
        while self.running:
            yield self.sim.timeout(self.config.heartbeat_interval)
            if self.coordinator_host is None:
                continue
            try:
                reply = yield from self.transport.request(
                    self.coordinator_host,
                    COORDINATOR_PORT,
                    {"type": "heartbeat", "broker": self.name},
                    timeout=1.0,
                )
            except RequestTimeout:
                continue
            self.last_session_refresh = self.sim.now
            if reply.get("version", -1) != self.metadata.get("version", -1):
                yield from self._refresh_metadata()

    def _refresh_metadata(self):
        try:
            snapshot = yield from self.transport.request(
                self.coordinator_host,
                COORDINATOR_PORT,
                {"type": "metadata"},
                timeout=1.0,
            )
        except RequestTimeout:
            return
        self.apply_metadata(snapshot)

    def apply_metadata(self, snapshot: dict) -> None:
        """Apply a metadata snapshot: create logs, pick up/drop leadership."""
        self.metadata = snapshot
        for key, info in snapshot.get("partitions", {}).items():
            if self.name not in info["replicas"]:
                continue
            if key not in self.logs:
                self.logs[key] = PartitionLog(
                    info["topic"],
                    info["partition"],
                    storage=resolve_log_storage(
                        info.get("log"), self.config.log_storage
                    ),
                    file_tag=self.name,
                )
            previous_epoch = self._local_epochs.get(key, -1)
            new_epoch = info["leader_epoch"]
            if new_epoch > previous_epoch:
                self._local_epochs[key] = new_epoch
                # Whatever was promised under the old epoch is void: a deposed
                # leader must answer its parked produces and fetches *now*,
                # before it adopts the new leader's high watermark and
                # truncates.
                self._fail_waits(key)
                if info["leader"] == self.name:
                    # Taking (or keeping) leadership under a new epoch.
                    self.replica_states.setdefault(key, ReplicaState(since=self.sim.now))
                else:
                    # Now following a (possibly new) leader: reconcile our log
                    # with the leader's before fetching again.
                    self._truncation_pending[key] = True
        self._follow_leaders()

    @property
    def session_fresh(self) -> bool:
        """True while the broker's coordinator session is within the lease window."""
        return (self.sim.now - self.last_session_refresh) <= self.config.leadership_lease

    # -- helpers -----------------------------------------------------------------------------
    def _partition_info(self, key: str) -> Optional[dict]:
        return self.metadata.get("partitions", {}).get(key)

    def _is_leader(self, key: str) -> bool:
        info = self._partition_info(key)
        return bool(info) and info["leader"] == self.name

    def _leader_hint(self, key: str) -> Optional[str]:
        info = self._partition_info(key)
        if not info:
            return None
        leader = info.get("leader")
        brokers = self.metadata.get("brokers", {})
        if leader and leader in brokers:
            return brokers[leader]["host"]
        return None

    def _broker_host(self, broker_name: str) -> Optional[str]:
        entry = self.metadata.get("brokers", {}).get(broker_name)
        return entry["host"] if entry else None

    def log_for(self, topic: str, partition: int = 0) -> Optional[PartitionLog]:
        return self.logs.get(f"{topic}-{partition}")

    # -- request handling -----------------------------------------------------------------------
    def _handle(self, request: Request):
        if not self.running:
            return {"error": "unavailable"}
        payload = request.payload or {}
        request_type = payload.get("type")
        if request_type == "produce":
            return self._handle_produce(payload)
        if request_type == "fetch":
            return self._handle_fetch(payload)
        if request_type == "replica_fetch":
            return self._handle_replica_fetch(payload)
        if request_type == "epoch_end_offset":
            return self._handle_epoch_end_offset(payload)
        if request_type == "write_txn_markers":
            return self._handle_write_txn_markers(payload)
        if request_type == "find_coordinator":
            # Group-management clients ask any bootstrap broker where the
            # coordinator lives (Kafka's FindCoordinator request).  Kept out
            # of the metadata snapshot so the (size-cached) metadata replies
            # of clients that never use groups are byte-identical.
            if self.coordinator_host is None:
                return {"error": "no_coordinator"}
            return {"error": None, "coordinator_host": self.coordinator_host}
        if request_type == "metadata":
            # Explicit reply size: clients poll metadata constantly, and
            # letting the transport re-estimate the (large) snapshot dict per
            # reply dominated the control-plane cost.  The estimate is cached
            # per metadata version.
            return Response(
                payload={"metadata": self.metadata}, size=self._metadata_reply_size()
            )
        return {"error": f"unknown request type {request_type!r}"}

    def _metadata_reply_size(self) -> int:
        version = self.metadata.get("version", -1)
        cached_version, cached_size = self._metadata_size_cache
        if cached_version != version:
            cached_size = estimate_size({"metadata": self.metadata})
            self._metadata_size_cache = (version, cached_size)
        return cached_size

    # -- produce path ------------------------------------------------------------------------------
    def _handle_produce(self, payload: dict):
        key = f"{payload['topic']}-{payload.get('partition', 0)}"
        wire_batch: RecordBatch = payload["batch"]
        acks = payload.get("acks", 1)

        def produce_process():
            # Local copy: the partial-duplicate path rebinds it to the tail.
            batch = wire_batch
            info = self._partition_info(key)
            if info is None:
                self.produce_rejections += 1
                return {"error": "unknown_topic"}
            if not self._is_leader(key):
                self.produce_rejections += 1
                return {"error": "not_leader", "leader_host": self._leader_hint(key)}
            if self.mode is CoordinationMode.KRAFT and not self.session_fresh:
                # Raft-based metadata: a leader that lost quorum contact stops
                # acknowledging writes, so nothing can be silently truncated.
                self.produce_rejections += 1
                return {"error": "not_leader", "leader_host": None}
            if acks == "all" and len(info["isr"]) < self.config.min_insync_replicas:
                self.produce_rejections += 1
                return {"error": "not_enough_replicas"}
            log = self.logs[key]
            cost = self.config.cpu_per_request + self.config.cpu_per_record * len(batch)
            yield from self.host.compute(cost)
            producer_id = batch.producer_id
            if producer_id >= 0:
                # Idempotent produce: fence zombie epochs and drop duplicate
                # retries.  Checked *after* the compute yield so no other
                # produce process can interleave between verdict and append —
                # a concurrent retry parked in compute must observe this
                # batch's append when its own check finally runs.
                verdict = log.check_producer_batch(
                    producer_id,
                    batch.producer_epoch,
                    batch.base_sequence,
                    count=len(batch),
                )
                if verdict == "fenced":
                    self.produce_rejections += 1
                    self.metrics["fenced_produces"] += 1
                    entry = log.producer_entry(producer_id)
                    return {
                        "error": "producer_fenced",
                        "producer_epoch": entry.epoch if entry else -1,
                    }
                if verdict == "duplicate":
                    # The records are already durable here — acknowledge
                    # positively, but distinguishably: a DuplicateSequence
                    # ack, with the original offsets when the retry matches
                    # the last appended batch.
                    self.metrics["duplicate_batches"] += 1
                    self.metrics["duplicate_records"] += len(batch)
                    entry = log.producer_entry(producer_id)
                    base_offset = -1
                    if (
                        entry.last_count == len(batch)
                        and entry.last_sequence == batch.base_sequence + len(batch) - 1
                    ):
                        base_offset = entry.last_base_offset
                    if acks == "all":
                        # The original append may still be replicating; a
                        # duplicate ack must honor the same durability bar.
                        # The entry's last batch always covers this batch's
                        # final record, so its end bounds the wait without
                        # dragging in unrelated later appends.
                        target = (
                            base_offset + len(batch)
                            if base_offset >= 0
                            else entry.last_base_offset + entry.last_count
                        )
                        failure = yield from self._await_high_watermark(key, target)
                        if failure is not None:
                            return failure
                    return Response(
                        payload={
                            "error": None,
                            "duplicate": True,
                            "base_offset": base_offset,
                            "log_end_offset": log.log_end_offset,
                        },
                        size=64,
                    )
                if verdict == "partial":
                    # This replica holds only a *prefix* of the batch (a
                    # replica fetch sliced mid-batch right before this
                    # broker took leadership).  The prefix is a duplicate,
                    # but the tail was never appended anywhere: trim and
                    # fall through to append exactly the lost records — a
                    # whole-batch duplicate ack here would acknowledge
                    # records that no log holds.
                    entry = log.producer_entry(producer_id)
                    skip = entry.last_sequence - batch.base_sequence + 1
                    self.metrics["duplicate_batches"] += 1
                    self.metrics["duplicate_records"] += skip
                    batch = batch.tail(skip)
                    partial_prefix = True
                else:
                    partial_prefix = False
            else:
                partial_prefix = False
            epoch = self._local_epochs.get(key, info["leader_epoch"])
            # One append per batch: offsets assigned from the header, size
            # accounted once from ``batch.total_size`` inside the log.
            base_offset = log.append_batch(batch, timestamp=self.sim.now, leader_epoch=epoch)
            self.records_appended += len(batch)
            self._log_maintenance(log)
            self._maybe_advance_high_watermark(key)
            if acks == "all":
                failure = yield from self._await_high_watermark(key, log.log_end_offset)
                if failure is not None:
                    return failure
            if partial_prefix:
                # The ack covers prefix records whose original offsets this
                # leader cannot echo: a duplicate-style ack (positions not
                # re-derived) rather than a fake contiguous base offset.
                return Response(
                    payload={
                        "error": None,
                        "duplicate": True,
                        "base_offset": -1,
                        "log_end_offset": log.log_end_offset,
                    },
                    size=64,
                )
            return Response(
                payload={"error": None, "base_offset": base_offset, "log_end_offset": log.log_end_offset},
                size=64,
            )

        return produce_process()

    def _await_high_watermark(self, key: str, target: int):
        """acks=all durability bar: park until the HW covers ``target``.

        Returns ``None`` once replicated, otherwise the error reply
        (``not_enough_replicas`` after ``PRODUCE_PURGATORY_TIMEOUT``,
        ``not_leader`` on leadership loss) — the producer retries either.
        """
        if self.logs[key].high_watermark >= target:
            return None
        expired = {"error": "not_enough_replicas"}
        return (
            yield from self._park(key, "high_watermark", target, PRODUCE_PURGATORY_TIMEOUT, expired)
        )

    def _park(self, key: str, bound: str, target: int, timeout: float, expired: Any = None):
        """Park until ``getattr(self.logs[key], bound) >= target``.

        The purgatory, for produces and fetches alike: no polling — a wait is
        released by :meth:`_complete_waits` (run wherever a leader's log end,
        high watermark or last stable offset moves), by its deadline, or by
        :meth:`_fail_waits` when the partition's leader epoch changes.
        Returns ``None`` once the bound is there, ``expired`` after
        ``timeout`` and the ``not_leader`` reply on an epoch change.
        """
        wait = (bound, target, self.sim.event())
        self._purgatory.setdefault(key, []).append(wait)
        self._deadlines.push(self.sim.now + timeout, (key, wait, expired))
        return (yield wait[2])

    def _expire(self, parked: tuple) -> None:
        key, wait, expired = parked
        self._purgatory[key].remove(wait)
        wait[2].succeed_now(expired)  # the sweep is a heap callback

    def _complete_waits(self, key: str) -> None:
        """Release every parked wait of ``key`` whose bound reached its target."""
        waits = self._purgatory.get(key)
        if not waits:
            return
        log = self.logs[key]
        parked = []
        for wait in waits:
            bound, target, waiter = wait
            if getattr(log, bound) >= target:
                waiter.succeed(None)
            else:
                parked.append(wait)
        waits[:] = parked

    def _fail_waits(self, key: str) -> None:
        """Answer every parked produce and fetch of ``key`` with ``not_leader``.

        The produces' records were appended under an epoch this broker no
        longer leads in; the new leader's log decides whether they survive,
        so they must never be acknowledged from here — in particular not on a
        high watermark later *adopted* as a follower, which says nothing
        about records reconciliation is about to truncate.  For the same
        reason no fetch may be answered from that adopted state.
        """
        waits = self._purgatory.pop(key, None)
        if waits:
            reply = {"error": "not_leader", "leader_host": self._leader_hint(key)}
            for _bound, _target, waiter in waits:
                waiter.succeed(reply)

    def _maybe_advance_high_watermark(self, key: str) -> None:
        """Leader-side: HW = min(LEO, slowest in-sync follower's fetched offset).

        Called after every append and every replica fetch, so it is also where
        the purgatory learns that a log end, the high watermark or the last
        stable offset moved."""
        info = self._partition_info(key)
        if info is None or not self._is_leader(key):
            return
        log = self.logs[key]
        replica_state = self.replica_states.setdefault(key, ReplicaState())
        isr_followers = [b for b in info["isr"] if b != self.name]
        if isr_followers:
            offsets = [
                replica_state.follower_offsets.get(follower, 0) for follower in isr_followers
            ]
            log.advance_high_watermark(min([log.log_end_offset] + offsets))
        elif set(info["isr"]) == {self.name} or (
            len(info["isr"]) <= 1 and len(info["replicas"]) == 1
        ):
            log.advance_high_watermark(log.log_end_offset)
        self._complete_waits(key)

    # -- consumer fetch path -----------------------------------------------------------------------------
    def _handle_fetch(self, payload: dict):
        key = f"{payload['topic']}-{payload.get('partition', 0)}"

        def fetch_process():
            info = self._partition_info(key)
            if info is None:
                return {"error": "unknown_topic"}
            if not self._is_leader(key):
                return {"error": "not_leader", "leader_host": self._leader_hint(key)}
            log = self.logs[key]
            offset = payload.get("offset", 0)
            if offset < log.log_start_offset:
                # Retention dropped the requested range: a real Kafka
                # OffsetOutOfRange — the consumer applies its
                # ``auto_offset_reset`` policy against the bounds we return.
                return {
                    "error": "offset_out_of_range",
                    "log_start_offset": log.log_start_offset,
                    "log_end_offset": log.log_end_offset,
                }
            if offset > log.log_end_offset:
                offset = log.log_end_offset
            max_records = payload.get("max_records", 500)
            isolation = payload.get("isolation", "read_uncommitted")
            # read_committed never reads past the Last Stable Offset (the
            # first offset of the earliest still-open transaction); with no
            # transactions the LSO equals the HW and both paths are identical.
            bound = FETCH_BOUND[isolation]
            # One wire object per fetch: the batch header carries the size, so
            # the reply size is header arithmetic, not a per-record sum.
            batch = log.read_batch(offset, max_records=max_records, up_to=getattr(log, bound))
            if not len(batch):
                # Nothing visible yet: wait here for the bound to move (the
                # reply then leaves at that instant) or for FETCH_MAX_WAIT.
                failure = yield from self._park(
                    key, bound, max(offset, getattr(log, bound)) + 1, FETCH_MAX_WAIT
                )
                if failure is not None:
                    return failure
                batch = log.read_batch(
                    offset, max_records=max_records, up_to=getattr(log, bound)
                )
            cost = self.config.cpu_per_request + self.config.cpu_per_record * len(batch)
            yield from self.host.compute(cost)
            reply = {
                "error": None,
                "batch": batch,
                "high_watermark": log.high_watermark,
                "log_end_offset": log.log_end_offset,
            }
            visible = len(batch)
            if len(batch) and log.has_transactions:
                # Control records (and, under read_committed, records of
                # aborted transactions) ship inside the contiguous batch but
                # must not reach the application: the consumer filters them by
                # offset.  Keys added to the reply dict do not change its
                # explicitly-sized timing.
                skip_offsets, skipped_bytes = log.invisible_offsets(
                    batch.base_offset, batch.next_offset, isolation
                )
                if skip_offsets:
                    reply["skip_offsets"] = skip_offsets
                    reply["skipped_bytes"] = skipped_bytes
                    visible -= len(skip_offsets)
            self.records_served += visible
            return Response(payload=reply, size=batch.total_size + 64)

        return fetch_process()

    # -- transaction markers -----------------------------------------------------------------------
    def _handle_write_txn_markers(self, payload: dict):
        """Append a COMMIT/ABORT control record (coordinator-issued).

        Marker writes honor the acks=all durability bar — the coordinator
        only completes a transaction once every marker is replicated, so a
        committed transaction stays committed across leader elections.
        Retries after a lost ack are deduplicated against the log's
        ``last_markers`` state instead of appending a second marker.
        """
        key = payload["partition_key"]
        producer_id = payload["producer_id"]
        producer_epoch = payload["producer_epoch"]
        marker = payload["marker"]

        def marker_process():
            info = self._partition_info(key)
            if info is None:
                return {"error": "unknown_topic"}
            if not self._is_leader(key):
                return {"error": "not_leader", "leader_host": self._leader_hint(key)}
            log = self.logs[key]
            last = log.last_markers.get(producer_id)
            if (
                log.open_txn_first_offset(producer_id) is None
                and last is not None
                and last[0] >= producer_epoch
                and last[1] == marker
            ):
                # The marker already closed this transaction here (retry of a
                # write whose ack was lost): re-ack at the same durability bar.
                failure = yield from self._await_high_watermark(key, last[2] + 1)
                if failure is not None:
                    return failure
                return Response(
                    payload={"error": None, "duplicate": True, "offset": last[2]},
                    size=48,
                )
            cost = self.config.cpu_per_request + self.config.cpu_per_record
            yield from self.host.compute(cost)
            epoch = self._local_epochs.get(key, info["leader_epoch"])
            offset = log.append_control(
                producer_id,
                producer_epoch,
                marker,
                timestamp=self.sim.now,
                leader_epoch=epoch,
            )
            self.metrics["control_batches"] += 1
            self.metrics["control_batch_bytes"] += CONTROL_RECORD_SIZE
            self._log_maintenance(log)
            self._maybe_advance_high_watermark(key)
            failure = yield from self._await_high_watermark(key, offset + 1)
            if failure is not None:
                return failure
            return Response(payload={"error": None, "offset": offset}, size=48)

        return marker_process()

    # -- replication path -----------------------------------------------------------------------------------
    def _handle_epoch_end_offset(self, payload: dict) -> dict:
        """Leader-side answer to a follower's truncation query."""
        key = payload["partition_key"]
        follower_epoch = payload["epoch"]
        log = self.logs.get(key)
        if log is None or not self._is_leader(key):
            return {"error": "not_leader", "leader_host": self._leader_hint(key)}
        end_offset = log.log_end_offset
        # The end offset of the follower's epoch is the start offset of the
        # first later epoch in the leader's log (or the leader's LEO if the
        # follower's epoch is still the latest).
        for epoch, start in log.epoch_boundaries:
            if epoch > follower_epoch:
                end_offset = start
                break
        return {"error": None, "end_offset": end_offset}

    def _handle_replica_fetch(self, payload: dict):
        key = payload["partition_key"]
        follower = payload["follower"]
        offset = payload["offset"]

        def replica_fetch_process():
            info = self._partition_info(key)
            if info is None or not self._is_leader(key):
                return {"error": "not_leader", "leader_host": self._leader_hint(key)}
            log = self.logs[key]
            replica_state = self.replica_states.setdefault(key, ReplicaState())
            replica_state.follower_offsets[follower] = offset
            caught_up = offset >= log.log_end_offset
            if caught_up:
                replica_state.follower_caught_up_at[follower] = self.sim.now
            # The fetch is the follower's acknowledgement of everything below
            # ``offset``: the high watermark moves on its arrival.
            self._maybe_advance_high_watermark(key)
            if caught_up:
                # Wait here for the next append (or FETCH_MAX_WAIT).
                failure = yield from self._park(
                    key, "log_end_offset", offset + 1, FETCH_MAX_WAIT
                )
                if failure is not None:
                    return failure
            batch = log.read_batch(
                offset,
                max_records=self.config.replica_fetch_max_records,
                with_epochs=True,
            )
            cost = self.config.cpu_per_request + self.config.cpu_per_record * len(batch)
            yield from self.host.compute(cost)
            yield from self._maybe_update_isr(key)
            return Response(
                payload={
                    "error": None,
                    "batch": batch,
                    "high_watermark": log.high_watermark,
                    "leader_epoch": self._local_epochs[key],
                },
                size=batch.total_size + 64,
            )

        return replica_fetch_process()

    def _maybe_update_isr(self, key: str):
        """Leader-side ISR maintenance, persisted through the coordinator."""
        info = self._partition_info(key)
        if info is None or not self._is_leader(key) or self.coordinator_host is None:
            return
        log = self.logs[key]
        replica_state = self.replica_states.setdefault(key, ReplicaState())
        now = self.sim.now
        desired_isr = [self.name]
        for follower in info["replicas"]:
            if follower == self.name:
                continue
            fetched = replica_state.follower_offsets.get(follower)
            caught_up_at = replica_state.follower_caught_up_at.get(follower, -1.0)
            if fetched is None:
                # Never fetched yet: keep it in the ISR during the grace period
                # after this broker took leadership, evict afterwards.
                if (now - replica_state.since) <= self.config.replica_lag_max:
                    desired_isr.append(follower)
                continue
            lag_ok = (
                fetched >= log.log_end_offset
                or (now - caught_up_at) <= self.config.replica_lag_max
            )
            if lag_ok:
                desired_isr.append(follower)
        if set(desired_isr) == set(info["isr"]):
            return
        try:
            reply = yield from self.transport.request(
                self.coordinator_host,
                COORDINATOR_PORT,
                {
                    "type": "isr_update",
                    "partition": key,
                    "isr": desired_isr,
                    "leader_epoch": info["leader_epoch"],
                },
                timeout=1.0,
            )
        except RequestTimeout:
            # ZooKeeper unreachable: the ISR change cannot be persisted, so the
            # local view keeps the old ISR (and the HW stays put) — matching
            # the stale-leader behaviour under a partition.
            return
        if reply.get("error") is None:
            info = dict(info)
            info["isr"] = desired_isr
            self.metadata["partitions"][key] = info
            # In-place mutation without a version bump: drop the cached
            # metadata reply size so it is re-estimated from fresh content.
            self._metadata_size_cache = (None, 0)

    # -- follower replication ----------------------------------------------------------------------------------
    def _followed_leader(self, key: str) -> Optional[str]:
        """Host of the leader this broker replicates ``key`` from, if any."""
        info = self._partition_info(key)
        if not info or self.name not in info["replicas"] or info["leader"] == self.name:
            return None
        return self._broker_host(info["leader"]) if info["leader"] else None

    def _follow_leaders(self) -> None:
        """Run one fetcher per partition that has a leader to follow; a broker
        that follows nothing has nothing running."""
        if not self.running:
            return
        for key in self.metadata.get("partitions", {}):
            if key not in self._fetchers and self._followed_leader(key) is not None:
                self._fetchers.add(key)
                self.sim.process(
                    self._replica_fetcher(key), name=f"{self.name}:replica-fetcher:{key}"
                )

    def _replica_fetcher(self, key: str):
        """Replicate ``key`` from its leader for as long as there is one.

        The next fetch leaves the moment a reply lands — it is the
        acknowledgement that moves the leader's high watermark — and parks at
        the leader while there is nothing new; only an error or a timeout is
        followed by a ``replica_fetch_interval`` pause.
        """
        log = self.logs[key]
        while self.running:
            leader_host = self._followed_leader(key)
            if leader_host is None:
                break
            answered = True
            if self._truncation_pending.get(key):
                answered = yield from self._reconcile_with_leader(key, leader_host)
            if answered:
                answered = yield from self._fetch_once_from_leader(key, leader_host, log)
            if not answered:
                yield self.sim.timeout(self.config.replica_fetch_interval)
        self._fetchers.discard(key)

    def _reconcile_with_leader(self, key: str, leader_host: str):
        """Truncate our log to match the new leader before resuming fetches."""
        log = self.logs[key]
        last_epoch = log.epoch_boundaries[-1][0] if log.epoch_boundaries else 0
        try:
            reply = yield from self.transport.request(
                leader_host,
                BROKER_PORT,
                {"type": "epoch_end_offset", "partition_key": key, "epoch": last_epoch},
                timeout=1.0,
            )
        except RequestTimeout:
            return False
        if reply.get("error") is not None:
            return False
        end_offset = reply["end_offset"]
        if end_offset < log.log_end_offset:
            discarded = log.truncate_to(end_offset)
            acked_discarded = [r for r in discarded if r is not None]
            self.lost_records.extend(acked_discarded)
        self._truncation_pending[key] = False
        return True

    def _fetch_once_from_leader(self, key: str, leader_host: str, log: PartitionLog):
        """One replica fetch; False when the leader did not answer it."""
        epoch = self._local_epochs[key]
        try:
            reply = yield from self.transport.request(
                leader_host,
                BROKER_PORT,
                {
                    "type": "replica_fetch",
                    "partition_key": key,
                    "offset": log.log_end_offset,
                    "follower": self.name,
                },
                size=96,
                timeout=1.0,
            )
        except RequestTimeout:
            return False
        if reply.get("error") is not None:
            return False
        if self._local_epochs[key] != epoch:
            # The epoch changed while the fetch was parked: the reply
            # describes a leader this broker no longer follows (it may lead
            # the partition itself by now).
            return True
        batch: RecordBatch = reply["batch"]
        if len(batch):
            # Whole-batch replica append: the already-present overlap (if the
            # follower refetched from an older LEO) is trimmed inside, and a
            # batch *past* the LEO — the leader's retention/compaction left a
            # gap — is adopted with a forced segment boundary.
            log.append_wire_batch(batch)
            self._log_maintenance(log)
        log.set_high_watermark(reply["high_watermark"])
        return True

    # -- storage maintenance -------------------------------------------------------------
    def _log_maintenance(self, log: PartitionLog) -> None:
        """Run one retention/compaction/eviction pass on ``log`` and fold the
        per-log storage counters up into the broker metrics (a log without a
        storage policy has neither)."""
        if log.maybe_maintain(self.sim.now):
            self.refresh_storage_metrics()

    def refresh_storage_metrics(self) -> None:
        """Fold the per-log storage counters up into ``metrics``.

        Runs after every maintenance pass; readers (cluster aggregates,
        scenario metrics) call it directly since fetch-driven fault-in can
        evict segments between produce-side maintenance passes.
        """
        for name in (
            "segments_sealed",
            "segments_evicted",
            "retention_records_dropped",
            "compaction_records_removed",
        ):
            self.metrics[name] = sum(
                partition_log.stats[name] for partition_log in self.logs.values()
            )

    def __repr__(self) -> str:
        return f"<Broker {self.name} on {self.host.name} partitions={len(self.logs)}>"
