"""Broker server: replicated partition logs plus the produce/fetch protocol."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.broker.coordinator import COORDINATOR_PORT, CoordinationMode
from repro.broker.batch import CONTROL_RECORD_SIZE, RecordBatch
from repro.broker.log import PartitionLog
from repro.broker.segment import LogStorageConfig, resolve_log_storage
from repro.network.host import Host
from repro.network.packet import estimate_size
from repro.network.transport import DEFERRED, Request, RequestTimeout, Response, Transport
from repro.simulation.deadlines import DeadlineHeap
from repro.simulation.process import Lifecycle

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

#: How often a broker heartbeats the coordinator.
HEARTBEAT_INTERVAL = 1.5

#: In KRaft mode a leader only accepts produce requests while its coordinator
#: session has been refreshed within this horizon.
LEADERSHIP_LEASE = 4.0

#: A follower's pause after a replica fetch that failed (error reply or
#: timeout).  Not a replication period: a served fetch is followed by the next
#: one at once, and an idle one is parked at the leader.
REPLICA_FETCH_BACKOFF = 0.1

#: The most records one replica fetch asks for.
REPLICA_FETCH_MAX_RECORDS = 500

#: How long a follower may lag the leader's log end — or, never having
#: fetched, how long after the leader took over — and stay in the ISR.
REPLICA_LAG_MAX = 10.0

#: An ``acks="all"`` produce is rejected while the ISR is smaller than this.
MIN_INSYNC_REPLICAS = 1

#: CPU seconds charged per handled request, modelling the JVM broker's
#: request-handler work on the shared emulation host (plus
#: ``Broker.cpu_per_record`` per record).
CPU_PER_REQUEST = 60e-6

#: How often producers and consumers refresh their cluster metadata: the
#: producer lazily before a send, the consumer on a loop.
METADATA_REFRESH_INTERVAL = 5.0

#: The log attribute a consumer fetch of each isolation level reads up to.
FETCH_BOUND = {
    "read_uncommitted": "high_watermark",
    "read_committed": "last_stable_offset",
}


def find_coordinator_host(transport: Transport, bootstrap: List[str], timeout: float = 1.0):
    """Generator: ask bootstrap brokers where the coordinator lives.

    Shared by every group-management and idempotent-producer client.  Returns
    the coordinator's host name, or ``None`` when no bootstrap broker answered
    (all timed out) or the first responsive one answered an error (it was
    stopped) — mirroring Kafka clients, which take the first broker's word
    rather than polling the rest.
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


def _resume(outcome: Any, then: Callable[[], Any]) -> Any:
    """A parked wait's answer: ``then()`` once its bound is there (or its
    deadline passed with nothing to say), else the reply it was released with."""
    return then() if outcome is None else outcome


@dataclass
class ReplicaState:
    """Leader-side bookkeeping for one locally-led partition."""

    follower_offsets: Dict[str, int] = field(default_factory=dict)
    follower_caught_up_at: Dict[str, float] = field(default_factory=dict)
    #: When this broker (re)took leadership — new followers get a grace
    #: period of ``REPLICA_LAG_MAX`` from this point before ISR eviction.
    since: float = 0.0


class Broker(Lifecycle):
    """One broker process bound to an emulated host."""

    def __init__(
        self,
        host: Host,
        coordinator_host: str,
        name: Optional[str] = None,
        mode: CoordinationMode = CoordinationMode.ZOOKEEPER,
        log_storage: Optional[LogStorageConfig] = None,
    ) -> None:
        """``log_storage`` is the storage every log on this broker starts
        from (``None``: logs never roll and keep every record); per-topic
        overrides from the metadata snapshot are merged on top
        (``resolve_log_storage``)."""
        self.host = host
        self.sim = host.sim
        self.name = name or f"broker-{host.name}"
        self.coordinator_host = coordinator_host
        self.mode = CoordinationMode(mode)
        #: CPU seconds charged per record on top of ``CPU_PER_REQUEST``; the
        #: one broker cost a scenario varies (fig8's calibration profiles).
        self.cpu_per_record = 12e-6
        self.log_storage = log_storage
        self.transport = Transport(host, default_timeout=1.0, max_retries=0)
        self.logs: Dict[str, PartitionLog] = {}
        self.metadata: dict = {"version": -1, "partitions": {}, "brokers": {}}
        self.replica_states: Dict[str, ReplicaState] = {}
        self._local_epochs: Dict[str, int] = {}
        self._truncation_pending: Dict[str, bool] = {}
        #: The purgatory: per partition, the parked produces and fetches as
        #: ``(bound, target, request, then)`` — answered with ``then()`` once
        #: ``getattr(log, bound)`` reaches ``target`` (see _park).  Their
        #: deadlines share one heap, swept by one armed timer; a wait no
        #: longer in its list was answered.
        self._purgatory: Dict[str, List[Tuple[str, int, Request, Callable]]] = {}
        self._deadlines = DeadlineHeap(
            host.sim,
            lambda parked: parked[1] not in self._purgatory.get(parked[0], ()),
            self._expire,
        )
        #: Partitions this broker is running a replica fetcher for.
        self._fetchers: Set[str] = set()
        self.last_session_refresh: float = host.sim.now
        self._metadata_size_cache: tuple = (None, 0)
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
        }
        self.transport.register(BROKER_PORT, self._handle)
        host.register_component(self)

    # -- lifecycle -----------------------------------------------------------------------
    def start(self) -> None:
        """Register with the coordinator and start background loops."""
        if not self._open():
            return
        self.spawn(self._control_loop(), name=f"{self.name}:control")
        self._follow_leaders()

    # -- control plane -------------------------------------------------------------------
    def _control_loop(self):
        """Register, then heartbeat and refresh metadata while ``live()``."""
        while self.live():
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
        while self.live():
            yield self.sim.timeout(HEARTBEAT_INTERVAL)
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
                        info.get("log"), self.log_storage
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
        return (self.sim.now - self.last_session_refresh) <= LEADERSHIP_LEASE

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
            return self._handle_produce(request, payload)
        if request_type == "fetch":
            return self._handle_fetch(request, payload)
        if request_type == "replica_fetch":
            return self._handle_replica_fetch(request, payload)
        if request_type == "epoch_end_offset":
            return self._handle_epoch_end_offset(payload)
        if request_type == "write_txn_markers":
            return self._handle_write_txn_markers(request, payload)
        if request_type == "find_coordinator":
            # Group-management clients ask any bootstrap broker where the
            # coordinator lives (Kafka's FindCoordinator request).  Kept out
            # of the metadata snapshot so the (size-cached) metadata replies
            # of clients that never use groups are byte-identical.
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
    def _handle_produce(self, request: Request, payload: dict):
        key = f"{payload['topic']}-{payload.get('partition', 0)}"
        wire_batch: RecordBatch = payload["batch"]
        acks = payload.get("acks", 1)
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
        if acks == "all" and len(info["isr"]) < MIN_INSYNC_REPLICAS:
            self.produce_rejections += 1
            return {"error": "not_enough_replicas"}
        log = self.logs[key]

        def append():
            """The produce at its CPU completion time: fence, deduplicate, append."""
            # Local copy: the partial-duplicate path rebinds it to the tail.
            batch = wire_batch
            producer_id = batch.producer_id
            partial_prefix = False
            if producer_id >= 0:
                # Idempotent produce: fence zombie epochs and drop duplicate
                # retries.  Checked at the completion time, next to the append,
                # so no other produce can interleave between verdict and append —
                # a concurrent retry still waiting for CPU observes this batch's
                # append when its own check finally runs.
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
                    # positively, but distinguishably: a DuplicateSequence ack,
                    # with the original offsets when the retry matches the last
                    # appended batch.
                    self.metrics["duplicate_batches"] += 1
                    self.metrics["duplicate_records"] += len(batch)
                    entry = log.producer_entry(producer_id)
                    base_offset = -1
                    if (
                        entry.last_count == len(batch)
                        and entry.last_sequence == batch.base_sequence + len(batch) - 1
                    ):
                        base_offset = entry.last_base_offset

                    def duplicate_ack():
                        return Response(
                            payload={
                                "error": None,
                                "duplicate": True,
                                "base_offset": base_offset,
                                "log_end_offset": log.log_end_offset,
                            },
                            size=64,
                        )

                    if acks == "all":
                        # The original append may still be replicating; a
                        # duplicate ack must honor the same durability bar.  The
                        # entry's last batch always covers this batch's final
                        # record, so its end bounds the wait without dragging in
                        # unrelated later appends.
                        target = (
                            base_offset + len(batch)
                            if base_offset >= 0
                            else entry.last_base_offset + entry.last_count
                        )
                        return self._await_high_watermark(request, key, target, duplicate_ack)
                    return duplicate_ack()
                if verdict == "partial":
                    # This replica holds only a *prefix* of the batch (a replica
                    # fetch sliced mid-batch right before this broker took
                    # leadership).  The prefix is a duplicate, but the tail was
                    # never appended anywhere: trim and fall through to append
                    # exactly the lost records — a whole-batch duplicate ack here
                    # would acknowledge records that no log holds.
                    entry = log.producer_entry(producer_id)
                    skip = entry.last_sequence - batch.base_sequence + 1
                    self.metrics["duplicate_batches"] += 1
                    self.metrics["duplicate_records"] += skip
                    batch = batch.tail(skip)
                    partial_prefix = True
            epoch = self._local_epochs.get(key, info["leader_epoch"])
            # One append per batch: offsets assigned from the header, size
            # accounted once from ``batch.total_size`` inside the log.
            base_offset = log.append_batch(batch, timestamp=self.sim.now, leader_epoch=epoch)
            self.records_appended += len(batch)
            log.maybe_maintain(self.sim.now)
            self._maybe_advance_high_watermark(key)

            def ack():
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

            if acks == "all":
                return self._await_high_watermark(request, key, log.log_end_offset, ack)
            return ack()

        cost = CPU_PER_REQUEST + self.cpu_per_record * len(wire_batch)
        return request.after(self.host.compute(cost), append)

    def _await_high_watermark(self, request: Request, key: str, target: int, then: Callable):
        """acks=all durability bar: ``then()`` once the HW covers ``target``.

        Answers at once if it already does; otherwise parks, and the answer
        is ``not_enough_replicas`` after ``PRODUCE_PURGATORY_TIMEOUT`` or
        ``not_leader`` on leadership loss — the producer retries either.
        """
        if self.logs[key].high_watermark >= target:
            return then()
        expired = {"error": "not_enough_replicas"}
        return self._park(
            request, key, "high_watermark", target, PRODUCE_PURGATORY_TIMEOUT, then, expired
        )

    def _park(
        self,
        request: Request,
        key: str,
        bound: str,
        target: int,
        timeout: float,
        then: Callable,
        expired: Any = None,
    ):
        """Answer ``request`` with ``then()`` once ``getattr(self.logs[key],
        bound) >= target``; returns ``DEFERRED``.

        The purgatory, for produces and fetches alike: no polling and no
        process — a wait is a continuation, released by
        :meth:`_complete_waits` (run wherever a leader's log end, high
        watermark or last stable offset moves), by its deadline, or by
        :meth:`_fail_waits` when the partition's leader epoch changes.  The
        answer is ``then()`` once the bound is there (also at the deadline
        when ``expired`` is ``None``), ``expired`` after ``timeout`` and the
        ``not_leader`` reply on an epoch change.
        """
        wait = (bound, target, request, then)
        self._purgatory.setdefault(key, []).append(wait)
        self._deadlines.push(self.sim.now + timeout, (key, wait, expired))
        return DEFERRED

    def _expire(self, parked: tuple) -> None:
        key, wait, expired = parked
        self._purgatory[key].remove(wait)
        wait[2].answer(_resume, expired, wait[3])  # the sweep is a heap callback

    def _complete_waits(self, key: str) -> None:
        """Release every parked wait of ``key`` whose bound reached its target:
        each answers in an entry of its own at the current time."""
        waits = self._purgatory.get(key)
        if not waits:
            return
        log = self.logs[key]
        parked = []
        for wait in waits:
            bound, target, request, then = wait
            if getattr(log, bound) >= target:
                self.sim.call_later(0.0, request.answer, then)
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
            for _bound, _target, request, then in waits:
                self.sim.call_later(0.0, request.answer, _resume, reply, then)

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
    def _handle_fetch(self, request: Request, payload: dict):
        key = f"{payload['topic']}-{payload.get('partition', 0)}"
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
        # read_committed never reads past the Last Stable Offset (the first
        # offset of the earliest still-open transaction); with no
        # transactions the LSO equals the HW and both paths are identical.
        bound = FETCH_BOUND[isolation]

        def read():
            # One wire object per fetch: the batch header carries the size,
            # so the reply size is header arithmetic, not a per-record sum.
            return log.read_batch(offset, max_records=max_records, up_to=getattr(log, bound))

        def serve(batch):
            cost = CPU_PER_REQUEST + self.cpu_per_record * len(batch)
            return request.after(
                self.host.compute(cost), self._fetch_reply, log, batch, isolation
            )

        batch = read()
        if len(batch):
            return serve(batch)
        # Nothing visible yet: wait here for the bound to move (the read and
        # the reply then happen at that instant) or for FETCH_MAX_WAIT.
        return self._park(
            request,
            key,
            bound,
            max(offset, getattr(log, bound)) + 1,
            FETCH_MAX_WAIT,
            lambda: serve(read()),
        )

    def _fetch_reply(self, log: PartitionLog, batch: RecordBatch, isolation: str) -> Response:
        """A consumer fetch's reply, built at its CPU completion time."""
        reply = {
            "error": None,
            "batch": batch,
            "high_watermark": log.high_watermark,
            "log_end_offset": log.log_end_offset,
        }
        visible = len(batch)
        if len(batch) and log.has_transactions:
            # Control records (and, under read_committed, records of aborted
            # transactions) ship inside the contiguous batch but must not
            # reach the application: the consumer drops them by offset.
            # Keys added to the reply dict do not change its explicitly-sized
            # timing.
            skip_offsets = log.invisible_offsets(
                batch.base_offset, batch.next_offset, isolation
            )
            if skip_offsets:
                reply["skip_offsets"] = skip_offsets
                visible -= len(skip_offsets)
        self.records_served += visible
        return Response(payload=reply, size=batch.total_size + 64)

    # -- transaction markers -----------------------------------------------------------------------
    def _handle_write_txn_markers(self, request: Request, payload: dict):
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
            return self._await_high_watermark(
                request,
                key,
                last[2] + 1,
                lambda: Response(
                    payload={"error": None, "duplicate": True, "offset": last[2]}, size=48
                ),
            )

        def append():
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
            log.maybe_maintain(self.sim.now)
            self._maybe_advance_high_watermark(key)
            return self._await_high_watermark(
                request,
                key,
                offset + 1,
                lambda: Response(payload={"error": None, "offset": offset}, size=48),
            )

        cost = CPU_PER_REQUEST + self.cpu_per_record
        return request.after(self.host.compute(cost), append)

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

    def _handle_replica_fetch(self, request: Request, payload: dict):
        key = payload["partition_key"]
        follower = payload["follower"]
        offset = payload["offset"]
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

        def serve():
            batch = log.read_batch(
                offset,
                max_records=REPLICA_FETCH_MAX_RECORDS,
                with_epochs=True,
            )
            cost = CPU_PER_REQUEST + self.cpu_per_record * len(batch)
            return request.after(
                self.host.compute(cost), self._replica_fetch_reply, request, key, log, batch
            )

        if caught_up:
            # Wait here for the next append (or FETCH_MAX_WAIT).
            return self._park(request, key, "log_end_offset", offset + 1, FETCH_MAX_WAIT, serve)
        return serve()

    def _replica_fetch_reply(self, request: Request, key: str, log: PartitionLog, batch):
        """A replica fetch at its CPU completion time: maintain the ISR, reply."""

        def reply():
            return Response(
                payload={
                    "error": None,
                    "batch": batch,
                    "high_watermark": log.high_watermark,
                    "leader_epoch": self._local_epochs[key],
                },
                size=batch.total_size + 64,
            )

        isr_change = self._isr_change(key)
        if isr_change is None:
            return reply()
        # Persisting the change is an RPC of the leader's own: the one reply
        # that waits in a process.
        self.sim.start(
            self._persist_isr(key, *isr_change, request, reply),
            name=f"{self.name}:isr-update:{key}",
        )
        return DEFERRED

    def _isr_change(self, key: str) -> Optional[Tuple[dict, List[str]]]:
        """Leader-side ISR maintenance: ``(info, desired_isr)`` when the ISR
        should change, else ``None``."""
        info = self._partition_info(key)
        if info is None or not self._is_leader(key):
            return None
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
                if (now - replica_state.since) <= REPLICA_LAG_MAX:
                    desired_isr.append(follower)
                continue
            lag_ok = (
                fetched >= log.log_end_offset
                or (now - caught_up_at) <= REPLICA_LAG_MAX
            )
            if lag_ok:
                desired_isr.append(follower)
        if set(desired_isr) == set(info["isr"]):
            return None
        return info, desired_isr

    def _persist_isr(
        self, key: str, info: dict, desired_isr: List[str], request: Request, reply: Callable
    ):
        """Persist an ISR change through the coordinator, then answer the
        replica fetch that found it."""
        try:
            ack = yield from self.transport.request(
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
            ack = None
        if ack is not None and ack.get("error") is None:
            info = dict(info)
            info["isr"] = desired_isr
            self.metadata["partitions"][key] = info
            # In-place mutation without a version bump: drop the cached
            # metadata reply size so it is re-estimated from fresh content.
            self._metadata_size_cache = (None, 0)
        request.answer(reply)

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
        followed by a ``REPLICA_FETCH_BACKOFF`` pause.
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
                yield self.sim.timeout(REPLICA_FETCH_BACKOFF)
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
            log.truncate_to(end_offset)
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
            log.maybe_maintain(self.sim.now)
        log.set_high_watermark(reply["high_watermark"])
        return True

    def __repr__(self) -> str:
        return f"<Broker {self.name} on {self.host.name} partitions={len(self.logs)}>"
