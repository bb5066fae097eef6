"""Producer client.

Implements the Kafka producer behaviours the paper's experiments depend on:

* ``buffer.memory`` — records wait in a bounded accumulator (Figure 9c shows
  its effect on the emulation's memory footprint);
* batching with a ``linger`` interval;
* ``request.timeout`` and retries — a producer cut off from the leader keeps
  re-sending records until they are either accepted or the delivery timeout
  expires (the latency inflation of Figure 6c);
* ``acks`` (0, 1 or "all");
* metadata refresh on ``not_leader`` errors so producers find newly elected
  leaders after a failure.

Records are tracked end to end: every send returns a future that fires with
:class:`RecordMetadata` on acknowledgement or fails with
:class:`DeliveryFailed`, and the producer keeps per-record accounting that the
delivery-matrix experiment (Figure 6b) reads back.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional

from repro.broker.batch import RecordBatch
from repro.broker.broker import BROKER_PORT, find_coordinator_host
from repro.broker.coordinator import COORDINATOR_PORT
from repro.broker.errors import (
    DeliveryFailed,
    InvalidTxnStateError,
    ProducerFencedError,
)
from repro.broker.message import ProducerRecord, RecordMetadata
from repro.network.host import Host
from repro.network.transport import RequestTimeout, Transport
from repro.simulation.events import Event


@dataclass
class ProducerConfig:
    """Producer tunables (YAML ``prodCfg`` keys map onto these).

    Batching knobs (mirroring Kafka's ``batch.size`` / ``linger.ms`` /
    ``max.in.flight``-per-partition semantics):

    * ``batch_size`` — byte threshold per partition batch.  A batch that
      reaches it (or ``max_batch_records``) is flushed *immediately* rather
      than waiting out its linger, so one RPC, one size estimate and one
      broker CPU charge cover many records under heavy traffic.
    * ``linger`` — how long an under-filled batch may wait for more records,
      measured from the moment its first record was queued (``linger.ms``).

    ``idempotence`` turns on the exactly-once produce path: the producer
    initializes a coordinator-allocated ``(producer_id, epoch)`` pair before
    sending, stamps every batch with per-partition sequence numbers, and
    partition leaders drop duplicate retries (acknowledged distinguishably —
    see ``docs/exactly_once.md``).  Orthogonal to ``acks``: dedup closes the
    retry-duplication window whatever the ack level, while *acked implies
    durable* additionally needs ``acks="all"`` (plus KRaft mode under
    partitions), exactly as without idempotence.

    ``transactional_id`` layers transactions on top (implies idempotence):
    sends must happen between :meth:`Producer.begin_transaction` and
    :meth:`Producer.commit_transaction` / ``abort_transaction``, partitions
    register with the coordinator automatically on first send, and commits
    are atomic across every touched partition for ``read_committed``
    consumers.  Re-initializing the same transactional id (producer restart)
    fences the previous instance and aborts its open transaction.
    ``transaction_timeout`` caps how long a transaction may stay open before
    the coordinator's sweeper aborts it.
    """

    buffer_memory: int = 32 * 1024 * 1024
    batch_size: int = 16 * 1024
    linger: float = 0.02
    request_timeout: float = 2.0
    delivery_timeout: float = 120.0
    retries: int = 1_000_000
    retry_backoff: float = 0.1
    acks: Any = 1
    metadata_refresh_interval: float = 5.0
    max_batch_records: int = 500
    idempotence: bool = False
    transactional_id: Optional[str] = None
    transaction_timeout: float = 60.0

    def __post_init__(self) -> None:
        if self.buffer_memory <= 0:
            raise ValueError("buffer_memory must be positive")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.delivery_timeout <= 0:
            raise ValueError("delivery_timeout must be positive")
        if self.acks not in (0, 1, "all"):
            raise ValueError("acks must be 0, 1 or 'all'")
        if self.transaction_timeout <= 0:
            raise ValueError("transaction_timeout must be positive")
        if self.transactional_id:
            # Transactions are sequence-numbered batches plus markers — the
            # idempotent machinery is a prerequisite, exactly as in Kafka.
            self.idempotence = True


class PendingRecord:
    """A record sitting in the accumulator awaiting acknowledgement.

    Fire-and-forget sends (:meth:`Producer.send_noreport`) carry no delivery
    future and no report slot: ``future`` is ``None`` and ``sequence`` is
    ``-1``, and the ack/fail paths skip their bookkeeping for them.

    ``partition`` is -1 while the record waits for topic metadata (keyed and
    round-robin placement need the real partition count — hashing against a
    guessed count would split a key across partitions).  ``fallback`` is the
    shared round-robin index captured at send time, so late placement puts
    the record exactly where send-time placement would have.
    """

    __slots__ = ("record", "partition", "future", "enqueued_at", "sequence", "fallback")

    def __init__(
        self,
        record: ProducerRecord,
        partition: int,
        future: Optional[Event],
        enqueued_at: float,
        sequence: int,
        fallback: int = 0,
    ) -> None:
        self.record = record
        self.partition = partition
        self.future = future
        self.enqueued_at = enqueued_at
        self.sequence = sequence
        self.fallback = fallback


class DeliveryReport:
    """Final outcome of one record (kept for experiment post-processing)."""

    __slots__ = (
        "sequence",
        "topic",
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


class Producer:
    """A producer client bound to an emulated host."""

    def __init__(
        self,
        host: Host,
        bootstrap: List[str],
        config: Optional[ProducerConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        if not bootstrap:
            raise ValueError("bootstrap list must contain at least one broker host")
        self.host = host
        self.sim = host.sim
        self.name = name or f"producer-{host.name}"
        self.bootstrap = list(bootstrap)
        self.config = config or ProducerConfig()
        self.transport = Transport(
            host, default_timeout=self.config.request_timeout, max_retries=0
        )
        self.metadata: dict = {"version": -1, "partitions": {}, "brokers": {}}
        self._accumulator: Dict[str, Deque[PendingRecord]] = {}
        self._queued_bytes: Dict[str, int] = {}
        self._in_flight: set = set()
        #: Per partition, when its one armed flush timer fires (_arm_flush).
        self._flush_at: Dict[str, float] = {}
        #: True inside a flush barrier: linger is ignored (Kafka's flush()).
        self._flushing = False
        #: The parked flush barrier, if any (_await_drained).
        self._drained: Optional[Event] = None
        #: Set once the sender bootstrap (producer identity, first metadata)
        #: is done; nothing is flushed before.
        self._sender_ready = False
        #: What the sender is parked on while the waiting line is empty.
        self._wakeup: Optional[Event] = None
        self._metadata_refreshed_at = float("-inf")
        self._waiting_for_buffer: List[PendingRecord] = []
        self._buffer_used = 0
        self._sequence = 0
        #: Keyless-record round-robin fallback, shared by send and
        #: send_noreport so partition placement is identical however the two
        #: paths interleave (counts every send; equals _sequence when only
        #: reported sends are used, preserving historical placement).
        self._partition_fallback = 0
        self.running = False
        self.records_sent = 0
        self.records_acked = 0
        self.records_failed = 0
        #: Idempotence state: the coordinator-allocated identity (-1 until
        #: initialized), per-partition sequence counters consumed at drain
        #: time, and a counter of DuplicateSequence acks observed.
        self.producer_id = -1
        self.producer_epoch = -1
        self._next_sequences: Dict[str, int] = {}
        self.duplicate_acks = 0
        #: Transaction state: whether a transaction is open, which partitions
        #: it has registered with the coordinator, whether any record of it
        #: failed (commit then refuses and aborts), and whether this instance
        #: was fenced (fatal — every later transactional call raises).
        self._txn_active = False
        self._txn_registered: set = set()
        self._txn_had_failure = False
        self._txn_fatal = False
        self._coordinator_host: Optional[str] = None
        self.transactions_committed = 0
        self.transactions_aborted = 0
        #: One report per send, appended in sequence order — ``reports[seq]``
        #: is the report for sequence ``seq`` (no side dict needed).
        self.reports: List[DeliveryReport] = []
        self._partition_count_cache: tuple = (None, None)
        host.register_component(self)

    # -- lifecycle -------------------------------------------------------------------
    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.sim.process(self._sender_loop(), name=f"{self.name}:sender")

    def stop(self) -> None:
        self.running = False
        self._wake_sender()  # a parked sender sees ``running`` and exits

    @property
    def buffer_used(self) -> int:
        """Bytes of ``buffer.memory`` currently occupied by unacknowledged records."""
        return self._buffer_used

    @property
    def buffer_available(self) -> int:
        return self.config.buffer_memory - self._buffer_used

    # -- public API ------------------------------------------------------------------
    def send(self, record: ProducerRecord) -> Event:
        """Queue a record for delivery; returns a future firing with RecordMetadata."""
        self._check_txn_send()
        future = self.sim.event()
        now = self.sim.now
        pending = PendingRecord(
            record, -1, future, now, self._sequence, fallback=self._partition_fallback
        )
        self._partition_fallback += 1
        self.reports.append(
            DeliveryReport(self._sequence, record.topic, record.key, now)
        )
        self._sequence += 1
        self.records_sent += 1
        self._place_or_wait(pending)
        return future

    def send_noreport(self, record: ProducerRecord) -> None:
        """Fire-and-forget send (``acks=0``-style client bookkeeping).

        Skips the per-record future, :class:`DeliveryReport` and sequence
        allocation of :meth:`send` — the dominant client-side cost for
        throughput workloads that never inspect delivery outcomes.  Wire
        behavior is identical to :meth:`send`: the record takes the same
        accumulator/batch path, respects ``buffer.memory``, and still counts
        in ``records_sent`` / ``records_acked`` / ``records_failed``.
        """
        self._check_txn_send()
        now = self.sim.now
        pending = PendingRecord(
            record, -1, None, now, -1, fallback=self._partition_fallback
        )
        self._partition_fallback += 1
        self.records_sent += 1
        self._place_or_wait(pending)

    def _place_or_wait(self, pending: PendingRecord) -> None:
        """Route a fresh pending record: accumulator, or the waiting line.

        A record waits (outside ``buffer.memory`` accounting) when the buffer
        is full *or* when the topic's partition count is still unknown —
        keyed/round-robin placement against a guessed count would strand
        records of one key on the wrong partition, so placement is deferred
        to the first metadata refresh instead.  Explicit-partition records
        never wait on metadata (the broker validates them on produce).
        """
        record = pending.record
        if (
            self._resolve_partition(pending)
            and self._buffer_used + record.size <= self.config.buffer_memory
        ):
            self._buffer_used += record.size
            self._enqueue(pending)
        else:
            # No metadata yet, or buffer full: the record waits outside the
            # accumulator until a refresh / acknowledgements make room
            # (blocking-producer semantics).  The sender watches the line.
            self._waiting_for_buffer.append(pending)
            self._wake_sender()

    def _resolve_partition(self, pending: PendingRecord) -> bool:
        """Assign the pending record's partition if the metadata allows.

        Returns False while the topic's partition count is unknown and the
        record has no explicit partition — the single placement rule shared
        by send-time and admit-time paths, so a record places identically
        whenever the decision happens.
        """
        if pending.partition >= 0:
            return True
        record = pending.record
        n_partitions = self._partition_count(record.topic)
        if record.partition is None and n_partitions == 0:
            return False
        pending.partition = record.partition_for(n_partitions, fallback=pending.fallback)
        return True

    def flush_pending(self) -> int:
        """Number of records not yet acknowledged or failed."""
        queued = sum(len(batch) for batch in self._accumulator.values())
        return queued + len(self._waiting_for_buffer)

    def _enqueue(self, pending: PendingRecord) -> None:
        key = f"{pending.record.topic}-{pending.partition}"
        queue = self._accumulator.get(key)
        if queue is None:
            queue = self._accumulator[key] = deque()
        queue.append(pending)
        queued = self._queued_bytes.get(key, 0) + pending.record.size
        self._queued_bytes[key] = queued
        # A batch's first record arms its linger timer; a full batch ships
        # now.  The check lives here (before the call) so the common enqueue
        # — neither first nor filling — pays no extra function call.
        if (
            len(queue) == 1
            or queued >= self.config.batch_size
            or len(queue) >= self.config.max_batch_records
        ):
            self._arm_flush(key)

    def _flush_due_at(self, key: str) -> Optional[float]:
        """When ``key``'s queue should next be flushed (None: nothing to do).

        Kafka semantics: a full batch ships as soon as the partition's
        in-flight slot is free, an under-filled one once ``linger`` has
        passed since its *first* record was queued.  A busy partition has no
        due time — the freed slot re-arms it (_send_batch_guarded).
        """
        if not self._sender_ready or not self.running or key in self._in_flight:
            return None
        queue = self._accumulator.get(key)
        if not queue:
            return None
        now = self.sim.now
        if (
            self._flushing
            or self._queued_bytes.get(key, 0) >= self.config.batch_size
            or len(queue) >= self.config.max_batch_records
        ):
            return now
        return max(queue[0].enqueued_at + self.config.linger, now)

    def _arm_flush(self, key: str) -> None:
        """Arm ``key``'s flush timer for its due time.

        At most one live timer per partition: a later due time rides on the
        armed one (it re-arms itself when it fires early), an earlier one —
        the batch filled up before its linger ran out — supersedes it.  A
        same-instant burst past the threshold therefore pushes one callback,
        not one per record.
        """
        when = self._flush_due_at(key)
        if when is None:
            return
        armed = self._flush_at.get(key)
        if armed is not None and armed <= when:
            return
        self._flush_at[key] = when
        self.sim.call_later(when - self.sim.now, self._timed_flush, key, when)

    def _timed_flush(self, key: str, when: float) -> None:
        if self._flush_at.get(key) != when:
            return  # superseded by an earlier timer
        del self._flush_at[key]
        due = self._flush_due_at(key)
        if due is not None and due <= when:
            self._flush_key(key)
        else:
            self._arm_flush(key)  # armed for a batch that has since shipped

    def _flush_key(self, key: str) -> None:
        """Drain and transmit one batch of a partition that is due."""
        batch, wire_batch = self._drain_batch(key)
        if not batch:
            return
        self._in_flight.add(key)
        self.sim.process(
            self._send_batch_guarded(key, batch, wire_batch),
            name=f"{self.name}:send:{key}",
        )

    def _partition_count(self, topic: str) -> int:
        """Partition count per topic, cached per metadata version.

        ``send`` calls this once per record; rescanning the whole partition
        map each time dominated the client-side cost at high record rates.
        Returns 0 while the topic is absent from the metadata (placement then
        trusts an explicit partition and routes everything else to 0).
        """
        version = self.metadata.get("version", -1)
        cached_version, counts = self._partition_count_cache
        if cached_version != version:
            counts = {}
            for info in self.metadata.get("partitions", {}).values():
                topic_name = info["topic"]
                counts[topic_name] = max(
                    counts.get(topic_name, 0), info["partition"] + 1
                )
            self._partition_count_cache = (version, counts)
        return counts.get(topic, 0)

    # -- sender machinery -----------------------------------------------------------------
    def _sender_loop(self):
        """Bootstrap, then look after the waiting line.

        Batches ship from per-partition timers (:meth:`_arm_flush`), so a
        started producer with nothing queued is parked here on ``_wakeup``
        and costs no events.  Sequences are only meaningful under an
        allocated identity and placement needs metadata, hence nothing is
        flushed before the bootstrap is done.
        """
        if self.config.idempotence:
            yield from self._init_producer_id()
        yield from self._refresh_metadata()
        self._sender_ready = True
        for key in list(self._accumulator):
            self._arm_flush(key)
        while self.running:
            waiting = self._waiting_for_buffer
            if not waiting:
                self._wakeup = self.sim.event()
                yield self._wakeup
                self._wakeup = None
                continue
            # Waiting records are admitted by whatever frees them (an ack, a
            # metadata refresh); what they need from here is a refresh while
            # their topic is unknown and their ``delivery_timeout``.  The line
            # is in send order, so its head expires first.
            refresh_at = self._metadata_refreshed_at + self.config.metadata_refresh_interval
            expire_at = waiting[0].enqueued_at + self.config.delivery_timeout
            yield self.sim.timeout(max(min(refresh_at, expire_at) - self.sim.now, 0.0))
            if self._waiting_for_buffer and refresh_at <= expire_at:
                yield from self._refresh_metadata()
            self._admit_waiting_records()

    def _wake_sender(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _send_batch_guarded(self, key: str, batch: List[PendingRecord], wire_batch: RecordBatch):
        try:
            yield from self._send_batch(key, batch, wire_batch)
        finally:
            self._in_flight.discard(key)
            # The freed in-flight slot serves the next batch: now if it is
            # full or past its linger, else at its linger deadline.
            self._arm_flush(key)
            self._check_drained()

    def _expire_accumulated_records(self) -> None:
        """Fail accumulator records whose ``delivery_timeout`` passed.

        The sender loop normally enforces the deadline inside ``_send_batch``
        after a drain; while flushing is gated (idempotence init still
        pending) nothing drains, so the deadline is enforced directly on the
        queued records instead of letting their futures hang forever.
        """
        now = self.sim.now
        for key, queue in self._accumulator.items():
            expired = self._overdue(queue, now)
            if not expired:
                continue
            for pending in expired:
                queue.remove(pending)
            freed = sum(pending.record.size for pending in expired)
            self._queued_bytes[key] = self._queued_bytes.get(key, 0) - freed
            self._fail_batch(expired, reason="delivery timeout")

    def _overdue(self, records, now: float) -> List[PendingRecord]:
        """The single ``delivery_timeout`` deadline rule, shared by every
        expiry site (accumulator queues and the waiting line)."""
        deadline_margin = self.config.delivery_timeout
        return [
            pending for pending in records
            if now >= pending.enqueued_at + deadline_margin
        ]

    def _admit_waiting_records(self) -> None:
        """Move waiting records into the accumulator as space/metadata allow.

        Waiting records still honor ``delivery_timeout``: a record parked on
        a topic that never appears in the metadata (or starved by a full
        buffer) fails with :class:`DeliveryFailed` at its deadline instead of
        waiting forever.
        """
        if not self._waiting_for_buffer:
            return
        now = self.sim.now
        expired = self._overdue(self._waiting_for_buffer, now)
        if expired:
            for pending in expired:
                self._waiting_for_buffer.remove(pending)
            # Waiting records never entered buffer accounting.
            self._fail_batch(expired, reason="delivery timeout", free_buffer=False)
        admitted = []
        for pending in self._waiting_for_buffer:
            record = pending.record
            if not self._resolve_partition(pending):
                continue  # still no metadata for this topic
            if self._buffer_used + record.size <= self.config.buffer_memory:
                self._buffer_used += record.size
                self._enqueue(pending)
                admitted.append(pending)
        for pending in admitted:
            self._waiting_for_buffer.remove(pending)

    def _drain_batch(self, key: str):
        """Pop one ready batch off the accumulator.

        Returns ``(pending_records, wire_batch)`` built in a single pass: the
        wire :class:`RecordBatch` is the one object per flush that travels to
        the broker (and is reused verbatim across retries — the broker never
        mutates it); the pending list keeps the futures/report bookkeeping.
        """
        queue = self._accumulator.get(key)
        if not queue:
            return [], None
        first = queue[0]
        wire_batch = RecordBatch(first.record.topic, first.partition)
        batch: List[PendingRecord] = []
        size = 0
        max_records = self.config.max_batch_records
        batch_size = self.config.batch_size
        while queue and len(batch) < max_records:
            candidate = queue[0]
            record = candidate.record
            if batch and size + record.size > batch_size:
                break
            queue.popleft()
            batch.append(candidate)
            size += record.size
            wire_batch.append(
                record.key,
                record.value,
                record.size,
                produced_at=candidate.enqueued_at,
                headers=record.headers,
            )
        if size:
            self._queued_bytes[key] = self._queued_bytes.get(key, 0) - size
        if batch and self.config.idempotence:
            # Stamp the producer identity once per drained batch.  The wire
            # batch is reused verbatim across retries, so its base_sequence
            # never moves — which is exactly what lets the leader recognize
            # a retry as a duplicate.
            wire_batch.producer_id = self.producer_id
            wire_batch.producer_epoch = self.producer_epoch
            base_sequence = self._next_sequences.get(key, 0)
            wire_batch.base_sequence = base_sequence
            self._next_sequences[key] = base_sequence + len(batch)
            if self._txn_active:
                wire_batch.transactional = True
        return batch, wire_batch

    def _send_batch(self, key: str, batch: List[PendingRecord], wire_batch: RecordBatch):
        topic = wire_batch.topic
        partition = wire_batch.partition
        deadline = min(p.enqueued_at for p in batch) + self.config.delivery_timeout
        attempts = 0
        request_size = wire_batch.wire_size + 35
        if wire_batch.transactional and key not in self._txn_registered:
            # First send of this transaction to this partition: register it
            # with the coordinator so end_txn knows where markers go.  Kafka's
            # AddPartitionsToTxn, issued implicitly from the send path.
            registered = yield from self._add_partitions_to_txn(key, deadline)
            if not registered:
                self._fail_batch(
                    batch,
                    reason="producer_fenced" if self._txn_fatal else "transaction_aborted",
                )
                return
        while self.running:
            if self.sim.now >= deadline or attempts > self.config.retries:
                self._fail_batch(batch, reason="delivery timeout")
                return
            if self.sim.now - self._metadata_refreshed_at > self.config.metadata_refresh_interval:
                # Lazy periodic refresh: metadata only matters when sending.
                # A first attempt does not wait for it — a saturated
                # partition would lose a round trip of its one in-flight
                # slot per interval; a retry does, it is how retries against
                # a cut-off leader (which answers nothing) find the new one.
                if attempts:
                    yield from self._refresh_metadata()
                else:
                    # Stamped here too: the process starts an event later.
                    self._metadata_refreshed_at = self.sim.now
                    self.sim.process(
                        self._refresh_metadata(), name=f"{self.name}:metadata"
                    )
            leader_host = self._leader_host(key)
            if leader_host is None:
                yield self.sim.timeout(self.config.retry_backoff)
                yield from self._refresh_metadata()
                attempts += 1
                continue
            try:
                reply = yield from self.transport.request(
                    leader_host,
                    BROKER_PORT,
                    {
                        "type": "produce",
                        "topic": topic,
                        "partition": partition,
                        "batch": wire_batch,
                        "acks": self.config.acks,
                    },
                    size=request_size,
                    timeout=self.config.request_timeout,
                )
            except RequestTimeout:
                attempts += 1
                yield self.sim.timeout(self.config.retry_backoff)
                continue
            error = reply.get("error")
            if error is None:
                duplicate = bool(reply.get("duplicate"))
                if duplicate:
                    self.duplicate_acks += 1
                self._ack_batch(
                    batch,
                    reply.get("base_offset", 0),
                    topic,
                    partition,
                    duplicate=duplicate,
                )
                return
            if error == "producer_fenced":
                # A newer instance re-initialized our producer id: fatal for
                # this zombie — retrying can never succeed.
                self._fail_batch(batch, reason="producer_fenced")
                return
            if error == "not_leader":
                attempts += 1
                yield self.sim.timeout(self.config.retry_backoff)
                yield from self._refresh_metadata()
                continue
            if error in ("not_enough_replicas", "unknown_topic"):
                attempts += 1
                yield self.sim.timeout(max(self.config.retry_backoff, 0.5))
                yield from self._refresh_metadata()
                continue
            self._fail_batch(batch, reason=error)
            return

    def _ack_batch(
        self,
        batch: List[PendingRecord],
        base_offset: int,
        topic: str,
        partition: int,
        duplicate: bool = False,
    ) -> None:
        now = self.sim.now
        reports = self.reports
        freed = 0
        for index, pending in enumerate(batch):
            # A duplicate ack for a stale retry may not know the original
            # offsets (base_offset -1): the records are durable, their
            # positions just aren't echoed back — report and metadata both
            # carry None then, never a fake position.
            offset = base_offset + index if base_offset >= 0 else None
            freed += pending.record.size
            if pending.sequence < 0:  # fire-and-forget: no report, no future
                continue
            report = reports[pending.sequence]
            report.acknowledged_at = now
            report.offset = offset
            report.duplicate = duplicate
            if not pending.future.triggered:
                pending.future.succeed(
                    RecordMetadata(topic, partition, offset, now, pending.enqueued_at)
                )
        self._buffer_used -= freed
        self.records_acked += len(batch)
        if self._waiting_for_buffer:
            self._admit_waiting_records()  # the freed space may admit them

    def _fail_batch(
        self, batch: List[PendingRecord], reason: str, free_buffer: bool = True
    ) -> None:
        now = self.sim.now
        if self.config.transactional_id:
            # A lost record poisons the transaction: commit_transaction will
            # abort instead of committing a partial write set.
            self._txn_had_failure = True
            if reason == "producer_fenced":
                self._txn_fatal = True
        for pending in batch:
            if free_buffer:
                self._buffer_used -= pending.record.size
            self.records_failed += 1
            if pending.sequence < 0:  # fire-and-forget: no report, no future
                continue
            self.reports[pending.sequence].failed_at = now
            if not pending.future.triggered:
                failure = pending.future
                failure._defused = True  # experiment code may ignore the future
                failure.fail(DeliveryFailed(reason))
        if free_buffer and self._waiting_for_buffer:
            self._admit_waiting_records()  # the freed space may admit them
        self._check_drained()

    # -- idempotence handshake --------------------------------------------------------------
    def _init_producer_id(self):
        """Obtain a ``(producer_id, epoch)`` from the coordinator (blocking).

        Runs once at sender start: nothing is flushed until the identity is
        allocated, because batches without sequence numbers could never be
        deduplicated.  Retries forever — like metadata bootstrap, a producer
        on a partitioned host simply keeps trying until the cluster answers —
        but queued records still honor ``delivery_timeout`` while it waits
        (no flush path runs yet, so expiry must happen here).
        """
        while self.running and self.producer_id < 0:
            self._expire_accumulated_records()
            self._admit_waiting_records()
            coordinator_host = yield from find_coordinator_host(
                self.transport,
                self.bootstrap,
                timeout=min(1.0, self.config.request_timeout),
            )
            if coordinator_host is None:
                yield self.sim.timeout(self.config.retry_backoff)
                continue
            self._coordinator_host = coordinator_host
            init_request = {"type": "init_producer_id", "name": self.name}
            if self.config.transactional_id:
                init_request["transactional_id"] = self.config.transactional_id
                init_request["transaction_timeout"] = self.config.transaction_timeout
            try:
                reply = yield from self.transport.request(
                    coordinator_host,
                    COORDINATOR_PORT,
                    init_request,
                    size=48,
                    timeout=min(1.0, self.config.request_timeout),
                )
            except RequestTimeout:
                yield self.sim.timeout(self.config.retry_backoff)
                continue
            if reply.get("error") is None:
                self.producer_id = reply["producer_id"]
                self.producer_epoch = reply["producer_epoch"]

    # -- transactions ----------------------------------------------------------------------
    def begin_transaction(self) -> None:
        """Open a transaction: later sends belong to it until commit/abort."""
        if not self.config.transactional_id:
            raise InvalidTxnStateError("producer has no transactional_id")
        if self._txn_fatal:
            raise ProducerFencedError(
                f"transactional id {self.config.transactional_id!r} was fenced"
            )
        if self._txn_active:
            raise InvalidTxnStateError("a transaction is already in progress")
        self._txn_active = True
        self._txn_registered = set()
        self._txn_had_failure = False

    def commit_transaction(self, timeout: Optional[float] = None):
        """Generator: flush, then atomically commit the open transaction.

        Returns only after the coordinator completed the marker fan-out —
        every record of the transaction is then visible to ``read_committed``
        consumers.  Raises :class:`DeliveryFailed` if any record of the
        transaction failed (the transaction is aborted instead) or the
        timeout expires, and :class:`ProducerFencedError` if a newer instance
        took over the transactional id.
        """
        yield from self._end_transaction("commit", timeout)

    def abort_transaction(self, timeout: Optional[float] = None):
        """Generator: flush in-flight sends, then abort the open transaction."""
        yield from self._end_transaction("abort", timeout)

    def in_transaction(self) -> bool:
        return self._txn_active

    def _check_txn_send(self) -> None:
        if self.config.transactional_id and not self._txn_active:
            raise InvalidTxnStateError(
                "transactional producer requires begin_transaction() before send"
            )

    def _end_transaction(self, outcome: str, timeout: Optional[float]):
        if not self.config.transactional_id:
            raise InvalidTxnStateError("producer has no transactional_id")
        if not self._txn_active:
            raise InvalidTxnStateError(f"no open transaction to {outcome}")
        if self._txn_fatal:
            self._txn_active = False
            raise ProducerFencedError(
                f"transactional id {self.config.transactional_id!r} was fenced"
            )
        deadline = self.sim.now + (
            timeout if timeout is not None else self.config.delivery_timeout
        )
        # Flush barrier: every record of the transaction must be acknowledged
        # (or failed) before the outcome is decided.  Like Kafka's flush() it
        # ships every queued batch now instead of waiting out its linger.
        self._flushing = True
        try:
            for key in list(self._accumulator):
                self._arm_flush(key)
            drained = yield from self._await_drained(deadline)
        finally:
            self._flushing = False
        if not drained and outcome == "commit":
            yield from self._force_abort()
            raise DeliveryFailed("transaction flush timed out before commit; aborted")
        if self._txn_fatal:
            self._txn_active = False
            raise ProducerFencedError(
                f"transactional id {self.config.transactional_id!r} was fenced"
            )
        if outcome == "commit" and self._txn_had_failure:
            # Some record of the transaction was never appended: committing
            # would expose a torn write set.  Abort and surface the failure.
            yield from self._send_end_txn("abort", deadline)
            self._txn_active = False
            self.transactions_aborted += 1
            raise DeliveryFailed(
                "records failed during the transaction; aborted instead of committed"
            )
        if not self._txn_registered:
            # Nothing was sent (or nothing reached a partition): no markers
            # to write — the transaction completes locally.
            self._txn_active = False
            if outcome == "commit":
                self.transactions_committed += 1
            else:
                self.transactions_aborted += 1
            return
        result = yield from self._send_end_txn(outcome, deadline)
        self._txn_active = False
        if result == "fenced":
            raise ProducerFencedError(
                f"transactional id {self.config.transactional_id!r} was fenced"
            )
        if result == "ok":
            if outcome == "commit":
                self.transactions_committed += 1
            else:
                self.transactions_aborted += 1
            return
        if outcome == "commit":
            # The coordinator refused the commit (its timeout sweeper or a
            # fencing re-init aborted the transaction first) or the deadline
            # expired mid-handshake.
            raise DeliveryFailed(f"transaction commit did not complete ({result})")
        self.transactions_aborted += 1

    def _is_drained(self) -> bool:
        return self._txn_fatal or not (self._in_flight or self.flush_pending())

    def _await_drained(self, deadline: float):
        """Generator: park until nothing is queued or in flight.

        Returns True once drained (or fenced — waiting is pointless then),
        False when ``deadline`` passes first.  Completed from the two places
        a record stops being pending: a finished send and a failed batch.
        """
        if self._is_drained():
            return True
        waiter = self._drained = self.sim.event()
        self.sim.call_later(
            max(deadline - self.sim.now, 0.0), self._expire_drain_wait, waiter
        )
        return (yield waiter)

    def _expire_drain_wait(self, waiter: Event) -> None:
        if not waiter.triggered:
            self._drained = None
            waiter.succeed(False)

    def _check_drained(self) -> None:
        waiter = self._drained
        if waiter is not None and self._is_drained():
            self._drained = None
            waiter.succeed(True)

    def _force_abort(self):
        """Abandon a transaction whose flush never completed (best effort).

        Unsent records fail immediately; in-flight requests get a short grace
        to settle so same-epoch stragglers cannot land after the abort marker.
        """
        waiting = self._waiting_for_buffer
        self._waiting_for_buffer = []
        if waiting:
            self._fail_batch(waiting, reason="transaction_aborted", free_buffer=False)
        for key, queue in list(self._accumulator.items()):
            stranded = list(queue)
            queue.clear()
            self._queued_bytes[key] = 0
            if stranded:
                self._fail_batch(stranded, reason="transaction_aborted")
        yield from self._await_drained(
            self.sim.now + self.config.request_timeout + self.config.retry_backoff
        )
        if self._txn_registered:
            yield from self._send_end_txn("abort", self.sim.now + 10.0)
        self._txn_active = False
        self.transactions_aborted += 1

    def _txn_coordinator(self):
        """Generator: the coordinator's host (cached from the init handshake)."""
        if self._coordinator_host is not None:
            return self._coordinator_host
        coordinator_host = yield from find_coordinator_host(
            self.transport,
            self.bootstrap,
            timeout=min(1.0, self.config.request_timeout),
        )
        self._coordinator_host = coordinator_host
        return coordinator_host

    def _add_partitions_to_txn(self, key: str, deadline: float):
        """Generator: register one partition with the current transaction.

        Returns True on success; False when fenced (fatal) or the deadline
        expired.  ``invalid_txn_state`` (the previous transaction is still
        completing its marker fan-out) is retried.
        """
        while self.running and self.sim.now < deadline:
            coordinator_host = yield from self._txn_coordinator()
            if coordinator_host is None:
                yield self.sim.timeout(self.config.retry_backoff)
                continue
            try:
                reply = yield from self.transport.request(
                    coordinator_host,
                    COORDINATOR_PORT,
                    {
                        "type": "add_partitions_to_txn",
                        "transactional_id": self.config.transactional_id,
                        "producer_id": self.producer_id,
                        "producer_epoch": self.producer_epoch,
                        "partitions": [key],
                    },
                    size=64,
                    timeout=min(1.0, self.config.request_timeout),
                )
            except RequestTimeout:
                yield self.sim.timeout(self.config.retry_backoff)
                continue
            error = reply.get("error")
            if error is None:
                self._txn_registered.add(key)
                return True
            if error == "producer_fenced":
                self._txn_fatal = True
                return False
            yield self.sim.timeout(self.config.retry_backoff)
        return False

    def _send_end_txn(self, outcome: str, deadline: float):
        """Generator: drive the coordinator's end_txn to completion.

        Returns ``"ok"``, ``"fenced"``, ``"invalid"`` (the coordinator's
        state machine refused — e.g. the transaction was already aborted) or
        ``"timeout"``.  Safe to retry: end_txn is idempotent coordinator-side.
        """
        while self.running:
            if self.sim.now >= deadline:
                return "timeout"
            coordinator_host = yield from self._txn_coordinator()
            if coordinator_host is None:
                yield self.sim.timeout(self.config.retry_backoff)
                continue
            try:
                reply = yield from self.transport.request(
                    coordinator_host,
                    COORDINATOR_PORT,
                    {
                        "type": "end_txn",
                        "transactional_id": self.config.transactional_id,
                        "producer_id": self.producer_id,
                        "producer_epoch": self.producer_epoch,
                        "outcome": outcome,
                    },
                    size=64,
                    timeout=self.config.request_timeout,
                )
            except RequestTimeout:
                yield self.sim.timeout(self.config.retry_backoff)
                continue
            error = reply.get("error")
            if error is None:
                return "ok"
            if error == "producer_fenced":
                self._txn_fatal = True
                return "fenced"
            if error == "invalid_txn_state":
                return "invalid"
            yield self.sim.timeout(self.config.retry_backoff)
        return "invalid"

    # -- metadata ---------------------------------------------------------------------------
    def _leader_host(self, key: str) -> Optional[str]:
        info = self.metadata.get("partitions", {}).get(key)
        if not info or not info.get("leader"):
            return None
        broker_entry = self.metadata.get("brokers", {}).get(info["leader"])
        return broker_entry["host"] if broker_entry else None

    def _refresh_metadata(self):
        # Stamped at the start, so concurrent senders do not all refresh.
        self._metadata_refreshed_at = self.sim.now
        for bootstrap_host in self.bootstrap:
            try:
                reply = yield from self.transport.request(
                    bootstrap_host,
                    BROKER_PORT,
                    {"type": "metadata"},
                    size=32,
                    timeout=min(1.0, self.config.request_timeout),
                )
            except RequestTimeout:
                continue
            metadata = reply.get("metadata")
            if metadata and metadata.get("version", -1) >= self.metadata.get("version", -1):
                self.metadata = metadata
                # Records parked on an unknown partition count place as soon
                # as metadata lands (their captured round-robin index keeps
                # placement identical to send-time placement).
                self._admit_waiting_records()
            return
        return

    # -- experiment helpers -----------------------------------------------------------------
    def acked_sequences(self) -> List[int]:
        return [report.sequence for report in self.reports if report.acknowledged]

    def failed_sequences(self) -> List[int]:
        return [report.sequence for report in self.reports if report.failed_at is not None]
