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

Records are tracked end to end, but nothing is kept *per record*: the unit of
bookkeeping is the per-partition wire batch (``docs/event_model.md``, "no
object without a reader").  Every send returns a future that fires with
:class:`RecordMetadata` on acknowledgement or fails with
:class:`DeliveryFailed` — an object that does nothing until somebody waits on
it — and :attr:`Producer.reports`, the per-record accounting the
delivery-matrix experiment (Figure 6b) reads back, is built from the batches'
columns and outcomes when it is read.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Union

from repro.broker.batch import RecordBatch
from repro.broker.broker import BROKER_PORT, find_coordinator_host
from repro.broker.coordinator import COORDINATOR_PORT
from repro.broker.errors import (
    DeliveryFailed,
    InvalidTxnStateError,
    ProducerFencedError,
)
from repro.broker.message import (
    DeliveryReport,
    DeliveryReports,
    ProducerRecord,
    RecordMetadata,
)
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


class _Batch:
    """One wire batch and everything the producer keeps about its records.

    The accumulator's unit.  Rows go straight into ``wire``'s columns, the
    records' sequence numbers into the parallel ``seqs`` list.  ``topic``,
    ``partition``, ``keys`` and ``produced_ats`` alias the wire batch's header
    and columns; when the batch settles ``wire`` is dropped — the payload is
    the broker's to keep — and those stay for delivery reports and late
    waiters to read.  The outcome is recorded once per batch: ``settled_at``,
    plus ``base_offset`` / ``duplicate`` on acknowledgement or ``reason`` on
    failure.
    """

    __slots__ = (
        "wire", "topic", "partition", "keys", "produced_ats", "seqs",
        "settled_at", "base_offset", "duplicate", "reason",
    )

    def __init__(self, topic: str, partition: int) -> None:
        wire = self.wire = RecordBatch(topic, partition)
        self.topic = topic
        self.partition = partition
        self.keys = wire.keys
        self.produced_ats = wire.produced_ats
        self.seqs: List[int] = []
        self.settled_at: Optional[float] = None
        self.base_offset = -1
        self.duplicate = False
        self.reason: Optional[str] = None

    def row_of(self, sequence: int) -> int:
        """The row of the record sent as ``sequence``.  ``seqs`` ascends unless
        a record admitted from the waiting line joined a batch behind later
        sends, so bisect and fall back to a scan."""
        seqs = self.seqs
        row = bisect_left(seqs, sequence)
        if row == len(seqs) or seqs[row] != sequence:
            row = seqs.index(sequence)
        return row

    def offset_of(self, row: int) -> Optional[int]:
        """The acknowledged offset of ``row``.  A duplicate ack for a stale
        retry may not know the original offsets (``base_offset`` -1): the
        records are durable, their positions just aren't echoed back — None
        then, in report and metadata both, never a fake position."""
        return self.base_offset + row if self.base_offset >= 0 else None


class SendFuture(Event):
    """What :meth:`Producer.send` returns: nothing but ``(producer, sequence)``
    until somebody looks at it, and the producer keeps no reference to it.

    The slots of :class:`Event` are left unset.  Whatever waits on an event
    or asks for its outcome reads one of them (``Process._resume``,
    ``Condition`` and ``run(until=)`` read ``callbacks``), and that first
    read lands in :meth:`__getattr__`, which makes this an ordinary event:
    already *processed* with its batch's outcome if the batch has settled —
    like any event that fired before its waiter came — else pending and
    registered with the producer, which triggers it when the batch settles.
    A future nobody reads costs no list, no heap entry, no
    :class:`RecordMetadata`.
    """

    __slots__ = ("_producer", "_sequence")

    def __init__(self, producer: "Producer", sequence: int) -> None:
        # Not Event.__init__: that is Producer._attach's, on the first look.
        self.sim = producer.sim
        self._producer = producer
        self._sequence = sequence

    def __getattr__(self, name: str) -> Any:
        if name not in Event.__slots__:
            raise AttributeError(name)
        self._producer._attach(self)  # sets every slot of Event
        return getattr(self, name)

    def _take(self, batch: _Batch, row: int) -> None:
        """Adopt the outcome ``batch`` recorded for the record in ``row``."""
        if batch.reason is None:
            self._value = RecordMetadata(
                batch.topic, batch.partition, batch.offset_of(row),
                batch.settled_at, batch.produced_ats[row],
            )
        else:
            self._ok = False
            self._defused = True  # experiment code may ignore the future
            self._value = DeliveryFailed(batch.reason)


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
        #: Per partition, its wire batches in send order; only the last one is
        #: open (still taking rows), and a drain is a ``popleft``.
        self._accumulator: Dict[str, Deque[_Batch]] = {}
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
        #: ``(sequence, enqueued_at, record)`` of the records outside
        #: ``buffer.memory`` accounting, in send order: the buffer was full
        #: or their topic's partition count is still unknown.
        self._waiting: List[tuple] = []
        self._buffer_used = 0
        #: Sequence of the next send.  It is also the keyless round-robin
        #: index, so late placement puts a record exactly where send-time
        #: placement would have.
        self._sequence = 0
        #: Per sequence, where the record is: its batch, or its waiting-line
        #: entry.  One list slot per record — what ``reports`` and late
        #: waiters are resolved through.
        self._placement: List[Union[_Batch, tuple]] = []
        #: Send futures somebody waits on whose batch has not settled yet.
        self._waiters: Dict[int, SendFuture] = {}
        self.running = False
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
        #: One :class:`DeliveryReport` per send, ``reports[seq]`` for sequence
        #: ``seq``: read-only, each built when read (:meth:`_report`).
        self.reports = DeliveryReports(self._placement, self._report)
        #: ``"topic-partition"`` accumulator keys per topic, and the metadata
        #: object they were built from (_index_metadata).
        self._partition_keys: Dict[str, List[str]] = {}
        self._keys_from: Optional[dict] = None
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
    def records_sent(self) -> int:
        return self._sequence

    @property
    def buffer_used(self) -> int:
        """Bytes of ``buffer.memory`` currently occupied by unacknowledged records."""
        return self._buffer_used

    @property
    def buffer_available(self) -> int:
        return self.config.buffer_memory - self._buffer_used

    # -- public API ------------------------------------------------------------------
    def send(self, record: ProducerRecord) -> SendFuture:
        """Queue a record for delivery; returns a future firing with RecordMetadata.

        The record becomes one row of its partition's open wire batch.  It
        waits in line (outside ``buffer.memory`` accounting) while the buffer
        is full *or* the topic's partition count is unknown: placing keyed or
        round-robin records against a guessed count would strand a key on the
        wrong partition.  Explicit-partition records never wait on metadata
        (the broker validates them on produce).
        """
        if not self._txn_active and self.config.transactional_id:
            raise InvalidTxnStateError(
                "transactional producer requires begin_transaction() before send"
            )
        sequence = self._sequence
        now = self.sim.now
        placed = self._enqueue(record, sequence, now)
        if placed is None:
            # The record waits until a refresh / acknowledgements make room
            # (blocking-producer semantics).  The sender watches the line.
            placed = (sequence, now, record)
            self._waiting.append(placed)
            self._wake_sender()
        self._placement.append(placed)
        self._sequence = sequence + 1
        return SendFuture(self, sequence)

    def flush_pending(self) -> int:
        """Number of records not yet sent (queued or in the waiting line)."""
        queued = sum(
            len(batch.seqs) for queue in self._accumulator.values() for batch in queue
        )
        return queued + len(self._waiting)

    def _enqueue(self, record: ProducerRecord, sequence: int, at: float) -> Optional[_Batch]:
        """Append one record to its partition's open batch, opening the next
        batch exactly where a drain-time greedy split would cut; ``None`` if
        the record has to wait (unknown partition count, or buffer full).
        The one placement rule of send-time and admit-time paths, so a record
        places identically whenever the decision happens."""
        if self.metadata is not self._keys_from:
            self._index_metadata()
        topic = record.topic
        keys = self._partition_keys.get(topic, ())
        if not keys and record.partition is None:
            return None
        partition = record.partition_for(len(keys), fallback=sequence)
        config = self.config
        size = record.size
        if self._buffer_used + size > config.buffer_memory:
            return None
        key = keys[partition] if partition < len(keys) else f"{topic}-{partition}"
        queue = self._accumulator.get(key)
        if queue is None:
            queue = self._accumulator[key] = deque()
        batch = queue[-1] if queue else None
        opened = (
            batch is None
            or batch.wire.total_size + size > config.batch_size
            or len(batch.seqs) >= config.max_batch_records
        )
        if opened:
            batch = _Batch(topic, partition)
            queue.append(batch)
        wire = batch.wire
        wire.append(record.key, record.value, size, at, record.headers)
        batch.seqs.append(sequence)
        self._buffer_used += size
        # A queue's first record arms its linger timer, a batch that fills up
        # or closes the one before it makes the queue due now.  Checked here
        # so the common append — neither — pays no extra call.
        if (
            opened
            or wire.total_size >= config.batch_size
            or len(batch.seqs) >= config.max_batch_records
        ):
            self._arm_flush(key)
        return batch

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
        head = queue[0]
        if (
            self._flushing
            or len(queue) > 1  # the head was closed by a record that did not fit
            or head.wire.total_size >= self.config.batch_size
            or len(head.seqs) >= self.config.max_batch_records
        ):
            return now
        return max(head.produced_ats[0] + self.config.linger, now)

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
        batch = self._drain_batch(key)
        if batch is None:
            return
        self._in_flight.add(key)
        # Only ever reached from the flush timer's heap callback: the send's
        # first step — up to the request leaving — runs inside it.
        self.sim.start(
            self._send_batch_guarded(key, batch), name=f"{self.name}:send:{key}"
        )

    def _index_metadata(self) -> None:
        """Rebuild the per-topic accumulator keys for the current metadata:
        ``send`` resolves a partition per record, and rescanning the partition
        map (or formatting the key) each time dominated its cost.  A topic
        absent from the metadata has no keys — placement then trusts an
        explicit partition and makes everything else wait."""
        counts: Dict[str, int] = {}
        for info in self.metadata.get("partitions", {}).values():
            topic = info["topic"]
            counts[topic] = max(counts.get(topic, 0), info["partition"] + 1)
        self._partition_keys = {
            topic: [f"{topic}-{partition}" for partition in range(count)]
            for topic, count in counts.items()
        }
        self._keys_from = self.metadata

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
            if not self._waiting:
                self._wakeup = self.sim.event()
                yield self._wakeup
                self._wakeup = None
                continue
            # Waiting records are admitted by whatever frees them (an ack, a
            # metadata refresh); what they need from here is a refresh while
            # their topic is unknown and their ``delivery_timeout``.  The line
            # is in send order, so its head expires first.
            refresh_at = self._metadata_refreshed_at + self.config.metadata_refresh_interval
            expire_at = self._waiting[0][1] + self.config.delivery_timeout
            yield self.sim.timeout(max(min(refresh_at, expire_at) - self.sim.now, 0.0))
            if self._waiting and refresh_at <= expire_at:
                yield from self._refresh_metadata()
            self._admit_waiting_records()

    def _wake_sender(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _send_batch_guarded(self, key: str, batch: _Batch):
        try:
            yield from self._send_batch(key, batch)
        finally:
            self._in_flight.discard(key)
            # The freed in-flight slot serves the next batch: now if it is
            # full or past its linger, else at its linger deadline.
            self._arm_flush(key)
            self._check_drained()

    def _deadline(self, batch: _Batch) -> float:
        """When ``batch`` fails with "delivery timeout": ``delivery_timeout``
        after its oldest record was sent — the single rule of every expiry
        site for records that reached a batch."""
        return min(batch.produced_ats) + self.config.delivery_timeout

    def _expire_accumulated_records(self) -> None:
        """Fail the queued batches whose deadline passed.  ``_send_batch``
        enforces it on a sent batch; while flushing is gated (idempotence
        init still pending) nothing is sent, so it is enforced directly on
        the queues instead of letting their futures hang forever."""
        now = self.sim.now
        for queue in self._accumulator.values():
            for _ in range(len(queue)):  # one rotation: survivors keep their order
                batch = queue.popleft()
                if now >= self._deadline(batch):
                    self._fail_batch(batch, reason="delivery timeout")
                else:
                    queue.append(batch)

    def _admit_waiting_records(self) -> None:
        """Move waiting records into the accumulator as space/metadata allow.

        Waiting records still honor ``delivery_timeout``: a record parked on
        a topic that never appears in the metadata (or starved by a full
        buffer) fails with :class:`DeliveryFailed` at its deadline instead of
        waiting forever.  The line is rebuilt in one pass per call, in send
        order; a smaller later record may be admitted past a larger earlier
        one that still does not fit.
        """
        waiting = self._waiting
        if not waiting:
            return
        now = self.sim.now
        timeout = self.config.delivery_timeout
        overdue = 0  # send order: the overdue records are the head of the line
        while overdue < len(waiting) and now >= waiting[overdue][1] + timeout:
            overdue += 1
        if overdue:
            expired, waiting = waiting[:overdue], waiting[overdue:]
            self._waiting = waiting  # before failing: a flush barrier counts it
            self._fail_waiting(expired, reason="delivery timeout")
        placement = self._placement
        buffer_memory = self.config.buffer_memory
        still_waiting = []
        for entry in waiting:
            sequence, enqueued_at, record = entry
            # Room first: behind a full buffer this test is all that a long
            # line costs per acknowledgement.
            fits = self._buffer_used + record.size <= buffer_memory
            batch = self._enqueue(record, sequence, enqueued_at) if fits else None
            if batch is None:
                still_waiting.append(entry)  # no room, or still no metadata
            else:
                placement[sequence] = batch
        self._waiting = still_waiting

    def _fail_waiting(self, entries: List[tuple], reason: str) -> None:
        """Fail records that never left the waiting line.

        They never reached a wire batch (nor buffer accounting): each run of
        one topic's records fails as a batch that holds nothing but the
        report columns.
        """
        failed: List[_Batch] = []
        for sequence, enqueued_at, record in entries:
            if not failed or failed[-1].topic != record.topic:
                failed.append(_Batch(record.topic, -1))
            batch = self._placement[sequence] = failed[-1]
            batch.wire.append(record.key, None, 0, enqueued_at)
            batch.seqs.append(sequence)
        for batch in failed:
            self._fail_batch(batch, reason)

    def _drain_batch(self, key: str) -> Optional[_Batch]:
        """Pop one ready batch off the accumulator.

        Its wire :class:`RecordBatch` is the one object per flush that
        travels to the broker (and is reused verbatim across retries — the
        broker never mutates it).
        """
        queue = self._accumulator.get(key)
        if not queue:
            return None
        batch = queue.popleft()
        if self.config.idempotence:
            # Stamp the producer identity once per drained batch.  The wire
            # batch is reused verbatim across retries, so its base_sequence
            # never moves — which is exactly what lets the leader recognize
            # a retry as a duplicate.
            wire = batch.wire
            wire.producer_id = self.producer_id
            wire.producer_epoch = self.producer_epoch
            base_sequence = self._next_sequences.get(key, 0)
            wire.base_sequence = base_sequence
            self._next_sequences[key] = base_sequence + len(batch.seqs)
            if self._txn_active:
                wire.transactional = True
        return batch

    def _send_batch(self, key: str, batch: _Batch):
        wire_batch = batch.wire
        deadline = self._deadline(batch)
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
                        "topic": batch.topic,
                        "partition": batch.partition,
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
                self._settle(batch, reply.get("base_offset", 0), duplicate)
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

    def _settle(
        self, batch: _Batch, base_offset: int = -1, duplicate: bool = False,
        reason: Optional[str] = None,
    ) -> None:
        """Record the one outcome of ``batch`` — acknowledged at
        ``base_offset``, or failed with ``reason`` — and release what it held.
        One step per batch whatever its size: reports are derived from the
        outcome when read, and only futures somebody waits on are triggered."""
        batch.settled_at = self.sim.now
        batch.base_offset = base_offset
        batch.duplicate = duplicate
        batch.reason = reason
        freed = batch.wire.total_size
        batch.wire = None  # the payload is the broker's; the report columns stay
        self._buffer_used -= freed
        if reason is None:
            self.records_acked += len(batch.seqs)
        else:
            self.records_failed += len(batch.seqs)
        waiters = self._waiters
        if waiters:
            for row, sequence in enumerate(batch.seqs):
                future = waiters.pop(sequence, None)
                if future is not None:
                    future._take(batch, row)
                    future._settle()
        if freed and self._waiting:
            self._admit_waiting_records()  # the freed space may admit them

    def _fail_batch(self, batch: _Batch, reason: str) -> None:
        if self.config.transactional_id:
            # A lost record poisons the transaction: commit_transaction will
            # abort instead of committing a partial write set.
            self._txn_had_failure = True
            if reason == "producer_fenced":
                self._txn_fatal = True
        self._settle(batch, reason=reason)
        self._check_drained()

    def _attach(self, future: SendFuture) -> None:
        """First look at a send future (:class:`SendFuture`): hand it the
        outcome of its settled batch, or register it to be triggered."""
        Event.__init__(future, self.sim)
        sequence = future._sequence
        placed = self._placement[sequence]
        if type(placed) is tuple or placed.settled_at is None:
            self._waiters[sequence] = future
        else:
            future._take(placed, placed.row_of(sequence))
            future.callbacks = None  # processed: it fired before the waiter came

    def _report(self, sequence: int) -> DeliveryReport:
        """The delivery report of one record as of now (``reports[sequence]``)."""
        placed = self._placement[sequence]
        if type(placed) is tuple:
            _sequence, enqueued_at, record = placed
            return DeliveryReport(sequence, record.topic, record.key, enqueued_at)
        row = placed.row_of(sequence)
        report = DeliveryReport(
            sequence, placed.topic, placed.keys[row], placed.produced_ats[row]
        )
        report.partition = placed.partition
        if placed.reason is not None:
            report.failed_at = placed.settled_at
        elif placed.settled_at is not None:
            report.acknowledged_at = placed.settled_at
            report.offset = placed.offset_of(row)
            report.duplicate = placed.duplicate
        return report

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
            raise self._fenced()
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

    def _fenced(self) -> ProducerFencedError:
        return ProducerFencedError(
            f"transactional id {self.config.transactional_id!r} was fenced"
        )

    def _end_transaction(self, outcome: str, timeout: Optional[float]):
        if not self.config.transactional_id:
            raise InvalidTxnStateError("producer has no transactional_id")
        if not self._txn_active:
            raise InvalidTxnStateError(f"no open transaction to {outcome}")
        if self._txn_fatal:
            self._txn_active = False
            raise self._fenced()
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
            raise self._fenced()
        if outcome == "commit" and self._txn_had_failure:
            # Some record of the transaction was never appended: committing
            # would expose a torn write set.  Abort and surface the failure.
            yield from self._send_end_txn("abort", deadline)
            self._txn_active = False
            self.transactions_aborted += 1
            raise DeliveryFailed(
                "records failed during the transaction; aborted instead of committed"
            )
        # Nothing sent (or nothing reached a partition): no markers to write,
        # the transaction completes locally.
        result = "ok"
        if self._txn_registered:
            result = yield from self._send_end_txn(outcome, deadline)
        self._txn_active = False
        if result == "fenced":
            raise self._fenced()
        if outcome == "abort":
            self.transactions_aborted += 1
        elif result == "ok":
            self.transactions_committed += 1
        else:
            # The coordinator refused the commit (its timeout sweeper or a
            # fencing re-init aborted the transaction first) or the deadline
            # expired mid-handshake.
            raise DeliveryFailed(f"transaction commit did not complete ({result})")

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
        waiting, self._waiting = self._waiting, []
        self._fail_waiting(waiting, reason="transaction_aborted")
        for queue in list(self._accumulator.values()):
            while queue:
                self._fail_batch(queue.popleft(), reason="transaction_aborted")
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

    def _ask_coordinator(self, kind: str, timeout: float, **fields):
        """Generator: one transactional request under this producer's identity.

        Returns the reply, or None — one ``retry_backoff`` later — when the
        coordinator cannot be found or does not answer in ``timeout``.
        """
        coordinator_host = yield from self._txn_coordinator()
        if coordinator_host is not None:
            request = {
                "type": kind,
                "transactional_id": self.config.transactional_id,
                "producer_id": self.producer_id,
                "producer_epoch": self.producer_epoch,
                **fields,
            }
            try:
                return (
                    yield from self.transport.request(
                        coordinator_host, COORDINATOR_PORT, request, size=64, timeout=timeout
                    )
                )
            except RequestTimeout:
                pass
        yield self.sim.timeout(self.config.retry_backoff)
        return None

    def _add_partitions_to_txn(self, key: str, deadline: float):
        """Generator: register one partition with the current transaction.

        Returns True on success; False when fenced (fatal) or the deadline
        expired.  ``invalid_txn_state`` (the previous transaction is still
        completing its marker fan-out) is retried.
        """
        while self.running and self.sim.now < deadline:
            reply = yield from self._ask_coordinator(
                "add_partitions_to_txn",
                min(1.0, self.config.request_timeout),
                partitions=[key],
            )
            if reply is None:
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
            reply = yield from self._ask_coordinator(
                "end_txn", self.config.request_timeout, outcome=outcome
            )
            if reply is None:
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

    # -- experiment helpers -----------------------------------------------------------------
    def acked_sequences(self) -> List[int]:
        return [report.sequence for report in self.reports if report.acknowledged]

    def failed_sequences(self) -> List[int]:
        return [report.sequence for report in self.reports if report.failed_at is not None]
