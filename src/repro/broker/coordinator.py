"""Cluster coordination service (ZooKeeper / KRaft controller substitute).

The coordinator is the authority on cluster metadata: which brokers are
alive, how partitions are assigned to replicas, who currently leads each
partition and with which epoch, and which replicas are in sync.  Brokers
register with it, heartbeat against it, and pull metadata when the version
changes; it detects broker failures via session timeouts and performs leader
elections, and periodically restores leadership to preferred replicas.

Two coordination modes are supported (``CoordinationMode``):

* ``zookeeper`` — the produce path on brokers never consults the coordinator,
  so a partitioned leader keeps accepting acks<=1 writes that are later
  truncated away when it rejoins (the silent-loss behaviour of [36] that
  Figure 6b shows);
* ``kraft`` — leaders require a fresh coordinator session to acknowledge
  writes, so a partitioned leader quickly stops accepting records and
  producers retry against the new leader instead (no silent loss).

The mode itself is enforced in :mod:`repro.broker.broker`; the coordinator's
protocol is identical in both modes.

Consumer groups
---------------
The coordinator is also the group coordinator (the role a designated broker
plays in Kafka, and ZooKeeper plays for pykafka's balanced consumer): members
join a named group, the coordinator computes a deterministic partition
assignment (``range`` or ``roundrobin`` assignor over sorted members and
sorted partitions), and any membership change — join, graceful leave, session
expiry, broker failure — bumps the group *generation*.  Members discover a
stale generation on their next heartbeat and re-sync their assignment.
Committed offsets live with the group, piggybacked on heartbeats and leaves,
so a partition handed to another member resumes where its previous owner
committed.

The metadata log
----------------
Every state change is one record appended to ``event_log`` by ``_record``
and folded by ``_apply`` (KRaft's premise: the controller's state is a fold
over its log).  Handlers validate and decide; only ``_apply`` assigns.
``replay`` rebuilds everything from the log alone, which is what a restarted
controller does.  Heartbeat stamps are liveness, not metadata, and stay out.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Dict, List, Optional

from repro.network.host import Host
from repro.network.packet import estimate_size
from repro.network.transport import DEFERRED, Request, RequestTimeout, Response, Transport
from repro.broker.errors import InvalidTxnStateError
from repro.broker.topic import PartitionState, TopicConfig
from repro.simulation.deadlines import DeadlineHeap

COORDINATOR_PORT = 2181
#: How long an end_txn reply waits for the marker fan-out to complete.
END_TXN_TIMEOUT = 30.0
#: How often the failure detector checks broker sessions and the transaction
#: sweeper checks open transactions.
FAILURE_CHECK_INTERVAL = 1.0
#: The requests the coordinator serves.
REQUEST_TYPES = (
    "register", "heartbeat", "metadata", "create_topic", "isr_update",
    "init_producer_id", "add_partitions_to_txn", "end_txn",
    "join_group", "sync_group", "group_heartbeat", "leave_group",
)

#: Legal transitions of the transaction state machine (KIP-98).  ``Complete``
#: states may re-enter ``Ongoing`` (the next transaction of the same
#: transactional id); everything else raises ``InvalidTxnStateError``.
_TXN_TRANSITIONS = {
    "Empty": ("Ongoing",),
    "Ongoing": ("PrepareCommit", "PrepareAbort"),
    "PrepareCommit": ("CompleteCommit",),
    "PrepareAbort": ("CompleteAbort",),
    "CompleteCommit": ("Ongoing",),
    "CompleteAbort": ("Ongoing",),
}
#: end_txn outcome -> the state a transaction passes through / ends in.
_PREPARE = {"commit": "PrepareCommit", "abort": "PrepareAbort"}
_COMPLETE = {"commit": "CompleteCommit", "abort": "CompleteAbort"}
_OUTCOME_OF_PREPARE = {state: outcome for outcome, state in _PREPARE.items()}


@dataclass
class TransactionState:
    """Coordinator-side state of one transactional id.

    Mirrors Kafka's transaction metadata: the owning ``(producer_id,
    epoch)`` pair, the explicit state machine, and the set of partitions the
    current transaction has touched (the fan-out set for commit/abort
    markers).
    """

    transactional_id: str
    producer_id: int
    producer_epoch: int
    state: str = "Empty"
    partitions: List[str] = field(default_factory=list)
    #: Simulation time the current transaction became Ongoing (-1 = none);
    #: the timeout sweeper aborts transactions stuck Ongoing for longer than
    #: ``timeout``.
    started_at: float = -1.0
    timeout: float = 60.0

    def transition(self, new_state: str) -> None:
        if new_state not in _TXN_TRANSITIONS.get(self.state, ()):
            raise InvalidTxnStateError(
                f"transaction {self.transactional_id!r}: illegal transition "
                f"{self.state} -> {new_state}"
            )
        self.state = new_state

#: Assignor names accepted by ``join_group``.
GROUP_ASSIGNORS = ("range", "roundrobin")


def assign_range(
    members: Dict[str, List[str]], partitions_by_topic: Dict[str, List[str]]
) -> Dict[str, List[str]]:
    """Kafka's range assignor: contiguous per-topic chunks of sorted partitions.

    ``members`` maps member name -> subscribed topics.  Per topic, the sorted
    subscribing members split the sorted partition list contiguously; the
    first ``n_partitions % n_members`` members receive one extra partition.
    Purely a function of its inputs, so every rebalance is deterministic.
    """
    assignment: Dict[str, List[str]] = {name: [] for name in members}
    for topic in sorted(partitions_by_topic):
        keys = partitions_by_topic[topic]
        subscribers = sorted(name for name, topics in members.items() if topic in topics)
        if not subscribers:
            continue
        base, extra = divmod(len(keys), len(subscribers))
        start = 0
        for index, name in enumerate(subscribers):
            take = base + (1 if index < extra else 0)
            assignment[name].extend(keys[start : start + take])
            start += take
    return assignment


def assign_roundrobin(
    members: Dict[str, List[str]], partitions_by_topic: Dict[str, List[str]]
) -> Dict[str, List[str]]:
    """Round-robin assignor: deal sorted (topic, partition) pairs to sorted members."""
    assignment: Dict[str, List[str]] = {name: [] for name in members}
    cursor = 0
    for topic in sorted(partitions_by_topic):
        subscribers = sorted(name for name, topics in members.items() if topic in topics)
        if not subscribers:
            continue
        for key in partitions_by_topic[topic]:
            assignment[subscribers[cursor % len(subscribers)]].append(key)
            cursor += 1
    return assignment


_ASSIGNOR_FNS = {"range": assign_range, "roundrobin": assign_roundrobin}


@dataclass
class GroupMember:
    """One live member of a consumer group."""

    name: str
    topics: List[str]
    last_heartbeat: float


@dataclass
class GroupState:
    """Coordinator-side state of one consumer group."""

    name: str
    assignor: str = "range"
    generation: int = 0
    members: Dict[str, GroupMember] = field(default_factory=dict)
    #: member name -> assigned partition keys (sorted per member).
    assignment: Dict[str, List[str]] = field(default_factory=dict)
    #: partition key -> committed offset (next offset to consume).
    committed: Dict[str, int] = field(default_factory=dict)

    def subscribed_topics(self) -> List[str]:
        topics: List[str] = []
        for member in self.members.values():
            for topic in member.topics:
                if topic not in topics:
                    topics.append(topic)
        return sorted(topics)


class CoordinationMode(str, enum.Enum):
    """How cluster metadata is coordinated."""

    ZOOKEEPER = "zookeeper"
    KRAFT = "kraft"


@dataclass
class BrokerRegistration:
    """Liveness record for one registered broker."""

    name: str
    host: str
    last_heartbeat: float
    alive: bool = True


class Coordinator:
    """The metadata/coordination service, bound to one host."""

    def __init__(
        self,
        host: Host,
        mode: CoordinationMode = CoordinationMode.ZOOKEEPER,
        session_timeout: float = 9.0,
        preferred_election_interval: float = 30.0,
        transaction_timeout: float = 60.0,
    ) -> None:
        if session_timeout <= 0:
            raise ValueError("session_timeout must be positive")
        self.host = host
        self.sim = host.sim
        self.mode = CoordinationMode(mode)
        self.session_timeout = session_timeout
        self.preferred_election_interval = preferred_election_interval
        self.transport = Transport(host)
        #: Default transaction timeout; producers may lower it per init.
        self.transaction_timeout = transaction_timeout
        self.txn_metrics = {
            "transactions_committed": 0,
            "transactions_aborted": 0,
            "fenced_end_txn": 0,
            "transactions_timed_out": 0,
        }
        #: Sweeper starts lazily with the first transactional id, so
        #: transaction-free runs schedule no extra events (seeded goldens).
        self._txn_sweeper_running = False
        #: end_txn replies waiting for their transaction's Complete* record,
        #: per transactional id; each gives up at its deadline.
        self._end_txn_waiters: Dict[str, List] = {}
        self._deadlines = DeadlineHeap(
            self.sim,
            lambda entry: entry[1] not in self._end_txn_waiters.get(entry[0], ()),
            self._expire_end_txn_waiter,
        )
        #: The metadata log, one ``{"time", "event", ...}`` record per state
        #: change; ``replay`` folds it (an empty log folds to an empty cluster).
        self.event_log: List[dict] = []
        self.replay()
        self._started = False
        #: Request ``type`` -> handler: ``"end_txn"`` -> ``_handle_end_txn``.
        self._handlers = {name: getattr(self, f"_handle_{name}") for name in REQUEST_TYPES}
        self.transport.register(COORDINATOR_PORT, self._handle)
        host.register_component(self)

    # -- lifecycle -------------------------------------------------------------------
    def start(self) -> None:
        """Start the failure detector and preferred-leader election loops."""
        if self._started:
            return
        self._started = True
        self.sim.process(self._failure_detector(), name="coordinator:failure-detector")
        self.sim.process(
            self._preferred_election_loop(), name="coordinator:preferred-election"
        )

    @property
    def name(self) -> str:
        return f"coordinator@{self.host.name}"

    # -- the metadata log ---------------------------------------------------------------
    def _record(self, event: str, **fields) -> None:
        """Change state: fold one record into it and append it to the log."""
        record = {"time": self.sim.now, "event": event, **fields}
        self._apply(record)
        self.event_log.append(record)

    def _apply(self, record: dict) -> None:
        """Fold one record into the state — the only place the state changes.

        Heartbeat stamps excepted: a folded registration or member is stamped
        at fold time.  A record that changes published metadata carries its
        ``version``."""
        if "version" in record:
            self.metadata_version = record["version"]
        now = self.sim.now
        match record["event"]:
            case "broker-registered":
                self.brokers[record["broker"]] = BrokerRegistration(
                    name=record["broker"], host=record["host"], last_heartbeat=now
                )
            case "broker-rejoined":
                self.brokers[record["broker"]].alive = True
            case "broker-session-expired":
                self.brokers[record["broker"]].alive = False
            case "topic-created":
                self.topics[record["topic"]] = record["config"]
            case "partition-created":
                state = PartitionState(
                    topic=record["topic"],
                    partition=record["index"],
                    replicas=list(record["replicas"]),
                )
                self.partitions[state.key] = state
            case "isr-changed":
                self.partitions[record["partition"]].isr = list(record["isr"])
            case "leader-elected":
                state = self.partitions[record["partition"]]
                state.leader = record["leader"]
                state.leader_epoch = record["epoch"]
                state.isr = list(record["isr"])
            case "producer-id-allocated" | "producer-epoch-bumped":
                producer_id = record["producer_id"]
                self.producer_ids[record["name"]] = [producer_id, record["producer_epoch"]]
                self._next_producer_id = max(self._next_producer_id, producer_id + 1)
            case "txn-updated" | "txn-end-requested" | "txn-abort-initiated" | "txn-completed":
                transactional_id = record["transactional_id"]
                txn = self.transactions.setdefault(
                    transactional_id, TransactionState(transactional_id, -1, -1)
                )
                if record["state"] != txn.state:
                    txn.transition(record["state"])
                for name in ("producer_id", "producer_epoch", "started_at", "timeout"):
                    setattr(txn, name, record[name])
                txn.partitions = list(record["partitions"])
            case "group-member-joined":
                group = self.groups.setdefault(record["group"], GroupState(record["group"]))
                # A new or emptied group adopts the joiner's assignor (a
                # mismatch with live members was refused before recording).
                group.assignor = record["assignor"]
                group.members[record["member"]] = GroupMember(
                    name=record["member"], topics=list(record["topics"]), last_heartbeat=now
                )
            case "group-member-left" | "group-member-expired":
                del self.groups[record["group"]].members[record["member"]]
            case "group-rebalance":
                group = self.groups[record["group"]]
                group.generation = record["generation"]
                group.assignment = {
                    member: list(keys) for member, keys in record["assignment"].items()
                }
            case "offset-commit":
                self.groups[record["group"]].committed.update(record["offsets"])
            case event:
                raise ValueError(f"unknown metadata record {event!r}")

    def replay(self) -> None:
        """Rebuild every piece of state by folding the log from empty.

        What a restarted controller does: the dicts, the next producer id and
        the metadata version come back from the records alone.  It then
        resumes what the log says is in flight — the marker fan-out of every
        Prepare* transaction (markers are idempotent broker-side) and the
        transaction sweeper, which aborts Ongoing transactions whose producer
        is gone.
        """
        self.brokers: Dict[str, BrokerRegistration] = {}
        self.partitions: Dict[str, PartitionState] = {}
        self.topics: Dict[str, TopicConfig] = {}
        self.groups: Dict[str, GroupState] = {}
        #: Idempotent-producer registry: producer name -> [producer_id,
        #: epoch].  Re-initializing an existing name bumps the epoch, which
        #: fences the previous instance (Kafka's transactional.id semantics
        #: applied to the idempotence subset).
        self.producer_ids: Dict[str, List[int]] = {}
        self._next_producer_id = 0
        #: transactional_id -> :class:`TransactionState`.
        self.transactions: Dict[str, TransactionState] = {}
        self.metadata_version = 0
        self._snapshot_size_cache: tuple = (None, 0)
        for record in self.event_log:
            self._apply(record)
        if self.transactions:
            self._ensure_txn_sweeper()
        for transactional_id in sorted(self.transactions):
            state = self.transactions[transactional_id].state
            if state in _OUTCOME_OF_PREPARE:
                self._start_markers(transactional_id, _OUTCOME_OF_PREPARE[state])

    @property
    def elections(self) -> List[dict]:
        """Every ``leader-elected`` record, oldest first (a read-only view)."""
        return [record for record in self.event_log if record["event"] == "leader-elected"]

    # -- request handling -------------------------------------------------------------
    def _handle(self, request: Request):
        payload = request.payload or {}
        request_type = payload.get("type")
        if request_type == "end_txn":
            # The one reply that may wait: it answers ``request`` itself.
            return self._handle_end_txn(request, payload)
        handler = self._handlers.get(request_type)
        if handler is None:
            return {"error": f"unknown request type {request_type!r}"}
        return handler(payload)

    def _handle_metadata(self, payload: dict) -> Response:
        # Fresh snapshot per reply (callers mutate their copy), but the
        # reply-size estimate is cached per metadata version so the
        # transport does not re-walk the snapshot on every heartbeat.
        snapshot = self.metadata_snapshot()
        return Response(payload=snapshot, size=self._snapshot_size(snapshot))

    def _handle_register(self, payload: dict) -> dict:
        self._record(
            "broker-registered",
            broker=payload["broker"],
            host=payload["host"],
            version=self.metadata_version + 1,
        )
        return {"version": self.metadata_version}

    def _handle_heartbeat(self, payload: dict) -> dict:
        name = payload["broker"]
        registration = self.brokers.get(name)
        if registration is None:
            return {"error": "unknown broker", "version": self.metadata_version}
        registration.last_heartbeat = self.sim.now
        if not registration.alive:
            self._record("broker-rejoined", broker=name, version=self.metadata_version + 1)
        return {"version": self.metadata_version, "session_timeout": self.session_timeout}

    def _handle_create_topic(self, payload: dict) -> dict:
        config = TopicConfig(**payload["config"])
        self.create_topic(config)
        return {"version": self.metadata_version}

    def _handle_isr_update(self, payload: dict) -> dict:
        key = payload["partition"]
        state = self.partitions.get(key)
        if state is None:
            return {"error": "unknown partition"}
        if payload.get("leader_epoch") != state.leader_epoch:
            return {"error": "stale_epoch", "leader_epoch": state.leader_epoch}
        new_isr = [b for b in payload["isr"] if b in state.replicas]
        if new_isr and set(new_isr) != set(state.isr):
            self._record(
                "isr-changed", partition=key, isr=new_isr, version=self.metadata_version + 1
            )
        return {"version": self.metadata_version}

    # -- idempotent producers ----------------------------------------------------------
    def _handle_init_producer_id(self, payload: dict) -> dict:
        """Allocate (or re-initialize) a ``(producer_id, epoch)`` pair.

        Producer ids are allocated sequentially (deterministic per run); a
        repeat init under the same name keeps the id but bumps the epoch, so
        partition leaders fence the superseded instance's in-flight retries.
        A ``transactional_id`` keys the registry instead of the instance name
        (that is what lets a restarted producer fence its predecessor), and a
        re-init additionally *aborts the predecessor's open transaction* —
        the markers carry the bumped epoch, so partition leaders fence the
        zombie's stragglers the moment the abort marker lands.
        """
        transactional_id = payload.get("transactional_id")
        name = transactional_id or payload.get("name")
        if not name:
            return {"error": "missing producer name"}
        entry = self.producer_ids.get(name)
        if entry is None:
            event, producer_id, producer_epoch = "producer-id-allocated", self._next_producer_id, 0
        else:
            event, producer_id, producer_epoch = "producer-epoch-bumped", entry[0], entry[1] + 1
        self._record(event, name=name, producer_id=producer_id, producer_epoch=producer_epoch)
        if transactional_id:
            self._ensure_txn_sweeper()
            timeout = min(
                float(payload.get("transaction_timeout", self.transaction_timeout)),
                self.transaction_timeout,
            )
            txn = self.transactions.get(transactional_id)
            if txn is None:
                txn = TransactionState(transactional_id, producer_id, producer_epoch)
                self._record_txn("txn-updated", txn, timeout=timeout)
            elif txn.state == "Ongoing":
                # The predecessor died (or hung) mid-transaction; its writes
                # must never become visible to read_committed consumers.
                self._begin_abort(
                    txn, reason="fenced", producer_epoch=producer_epoch, timeout=timeout
                )
            else:
                self._record_txn(
                    "txn-updated", txn, producer_epoch=producer_epoch, timeout=timeout
                )
        return {"error": None, "producer_id": producer_id, "producer_epoch": producer_epoch}

    # -- transactions ------------------------------------------------------------------
    def _record_txn(self, event: str, txn: TransactionState, **changes) -> None:
        """Record a transaction change as the full snapshot the fold needs:
        ``txn``'s fields with ``changes`` laid over them."""
        self._record(event, **{**asdict(txn), **changes})

    def _check_txn_caller(
        self, txn: Optional[TransactionState], payload: dict
    ) -> Optional[dict]:
        """Fencing check shared by the transactional handlers."""
        if txn is None:
            return {"error": "invalid_txn_state", "message": "unknown transactional id"}
        if (
            payload.get("producer_id") != txn.producer_id
            or payload.get("producer_epoch", -1) < txn.producer_epoch
        ):
            return {"error": "producer_fenced", "producer_epoch": txn.producer_epoch}
        return None

    def _handle_add_partitions_to_txn(self, payload: dict) -> dict:
        """Register partitions with the caller's current transaction.

        The first registration of a transaction moves Empty/Complete* ->
        Ongoing and stamps ``started_at`` (the timeout clock).  Registering
        while the transaction is completing (Prepare*) is rejected — the
        producer retries until the marker fan-out settles.
        """
        txn = self.transactions.get(payload.get("transactional_id"))
        fenced = self._check_txn_caller(txn, payload)
        if fenced is not None:
            return fenced
        if txn.state in _OUTCOME_OF_PREPARE:
            return {"error": "invalid_txn_state", "message": f"transaction is {txn.state}"}
        begins = txn.state != "Ongoing"
        partitions = [] if begins else list(txn.partitions)
        for key in payload.get("partitions", []):
            if key not in partitions:
                partitions.append(key)
        partitions.sort()
        if begins or partitions != txn.partitions:
            self._record_txn(
                "txn-updated",
                txn,
                state="Ongoing",
                partitions=partitions,
                started_at=self.sim.now if begins else txn.started_at,
            )
        return {"error": None, "state": txn.state}

    def _handle_end_txn(self, request: Request, payload: dict):
        """Commit or abort the caller's transaction.

        Moves Ongoing -> Prepare*, fans COMMIT/ABORT markers out to every
        registered partition leader in the background, and replies only once
        the transaction reaches Complete* — so a producer returning from
        ``commit_transaction()`` knows every marker is replicated and its
        records are visible to ``read_committed`` consumers.
        """
        txn = self.transactions.get(payload.get("transactional_id"))
        outcome = payload.get("outcome")
        fenced = self._check_txn_caller(txn, payload)
        if fenced is not None:
            if fenced["error"] == "producer_fenced":
                self.txn_metrics["fenced_end_txn"] += 1
            return fenced
        if outcome not in _COMPLETE:
            return {"error": f"unknown end_txn outcome {outcome!r}"}
        if txn.state == "Ongoing":
            self._record_txn("txn-end-requested", txn, state=_PREPARE[outcome], outcome=outcome)
            self._start_markers(txn.transactional_id, outcome)
        elif txn.state not in (_PREPARE[outcome], _COMPLETE[outcome]):
            # Committing an aborted (timed-out/fenced) transaction, aborting
            # a committing one, or ending one that never began.
            return {"error": "invalid_txn_state", "message": f"transaction is {txn.state}"}
        reply = partial(self._end_txn_reply, txn.transactional_id, _COMPLETE[outcome])
        if txn.state == _COMPLETE[outcome]:
            return reply()
        # Parked until the Complete* record, or END_TXN_TIMEOUT.
        parked = (request, reply)
        self._end_txn_waiters.setdefault(txn.transactional_id, []).append(parked)
        self._deadlines.push(self.sim.now + END_TXN_TIMEOUT, (txn.transactional_id, parked))
        return DEFERRED

    def _end_txn_reply(self, transactional_id: str, complete: str) -> dict:
        """end_txn's reply: the transaction reached ``complete``, or it did
        not (END_TXN_TIMEOUT passed first) and the answer is
        ``invalid_txn_state``."""
        state = self.transactions[transactional_id].state
        if state != complete:
            return {"error": "invalid_txn_state", "message": f"transaction is {state}"}
        return {"error": None, "state": state}

    def _release_end_txn(self, parked: tuple) -> None:
        """Answer a parked end_txn in an entry of its own at the current time."""
        request, reply = parked
        self.sim.call_later(0.0, request.answer, reply)

    def _expire_end_txn_waiter(self, entry: tuple) -> None:
        """At its deadline an end_txn waiter leaves its list and gives up."""
        transactional_id, parked = entry
        self._end_txn_waiters[transactional_id].remove(parked)
        self._release_end_txn(parked)

    def _begin_abort(self, txn: TransactionState, reason: str, **changes) -> None:
        """Move an Ongoing transaction to PrepareAbort and fan markers out."""
        self._record_txn(
            "txn-abort-initiated", txn, state="PrepareAbort", reason=reason, **changes
        )
        self._start_markers(txn.transactional_id, "abort")

    def _start_markers(self, transactional_id: str, outcome: str) -> None:
        self.sim.process(
            self._write_markers(transactional_id, outcome),
            name=f"coordinator:txn-markers:{transactional_id}",
        )

    def _write_markers(self, transactional_id: str, outcome: str):
        """Append the COMMIT/ABORT marker on every registered partition.

        Retries each partition until its *current* leader acknowledges (the
        leader may change mid-fan-out; metadata is re-read per attempt), then
        completes the transaction.  Marker writes are idempotent broker-side
        (``last_markers`` dedup), so retries after a lost ack are safe — and so
        is a second fan-out for the same transaction after a replay: whichever
        finishes first completes it.
        """
        from repro.broker.broker import BROKER_PORT  # circular at module scope

        txn = self.transactions[transactional_id]
        producer_id, producer_epoch = txn.producer_id, txn.producer_epoch
        for key in sorted(txn.partitions):
            while True:
                state = self.partitions.get(key)
                leader = state.leader if state is not None else None
                registration = self.brokers.get(leader) if leader else None
                if registration is not None and registration.alive:
                    try:
                        reply = yield from self.transport.request(
                            registration.host,
                            BROKER_PORT,
                            {
                                "type": "write_txn_markers",
                                "partition_key": key,
                                "producer_id": producer_id,
                                "producer_epoch": producer_epoch,
                                "marker": outcome,
                            },
                            size=64,
                            timeout=2.0,
                            retries=0,
                        )
                    except RequestTimeout:
                        reply = None
                    if reply is not None and reply.get("error") is None:
                        break
                yield self.sim.timeout(0.2)
        txn = self.transactions[transactional_id]
        if txn.state != _PREPARE[outcome]:
            return
        self._record_txn("txn-completed", txn, state=_COMPLETE[outcome], outcome=outcome)
        for parked in self._end_txn_waiters.pop(transactional_id, ()):
            self._release_end_txn(parked)
        ended = "transactions_committed" if outcome == "commit" else "transactions_aborted"
        self.txn_metrics[ended] += 1

    def _ensure_txn_sweeper(self) -> None:
        if self._txn_sweeper_running:
            return
        self._txn_sweeper_running = True
        self.sim.process(self._txn_timeout_sweeper(), name="coordinator:txn-sweeper")

    def _txn_timeout_sweeper(self):
        """Abort transactions stuck Ongoing past their timeout (dead producers).

        Deterministic: runs on the failure-detector cadence and visits
        transactional ids in sorted order.
        """
        while True:
            yield self.sim.timeout(FAILURE_CHECK_INTERVAL)
            now = self.sim.now
            for transactional_id in sorted(self.transactions):
                txn = self.transactions[transactional_id]
                # Ongoing always has a start: add_partitions_to_txn stamps it.
                if txn.state == "Ongoing" and now - txn.started_at > txn.timeout:
                    self.txn_metrics["transactions_timed_out"] += 1
                    self._begin_abort(txn, reason="timeout")

    def transaction_state(self, transactional_id: str) -> Optional[TransactionState]:
        return self.transactions.get(transactional_id)

    # -- consumer groups ---------------------------------------------------------------
    def _handle_join_group(self, payload: dict) -> dict:
        group_name = payload["group"]
        member_name = payload["member"]
        assignor = payload.get("assignor", "range")
        if assignor not in GROUP_ASSIGNORS:
            return {"error": f"unknown assignor {assignor!r}"}
        group = self.groups.get(group_name)
        if group is not None and group.members and assignor != group.assignor:
            return {
                "error": f"assignor mismatch: group {group_name!r} uses {group.assignor!r}"
            }
        self._record(
            "group-member-joined",
            group=group_name,
            member=member_name,
            topics=list(payload.get("topics", [])),
            assignor=assignor,
        )
        group = self.groups[group_name]
        self._rebalance_group(group, reason="member-joined")
        return self._group_sync_reply(group, member_name)

    def _handle_sync_group(self, payload: dict) -> dict:
        group = self.groups.get(payload["group"])
        if group is None or payload["member"] not in group.members:
            return {"error": "unknown_member"}
        group.members[payload["member"]].last_heartbeat = self.sim.now
        return self._group_sync_reply(group, payload["member"])

    def _handle_group_heartbeat(self, payload: dict) -> dict:
        group = self.groups.get(payload["group"])
        if group is None or payload["member"] not in group.members:
            return {"error": "unknown_member"}
        group.members[payload["member"]].last_heartbeat = self.sim.now
        # Offset commits piggyback on heartbeats and are accepted even under a
        # stale generation (they describe work already done); commits only
        # ever move forward, so a late heartbeat cannot rewind a partition a
        # new owner has progressed past.
        self._commit_offsets(group, payload.get("offsets"))
        if payload.get("generation") != group.generation:
            return {"error": "rebalance", "generation": group.generation}
        return {"error": None, "generation": group.generation}

    def _handle_leave_group(self, payload: dict) -> dict:
        group = self.groups.get(payload["group"])
        if group is None or payload["member"] not in group.members:
            return {"error": "unknown_member"}
        self._commit_offsets(group, payload.get("offsets"))
        self._record("group-member-left", group=group.name, member=payload["member"])
        self._rebalance_group(group, reason="member-left")
        return {"error": None, "generation": group.generation}

    def _commit_offsets(self, group: GroupState, offsets: Optional[dict]) -> None:
        committed = group.committed
        advanced = {
            key: offset
            for key, offset in (offsets or {}).items()
            if offset > committed.get(key, 0)
        }
        if advanced:
            self._record("offset-commit", group=group.name, offsets=advanced)

    def _group_sync_reply(self, group: GroupState, member: str) -> dict:
        assigned = group.assignment.get(member, [])
        return {
            "error": None,
            "generation": group.generation,
            "assignment": list(assigned),
            "offsets": {key: group.committed.get(key, 0) for key in assigned},
            "session_timeout": self.session_timeout,
        }

    def _rebalance_group(self, group: GroupState, reason: str) -> None:
        """Recompute the group's assignment and bump its generation.

        Deterministic by construction: the assignors see sorted members and
        sorted partition keys, so identical membership and metadata always
        produce the identical assignment, whatever order events arrived in.
        """
        partitions_by_topic: Dict[str, List[str]] = {}
        for topic in group.subscribed_topics():
            keys = sorted(
                (state.key for state in self.partitions.values() if state.topic == topic),
                key=lambda key: self.partitions[key].partition,
            )
            partitions_by_topic[topic] = keys
        member_topics = {name: member.topics for name, member in group.members.items()}
        self._record(
            "group-rebalance",
            group=group.name,
            generation=group.generation + 1,
            reason=reason,
            members=sorted(group.members),
            assignment=_ASSIGNOR_FNS[group.assignor](member_topics, partitions_by_topic),
        )

    def _rebalance_groups_for_topic(self, topic: str, reason: str) -> None:
        for group in self.groups.values():
            if group.members and topic in group.subscribed_topics():
                self._rebalance_group(group, reason=reason)

    def _expire_group_members(self, now: float) -> None:
        for group in self.groups.values():
            expired = [
                name
                for name, member in group.members.items()
                if now - member.last_heartbeat > self.session_timeout
            ]
            for name in expired:
                self._record("group-member-expired", group=group.name, member=name)
            if expired:
                self._rebalance_group(group, reason="member-expired")

    def group_state(self, name: str) -> Optional[GroupState]:
        return self.groups.get(name)

    # -- topic management --------------------------------------------------------------
    def create_topic(self, config: TopicConfig) -> List[PartitionState]:
        """Create a topic: assign replicas over live brokers and pick leaders."""
        if config.name in self.topics:
            raise ValueError(f"topic {config.name!r} already exists")
        live = [name for name, reg in self.brokers.items() if reg.alive]
        if len(live) < config.replication_factor:
            raise ValueError(
                f"not enough live brokers ({len(live)}) for replication factor "
                f"{config.replication_factor}"
            )
        ordered = sorted(live)
        if config.preferred_leader:
            if config.preferred_leader not in ordered:
                raise ValueError(
                    f"preferred leader {config.preferred_leader!r} is not a live broker"
                )
            ordered.remove(config.preferred_leader)
            ordered.insert(0, config.preferred_leader)
        version = self.metadata_version + 1
        self._record("topic-created", topic=config.name, config=config, version=version)
        keys = []
        for partition in range(config.partitions):
            # Rotate the assignment per partition so load spreads, keeping the
            # user-pinned preferred leader for partition 0.
            rotation = ordered[partition % len(ordered):] + ordered[:partition % len(ordered)]
            replicas = rotation[: config.replication_factor]
            keys.append(f"{config.name}-{partition}")
            self._record(
                "partition-created",
                partition=keys[-1],
                replicas=replicas,
                leader=replicas[0],
                topic=config.name,
                index=partition,
                version=version,
            )
        # Groups already subscribed to this topic pick the new partitions up
        # on their next heartbeat (generation bump -> sync).
        self._rebalance_groups_for_topic(config.name, reason="topic-created")
        return [self.partitions[key] for key in keys]

    # -- metadata ---------------------------------------------------------------------
    def metadata_snapshot(self) -> dict:
        """Serializable copy of the full cluster metadata."""
        # Per-topic storage overrides ride the snapshot only when non-default
        # (no ``"log"`` key at all otherwise), so clusters without storage
        # config ship byte-identical metadata.
        storage_overrides = {}
        for name, config in self.topics.items():
            overrides = config.storage_overrides()
            if overrides is not None:
                storage_overrides[name] = overrides
        partitions = {}
        for key, state in self.partitions.items():
            entry = {
                "topic": state.topic,
                "partition": state.partition,
                "replicas": list(state.replicas),
                "leader": state.leader,
                "leader_epoch": state.leader_epoch,
                "isr": list(state.isr),
            }
            overrides = storage_overrides.get(state.topic)
            if overrides is not None:
                entry["log"] = dict(overrides)
            partitions[key] = entry
        return {
            "version": self.metadata_version,
            "brokers": {
                name: {"host": reg.host, "alive": reg.alive}
                for name, reg in self.brokers.items()
            },
            "partitions": partitions,
        }

    def _snapshot_size(self, snapshot: dict) -> int:
        cached_version, cached_size = self._snapshot_size_cache
        if cached_version != self.metadata_version:
            cached_size = estimate_size(snapshot)
            self._snapshot_size_cache = (self.metadata_version, cached_size)
        return cached_size

    # -- failure detection and elections ------------------------------------------------
    def _failure_detector(self):
        while True:
            yield self.sim.timeout(FAILURE_CHECK_INTERVAL)
            now = self.sim.now
            for registration in self.brokers.values():
                if registration.alive and now - registration.last_heartbeat > self.session_timeout:
                    self._record("broker-session-expired", broker=registration.name)
                    self._handle_broker_failure(registration.name)
            self._expire_group_members(now)

    def _handle_broker_failure(self, broker: str) -> None:
        version = self.metadata_version + 1
        topics_with_new_leader = set()
        for state in self.partitions.values():
            if state.leader == broker:
                self._elect_leader(state, exclude=broker, reason="leader-failure", version=version)
                topics_with_new_leader.add(state.topic)
            if broker in state.isr and len(state.isr) > 1:
                # A partition the dead broker only followed: without this
                # record a replay would wait for it in the ISR.
                self._record(
                    "isr-changed",
                    partition=state.key,
                    isr=[replica for replica in state.isr if replica != broker],
                    version=version,
                )
        # Leadership moved: bump the generation of exactly the groups
        # subscribed to an affected topic, so their members re-sync promptly
        # and refresh metadata towards the newly elected leaders (the
        # assignment itself is unchanged — partitions do not move between
        # brokers on failures).  Unaffected groups see no churn.
        for topic in sorted(topics_with_new_leader):
            self._rebalance_groups_for_topic(topic, reason="broker-failure")

    def _elect_leader(
        self, state: PartitionState, exclude: Optional[str], reason: str, version: int
    ) -> None:
        candidates = [
            replica
            for replica in state.replicas
            if replica != exclude
            and replica in state.isr
            and self.brokers.get(replica)
            and self.brokers[replica].alive
        ]
        # ``exclude`` leaves the ISR, unless it is the last member.
        isr = [replica for replica in state.isr if replica != exclude] or list(state.isr)
        self._record(
            "leader-elected",
            partition=state.key,
            leader=candidates[0] if candidates else None,
            old_leader=state.leader,
            epoch=state.leader_epoch + 1,
            reason=reason,
            isr=isr,
            version=version,
        )

    def _preferred_election_loop(self):
        while True:
            yield self.sim.timeout(self.preferred_election_interval)
            self.run_preferred_replica_election()

    def run_preferred_replica_election(self) -> int:
        """Re-elect preferred leaders where possible; returns how many changed."""
        version = self.metadata_version + 1
        changed = 0
        for state in self.partitions.values():
            preferred = state.preferred_leader
            if state.leader == preferred:
                continue
            registration = self.brokers.get(preferred)
            if registration is None or not registration.alive:
                continue
            if preferred not in state.isr:
                continue
            # _elect_leader picks the first eligible replica in assignment
            # order, which is the preferred replica by construction.
            self._elect_leader(
                state, exclude=None, reason="preferred-replica-election", version=version
            )
            changed += 1
        return changed

    # -- introspection helpers (tests / experiments) -------------------------------------
    def leader_of(self, topic: str, partition: int = 0) -> Optional[str]:
        state = self.partitions.get(f"{topic}-{partition}")
        return state.leader if state else None

    def partition_state(self, topic: str, partition: int = 0) -> Optional[PartitionState]:
        return self.partitions.get(f"{topic}-{partition}")

    def alive_brokers(self) -> List[str]:
        return [name for name, reg in self.brokers.items() if reg.alive]
