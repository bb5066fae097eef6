"""Seeded chaos harness: randomized fault schedules, replayed deterministically.

The exactly-once produce guarantee (``docs/exactly_once.md``) is only worth
anything if it holds under arbitrary broker kills, link loss and leader
failovers — so this module makes *randomized failure timelines* a first-class
reusable object:

* :class:`FaultSchedule` derives a timeline of fault actions from a base seed
  (via the same :func:`~repro.scenarios.spec.derive_seed` convention the
  scenario API uses).  Identical ``(seed, profile, duration, targets)``
  inputs always yield the identical timeline, so a failing combination from
  CI replays locally bit-for-bit.
* :func:`run_chaos_produce` stands up a replicated cluster, drives a keyed
  produce workload through a :class:`FaultSchedule`, lets the cluster heal,
  and returns a :class:`ChaosResult` for the invariant checkers.
* The checkers (``check_no_duplicates``, ``check_acked_implies_durable``,
  ``check_per_key_order``, ``check_all_acked_consumed``) each return a list
  of human-readable violations — empty means the invariant held.

The workload encodes a per-key sequence into every record value (key
``k<j>`` carries values ``0, 1, 2, ...``), so "no duplicate ``(key,
sequence)`` in any partition log" and "per-key order preserved" are direct
column scans over the logs.

A second driver, :func:`run_chaos_txn_produce`, exercises the transactional
layer: a transactional producer groups records into fixed-size transactions,
deliberately aborts one, and suffers a profile-specific mid-transaction
fault (producer kill + successor takeover, transaction-coordinator outage,
or partition-leader failover).  Its checkers are *consumer-side* — under
``read_committed`` every committed transaction must be observed atomically
and no aborted record may surface, while the same seeds replayed under
``read_uncommitted`` expose the torn/aborted writes (the control arm).  The
log-scan checkers above are intentionally *not* reused for transactional
runs: an aborted-then-retried transaction legitimately stores two copies of
the same logical record in the log (one fenced/aborted, one committed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.broker.cluster import BrokerCluster, ClusterConfig
from repro.broker.consumer import Consumer, ConsumerConfig
from repro.broker.coordinator import CoordinationMode
from repro.broker.errors import DeliveryFailed, ProducerFencedError
from repro.broker.message import ProducerRecord
from repro.broker.producer import Producer, ProducerConfig
from repro.broker.topic import TopicConfig
from repro.network.faults import FaultInjector, LinkFault, NodeDisconnection
from repro.network.link import LinkConfig
from repro.network.topology import one_big_switch
from repro.scenarios.spec import derive_seed
from repro.simulation import Simulator
from repro.simulation.rng import SeededRandom

#: Schedule shapes :meth:`FaultSchedule.generate` understands.
CHAOS_PROFILES = ("broker-kill", "link-loss", "mixed")

#: Every chaos cluster rolls its logs this often: a seeded arm sends at most a
#: few hundred records, so at 32 every one of them seals segments, serves
#: sealed reads to replicas and consumers, and truncates across segment
#: boundaries on fail-over.
CHAOS_SEGMENT_RECORDS = 32


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault.

    ``kind`` is ``"broker_kill"`` (disconnect every link of a broker host),
    ``"link_loss"`` (one access link down — the classic lost-ack window) or
    ``"leader_failover"`` (at fire time, look up the *current* leader of the
    target partition and disconnect it).  ``target`` is a host name, an
    ``"a|b"`` link, or a ``"topic-partition"`` key respectively.  ``start``
    is a delay from schedule-application time; ``duration`` how long the
    fault holds before healing.
    """

    kind: str
    target: str
    start: float
    duration: float


@dataclass
class FaultSchedule:
    """A deterministic, seed-derived timeline of fault actions."""

    seed: int
    profile: str
    duration: float
    actions: List[FaultAction] = field(default_factory=list)

    @classmethod
    def generate(
        cls,
        seed: int,
        profile: str,
        duration: float,
        kill_hosts: List[str],
        loss_links: List[Tuple[str, str]],
        failover_partitions: List[str],
        n_faults: int = 4,
        active_window: Tuple[float, float] = (0.22, 0.62),
        fault_duration: Tuple[float, float] = (0.04, 0.10),
    ) -> "FaultSchedule":
        """Derive a randomized timeline from ``seed`` (deterministically).

        Fault start times fall inside ``active_window`` (fractions of
        ``duration``) and every fault heals before ``active_window[1] +
        fault_duration[1]`` of the run — leaving the tail of the run for
        replicas to reconcile and consumers to drain, which is what makes
        the end-of-run invariants meaningful.
        """
        if profile not in CHAOS_PROFILES:
            raise ValueError(f"unknown chaos profile {profile!r}; use {CHAOS_PROFILES}")
        rng = SeededRandom(derive_seed(seed, "fault-schedule", profile)).child("timeline")
        if profile == "broker-kill":
            kinds = ["broker_kill"]
        elif profile == "link-loss":
            kinds = ["link_loss"]
        else:
            kinds = ["broker_kill", "link_loss", "leader_failover"]
        actions: List[FaultAction] = []
        lo, hi = active_window
        for _ in range(n_faults):
            kind = kinds[rng.randint(0, len(kinds) - 1)]
            start = duration * (lo + (hi - lo) * rng.random())
            hold = duration * (
                fault_duration[0]
                + (fault_duration[1] - fault_duration[0]) * rng.random()
            )
            if kind == "broker_kill":
                target = kill_hosts[rng.randint(0, len(kill_hosts) - 1)]
            elif kind == "link_loss":
                a, b = loss_links[rng.randint(0, len(loss_links) - 1)]
                target = f"{a}|{b}"
            else:
                target = failover_partitions[
                    rng.randint(0, len(failover_partitions) - 1)
                ]
            actions.append(FaultAction(kind, target, round(start, 3), round(hold, 3)))
        actions.sort(key=lambda action: (action.start, action.target))
        return cls(seed=seed, profile=profile, duration=duration, actions=actions)

    def apply(self, network, cluster: BrokerCluster) -> FaultInjector:
        """Schedule every action against the network (relative to *now*)."""
        injector = FaultInjector(network)
        sim = network.sim
        for action in self.actions:
            if action.kind == "broker_kill":
                injector.schedule_node_disconnection(
                    NodeDisconnection(
                        node=action.target, start=action.start, duration=action.duration
                    )
                )
            elif action.kind == "link_loss":
                a, b = action.target.split("|")
                injector.schedule_link_fault(
                    LinkFault(endpoints=(a, b), start=action.start, duration=action.duration)
                )
            elif action.kind == "leader_failover":
                # The victim is resolved at fire time: whoever leads the
                # partition *then* gets disconnected, so back-to-back
                # failovers chase the leadership around the cluster.
                def fire(action=action):
                    topic, _, partition = action.target.rpartition("-")
                    leader = cluster.leader_broker(topic, int(partition))
                    if leader is None:
                        return
                    injector.schedule_node_disconnection(
                        NodeDisconnection(
                            node=leader.host.name, start=0.0, duration=action.duration
                        )
                    )

                sim.schedule_callback(action.start, fire, name="chaos:leader-failover")
            else:  # pragma: no cover - generate() never emits other kinds
                raise ValueError(f"unknown fault kind {action.kind!r}")
        return injector


# ---------------------------------------------------------------------------
# Invariant checkers (each returns a list of violations; empty = held)
# ---------------------------------------------------------------------------
def _topic_logs(cluster: BrokerCluster, topic: str):
    prefix = f"{topic}-"
    for broker in cluster.brokers.values():
        for key, log in broker.logs.items():
            if key.startswith(prefix):
                yield broker, key, log


def check_no_duplicates(cluster: BrokerCluster, topic: str) -> List[str]:
    """No ``(key, sequence)`` pair appears twice in any partition log.

    Contract: assumes the chaos workload encoding (``run_chaos_produce``),
    where each record's *value* is its per-key sequence number — so value
    equality within a key means the same logical record.  Don't point this
    at workloads where two records may legitimately share ``(key, value)``.
    """
    problems = []
    for broker, key, log in _topic_logs(cluster, topic):
        seen: Set[tuple] = set()
        for record in log.all_records():
            ident = (record.key, record.value)
            if ident in seen:
                problems.append(
                    f"duplicate {ident!r} at offset {record.offset} in "
                    f"{broker.name}:{key}"
                )
            seen.add(ident)
    return problems


def check_per_key_order(cluster: BrokerCluster, topic: str) -> List[str]:
    """Within every partition log, each key's sequence values are increasing.

    Same contract as :func:`check_no_duplicates`: record values must encode
    a strictly-increasing per-key sequence (the chaos workload encoding).
    """
    problems = []
    for broker, key, log in _topic_logs(cluster, topic):
        last_by_key: Dict[object, int] = {}
        for record in log.all_records():
            previous = last_by_key.get(record.key)
            if previous is not None and record.value <= previous:
                problems.append(
                    f"key {record.key!r} went {previous} -> {record.value} at "
                    f"offset {record.offset} in {broker.name}:{key}"
                )
            last_by_key[record.key] = record.value
    return problems


def check_acked_implies_durable(
    acked: List[tuple], cluster: BrokerCluster, topic: str
) -> List[str]:
    """Every acknowledged ``(key, sequence)`` is present in a current leader log."""
    durable: Set[tuple] = set()
    for broker, key, log in _topic_logs(cluster, topic):
        if not broker._is_leader(key):
            continue
        for record in log.all_records():
            durable.add((record.key, record.value))
    return [
        f"acked {ident!r} missing from every leader log"
        for ident in acked
        if ident not in durable
    ]


def check_all_acked_consumed(
    acked: List[tuple], consumers: List[Consumer]
) -> List[str]:
    """Eventual delivery: the consumer group saw every acknowledged record."""
    consumed: Set[tuple] = set()
    for consumer in consumers:
        for record in consumer.received:
            consumed.add((record.key, record.value))
    return [
        f"acked {ident!r} never consumed by the group"
        for ident in acked
        if ident not in consumed
    ]


# ---------------------------------------------------------------------------
# Scenario driver
# ---------------------------------------------------------------------------
@dataclass
class ChaosResult:
    """Everything the invariant checkers (and debugging) need from one run."""

    schedule: FaultSchedule
    cluster: BrokerCluster
    producer: Producer
    consumers: List[Consumer]
    topic: str
    #: ``(key, per-key sequence)`` of every record the producer saw acked.
    acked: List[tuple]
    #: Records sent / acked / failed, and broker-side dedup drops.
    records_sent: int = 0
    records_acked: int = 0
    records_failed: int = 0
    duplicates_dropped: int = 0
    duplicate_acks: int = 0

    def invariant_violations(self) -> List[str]:
        """The three chaos invariants, as one flat list of violations."""
        problems = check_no_duplicates(self.cluster, self.topic)
        problems += check_per_key_order(self.cluster, self.topic)
        problems += check_acked_implies_durable(self.acked, self.cluster, self.topic)
        return problems

    def log_duplicates(self) -> List[str]:
        return check_no_duplicates(self.cluster, self.topic)


def run_chaos_produce(
    seed: int,
    profile: str,
    partitions: int = 1,
    group_size: int = 1,
    idempotence: bool = True,
    n_records: int = 200,
    n_keys: int = 8,
    duration: float = 50.0,
    acks: object = "all",
    mode: CoordinationMode = CoordinationMode.KRAFT,
    n_brokers: int = 3,
    schedule: Optional[FaultSchedule] = None,
) -> ChaosResult:
    """One seeded chaos run: produce through faults, heal, return the evidence.

    Topology: ``n_brokers`` broker hosts plus one producer host plus
    ``group_size`` sink hosts behind one switch (higher access latency than
    the bench topology, so requests spend real time in flight — which is
    what fault windows cut).  The producer sends ``n_records`` keyed records
    (key ``k<i % n_keys>``, value = per-key sequence) across the first ~60%
    of the run; every fault heals by ~72%; the tail drains and reconciles.
    The defaults (``acks="all"``, KRaft) give acked ⇒ durable its best
    footing — the point of the harness is that *idempotence* then closes
    the remaining duplication window.
    """
    sim = Simulator(seed=derive_seed(seed, "chaos-sim", profile))
    broker_hosts = [f"broker{i + 1}" for i in range(n_brokers)]
    sink_hosts = [f"sink{i + 1}" for i in range(group_size)]
    network = one_big_switch(
        sim,
        broker_hosts + ["producer"] + sink_hosts,
        default_config=LinkConfig(latency_ms=8.0, bandwidth_mbps=200.0),
    )
    cluster = BrokerCluster(
        network,
        coordinator_host=broker_hosts[0],
        config=ClusterConfig(
            mode=mode, session_timeout=5.0, segment_records=CHAOS_SEGMENT_RECORDS
        ),
    )
    for host in broker_hosts:
        cluster.add_broker(host)
    topic = "chaos"
    cluster.add_topic(
        TopicConfig(
            name=topic,
            partitions=partitions,
            replication_factor=min(3, n_brokers),
            # Lead away from the coordinator host so killing a leader never
            # takes the control plane down with it.
            preferred_leader=f"broker-{broker_hosts[1 % n_brokers]}",
        )
    )
    cluster.start(settle_time=2.0)

    producer = cluster.create_producer(
        "producer",
        config=ProducerConfig(
            acks=acks,
            idempotence=idempotence,
            request_timeout=0.6,
            retry_backoff=0.1,
            delivery_timeout=duration,
            linger=0.01,
        ),
        name="chaos-producer",
    )
    consumers = []
    for index, host in enumerate(sink_hosts):
        consumer = cluster.create_consumer(
            host,
            config=ConsumerConfig(
                poll_interval=0.05,
                group="chaos-group" if group_size > 1 else None,
                keep_payloads=True,
            ),
            name=f"chaos-consumer-{index}",
        )
        consumer.subscribe([topic])
        consumers.append(consumer)

    if schedule is None:
        schedule = FaultSchedule.generate(
            seed,
            profile,
            duration,
            kill_hosts=broker_hosts[1:],  # never the coordinator host
            loss_links=[("producer", "s1"), (broker_hosts[1], "s1")],
            failover_partitions=[f"{topic}-{p}" for p in range(partitions)],
        )
    schedule.apply(network, cluster)

    production_window = duration * 0.45
    interval = production_window / n_records

    def drive():
        yield sim.timeout(8.0)  # brokers registered, topic created, settled
        producer.start()
        for consumer in consumers:
            consumer.start()
        yield sim.timeout(2.0)  # id handshake + group sync before traffic
        for i in range(n_records):
            producer.send(
                ProducerRecord(
                    topic=topic, key=f"k{i % n_keys}", value=i // n_keys, size=120
                )
            )
            yield sim.timeout(interval)

    sim.process(drive())
    sim.run(until=duration)

    acked = []
    for report in producer.reports:
        if report.acknowledged:
            index = report.sequence
            acked.append((f"k{index % n_keys}", index // n_keys))
    return ChaosResult(
        schedule=schedule,
        cluster=cluster,
        producer=producer,
        consumers=consumers,
        topic=topic,
        acked=acked,
        records_sent=producer.records_sent,
        records_acked=producer.records_acked,
        records_failed=producer.records_failed,
        duplicates_dropped=cluster.total_duplicates_dropped(),
        duplicate_acks=producer.duplicate_acks,
    )


# ---------------------------------------------------------------------------
# Transactional chaos: atomic commits under producer/coordinator/leader faults
# ---------------------------------------------------------------------------
#: Fault shapes :func:`run_chaos_txn_produce` understands.  Each injects its
#: fault *mid-transaction* — after half of one transaction's records have
#: been sent and (some) partitions registered, before end_txn.
TXN_CHAOS_PROFILES = ("producer-kill", "coordinator-kill", "leader-failover")


@dataclass
class TxnChaosResult:
    """Evidence from one transactional chaos run.

    ``committed_txns`` are transaction indices whose ``commit_transaction``
    returned cleanly; ``aborted_txns`` were deliberately (or provably)
    aborted.  ``uncertain_txns`` are commits that raised — the coordinator
    may or may not have completed them, so the checkers require nothing of
    their records in either direction (the matrix runs keep this set empty;
    it exists so the harness never lies under an unlucky schedule).
    """

    profile: str
    seed: int
    cluster: BrokerCluster
    producers: List[Producer]
    consumers: List[Consumer]
    topic: str
    isolation: str
    n_txns: int
    txn_size: int
    n_keys: int
    committed_txns: List[int] = field(default_factory=list)
    aborted_txns: List[int] = field(default_factory=list)
    uncertain_txns: List[int] = field(default_factory=list)

    def txn_idents(self, txn: int) -> List[tuple]:
        """The ``(key, per-key sequence)`` identities transaction ``txn`` wrote."""
        base = txn * self.txn_size
        return [
            (f"k{i % self.n_keys}", i // self.n_keys)
            for i in range(base, base + self.txn_size)
        ]

    def invariant_violations(self) -> List[str]:
        """All read_committed invariants, as one flat list of violations.

        Member-level exactly-once/order checks only apply to standalone
        consumers: a group member that loses its partitions in a rebalance
        legitimately re-reads from the committed offset (at-least-once), so
        per-member duplicates there are not a transactional violation.
        """
        problems = check_txn_atomicity(self)
        problems += check_committed_per_key_order(self.cluster, self.topic)
        standalone = [c for c in self.consumers if c.config.group is None]
        problems += check_consumed_exactly_once(standalone)
        problems += check_consumed_per_key_order(standalone)
        return problems


def check_txn_atomicity(result: TxnChaosResult) -> List[str]:
    """All-or-nothing per transaction, and nothing outside committed ones.

    Every committed transaction's records must appear in the group's
    consumed union, and nothing consumed may belong to an aborted (or never
    committed) transaction.  Uses the chaos workload encoding: global record
    index ``i`` maps bijectively to ``(k<i % n_keys>, i // n_keys)``, so
    identities are unique across transactions.
    """
    problems = []
    consumed: Set[tuple] = set()
    for consumer in result.consumers:
        for record in consumer.received:
            consumed.add((record.key, record.value))
    committed_idents: Set[tuple] = set()
    for txn in result.committed_txns:
        idents = result.txn_idents(txn)
        committed_idents.update(idents)
        missing = [ident for ident in idents if ident not in consumed]
        if missing:
            problems.append(
                f"torn transaction {txn}: committed records {missing!r} "
                f"never consumed"
            )
    allowed = committed_idents | {
        ident
        for txn in result.uncertain_txns
        for ident in result.txn_idents(txn)
    }
    flagged: Set[tuple] = set()
    for consumer in result.consumers:
        for record in consumer.received:
            ident = (record.key, record.value)
            if ident not in allowed and ident not in flagged:
                flagged.add(ident)
                problems.append(
                    f"consumed {ident!r}, which no committed transaction wrote"
                )
    return problems


def check_committed_per_key_order(cluster: BrokerCluster, topic: str) -> List[str]:
    """Committed records keep per-key order in every current leader log.

    The transactional variant of :func:`check_per_key_order`: control
    records, aborted-transaction data and still-open transactions are
    excluded (an aborted attempt legitimately repeats values a later
    committed retry re-writes), and only what a read_committed consumer
    would see must be increasing per key.
    """
    problems = []
    for broker, key, log in _topic_logs(cluster, topic):
        if not broker._is_leader(key):
            continue
        stable = log.last_stable_offset
        if log.has_transactions:
            skip, _ = log.invisible_offsets(0, stable, "read_committed")
            skip_set = frozenset(skip)
        else:
            skip_set = frozenset()
        last_by_key: Dict[object, int] = {}
        for record in log.all_records():
            if record.offset >= stable or record.offset in skip_set:
                continue
            previous = last_by_key.get(record.key)
            if previous is not None and record.value <= previous:
                problems.append(
                    f"committed key {record.key!r} went {previous} -> "
                    f"{record.value} at offset {record.offset} in "
                    f"{broker.name}:{key}"
                )
            last_by_key[record.key] = record.value
    return problems


def check_consumed_exactly_once(consumers: List[Consumer]) -> List[str]:
    """No consumer delivered the same logical record twice (standalone only)."""
    problems = []
    for consumer in consumers:
        seen: Dict[tuple, int] = {}
        for record in consumer.received:
            ident = (record.key, record.value)
            if ident in seen:
                problems.append(
                    f"{consumer.name} consumed {ident!r} twice "
                    f"(offsets {seen[ident]} and {record.offset})"
                )
            else:
                seen[ident] = record.offset
    return problems


def check_consumed_per_key_order(consumers: List[Consumer]) -> List[str]:
    """Each consumer saw every key's sequence in increasing order."""
    problems = []
    for consumer in consumers:
        last_by_key: Dict[object, int] = {}
        for record in consumer.received:
            previous = last_by_key.get(record.key)
            if previous is not None and record.value <= previous:
                problems.append(
                    f"{consumer.name}: key {record.key!r} went "
                    f"{previous} -> {record.value}"
                )
            last_by_key[record.key] = record.value
    return problems


def run_chaos_txn_produce(
    seed: int,
    profile: str,
    partitions: int = 1,
    group_size: int = 1,
    isolation: str = "read_committed",
    n_txns: int = 20,
    txn_size: int = 10,
    n_keys: int = 8,
    duration: float = 70.0,
    mode: CoordinationMode = CoordinationMode.KRAFT,
    n_brokers: int = 3,
) -> TxnChaosResult:
    """One seeded transactional chaos run.

    A transactional producer drives ``n_txns`` transactions of ``txn_size``
    records each.  One seed-chosen transaction is deliberately aborted; a
    second seed-chosen one suffers the profile's fault *mid-transaction*
    (after half its records, before end_txn):

    * ``producer-kill`` — the producer is stopped cold and a successor with
      the same ``transactional_id`` takes over from a second host.  Its
      init must fence the zombie, abort the half-written transaction, and
      re-run it to a clean commit.
    * ``coordinator-kill`` — the coordinator host drops off the network for
      4.5 s while a transaction is open; the commit must ride out the
      outage through retries.
    * ``leader-failover`` — the current leader of a seed-chosen partition
      is disconnected for 5 s mid-transaction; data re-sends and the commit
      marker must survive the election.

    ``isolation`` selects the consumers' view: the matrix asserts zero
    violations under ``read_committed``, and the control arm replays the
    same seeds under ``read_uncommitted`` to show the torn/aborted writes
    the guarantee removes.
    """
    if profile not in TXN_CHAOS_PROFILES:
        raise ValueError(
            f"unknown txn chaos profile {profile!r}; use {TXN_CHAOS_PROFILES}"
        )
    sim = Simulator(seed=derive_seed(seed, "txn-chaos-sim", profile))
    broker_hosts = [f"broker{i + 1}" for i in range(n_brokers)]
    sink_hosts = [f"sink{i + 1}" for i in range(group_size)]
    network = one_big_switch(
        sim,
        broker_hosts + ["producer", "producer2"] + sink_hosts,
        default_config=LinkConfig(latency_ms=8.0, bandwidth_mbps=200.0),
    )
    cluster = BrokerCluster(
        network,
        coordinator_host=broker_hosts[0],
        config=ClusterConfig(
            mode=mode,
            session_timeout=5.0,
            # Short enough that a transaction orphaned by a fault is swept
            # mid-run (unpinning the LSO for the consumers' drain tail).
            transaction_timeout=15.0,
            segment_records=CHAOS_SEGMENT_RECORDS,
        ),
    )
    for host in broker_hosts:
        cluster.add_broker(host)
    topic = "chaos-txn"
    cluster.add_topic(
        TopicConfig(
            name=topic,
            partitions=partitions,
            replication_factor=min(3, n_brokers),
            preferred_leader=f"broker-{broker_hosts[1 % n_brokers]}",
        )
    )
    cluster.start(settle_time=2.0)

    transactional_id = "chaos-tx"

    def make_producer(host: str, name: str) -> Producer:
        return cluster.create_producer(
            host,
            config=ProducerConfig(
                acks="all",
                transactional_id=transactional_id,
                request_timeout=0.6,
                retry_backoff=0.1,
                delivery_timeout=30.0,
                linger=0.01,
            ),
            name=name,
        )

    producer = make_producer("producer", "chaos-txn-producer")
    producers = [producer]
    consumers = []
    for index, host in enumerate(sink_hosts):
        consumer = cluster.create_consumer(
            host,
            config=ConsumerConfig(
                poll_interval=0.05,
                group="chaos-txn-group" if group_size > 1 else None,
                keep_payloads=True,
                isolation_level=isolation,
            ),
            name=f"chaos-txn-consumer-{index}",
        )
        consumer.subscribe([topic])
        consumers.append(consumer)

    rng = SeededRandom(derive_seed(seed, "txn-chaos", profile)).child("driver")
    abort_txn = 2 + rng.randint(0, 2)
    fault_txn = 8 + rng.randint(0, 4)
    fault_partition = rng.randint(0, partitions - 1)
    injector = FaultInjector(network)

    result = TxnChaosResult(
        profile=profile,
        seed=seed,
        cluster=cluster,
        producers=producers,
        consumers=consumers,
        topic=topic,
        isolation=isolation,
        n_txns=n_txns,
        txn_size=txn_size,
        n_keys=n_keys,
    )

    def send_range(active: Producer, start: int, end: int):
        for i in range(start, end):
            active.send(
                ProducerRecord(
                    topic=topic, key=f"k{i % n_keys}", value=i // n_keys, size=120
                )
            )
            yield sim.timeout(0.04)

    def finish(active: Producer, txn: int, outcome: str):
        try:
            if outcome == "commit":
                yield from active.commit_transaction(timeout=25.0)
                result.committed_txns.append(txn)
            else:
                yield from active.abort_transaction(timeout=25.0)
                result.aborted_txns.append(txn)
        except DeliveryFailed:
            if outcome == "commit":
                result.uncertain_txns.append(txn)
            else:
                result.aborted_txns.append(txn)
        except ProducerFencedError:
            result.aborted_txns.append(txn)

    def drive():
        yield sim.timeout(8.0)  # brokers registered, topic created, settled
        producer.start()
        for consumer in consumers:
            consumer.start()
        yield sim.timeout(2.0)  # init_producer_id handshake + group sync
        active = producer
        for txn in range(n_txns):
            base = txn * txn_size
            active.begin_transaction()
            if txn != fault_txn:
                yield from send_range(active, base, base + txn_size)
                yield from finish(
                    active, txn, "abort" if txn == abort_txn else "commit"
                )
            elif profile == "producer-kill":
                yield from send_range(active, base, base + txn_size // 2)
                active.stop()  # zombie: half a transaction in the log
                successor = make_producer("producer2", "chaos-txn-producer-2")
                producers.append(successor)
                successor.start()
                waited = 0.0
                while successor.producer_id < 0 and waited < 10.0:
                    yield sim.timeout(0.1)
                    waited += 0.1
                active = successor
                # The successor's init bumped the epoch, fencing the zombie
                # and aborting its half-written transaction — so the whole
                # transaction re-runs from the top on the new instance.
                active.begin_transaction()
                yield from send_range(active, base, base + txn_size)
                yield from finish(active, txn, "commit")
            elif profile == "coordinator-kill":
                yield from send_range(active, base, base + txn_size // 2)
                injector.schedule_node_disconnection(
                    NodeDisconnection(
                        node=cluster.coordinator.host.name, start=0.0, duration=4.5
                    )
                )
                yield from send_range(active, base + txn_size // 2, base + txn_size)
                yield from finish(active, txn, "commit")
            else:  # leader-failover
                yield from send_range(active, base, base + txn_size // 2)
                leader = cluster.leader_broker(topic, fault_partition)
                if leader is not None:
                    injector.schedule_node_disconnection(
                        NodeDisconnection(
                            node=leader.host.name, start=0.0, duration=5.0
                        )
                    )
                yield from send_range(active, base + txn_size // 2, base + txn_size)
                yield from finish(active, txn, "commit")
            yield sim.timeout(0.1)

    sim.process(drive())
    sim.run(until=duration)
    return result
