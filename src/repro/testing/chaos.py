"""Seeded chaos harness: one driver, two workloads, faults replayed from a seed.

The broker plane's guarantees (``docs/exactly_once.md``) are only worth
anything if they hold under broker kills, link loss, leader failovers and
clients dying mid-transaction, so a *faulted run* is one reusable object:

* :class:`FaultSchedule` derives a timeline of faults from a base seed
  (:func:`~repro.scenarios.spec.derive_seed`, the scenario API's convention):
  identical inputs yield the identical timeline, so a failing combination
  from CI replays locally bit for bit.
* :func:`run_chaos` stands up the one chaos cluster with a producer and its
  readers, drives the workload the profile names through its faults, lets the
  cluster heal and returns the run's :class:`~repro.testing.history.History`,
  replica logs audited.  What the run must satisfy is not decided here:
  :func:`~repro.testing.history.check_history` reads it off the run's own
  producer and consumer configuration.
* The two workloads are the only code that differs per profile:
  ``CHAOS_PROFILES`` send keyed records through a :class:`FaultSchedule`,
  ``TXN_CHAOS_PROFILES`` run transactions, abort one on purpose and hit
  another with the profile's fault *mid-transaction*.

The workload's ``i``-th send is ``key k<i % 8>, value i // 8``, so ``(key,
value)`` — the history's default identity — is unique.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.broker.cluster import BrokerCluster, ClusterConfig
from repro.broker.consumer import ConsumerConfig
from repro.broker.coordinator import CoordinationMode
from repro.broker.errors import DeliveryFailed, ProducerFencedError
from repro.broker.message import ProducerRecord
from repro.broker.producer import Producer, ProducerConfig
from repro.broker.topic import TopicConfig
from repro.engine import StreamingConfig, StreamingContext
from repro.network.faults import Fault, FaultInjector
from repro.network.link import LinkConfig
from repro.network.topology import one_big_switch
from repro.scenarios.spec import derive_seed
from repro.simulation import Simulator
from repro.simulation.rng import SeededRandom
from repro.testing.history import History, Reader

#: Keyed-send profiles: the shapes :meth:`FaultSchedule.generate` understands.
CHAOS_PROFILES = ("broker-kill", "link-loss", "mixed")
#: Transactional profiles: what dies half way through one transaction.
TXN_CHAOS_PROFILES = ("producer-kill", "coordinator-kill", "leader-failover")

#: Every chaos cluster rolls its logs this often: a run sends 200 records, so
#: at 32 each seals segments, serves sealed reads to replicas and readers, and
#: truncates across segment boundaries on fail-over.
CHAOS_SEGMENT_RECORDS = 32
BROKER_HOSTS = ("broker1", "broker2", "broker3")
#: The workload: 200 sends over 8 keys, in transactions of 10 where it is
#: transactional; and how many simulated seconds a run of each workload lasts.
N_RECORDS, N_KEYS, TXN_SIZE = 200, 8, 10
KEYED_RUN, TXN_RUN = 50.0, 70.0
#: A schedule holds this many faults.  They start inside this window and hold
#: for this long (fractions of the run), so all heal before ~72 % of it: the
#: tail is for replicas to reconcile and readers to drain, which is what makes
#: end-of-run rules meaningful.
N_FAULTS, ACTIVE_WINDOW, FAULT_DURATION = 4, (0.22, 0.62), (0.04, 0.10)


@dataclass
class FaultSchedule:
    """A deterministic, seed-derived timeline of faults.  Their ``start`` is a
    delay from when the schedule is applied.  Besides the network's kinds, a
    ``leader_failover`` fault targets a ``"topic-partition"``: it disconnects
    whoever leads that partition when it fires."""

    seed: int
    profile: str
    duration: float
    actions: List[Fault] = field(default_factory=list)

    @classmethod
    def generate(
        cls,
        seed: int,
        profile: str,
        duration: float,
        kill_hosts: List[str],
        loss_links: List[Tuple[str, str]],
        failover_partitions: List[str],
    ) -> "FaultSchedule":
        """Derive a randomized timeline of ``N_FAULTS`` faults from ``seed``."""
        if profile not in CHAOS_PROFILES:
            raise ValueError(f"unknown chaos profile {profile!r}; use {CHAOS_PROFILES}")
        rng = SeededRandom(derive_seed(seed, "fault-schedule", profile)).child("timeline")
        kinds = {
            "broker-kill": ["node_disconnect"],
            "link-loss": ["link_down"],
            "mixed": ["node_disconnect", "link_down", "leader_failover"],
        }[profile]
        targets = {
            "node_disconnect": [[host] for host in kill_hosts],
            "link_down": [list(link) for link in loss_links],
            "leader_failover": [[key] for key in failover_partitions],
        }
        (lo, hi), (short, long) = ACTIVE_WINDOW, FAULT_DURATION
        actions: List[Fault] = []
        for _ in range(N_FAULTS):
            kind = kinds[rng.randint(0, len(kinds) - 1)]
            start = duration * (lo + (hi - lo) * rng.random())
            hold = duration * (short + (long - short) * rng.random())
            target = targets[kind][rng.randint(0, len(targets[kind]) - 1)]
            actions.append(Fault(kind, list(target), round(start, 3), round(hold, 3)))
        actions.sort(key=lambda fault: (fault.start, "|".join(fault.targets)))
        return cls(seed=seed, profile=profile, duration=duration, actions=actions)

    def apply(self, cluster: BrokerCluster) -> None:
        """Schedule every fault against the cluster's network (relative to *now*)."""
        injector = FaultInjector(cluster.network)
        for fault in self.actions:
            if fault.kind == "leader_failover":
                topic, _, partition = fault.targets[0].rpartition("-")
                cluster.sim.call_later(
                    fault.start,
                    _disconnect_leader,
                    injector,
                    cluster,
                    topic,
                    int(partition),
                    fault.duration,
                )
            else:
                injector.schedule(fault)


def _disconnect_leader(injector, cluster, topic: str, partition: int, duration: float) -> None:
    """Cut off whoever leads the partition *now* — the victim is resolved when
    the fault fires, so back-to-back failovers chase the leadership around the
    cluster (and hit nobody in between leaders)."""
    leader = cluster.leader_broker(topic, partition)
    if leader is not None:
        injector.schedule(Fault("node_disconnect", [leader.host.name], duration=duration))


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------
def run_chaos(
    seed: int,
    profile: str,
    partitions: int = 1,
    group_size: int = 1,
    idempotence: bool = True,
    isolation: str = "read_uncommitted",
    reader: str = "consumers",
) -> History:
    """One seeded chaos run: produce through faults, heal, return the history.

    Three broker hosts (RF 3, KRaft, ``acks="all"``: acked ⇒ durable at its
    best footing), the producer's and one host per reader sit behind one
    switch, with more access latency than the bench topology so that requests
    spend real time in flight — which is what fault windows cut.  ``profile``
    names the workload and its faults (:func:`_keyed_sends`,
    :func:`_transactions`).  The readers are ``group_size`` consumers on
    ``isolation``, one group when there are several, or with ``reader="spe"``
    a streaming pipeline (map -> filter -> memory sink), so that the faults
    stress the engine's ingest plane.  ``idempotence=False`` is the control arm.
    """
    transactional = profile in TXN_CHAOS_PROFILES
    if not transactional and profile not in CHAOS_PROFILES:
        raise ValueError(f"unknown chaos profile {profile!r}")
    if reader not in ("consumers", "spe"):
        raise ValueError(f"unknown reader kind {reader!r}; use 'consumers' or 'spe'")
    # ``stem`` names the topic, the group and every client.
    if transactional:
        stem, label, duration, workload = "chaos-txn", "txn-chaos-sim", TXN_RUN, _transactions
    else:
        label = "chaos-spe" if reader == "spe" else "chaos-sim"
        stem, duration, workload = "chaos", KEYED_RUN, _keyed_sends
    sim = Simulator(seed=derive_seed(seed, label, profile))
    sinks = ["spe"] if reader == "spe" else [f"sink{i + 1}" for i in range(group_size)]
    network = one_big_switch(
        sim,
        [*BROKER_HOSTS, "producer", *(["producer2"] if transactional else []), *sinks],
        default_config=LinkConfig(latency_ms=8.0, bandwidth_mbps=200.0),
    )
    # transaction_timeout: short enough that a transaction orphaned by a fault
    # is swept mid-run, unpinning the LSO for the readers' drain tail.
    cluster_config = ClusterConfig(
        mode=CoordinationMode.KRAFT, session_timeout=5.0, transaction_timeout=15.0,
        segment_records=CHAOS_SEGMENT_RECORDS,
    )
    cluster = BrokerCluster(network, coordinator_host=BROKER_HOSTS[0], config=cluster_config)
    for host in BROKER_HOSTS:
        cluster.add_broker(host)
    # Lead away from the coordinator host, so that killing a leader never
    # takes the control plane down with it.
    cluster.add_topic(
        TopicConfig(stem, partitions, replication_factor=3, preferred_leader="broker-broker2")
    )
    cluster.start(settle_time=2.0)

    producer_config = ProducerConfig(
        acks="all", idempotence=idempotence, request_timeout=0.6, linger=0.01,
        transactional_id="chaos-tx" if transactional else None,
        delivery_timeout=30.0 if transactional else duration,
    )
    producer = cluster.create_producer("producer", config=producer_config, name=f"{stem}-producer")
    if reader == "spe":
        context = StreamingContext(
            network.host("spe"), config=StreamingConfig(batch_interval=0.5), cluster=cluster
        )
        stream = context.kafka_stream([stem]).map(lambda v: v).filter(lambda v: v >= 0)
        sink = stream.to_memory(name="chaos-spe-sink")
        clients, readers = [context], [Reader(sink.name, sink.results, position=None)]
    else:
        consumer_config = ConsumerConfig(
            poll_interval=0.05, group=f"{stem}-group" if group_size > 1 else None,
            keep_payloads=True, isolation_level=isolation,
        )
        clients = [
            cluster.create_consumer(host, config=consumer_config, name=f"{stem}-consumer-{index}")
            for index, host in enumerate(sinks)
        ]
        for consumer in clients:
            consumer.subscribe([stem])
        readers = [Reader.of(consumer) for consumer in clients]
    history = History([producer], readers, cluster=cluster)
    sends = workload(history, seed, profile, stem, partitions)

    def drive():
        yield sim.timeout(8.0)  # brokers registered, topic created, settled
        producer.start()
        for client in clients:
            client.start()
        yield sim.timeout(2.0)  # id handshake + group sync before traffic
        yield from sends

    sim.process(drive())
    sim.run(until=duration)
    history.audit(cluster)
    return history


def _send(history: History, producer: Producer, topic: str, index: int) -> None:
    """The workload's ``index``-th record, sent by ``producer`` and noted as such."""
    record = ProducerRecord(topic, key=f"k{index % N_KEYS}", value=index // N_KEYS, size=120)
    history.sent.setdefault(producer.name, []).append(record)
    producer.send(record)


def _keyed_sends(history: History, seed: int, profile: str, topic: str, partitions: int):
    """Workload of ``CHAOS_PROFILES``: ``N_RECORDS`` keyed sends across the
    first 45 % of the run (from ~10 s in), through the profile's
    :class:`FaultSchedule` — broker kills (never the coordinator's host),
    loss on the producer's and the preferred leader's access links, leader
    failovers."""
    cluster = history.cluster
    FaultSchedule.generate(
        seed,
        profile,
        KEYED_RUN,
        kill_hosts=list(BROKER_HOSTS[1:]),
        loss_links=[("producer", "s1"), (BROKER_HOSTS[1], "s1")],
        failover_partitions=[f"{topic}-{p}" for p in range(partitions)],
    ).apply(cluster)
    interval = KEYED_RUN * 0.45 / N_RECORDS

    def sends():
        for index in range(N_RECORDS):
            _send(history, history.producers[0], topic, index)
            yield cluster.sim.timeout(interval)

    return sends()


def _transactions(history: History, seed: int, profile: str, topic: str, partitions: int):
    """Workload of ``TXN_CHAOS_PROFILES``: the same records in transactions of
    ``TXN_SIZE``.  One seed-chosen transaction is aborted on purpose; a second
    suffers the profile's fault after half its records, before end_txn:

    * ``producer-kill`` — the producer is stopped cold and a successor with
      the same ``transactional_id`` takes over from a second host.  Its init
      must fence the zombie and abort the half-written transaction, which the
      successor re-runs from the top to a clean commit.
    * ``coordinator-kill`` — the coordinator host drops off the network for
      4.5 s; the commit must ride out the outage through retries.
    * ``leader-failover`` — the current leader of a seed-chosen partition is
      cut off for 5 s; re-sends and the commit marker must survive the election.
    """
    cluster = history.cluster
    sim = cluster.sim
    rng = SeededRandom(derive_seed(seed, "txn-chaos", profile)).child("driver")
    abort_txn = 2 + rng.randint(0, 2)
    fault_txn = 8 + rng.randint(0, 4)
    fault_partition = rng.randint(0, partitions - 1)
    injector = FaultInjector(cluster.network)

    def send_range(active: Producer, start: int, end: int):
        for index in range(start, end):
            _send(history, active, topic, index)
            yield sim.timeout(0.04)

    def finish(active: Producer, outcome: str):
        try:
            if outcome == "commit":
                yield from active.commit_transaction(timeout=25.0)
            else:
                yield from active.abort_transaction(timeout=25.0)
        except DeliveryFailed:
            if outcome == "commit":
                outcome = "uncertain"  # the coordinator may or may not have completed it
        except ProducerFencedError:
            outcome = "abort"
        # Whichever path a transaction took, its records are the last
        # TXN_SIZE sends of the producer that finished it.
        history.txns.append((outcome, history.sent[active.name][-TXN_SIZE:]))

    def transactions():
        active = history.producers[0]
        for txn in range(N_RECORDS // TXN_SIZE):
            base = txn * TXN_SIZE
            half = base + TXN_SIZE // 2
            active.begin_transaction()
            yield from send_range(active, base, half)
            if txn == fault_txn and profile == "producer-kill":
                active.stop()  # zombie: half a transaction in the log
                active = cluster.create_producer(
                    "producer2", config=history.config, name=f"{topic}-producer-2"
                )
                history.producers.append(active)
                active.start()
                waited = 0.0
                while active.producer_id < 0 and waited < 10.0:
                    yield sim.timeout(0.1)
                    waited += 0.1
                active.begin_transaction()
                half = base  # the successor sends all of it
            elif txn == fault_txn and profile == "coordinator-kill":
                coordinator = cluster.coordinator.host.name
                injector.schedule(Fault("node_disconnect", [coordinator], duration=4.5))
            elif txn == fault_txn:  # leader-failover
                _disconnect_leader(injector, cluster, topic, fault_partition, 5.0)
            yield from send_range(active, half, base + TXN_SIZE)
            yield from finish(active, "abort" if txn == abort_txn else "commit")
            yield sim.timeout(0.1)

    return transactions()
