"""Seeded chaos matrix: exactly-once produce under kills, link loss, failover.

Drives the reusable harness in :mod:`repro.testing.chaos` across a matrix of
base seeds x fault-schedule profiles x partition counts (with the consumer
group sized to the partition count) and asserts the three invariants with
idempotence **on**:

* no duplicate ``(key, sequence)`` in any partition log,
* acknowledged implies durable in a current leader log,
* per-key order preserved in every log.

The control arm proves the matrix is not vacuous: with idempotence **off**
the *same* fault schedules demonstrably write duplicates into the logs (and
the paired on-arm drops them — observable via ``broker.metrics`` and the
producer's distinguishable DuplicateSequence acks).

Everything is derived from base seeds, so any failing combination replays
bit-for-bit.  All tests carry the ``chaos`` marker; deselect with
``-m "not chaos"`` for the fastest local tier.
"""

import pytest

from repro.testing.chaos import (
    CHAOS_PROFILES,
    TXN_CHAOS_PROFILES,
    FaultSchedule,
    check_all_acked_consumed,
    run_chaos_produce,
    run_chaos_txn_produce,
)

pytestmark = pytest.mark.chaos

SEEDS = (11, 23, 37)
#: (partitions, consumer-group size) arms of the matrix.
SHARDING = ((1, 1), (4, 4))


# ---------------------------------------------------------------------------
# Schedule determinism
# ---------------------------------------------------------------------------
class TestFaultSchedule:
    def generate(self, seed=5, profile="mixed"):
        return FaultSchedule.generate(
            seed,
            profile,
            duration=50.0,
            kill_hosts=["broker2", "broker3"],
            loss_links=[("producer", "s1")],
            failover_partitions=["chaos-0"],
        )

    def test_same_seed_replays_identically(self):
        assert self.generate().actions == self.generate().actions

    def test_different_seeds_and_profiles_diverge(self):
        base = self.generate().actions
        assert self.generate(seed=6).actions != base
        assert self.generate(profile="broker-kill").actions != base

    def test_every_fault_heals_before_the_tail(self):
        schedule = self.generate()
        assert schedule.actions, "schedule should contain faults"
        for action in schedule.actions:
            assert 0.0 < action.start < schedule.duration * 0.65
            assert action.start + action.duration < schedule.duration * 0.75

    def test_profiles_restrict_fault_kinds(self):
        kills = {a.kind for a in self.generate(profile="broker-kill").actions}
        loss = {a.kind for a in self.generate(profile="link-loss").actions}
        assert kills == {"broker_kill"}
        assert loss == {"link_loss"}

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            self.generate(profile="meteor-strike")


# ---------------------------------------------------------------------------
# The matrix: idempotence on -> all three invariants hold
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("profile", CHAOS_PROFILES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("partitions,group_size", SHARDING)
def test_exactly_once_invariants_hold_under_chaos(profile, seed, partitions, group_size):
    result = run_chaos_produce(
        seed, profile, partitions=partitions, group_size=group_size, idempotence=True
    )
    # The run must have exercised the data plane end to end...
    assert result.records_sent == 200
    assert result.records_acked == 200
    violations = result.invariant_violations()
    assert violations == [], (
        f"invariants violated for seed={seed} profile={profile} "
        f"partitions={partitions}: {violations[:5]}"
    )
    # ...and the faults must have actually bitten: every combination of this
    # matrix deterministically forces at least one duplicate retry that the
    # broker-side dedup absorbed (values pinned by the base seeds).
    assert result.duplicates_dropped > 0
    assert result.duplicate_acks > 0


def test_group_of_two_over_four_partitions_also_holds():
    """Group size below the partition count (members own several partitions)."""
    result = run_chaos_produce(23, "mixed", partitions=4, group_size=2, idempotence=True)
    assert result.records_acked == 200
    assert result.invariant_violations() == []


def test_acked_records_eventually_consumed_by_the_group():
    """Eventual delivery rides along: the group saw every acked record."""
    result = run_chaos_produce(11, "broker-kill", partitions=4, group_size=4,
                               idempotence=True)
    missing = check_all_acked_consumed(result.acked, result.consumers)
    assert missing == [], missing[:5]


def test_chaos_runs_replay_deterministically():
    """Same seed/profile -> bitwise identical outcome (logs, acks, dedup)."""

    def fingerprint():
        result = run_chaos_produce(23, "link-loss", partitions=4, group_size=4,
                                   idempotence=True)
        logs = []
        for broker in result.cluster.brokers.values():
            for key, log in sorted(broker.logs.items()):
                logs.append(
                    (broker.name, key,
                     [(r.key, r.value, r.sequence) for r in log.all_records()])
                )
        return (result.acked, result.duplicates_dropped, result.duplicate_acks, logs)

    assert fingerprint() == fingerprint()


# ---------------------------------------------------------------------------
# The control arm: idempotence off -> the same schedules write duplicates
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("profile", CHAOS_PROFILES)
def test_without_idempotence_the_same_schedule_duplicates(profile):
    """Every profile's seed-23 schedule demonstrably duplicates records when
    dedup is off, and the paired idempotent run absorbs those retries."""
    off = run_chaos_produce(23, profile, partitions=1, group_size=1, idempotence=False)
    duplicates = off.log_duplicates()
    assert duplicates, (
        f"expected the {profile} schedule to produce at-least-once duplicates "
        f"with idempotence off"
    )
    assert off.duplicates_dropped == 0  # nothing carries a producer id

    on = run_chaos_produce(23, profile, partitions=1, group_size=1, idempotence=True)
    assert on.log_duplicates() == []
    assert on.duplicates_dropped > 0  # the same retries were dropped, visibly


# ---------------------------------------------------------------------------
# Transactional matrix: atomic commits under mid-transaction faults
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("profile", TXN_CHAOS_PROFILES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("partitions,group_size", SHARDING)
def test_transactions_stay_atomic_under_chaos(profile, seed, partitions, group_size):
    """Every committed transaction is observed all-or-nothing by
    read_committed consumers, no aborted record surfaces, and per-key order
    holds — through a deliberate abort plus the profile's mid-transaction
    fault (producer kill + takeover, coordinator outage, leader failover)."""
    result = run_chaos_txn_produce(
        seed, profile, partitions=partitions, group_size=group_size,
        isolation="read_committed",
    )
    # The run exercised both outcomes and resolved every transaction: all
    # but the deliberately-aborted one committed (the producer-kill arm
    # re-runs the fenced transaction to a commit on the successor).
    assert len(result.committed_txns) == result.n_txns - 1
    assert len(result.aborted_txns) == 1
    assert result.uncertain_txns == []
    violations = result.invariant_violations()
    assert violations == [], (
        f"transactional invariants violated for seed={seed} profile={profile} "
        f"partitions={partitions}: {violations[:5]}"
    )
    # ...and the fault actually bit the transactional machinery.
    cluster = result.cluster
    if profile == "producer-kill":
        assert len(result.producers) == 2
        zombie, successor = result.producers
        assert successor.producer_epoch == zombie.producer_epoch + 1
        # Deliberate abort + the fencing abort of the zombie's half.
        assert cluster.total_transactions_aborted() >= 2
    else:
        assert cluster.total_transactions_aborted() >= 1
    assert cluster.total_transactions_committed() == len(result.committed_txns)
    assert cluster.total_control_batches() > 0


@pytest.mark.parametrize("profile", TXN_CHAOS_PROFILES)
@pytest.mark.parametrize("seed", SEEDS)
def test_read_uncommitted_control_arm_sees_torn_and_aborted_writes(profile, seed):
    """The matrix is not vacuous: the *same* seeds replayed with consumers on
    the default read_uncommitted isolation demonstrably deliver records from
    aborted transactions (torn writes the read_committed arm filtered)."""
    result = run_chaos_txn_produce(
        seed, profile, partitions=1, group_size=1, isolation="read_uncommitted"
    )
    violations = result.invariant_violations()
    assert violations, (
        f"expected the {profile} seed-{seed} schedule to expose aborted "
        f"writes under read_uncommitted"
    )
    assert any("no committed transaction wrote" in v for v in violations)


def test_txn_chaos_runs_replay_deterministically():
    """Same seed/profile -> identical commit/abort outcomes, consumer
    deliveries and coordinator metrics."""

    def fingerprint():
        result = run_chaos_txn_produce(11, "producer-kill", partitions=4,
                                       group_size=4)
        consumed = [
            [(r.key, r.value, r.offset) for r in consumer.received]
            for consumer in result.consumers
        ]
        return (
            result.committed_txns,
            result.aborted_txns,
            result.uncertain_txns,
            consumed,
            dict(result.cluster.coordinator.txn_metrics),
            result.cluster.total_control_batches(),
        )

    assert fingerprint() == fingerprint()


# ---------------------------------------------------------------------------
# SPE-facing chaos: the streaming engine ingests a chaos-ridden topic
# ---------------------------------------------------------------------------
def _run_chaos_spe(
    seed,
    profile,
    partitions=2,
    n_records=120,
    n_keys=6,
    duration=50.0,
):
    """A chaos run whose sink is the SPE: producer -> faulted cluster -> engine.

    Mirrors :func:`run_chaos_produce`'s topology and workload, but the
    consumer side is a :class:`StreamingContext` pipeline (map -> filter ->
    memory sink), so the fault schedule stresses the engine's ingest plane.
    """
    from repro.broker.cluster import BrokerCluster, ClusterConfig
    from repro.broker.message import ProducerRecord
    from repro.broker.producer import ProducerConfig
    from repro.broker.topic import TopicConfig
    from repro.engine import StreamingConfig, StreamingContext
    from repro.network.link import LinkConfig
    from repro.network.topology import one_big_switch
    from repro.scenarios.spec import derive_seed
    from repro.simulation import Simulator

    sim = Simulator(seed=derive_seed(seed, "chaos-spe", profile))
    broker_hosts = ["broker1", "broker2", "broker3"]
    network = one_big_switch(
        sim,
        broker_hosts + ["producer", "spe"],
        default_config=LinkConfig(latency_ms=8.0, bandwidth_mbps=200.0),
    )
    cluster = BrokerCluster(
        network, coordinator_host="broker1", config=ClusterConfig(session_timeout=5.0)
    )
    for host in broker_hosts:
        cluster.add_broker(host)
    topic = "chaos"
    cluster.add_topic(
        TopicConfig(
            name=topic,
            partitions=partitions,
            replication_factor=3,
            preferred_leader="broker-broker2",
        )
    )
    cluster.start(settle_time=2.0)
    producer = cluster.create_producer(
        "producer",
        config=ProducerConfig(
            acks="all",
            idempotence=True,
            request_timeout=0.6,
            retry_backoff=0.1,
            delivery_timeout=duration,
            linger=0.01,
        ),
        name="chaos-producer",
    )
    ctx = StreamingContext(
        network.host("spe"),
        config=StreamingConfig(batch_interval=0.5),
        cluster=cluster,
    )
    sink = (
        ctx.kafka_stream([topic])
        .map(lambda v: v)
        .filter(lambda v: v >= 0)
        .to_memory(name="chaos-spe-sink")
    )
    schedule = FaultSchedule.generate(
        seed,
        profile,
        duration,
        kill_hosts=broker_hosts[1:],
        loss_links=[("producer", "s1"), ("broker2", "s1")],
        failover_partitions=[f"{topic}-{p}" for p in range(partitions)],
    )
    schedule.apply(network, cluster)
    interval = duration * 0.45 / n_records

    def drive():
        yield sim.timeout(8.0)
        producer.start()
        ctx.start()
        yield sim.timeout(2.0)
        for i in range(n_records):
            producer.send(
                ProducerRecord(
                    topic=topic, key=f"k{i % n_keys}", value=i // n_keys, size=120
                )
            )
            yield sim.timeout(interval)

    sim.process(drive())
    sim.run(until=duration)
    return ctx, sink


@pytest.mark.parametrize("seed", [11, 23])
@pytest.mark.parametrize("profile", CHAOS_PROFILES)
def test_spe_ingest_invariants_hold_under_chaos(profile, seed):
    """The engine-side chaos matrix: with idempotence on, whatever reaches the
    SPE sink through kills/loss/failover is duplicate-free and per-key
    ordered."""
    ctx, sink = _run_chaos_spe(seed, profile)
    assert ctx.total_input_records() > 0, "chaos run was vacuous"
    assert len(sink.results) == ctx.total_input_records()
    per_key = {}
    for record in sink.results:
        per_key.setdefault(record.key, []).append(record.value)
    for key, values in per_key.items():
        assert values == sorted(set(values)), (
            f"{profile}/{seed}: key {key} saw duplicated or reordered "
            f"sequences: {values}"
        )
