"""Seeded chaos matrix: the broker plane's guarantees under kills, loss, failover.

Drives the one harness in :mod:`repro.testing.chaos` across base seeds x
profiles x partition counts (the consumer group sized to the partition count)
and asserts, on every arm, the rules the run's own configuration promises
(:func:`repro.testing.history.check_history`): with idempotence on, acked
records are durable at their acknowledged position and were handed to the
clients, nothing a reader was handed is missing from the final leader log, no
reader saw a duplicate and every key kept its send order; with a
transactional producer and ``read_committed`` readers, every transaction was
observed all or never.

The control arms prove the matrix is not vacuous by calling the rule their
configuration gives up: with idempotence **off** the *same* fault schedules
fail ``no_duplicates`` (and the paired on-arm drops those retries, visibly),
and under ``read_uncommitted`` the same seeds fail ``txn_atomic``.  That each
rule also fails when the *broker* is broken is ``tests/test_history_mutations.py``;
what each rule means, by hand, is ``tests/test_history_rules.py``.

Everything is derived from base seeds, so any failing combination replays
bit-for-bit.  All tests carry the ``chaos`` marker; deselect with
``-m "not chaos"`` for the fastest local tier.
"""

import pytest

from repro.testing import (
    CHAOS_PROFILES,
    TXN_CHAOS_PROFILES,
    FaultSchedule,
    acked_delivered,
    check_history,
    no_duplicates,
    run_chaos,
    txn_atomic,
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
        with pytest.raises(ValueError):
            run_chaos(5, "meteor-strike")
        with pytest.raises(ValueError):
            run_chaos(5, "mixed", reader="SPE")


# ---------------------------------------------------------------------------
# The matrix: idempotence on -> every rule of an exactly-once run holds
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("profile", CHAOS_PROFILES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("partitions,group_size", SHARDING)
def test_exactly_once_invariants_hold_under_chaos(profile, seed, partitions, group_size):
    run = run_chaos(seed, profile, partitions=partitions, group_size=group_size)
    (producer,) = run.producers
    # The run must have exercised the data plane end to end...
    assert producer.records_sent == 200
    assert producer.records_acked == 200
    violations = check_history(run)
    assert violations == [], (
        f"rules violated for seed={seed} profile={profile} "
        f"partitions={partitions}: {[str(v) for v in violations[:5]]}"
    )
    # ...and the faults must have actually bitten: every combination of this
    # matrix deterministically forces at least one duplicate retry that the
    # broker-side dedup absorbed (values pinned by the base seeds).
    assert run.cluster.total_duplicates_dropped() > 0
    assert producer.duplicate_acks > 0


def test_group_of_two_over_four_partitions_also_holds():
    """Group size below the partition count (members own several partitions)."""
    run = run_chaos(23, "mixed", partitions=4, group_size=2)
    assert run.producers[0].records_acked == 200
    assert check_history(run) == []


def test_acked_records_eventually_consumed_by_the_group():
    """Eventual delivery, by name (check_history asks it of every arm above):
    the group was handed every acked record."""
    run = run_chaos(11, "broker-kill", partitions=4, group_size=4)
    assert sum(len(reader.records) for reader in run.readers if not reader.audit) >= 200
    assert acked_delivered(run) == []


def test_chaos_runs_replay_deterministically():
    """Same seed/profile -> bitwise identical outcome (logs, acks, dedup)."""

    def fingerprint():
        run = run_chaos(23, "link-loss", partitions=4, group_size=4)
        logs = [
            (reader.name, [(r.key, r.value, r.sequence) for r in reader.records])
            for reader in run.readers
            if reader.audit
        ]
        acks = [(r.partition, r.offset, r.acknowledged_at) for r in run.producers[0].reports]
        return (
            acks, run.cluster.total_duplicates_dropped(), run.producers[0].duplicate_acks, logs
        )

    first = fingerprint()
    assert len(first[3]) == 12 and first == fingerprint()


# ---------------------------------------------------------------------------
# The control arm: idempotence off -> the same schedules write duplicates
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("profile", CHAOS_PROFILES)
def test_without_idempotence_the_same_schedule_duplicates(profile):
    """Every profile's seed-23 schedule demonstrably duplicates records when
    dedup is off, and the paired idempotent run absorbs those retries."""
    off = run_chaos(23, profile, idempotence=False)
    assert no_duplicates(off), (
        f"expected the {profile} schedule to produce at-least-once duplicates "
        f"with idempotence off"
    )
    # At-least-once is all such a run promises, and that much it keeps.
    assert check_history(off) == []
    assert off.cluster.total_duplicates_dropped() == 0  # nothing carries a producer id

    on = run_chaos(23, profile)
    assert no_duplicates(on) == []
    assert on.cluster.total_duplicates_dropped() > 0  # the same retries were dropped, visibly


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
    run = run_chaos(
        seed, profile, partitions=partitions, group_size=group_size, isolation="read_committed"
    )
    # The run exercised both outcomes and resolved every transaction: all
    # but the deliberately-aborted one committed (the producer-kill arm
    # re-runs the fenced transaction to a commit on the successor).
    outcomes = [outcome for outcome, _records in run.txns]
    assert sorted(outcomes) == ["abort"] + ["commit"] * 19
    violations = check_history(run)
    assert violations == [], (
        f"transactional rules violated for seed={seed} profile={profile} "
        f"partitions={partitions}: {[str(v) for v in violations[:5]]}"
    )
    # ...and the fault actually bit the transactional machinery.
    cluster = run.cluster
    if profile == "producer-kill":
        zombie, successor = run.producers
        assert successor.producer_epoch == zombie.producer_epoch + 1
        # Deliberate abort + the fencing abort of the zombie's half.
        assert cluster.total_transactions_aborted() >= 2
    else:
        assert cluster.total_transactions_aborted() >= 1
    assert cluster.total_transactions_committed() == 19
    assert cluster.total_control_batches() > 0


@pytest.mark.parametrize("profile", TXN_CHAOS_PROFILES)
@pytest.mark.parametrize("seed", SEEDS)
def test_read_uncommitted_control_arm_sees_torn_and_aborted_writes(profile, seed):
    """The matrix is not vacuous: the *same* seeds replayed with consumers on
    the default read_uncommitted isolation demonstrably deliver records from
    aborted transactions (torn writes the read_committed arm filtered)."""
    run = run_chaos(seed, profile)
    violations = txn_atomic(run)
    assert violations, (
        f"expected the {profile} seed-{seed} schedule to expose aborted "
        f"writes under read_uncommitted"
    )
    assert any("no committed transaction wrote" in v.detail for v in violations)
    assert check_history(run) == []  # read_uncommitted never promised atomicity


def test_txn_chaos_runs_replay_deterministically():
    """Same seed/profile -> identical commit/abort outcomes, consumer
    deliveries and coordinator metrics."""

    def fingerprint():
        run = run_chaos(
            11, "producer-kill", partitions=4, group_size=4, isolation="read_committed"
        )
        consumed = [
            [(r.key, r.value, r.offset) for r in reader.records]
            for reader in run.readers
            if not reader.audit
        ]
        return (
            [outcome for outcome, _records in run.txns],
            consumed,
            dict(run.cluster.coordinator.txn_metrics),
            run.cluster.total_control_batches(),
        )

    assert fingerprint() == fingerprint()


# ---------------------------------------------------------------------------
# SPE-facing chaos: the streaming engine ingests a chaos-ridden topic
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [11, 23])
@pytest.mark.parametrize("profile", CHAOS_PROFILES)
def test_spe_ingest_invariants_hold_under_chaos(profile, seed):
    """The engine-side chaos matrix: the same cluster, producer and faults,
    read by a streaming pipeline (map -> filter -> memory sink).  With
    idempotence on, what reaches the SPE sink through kills/loss/failover is
    every acked record, duplicate-free and per-key ordered."""
    run = run_chaos(seed, profile, partitions=2, reader="spe")
    sink = run.readers[0]
    assert sink.name == "chaos-spe-sink" and sink.position is None
    assert len(sink.records) == run.producers[0].records_acked == 200, "chaos run was vacuous"
    assert check_history(run) == [], f"{profile}/{seed}"
    assert run.cluster.total_segments_sealed() > 0  # the SPE arms roll segments too
