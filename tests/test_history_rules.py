"""The history rules, judged three ways.

1. By hand: per rule one history that satisfies it and one that violates it,
   six events at most, so what a rule means can be read off its test.
2. On every arm of the chaos matrix (``tests/test_chaos_exactly_once.py``):
   no violation on the matrix arms, and the rule a control arm switches off
   fires on the idempotence-off and ``read_uncommitted`` control arms.
3. As a fence: the fingerprint of every arm's run (acks, dedup counters, every
   consumer's deliveries with their positions, transaction outcomes).  A
   seeded run must not move, and its coordinator's state must be what a
   replay of its metadata log rebuilds (``tests/test_coordinator_log.py``).
"""

import hashlib
from collections import namedtuple

import pytest

from repro.broker.consumer import ConsumerConfig
from repro.broker.producer import ProducerConfig
from repro.testing import chaos
from repro.testing.history import (
    History,
    Reader,
    acked_delivered,
    acked_durable,
    check_history,
    delivered_durable,
    delivered_sent,
    key_order,
    no_duplicates,
    offset_order,
    txn_atomic,
)

from test_coordinator_log import assert_replay_equals_live

# ---------------------------------------------------------------------------
# 1. Hand-written histories
# ---------------------------------------------------------------------------
Client = namedtuple("Client", "name config reports")
Sent = namedtuple("Sent", "key value topic", defaults=("t",))
Ack = namedtuple("Ack", "sequence offset acknowledged_at partition topic", defaults=(1.0, 0, "t"))
Got = namedtuple("Got", "offset key value partition topic", defaults=(0, "t"))

EXACTLY_ONCE = ProducerConfig(acks="all", idempotence=True)
TRANSACTIONAL = ProducerConfig(acks="all", transactional_id="tx")
READ_COMMITTED = ConsumerConfig(isolation_level="read_committed")


def history(sent, acks, got, log=None, config=EXACTLY_ONCE, reader=ConsumerConfig(), **rest):
    """One producer ``p``, one reader ``c``, one partition ``t-0`` whose final
    leader log is ``log`` (default: exactly what the reader was handed)."""
    return History(
        [Client("p", config, acks)],
        [Reader("c", got, reader)],
        sent={"p": sent},
        leader_logs={("t", 0): {record.offset: record for record in (got if log is None else log)}},
        **rest,
    )


def rules(violations):
    return sorted({violation.rule for violation in violations})


TWO_SENT = [Sent("a", 0), Sent("a", 1)]
TWO_ACKED = [Ack(0, 0), Ack(1, 1)]
TWO_GOT = [Got(0, "a", 0), Got(1, "a", 1)]


def test_a_clean_history_satisfies_every_rule():
    assert check_history(history(TWO_SENT, TWO_ACKED, TWO_GOT)) == []


def test_acked_durable():
    assert acked_durable(history(TWO_SENT, TWO_ACKED, TWO_GOT)) == []
    # The elected leader never had offset 1 ...
    lost = history(TWO_SENT, TWO_ACKED, TWO_GOT, log=TWO_GOT[:1])
    assert [str(v) for v in acked_durable(lost)] == [
        "acked_durable: acked ('a', 1) is not at t-0@1 of the leader log"
    ]
    # ... or holds somebody else's record there.
    other = [Got(0, "a", 0), Got(1, "b", 0)]
    assert rules(acked_durable(history(TWO_SENT, TWO_ACKED, [], log=other)))
    # A duplicate ack that could not echo its offset: anywhere in the log will do.
    assert acked_durable(history(TWO_SENT, [Ack(0, None), Ack(1, None)], TWO_GOT)) == []
    assert rules(acked_durable(history(TWO_SENT, [Ack(1, None)], [], log=TWO_GOT[:1])))


def test_a_partition_without_a_leader_log_is_a_violation_not_a_pass():
    leaderless = history(TWO_SENT, TWO_ACKED, TWO_GOT)
    leaderless.leader_logs.clear()
    assert [v.detail for v in acked_durable(leaderless)] == [
        "t-0 has no leader log at the end of the run"
    ]
    assert rules(check_history(leaderless)) == ["acked_durable", "delivered_durable"]


def test_acked_delivered():
    assert acked_delivered(history(TWO_SENT, TWO_ACKED, TWO_GOT)) == []
    behind = history(TWO_SENT, TWO_ACKED, TWO_GOT[:1], log=TWO_GOT)
    assert [(v.detail, v.topic) for v in acked_delivered(behind)] == [
        ("acked ('a', 1) reached no reader", "t")
    ]
    # An acknowledgement after the cutoff is not judged, and neither is a send
    # that was never acknowledged.
    behind.ack_cutoff = 0.5
    assert acked_delivered(behind) == []
    assert acked_delivered(history(TWO_SENT, [Ack(0, 0), Ack(1, None, None)], TWO_GOT[:1])) == []


def test_delivered_sent():
    assert delivered_sent(history(TWO_SENT, TWO_ACKED, TWO_GOT)) == []
    phantom = history(TWO_SENT, TWO_ACKED, TWO_GOT + [Got(2, "z", 9)])
    assert [v.detail for v in delivered_sent(phantom)] == [
        "c was handed ('z', 9), which nobody sent"
    ]


def test_delivered_durable():
    assert delivered_durable(history(TWO_SENT, TWO_ACKED, TWO_GOT)) == []
    # The reader was handed offset 1, which the final leader does not have.
    assert rules(delivered_durable(history(TWO_SENT, TWO_ACKED, TWO_GOT, log=TWO_GOT[:1])))
    # A reader that keeps no positions (an SPE sink) cannot be asked.
    sink = history(TWO_SENT, TWO_ACKED, TWO_GOT, log=[])
    sink.readers[0].position = None
    assert delivered_durable(sink) == [] and offset_order(sink) == []


def test_offset_order():
    assert offset_order(history(TWO_SENT, TWO_ACKED, TWO_GOT)) == []
    rewound = history(TWO_SENT, TWO_ACKED, TWO_GOT[::-1])
    assert [v.detail for v in offset_order(rewound)] == ["c: t-0 went 1 -> 0"]
    # A group member re-reads from the committed offset after a rebalance.
    member = history(TWO_SENT, TWO_ACKED, TWO_GOT[::-1], reader=ConsumerConfig(group="g"))
    assert offset_order(member) == []


def test_no_duplicates():
    # A retry after a lost ack appended ('a', 0) again, at offset 1.
    twice, acked = [Got(0, "a", 0), Got(1, "a", 0), Got(2, "a", 1)], [Ack(0, 0), Ack(1, 2)]
    assert no_duplicates(history(TWO_SENT, TWO_ACKED, TWO_GOT)) == []
    assert [v.detail for v in no_duplicates(history(TWO_SENT, acked, twice))] == [
        "c was handed ('a', 0) twice"
    ]
    # Without idempotence the run does not promise it, so check_history does
    # not ask; the control arms call the rule by name.
    at_least_once = history(TWO_SENT, acked, twice, config=ProducerConfig(acks="all"))
    assert check_history(at_least_once) == [] and no_duplicates(at_least_once)
    # An aborted attempt and its committed retry are both in the log: only a
    # committed view of a transactional producer's records is duplicate-free.
    assert no_duplicates(history(TWO_SENT, acked, twice, config=TRANSACTIONAL)) == []
    assert no_duplicates(
        history(TWO_SENT, acked, twice, config=TRANSACTIONAL, reader=READ_COMMITTED)
    )


def test_key_order():
    swapped = [Got(0, "a", 1), Got(1, "a", 0)]
    assert key_order(history(TWO_SENT, TWO_ACKED, TWO_GOT)) == []
    assert [v.detail for v in key_order(history(TWO_SENT, TWO_ACKED, swapped))] == [
        "c: key 'a' went back to ('a', 0)"
    ]
    # Order is per key: another key's records may land in between, or first.
    other = [Sent("a", 0), Sent("b", 0), Sent("a", 1)]
    assert key_order(history(other, [], [Got(0, "b", 0), Got(1, "a", 0), Got(2, "a", 1)])) == []


def test_txn_atomic():
    sent = [Sent("a", 0), Sent("b", 0), Sent("c", 0)]
    txns = [("commit", sent[:2]), ("abort", sent[2:])]
    whole = [Got(0, "a", 0), Got(1, "b", 0)]

    def run(got, **rest):
        return history(
            sent, [], got, config=TRANSACTIONAL, reader=READ_COMMITTED, txns=txns, **rest
        )

    assert check_history(run(whole)) == []
    assert [v.detail for v in txn_atomic(run(whole[:1]))] == [
        "torn transaction 0: committed [('b', 0)] reached no reader"
    ]
    assert [v.detail for v in txn_atomic(run(whole + [Got(2, "c", 0)]))] == [
        "c was handed ('c', 0), which no committed transaction wrote"
    ]
    # A commit that raised may or may not have happened: nothing is required.
    unsure = [("uncertain", sent[:2]), ("abort", sent[2:])]
    for got in ([], whole[:1], whole):
        assert txn_atomic(history(sent, [], got, config=TRANSACTIONAL, txns=unsure)) == []
    # read_uncommitted does not promise atomicity, so check_history does not ask.
    torn = history(sent, [], whole + [Got(2, "c", 0)], config=TRANSACTIONAL, txns=txns)
    assert check_history(torn) == [] and txn_atomic(torn)


def test_rules_apply_by_the_runs_own_configuration():
    """acks=1 promises no durability: the lost record is not a finding of
    check_history, and still one of the rule called by name."""
    lossy = history(TWO_SENT, TWO_ACKED, TWO_GOT[:1], config=ProducerConfig(acks=1))
    assert check_history(lossy) == []
    assert rules(acked_durable(lossy) + acked_delivered(lossy)) == [
        "acked_delivered", "acked_durable"
    ]


def test_a_producer_without_a_send_list_is_judged_by_its_reports():
    """Fig. 6's shape: stub producers keep no send list, keys are unique."""
    Report = namedtuple("Report", "sequence key acknowledged_at topic")
    reports = [Report(0, "site:0", 1.0, "t"), Report(1, "site:1", 2.0, "t")]
    run = History(
        [Client("p", ProducerConfig(acks=1), reports)],
        [Reader("c", [Got(0, "site:0", {"seq": 0})])],
        ident=lambda record: record.key,
    )
    assert [(v.rule, v.topic) for v in acked_delivered(run)] == [("acked_delivered", "t")]
    assert delivered_sent(run) == []


# ---------------------------------------------------------------------------
# 2 + 3. The chaos matrix, and the fence
# ---------------------------------------------------------------------------
def fingerprint(run):
    """What a seeded run must reproduce: the producers' counters, the brokers'
    dedup drops, every consumer's deliveries with their positions, how each
    transaction ended, and (the part that moves with any change of timing)
    when and where every send was acknowledged."""
    deliveries, reports = hashlib.sha256(), hashlib.sha256()
    for reader in run.readers:
        if not reader.audit:
            deliveries.update(
                repr([(r.key, r.value, r.partition, r.offset) for r in reader.records]).encode()
            )
    for producer in run.producers:
        reports.update(
            repr(
                [(r.partition, r.offset, r.acknowledged_at, r.duplicate) for r in producer.reports]
            ).encode()
        )
    return (
        sum(producer.records_acked for producer in run.producers),
        run.cluster.total_duplicates_dropped(),
        sum(producer.duplicate_acks for producer in run.producers),
        deliveries.hexdigest()[:16],
        reports.hexdigest()[:16],
        "".join(outcome[0] for outcome, _records in run.txns),
    )


#: seed, profile, partitions x group -> fingerprint.  First captured through
#: the two drivers ``run_chaos`` replaced; re-captured when fetches began to
#: park at the leader (PR 24), with ``check_history(run) == []`` on every
#: matrix arm on both sides: a follower now trails by milliseconds instead of
#: up to 100 ms, so every acknowledgement time moves, fewer retries find their
#: first attempt already appended (e.g. 354 -> 8 duplicates dropped on
#: 11/broker-kill/1x1), and a killed producer gets five records of its doomed
#: transaction acknowledged instead of one to four (``records_acked`` 201 / 204
#: -> 205 on the producer-kill arms).  Transaction outcomes did not move.
#: The 27 transactional arms were re-captured once more when ``end_txn``
#: began to reply at its transaction's Complete* record instead of on a 50 ms
#: poll: a commit returns up to 50 ms earlier, so the next transaction's acks
#: move (what else moved is noted per line).  ``check_history(run) == []``
#: on every arm and every transaction outcome as before.
PARENT_FINGERPRINTS = {
    (11, 'broker-kill', 1, 1): (200, 8, 1, '6a20f1d64ff86e81', 'f79e61aff7ab7e84', ''),
    (11, 'broker-kill', 4, 4): (200, 37, 6, 'a074a250f9dc4552', '3f0ff6126a1f3a91', ''),
    (11, 'link-loss', 1, 1): (200, 3, 3, '6a20f1d64ff86e81', '003e8a761a6cbcfe', ''),
    (11, 'link-loss', 4, 4): (200, 30, 10, 'a074a250f9dc4552', 'f0de8caa6eba0fd3', ''),
    (11, 'mixed', 1, 1): (200, 7, 2, '6a20f1d64ff86e81', '6c2d0e4c47dd3897', ''),
    (11, 'mixed', 4, 4): (200, 30, 6, 'a074a250f9dc4552', '33951673cb5a95dd', ''),
    (11, 'producer-kill', 1, 1): (205, 0, 0, '09a09056fef1fafb', 'ecdc9bee9773b16b', 'cccacccccccccccccccc'),  # end_txn replies at completion: ack times
    (11, 'producer-kill', 4, 4): (205, 0, 0, '7befd71e7ba9b6bb', '24496140162386ff', 'cccacccccccccccccccc'),  # end_txn replies at completion: ack times
    (11, 'coordinator-kill', 1, 1): (200, 6, 0, '6dfaa085d3361504', 'd45249332213b4ca', 'ccccaccccccccccccccc'),  # end_txn replies at completion: ack times
    (11, 'coordinator-kill', 4, 4): (200, 11, 1, 'd34ace9903cd22e5', '00ad68f21ed69239', 'ccccaccccccccccccccc'),  # end_txn replies at completion: ack times; delivery positions
    (11, 'leader-failover', 1, 1): (200, 2, 1, '6dfaa085d3361504', '1f2c1051af608a36', 'ccccaccccccccccccccc'),  # end_txn replies at completion: ack times
    (11, 'leader-failover', 4, 4): (200, 15, 2, 'd34ace9903cd22e5', 'cb5d295ab331411c', 'ccccaccccccccccccccc'),  # end_txn replies at completion: ack times
    (23, 'broker-kill', 1, 1): (200, 15, 3, '6a20f1d64ff86e81', '9ea77441205d0f5d', ''),
    (23, 'broker-kill', 4, 4): (200, 87, 13, 'a074a250f9dc4552', 'd6c1334dfd9896ce', ''),
    (23, 'link-loss', 1, 1): (200, 1, 1, '6a20f1d64ff86e81', '50602986c02429e5', ''),
    (23, 'link-loss', 4, 4): (200, 17, 5, 'a074a250f9dc4552', 'f898fcbb84c3c7eb', ''),
    (23, 'mixed', 1, 1): (200, 6, 2, '6a20f1d64ff86e81', '555ab0564818edde', ''),
    (23, 'mixed', 4, 4): (200, 29, 7, 'a074a250f9dc4552', '05f2af2372b888ca', ''),
    (23, 'producer-kill', 1, 1): (205, 0, 0, '09a09056fef1fafb', 'ecdc9bee9773b16b', 'cccacccccccccccccccc'),  # end_txn replies at completion: ack times
    (23, 'producer-kill', 4, 4): (205, 0, 0, '7befd71e7ba9b6bb', '24496140162386ff', 'cccacccccccccccccccc'),  # end_txn replies at completion: ack times
    (23, 'coordinator-kill', 1, 1): (200, 6, 0, '23a5667a9181a166', 'a79e187d0a467073', 'cccacccccccccccccccc'),  # end_txn replies at completion: ack times; dedup drops 4 -> 6
    (23, 'coordinator-kill', 4, 4): (200, 13, 1, 'bf3665fc152bb835', 'c5f32d13d58a4d5b', 'cccacccccccccccccccc'),  # end_txn replies at completion: ack times; dedup drops 11 -> 13, delivery positions
    (23, 'leader-failover', 1, 1): (200, 2, 1, '313aa8c1abc8f84c', 'a3dd701052a6052d', 'ccaccccccccccccccccc'),  # end_txn replies at completion: ack times
    (23, 'leader-failover', 4, 4): (200, 17, 5, '31cfa3d1fe16a42a', '68bd25743919b701', 'ccaccccccccccccccccc'),  # end_txn replies at completion: ack times; dedup drops 16 -> 17, duplicate acks 4 -> 5
    (37, 'broker-kill', 1, 1): (200, 17, 3, '6a20f1d64ff86e81', '01f8c32d44abc592', ''),
    (37, 'broker-kill', 4, 4): (200, 74, 12, 'a074a250f9dc4552', '444892b0a88d4c7f', ''),
    (37, 'link-loss', 1, 1): (200, 3, 3, '6a20f1d64ff86e81', 'fb79331e4596edbd', ''),
    (37, 'link-loss', 4, 4): (200, 14, 6, 'a074a250f9dc4552', '9f20be058f820c6c', ''),
    (37, 'mixed', 1, 1): (200, 393, 2, '6a20f1d64ff86e81', '65677938be57ec3b', ''),
    (37, 'mixed', 4, 4): (200, 33, 6, 'a074a250f9dc4552', '1c96473908897c66', ''),
    (37, 'producer-kill', 1, 1): (205, 0, 0, '3849915b107ab8d4', '4477a2c82d16e401', 'ccccaccccccccccccccc'),  # end_txn replies at completion: ack times
    (37, 'producer-kill', 4, 4): (205, 0, 0, '4c04faf8c91381de', 'dc1f83bec649886c', 'ccccaccccccccccccccc'),  # end_txn replies at completion: ack times
    (37, 'coordinator-kill', 1, 1): (200, 8, 0, '313aa8c1abc8f84c', 'ba0cb19ae3e817f1', 'ccaccccccccccccccccc'),  # end_txn replies at completion: ack times
    (37, 'coordinator-kill', 4, 4): (200, 18, 2, 'f1021f24b569f12d', 'a70414fbdbea7a6a', 'ccaccccccccccccccccc'),  # end_txn replies at completion: ack times; dedup drops 15 -> 18, delivery positions
    (37, 'leader-failover', 1, 1): (200, 4, 1, '6dfaa085d3361504', '224c3cfe85ea1c5e', 'ccccaccccccccccccccc'),  # end_txn replies at completion: ack times; dedup drops 2 -> 4
    (37, 'leader-failover', 4, 4): (200, 22, 3, 'd34ace9903cd22e5', 'dd2815fd80c709fb', 'ccccaccccccccccccccc'),  # end_txn replies at completion: ack times
    (23, 'mixed', 4, 2): (200, 29, 7, 'e1e0c4327fb3b2d3', '05f2af2372b888ca', ''),
    (23, 'broker-kill', 'off'): (200, 0, 0, 'cdcea6cd5d54b299', '7796197a38e3c58b', ''),
    (23, 'link-loss', 'off'): (200, 0, 0, '1282b927196c43bc', 'aba7deb8ed3d97e9', ''),
    (23, 'mixed', 'off'): (200, 0, 0, '3aac033387d40c95', '4adb13dcf9447ae1', ''),
    (11, 'producer-kill', 'read_uncommitted'): (205, 0, 0, '37975cee51895a64', 'ecdc9bee9773b16b', 'cccacccccccccccccccc'),  # end_txn replies at completion: ack times
    (11, 'coordinator-kill', 'read_uncommitted'): (200, 6, 0, '63b08542b4b993e3', 'd45249332213b4ca', 'ccccaccccccccccccccc'),  # end_txn replies at completion: ack times
    (11, 'leader-failover', 'read_uncommitted'): (200, 2, 1, '63b08542b4b993e3', '1f2c1051af608a36', 'ccccaccccccccccccccc'),  # end_txn replies at completion: ack times
    (23, 'producer-kill', 'read_uncommitted'): (205, 0, 0, '37975cee51895a64', 'ecdc9bee9773b16b', 'cccacccccccccccccccc'),  # end_txn replies at completion: ack times
    (23, 'coordinator-kill', 'read_uncommitted'): (200, 6, 0, '63b08542b4b993e3', '94952e6addb5c912', 'cccacccccccccccccccc'),  # end_txn replies at completion: ack times; dedup drops 4 -> 6
    (23, 'leader-failover', 'read_uncommitted'): (200, 2, 1, '63b08542b4b993e3', 'a3dd701052a6052d', 'ccaccccccccccccccccc'),  # end_txn replies at completion: ack times
    (37, 'producer-kill', 'read_uncommitted'): (205, 0, 0, 'a238205377418fc9', '4477a2c82d16e401', 'ccccaccccccccccccccc'),  # end_txn replies at completion: ack times
    (37, 'coordinator-kill', 'read_uncommitted'): (200, 8, 0, '63b08542b4b993e3', 'ca8b8b925cb88a19', 'ccaccccccccccccccccc'),  # end_txn replies at completion: ack times
    (37, 'leader-failover', 'read_uncommitted'): (200, 4, 1, '63b08542b4b993e3', '224c3cfe85ea1c5e', 'ccccaccccccccccccccc'),  # end_txn replies at completion: ack times; dedup drops 2 -> 4
}

SEEDS = (11, 23, 37)
MATRIX = [
    (seed, profile, partitions, partitions)
    for seed in SEEDS
    for profile in chaos.CHAOS_PROFILES + chaos.TXN_CHAOS_PROFILES
    for partitions in (1, 4)
] + [(23, "mixed", 4, 2)]


@pytest.mark.chaos
@pytest.mark.parametrize("seed,profile,partitions,group_size", MATRIX)
def test_matrix_arm_holds_every_rule_and_reproduces_the_parent(
    seed, profile, partitions, group_size
):
    transactional = profile in chaos.TXN_CHAOS_PROFILES
    run = chaos.run_chaos(
        seed, profile, partitions, group_size,
        isolation="read_committed" if transactional else "read_uncommitted",
    )
    assert check_history(run) == []
    assert fingerprint(run) == PARENT_FINGERPRINTS[seed, profile, partitions, group_size]
    assert_replay_equals_live(run.cluster.coordinator)


@pytest.mark.chaos
@pytest.mark.parametrize("profile", chaos.CHAOS_PROFILES)
def test_idempotence_off_control_arm_fires_no_duplicates(profile):
    run = chaos.run_chaos(23, profile, idempotence=False)
    assert no_duplicates(run)
    assert fingerprint(run) == PARENT_FINGERPRINTS[23, profile, "off"]
    assert_replay_equals_live(run.cluster.coordinator)


@pytest.mark.chaos
@pytest.mark.parametrize("profile", chaos.TXN_CHAOS_PROFILES)
@pytest.mark.parametrize("seed", SEEDS)
def test_read_uncommitted_control_arm_fires_txn_atomic(profile, seed):
    run = chaos.run_chaos(seed, profile)
    assert any("no committed transaction wrote" in v.detail for v in txn_atomic(run))
    assert fingerprint(run) == PARENT_FINGERPRINTS[seed, profile, "read_uncommitted"]
    assert_replay_equals_live(run.cluster.coordinator)
