"""Transactional produce: state machine, markers, LSO, fencing, isolation.

Pins the mechanisms behind atomic multi-partition commits (see
``docs/exactly_once.md``): the coordinator's per-transactional-id state
machine and marker fan-out, the partition log's control records /
last-stable-offset / aborted-transaction index, the producer's
begin/commit/abort API, and the consumer's ``read_committed`` isolation
level.  The seeded transactional chaos matrix lives in
``tests/test_chaos_exactly_once.py``; this file proves each piece alone.
"""

import pytest

from repro.broker import (
    BrokerCluster,
    ClusterConfig,
    CoordinationMode,
    ConsumerConfig,
    ProducerConfig,
    ProducerRecord,
    TopicConfig,
)
from repro.broker.batch import RecordBatch
from repro.broker.coordinator import END_TXN_TIMEOUT, TransactionState
from repro.broker.errors import (
    DeliveryFailed,
    InvalidTxnStateError,
    ProducerFencedError,
)
from repro.broker.log import PartitionLog
from repro.network.link import LinkConfig
from repro.network.topology import star_topology
from repro.network.transport import DEFERRED
from repro.simulation import Simulator


class AnsweredHere:
    """Stands in for a transport ``Request`` handed to the coordinator's
    end_txn handler: keeps ``(time, reply)`` for each answer it gets."""

    def __init__(self, sim):
        self.sim = sim
        self.answers = []

    def answer(self, fn, *args):
        self.answers.append((self.sim.now, fn(*args)))


def build_cluster(
    n_sites=3,
    partitions=2,
    replication=2,
    mode=CoordinationMode.ZOOKEEPER,
    seed=1,
    session_timeout=6.0,
    preferred_leader=None,
    transaction_timeout=60.0,
):
    sim = Simulator(seed=seed)
    network, sites = star_topology(
        sim, n_sites, link_config=LinkConfig(latency_ms=2.0, bandwidth_mbps=100.0)
    )
    cluster = BrokerCluster(
        network,
        coordinator_host=sites[0],
        config=ClusterConfig(
            mode=mode,
            session_timeout=session_timeout,
            transaction_timeout=transaction_timeout,
        ),
    )
    for site in sites:
        cluster.add_broker(site)
    cluster.add_topic(
        TopicConfig(
            name="topicA",
            partitions=partitions,
            replication_factor=replication,
            preferred_leader=preferred_leader,
        )
    )
    cluster.start(settle_time=2.0)
    return sim, network, sites, cluster


# ---------------------------------------------------------------------------
# Transaction state machine
# ---------------------------------------------------------------------------
class TestTransactionStateMachine:
    def test_full_commit_and_abort_cycles_are_legal(self):
        txn = TransactionState("tx", producer_id=0, producer_epoch=0)
        for state in ("Ongoing", "PrepareCommit", "CompleteCommit", "Ongoing",
                      "PrepareAbort", "CompleteAbort", "Ongoing"):
            txn.transition(state)
        assert txn.state == "Ongoing"

    @pytest.mark.parametrize(
        "path",
        [
            ("PrepareCommit",),  # end before begin
            ("Ongoing", "CompleteCommit"),  # skip the prepare stage
            ("Ongoing", "PrepareCommit", "PrepareAbort"),  # flip mid-commit
            ("Ongoing", "PrepareCommit", "CompleteAbort"),  # cross outcomes
            ("Ongoing", "PrepareAbort", "CompleteCommit"),
            ("Ongoing", "Ongoing"),  # nested begin
        ],
    )
    def test_illegal_transitions_raise(self, path):
        txn = TransactionState("tx", producer_id=0, producer_epoch=0)
        with pytest.raises(InvalidTxnStateError):
            for state in path:
                txn.transition(state)


# ---------------------------------------------------------------------------
# Coordinator handlers
# ---------------------------------------------------------------------------
class TestCoordinatorTransactions:
    def test_init_with_transactional_id_creates_empty_transaction(self):
        sim, network, sites, cluster = build_cluster()
        coordinator = cluster.coordinator
        reply = coordinator._handle_init_producer_id({"transactional_id": "tx1"})
        assert reply["error"] is None
        txn = coordinator.transaction_state("tx1")
        assert txn.state == "Empty"
        assert (txn.producer_id, txn.producer_epoch) == (
            reply["producer_id"], reply["producer_epoch"]
        )
        # The registry is keyed by the transactional id, not the instance
        # name: a restarted producer with a new name still fences its
        # predecessor.
        again = coordinator._handle_init_producer_id(
            {"transactional_id": "tx1", "name": "other-instance"}
        )
        assert again["producer_id"] == reply["producer_id"]
        assert again["producer_epoch"] == reply["producer_epoch"] + 1

    def test_reinit_aborts_the_predecessors_open_transaction(self):
        sim, network, sites, cluster = build_cluster()
        sim.run(until=8.0)  # brokers registered, topic created
        coordinator = cluster.coordinator
        first = coordinator._handle_init_producer_id({"transactional_id": "tx1"})
        coordinator._handle_add_partitions_to_txn(
            {"transactional_id": "tx1", "producer_id": first["producer_id"],
             "producer_epoch": first["producer_epoch"], "partitions": ["topicA-0"]}
        )
        assert coordinator.transaction_state("tx1").state == "Ongoing"
        second = coordinator._handle_init_producer_id({"transactional_id": "tx1"})
        txn = coordinator.transaction_state("tx1")
        assert txn.state == "PrepareAbort"
        assert txn.producer_epoch == second["producer_epoch"]
        sim.run(until=sim.now + 5.0)  # marker fan-out completes
        assert txn.state == "CompleteAbort"
        assert coordinator.txn_metrics["transactions_aborted"] == 1
        # The abort marker carries the *bumped* epoch: partition leaders now
        # fence the zombie's in-flight data batches.
        log = cluster.leader_broker("topicA", 0).log_for("topicA", 0)
        entry = log.producer_entry(first["producer_id"])
        assert entry.epoch == second["producer_epoch"]
        assert log.check_producer_batch(
            first["producer_id"], first["producer_epoch"], 0
        ) == "fenced"

    def test_add_partitions_requires_matching_producer(self):
        sim, network, sites, cluster = build_cluster()
        coordinator = cluster.coordinator
        reply = coordinator._handle_init_producer_id({"transactional_id": "tx1"})
        unknown = coordinator._handle_add_partitions_to_txn(
            {"transactional_id": "nope", "producer_id": 0, "producer_epoch": 0}
        )
        assert unknown["error"] == "invalid_txn_state"
        stale = coordinator._handle_add_partitions_to_txn(
            {"transactional_id": "tx1", "producer_id": reply["producer_id"],
             "producer_epoch": reply["producer_epoch"] - 1,
             "partitions": ["topicA-0"]}
        )
        assert stale["error"] == "producer_fenced"
        assert coordinator.transaction_state("tx1").state == "Empty"

    def test_add_partitions_accumulates_sorted_unique(self):
        sim, network, sites, cluster = build_cluster()
        coordinator = cluster.coordinator
        reply = coordinator._handle_init_producer_id({"transactional_id": "tx1"})
        caller = {"transactional_id": "tx1", "producer_id": reply["producer_id"],
                  "producer_epoch": reply["producer_epoch"]}
        coordinator._handle_add_partitions_to_txn(
            dict(caller, partitions=["topicA-1"])
        )
        coordinator._handle_add_partitions_to_txn(
            dict(caller, partitions=["topicA-0", "topicA-1"])
        )
        txn = coordinator.transaction_state("tx1")
        assert txn.state == "Ongoing"
        assert txn.partitions == ["topicA-0", "topicA-1"]
        assert txn.started_at >= 0

    def test_end_txn_rejects_wrong_state_and_fences_stale_epochs(self):
        sim, network, sites, cluster = build_cluster()
        coordinator = cluster.coordinator
        reply = coordinator._handle_init_producer_id({"transactional_id": "tx1"})
        caller = {"transactional_id": "tx1", "producer_id": reply["producer_id"],
                  "producer_epoch": reply["producer_epoch"]}
        # Committing a transaction that never began: illegal.
        refused = coordinator._handle_end_txn(AnsweredHere(sim), dict(caller, outcome="commit"))
        assert refused["error"] == "invalid_txn_state"
        stale = coordinator._handle_end_txn(
            AnsweredHere(sim),
            dict(caller, producer_epoch=caller["producer_epoch"] - 1, outcome="commit"),
        )
        assert stale["error"] == "producer_fenced"
        assert coordinator.txn_metrics["fenced_end_txn"] == 1

    def test_timeout_sweeper_aborts_stuck_transactions(self):
        sim, network, sites, cluster = build_cluster(transaction_timeout=3.0)
        sim.run(until=8.0)
        coordinator = cluster.coordinator
        reply = coordinator._handle_init_producer_id({"transactional_id": "tx1"})
        coordinator._handle_add_partitions_to_txn(
            {"transactional_id": "tx1", "producer_id": reply["producer_id"],
             "producer_epoch": reply["producer_epoch"], "partitions": ["topicA-0"]}
        )
        sim.run(until=sim.now + 10.0)
        txn = coordinator.transaction_state("tx1")
        assert txn.state == "CompleteAbort"
        assert coordinator.txn_metrics["transactions_timed_out"] == 1
        assert coordinator.txn_metrics["transactions_aborted"] == 1

    def _commit_in_background(self, sim, coordinator):
        """Open tx1 on topicA-0 and ask to commit it; the reply and its time
        land in the returned list once the coordinator answers."""
        reply = coordinator._handle_init_producer_id({"transactional_id": "tx1"})
        caller = {"transactional_id": "tx1", "producer_id": reply["producer_id"],
                  "producer_epoch": reply["producer_epoch"]}
        coordinator._handle_add_partitions_to_txn(dict(caller, partitions=["topicA-0"]))
        request = AnsweredHere(sim)
        assert coordinator._handle_end_txn(request, dict(caller, outcome="commit")) is DEFERRED
        return request.answers

    def test_end_txn_replies_the_moment_the_transaction_completes(self):
        sim, network, sites, cluster = build_cluster()
        sim.run(until=8.0)
        coordinator = cluster.coordinator
        replies = self._commit_in_background(sim, coordinator)
        sim.run(until=sim.now + 5.0)
        (completed,) = [r for r in coordinator.event_log if r["event"] == "txn-completed"]
        assert replies == [(completed["time"], {"error": None, "state": "CompleteCommit"})]

    def test_end_txn_gives_up_when_the_markers_cannot_land(self):
        """The only replica of topicA-0 is cut off: nobody can be elected, the
        fan-out retries for ever and the reply gives up at its deadline."""
        sim, network, sites, cluster = build_cluster(
            partitions=1, replication=1, preferred_leader="broker-site3"
        )
        sim.run(until=8.0)
        network.link_between("site3", "s0").set_down()
        coordinator = cluster.coordinator
        started = sim.now
        replies = self._commit_in_background(sim, coordinator)
        sim.run(until=started + END_TXN_TIMEOUT + 5.0)
        assert replies == [(
            started + END_TXN_TIMEOUT,
            {"error": "invalid_txn_state", "message": "transaction is PrepareCommit"},
        )]
        # The expired waiter left its list: retries do not pile dead waiters up.
        assert coordinator._end_txn_waiters == {"tx1": []}


# ---------------------------------------------------------------------------
# Partition log: control records, LSO, aborted-transaction index
# ---------------------------------------------------------------------------
class TestPartitionLogTransactions:
    def txn_batch(self, pid, epoch, base_seq, n=2):
        batch = RecordBatch("t", 0)
        for i in range(n):
            batch.append(key=f"k{i}", value=base_seq + i, size=10, produced_at=0.0)
        batch.producer_id = pid
        batch.producer_epoch = epoch
        batch.base_sequence = base_seq
        batch.transactional = True
        return batch

    def test_open_transaction_pins_the_lso(self):
        log = PartitionLog("t")
        log.append(key="plain", value=0, size=10, timestamp=0.0,
                   produced_at=0.0, leader_epoch=0)
        log.append_batch(self.txn_batch(7, 0, 0), timestamp=1.0, leader_epoch=0)
        log.advance_high_watermark(3)
        assert log.high_watermark == 3
        assert log.last_stable_offset == 1  # first offset of the open txn
        assert log.open_txn_first_offset(7) == 1
        offset = log.append_control(7, 0, "commit", timestamp=2.0, leader_epoch=0)
        log.advance_high_watermark(4)
        assert offset == 3
        assert log.last_stable_offset == 4  # commit closed the transaction
        assert log.open_txn_first_offset(7) is None
        assert log.aborted_ranges == []
        assert log.last_markers[7] == (0, "commit", 3)

    def test_abort_marker_records_the_aborted_range(self):
        log = PartitionLog("t")
        log.append_batch(self.txn_batch(7, 0, 0), timestamp=1.0, leader_epoch=0)
        log.append_control(7, 0, "abort", timestamp=2.0, leader_epoch=0)
        log.advance_high_watermark(3)
        assert log.aborted_ranges == [(0, 2, 7)]
        # read_committed hides the aborted data and the marker; the default
        # view hides only the marker.
        committed = log.invisible_offsets(0, 3, "read_committed")
        uncommitted = log.invisible_offsets(0, 3, "read_uncommitted")
        assert committed == [0, 1, 2]
        assert uncommitted == [2]

    def test_interleaved_producers_abort_only_their_own_records(self):
        log = PartitionLog("t")
        log.append_batch(self.txn_batch(1, 0, 0), timestamp=1.0, leader_epoch=0)
        log.append_batch(self.txn_batch(2, 0, 0), timestamp=1.0, leader_epoch=0)
        log.append_control(1, 0, "abort", timestamp=2.0, leader_epoch=0)
        log.append_control(2, 0, "commit", timestamp=2.0, leader_epoch=0)
        log.advance_high_watermark(6)
        skipped = log.invisible_offsets(0, 6, "read_committed")
        # Producer 1's data (0-1) and both markers (4-5); producer 2's
        # committed records (2-3) stay visible.
        assert skipped == [0, 1, 4, 5]

    def test_marker_bumps_producer_epoch_to_fence_zombie_data(self):
        log = PartitionLog("t")
        log.append_batch(self.txn_batch(7, 0, 0), timestamp=1.0, leader_epoch=0)
        log.append_control(7, 1, "abort", timestamp=2.0, leader_epoch=0)
        # The marker carried the successor's bumped epoch: stale-epoch data
        # arriving after the abort is fenced, the successor starts clean.
        assert log.check_producer_batch(7, 0, 2) == "fenced"
        assert log.check_producer_batch(7, 1, 0) == "ok"

    def test_control_records_replicate_and_rebuild_txn_state(self):
        leader = PartitionLog("t")
        leader.append_batch(self.txn_batch(7, 0, 0), timestamp=1.0, leader_epoch=0)
        leader.append_control(7, 0, "abort", timestamp=2.0, leader_epoch=0)
        leader.append_batch(self.txn_batch(7, 1, 0), timestamp=3.0, leader_epoch=0)
        wire = leader.read_batch(0, with_epochs=True)
        assert wire.transactionals == [True, True, False, True, True]
        assert wire.controls[2] == ("abort", 7, 0)
        follower = PartitionLog("t")
        follower.append_wire_batch(wire)
        follower.advance_high_watermark(5)
        # The follower (a future leader) reconstructed the aborted range,
        # the still-open transaction and the marker dedup entry.
        assert follower.aborted_ranges == [(0, 2, 7)]
        assert follower.open_txn_first_offset(7) == 3
        assert follower.last_stable_offset == 3
        assert follower.last_markers[7] == (0, "abort", 2)

    def test_truncation_rebuilds_transaction_state(self):
        log = PartitionLog("t")
        log.append_batch(self.txn_batch(7, 0, 0), timestamp=1.0, leader_epoch=0)
        log.append_control(7, 0, "abort", timestamp=2.0, leader_epoch=0)
        log.advance_high_watermark(3)
        assert log.aborted_ranges == [(0, 2, 7)]
        # Truncating the marker away re-opens the transaction.
        log.truncate_to(2)
        assert log.aborted_ranges == []
        assert log.open_txn_first_offset(7) == 0
        log.truncate_to(0)
        assert log.open_txn_first_offset(7) is None
        assert not log.has_transactions or log.last_stable_offset == 0

    def test_consumer_fetch_batches_do_not_carry_txn_columns(self):
        log = PartitionLog("t")
        log.append_batch(self.txn_batch(7, 0, 0), timestamp=1.0, leader_epoch=0)
        log.append_control(7, 0, "commit", timestamp=2.0, leader_epoch=0)
        log.advance_high_watermark(3)
        batch = log.committed_read_batch(0)
        assert batch.transactionals is None
        assert batch.controls is None


# ---------------------------------------------------------------------------
# End-to-end: producer API, isolation levels, fencing, marker durability
# ---------------------------------------------------------------------------
class TestTransactionalProduce:
    def test_config_validation(self):
        assert ProducerConfig(transactional_id="tx").idempotence is True
        with pytest.raises(ValueError):
            ProducerConfig(transactional_id="tx", transaction_timeout=0)
        with pytest.raises(ValueError):
            ConsumerConfig(isolation_level="read_sideways")

    def test_send_outside_a_transaction_raises(self):
        sim, network, sites, cluster = build_cluster()
        producer = cluster.create_producer(
            sites[0], config=ProducerConfig(transactional_id="tx1")
        )
        with pytest.raises(InvalidTxnStateError):
            producer.send(ProducerRecord(topic="topicA", key="k", value=1, size=10))
        with pytest.raises(InvalidTxnStateError):
            producer.begin_transaction() or producer.begin_transaction()
        plain = cluster.create_producer(sites[0])
        with pytest.raises(InvalidTxnStateError):
            plain.begin_transaction()

    def test_an_end_requested_while_another_runs_raises(self):
        sim, network, sites, cluster = build_cluster()
        producer = cluster.create_producer(
            sites[0], config=ProducerConfig(transactional_id="tx1", linger=0.01)
        )
        outcomes = []

        def end(outcome):
            try:
                if outcome == "commit":
                    yield from producer.commit_transaction()
                else:
                    yield from producer.abort_transaction()
                outcomes.append((outcome, "ok", sim.now))
            except InvalidTxnStateError:
                outcomes.append((outcome, "refused", sim.now))

        def workload():
            yield sim.timeout(8.0)
            producer.start()
            producer.begin_transaction()
            producer.send(ProducerRecord(topic="topicA", key="k", value=1, size=50))
            sim.process(end("commit"))
            yield sim.timeout(0.001)
            sim.process(end("abort"))

        sim.process(workload())
        sim.run(until=20.0)
        assert [outcome[:2] for outcome in outcomes] == [
            ("abort", "refused"), ("commit", "ok")
        ]
        assert outcomes[0][2] == pytest.approx(8.001)
        assert producer.transactions_committed == 1

    def test_a_send_while_the_transaction_ends_raises(self):
        sim, network, sites, cluster = build_cluster(partitions=1)
        producer = cluster.create_producer(
            sites[0], config=ProducerConfig(transactional_id="tx1", linger=0.01)
        )
        refused = []

        def workload():
            yield sim.timeout(8.0)
            producer.start()
            producer.begin_transaction()
            producer.send(ProducerRecord(topic="topicA", key="k", value=1, size=50))
            sim.process(producer.commit_transaction())
            yield sim.timeout(0.001)
            try:
                producer.send(ProducerRecord(topic="topicA", key="k", value=2, size=50))
            except InvalidTxnStateError:
                refused.append(sim.now)

        sim.process(workload())
        sim.run(until=20.0)
        assert refused == [pytest.approx(8.001)]
        assert producer.transactions_committed == 1
        log = cluster.leader_broker("topicA").logs["topicA-0"]
        assert log.log_end_offset == 2  # the first record and its commit marker

    def test_commit_spans_partitions_atomically(self):
        sim, network, sites, cluster = build_cluster(partitions=2)
        producer = cluster.create_producer(
            sites[0], config=ProducerConfig(transactional_id="tx1", linger=0.01)
        )
        committed = cluster.create_consumer(
            sites[1], config=ConsumerConfig(
                poll_interval=0.05, keep_payloads=True,
                isolation_level="read_committed",
            )
        )
        committed.subscribe(["topicA"])

        def workload():
            yield sim.timeout(8.0)
            producer.start()
            committed.start()
            producer.begin_transaction()
            for i in range(10):
                producer.send(
                    ProducerRecord(topic="topicA", key=f"k{i % 4}", value=i, size=50)
                )
            # Nothing is visible to read_committed before the commit marker.
            yield sim.timeout(3.0)
            assert committed.records_consumed == 0
            yield from producer.commit_transaction()

        sim.process(workload())
        sim.run(until=25.0)
        assert producer.transactions_committed == 1
        assert producer.records_acked == 10
        assert committed.records_consumed == 10
        assert sorted(r.value for r in committed.received) == list(range(10))
        assert cluster.total_transactions_committed() == 1
        # One commit marker per touched partition, invisible to consumers.
        assert cluster.total_control_batches() == 2
        assert cluster.total_control_batch_bytes() > 0
        txn = cluster.coordinator.transaction_state("tx1")
        assert txn.state == "CompleteCommit"
        assert txn.partitions == ["topicA-0", "topicA-1"]

    def test_abort_hides_records_from_read_committed_only(self):
        sim, network, sites, cluster = build_cluster(partitions=2)
        producer = cluster.create_producer(
            sites[0], config=ProducerConfig(transactional_id="tx1", linger=0.01)
        )
        committed = cluster.create_consumer(
            sites[1], config=ConsumerConfig(
                poll_interval=0.05, keep_payloads=True,
                isolation_level="read_committed",
            )
        )
        uncommitted = cluster.create_consumer(
            sites[2], config=ConsumerConfig(poll_interval=0.05, keep_payloads=True)
        )
        committed.subscribe(["topicA"])
        uncommitted.subscribe(["topicA"])

        def workload():
            yield sim.timeout(8.0)
            producer.start()
            committed.start()
            uncommitted.start()
            producer.begin_transaction()
            for i in range(6):
                producer.send(
                    ProducerRecord(topic="topicA", key=f"k{i}", value=i, size=50)
                )
            yield from producer.abort_transaction()
            producer.begin_transaction()
            producer.send(ProducerRecord(topic="topicA", key="k9", value=99, size=50))
            yield from producer.commit_transaction()

        sim.process(workload())
        sim.run(until=25.0)
        assert producer.transactions_aborted == 1
        assert producer.transactions_committed == 1
        # read_committed: only the committed record; the default view also
        # sees the aborted writes (but never the markers).
        assert [r.value for r in committed.received] == [99]
        assert sorted(r.value for r in uncommitted.received) == [0, 1, 2, 3, 4, 5, 99]
        assert cluster.total_transactions_aborted() == 1

    def test_successor_fences_zombie_mid_transaction(self):
        sim, network, sites, cluster = build_cluster(partitions=1)
        zombie = cluster.create_producer(
            sites[0],
            config=ProducerConfig(transactional_id="tx1", linger=0.01,
                                  delivery_timeout=6.0),
        )
        successor = cluster.create_producer(
            sites[1],
            config=ProducerConfig(transactional_id="tx1", linger=0.01),
        )
        committed = cluster.create_consumer(
            sites[2], config=ConsumerConfig(
                poll_interval=0.05, keep_payloads=True,
                isolation_level="read_committed",
            )
        )
        committed.subscribe(["topicA"])
        failures = []

        def workload():
            yield sim.timeout(8.0)
            zombie.start()
            committed.start()
            zombie.begin_transaction()
            zombie.send(ProducerRecord(topic="topicA", key="z", value=-1, size=50))
            yield sim.timeout(2.0)  # half a transaction in the log
            successor.start()  # same transactional id -> epoch bump + abort
            yield sim.timeout(2.0)
            successor.begin_transaction()
            successor.send(ProducerRecord(topic="topicA", key="s", value=1, size=50))
            yield from successor.commit_transaction()
            try:
                yield from zombie.commit_transaction()
            except ProducerFencedError:
                failures.append("fenced")

        sim.process(workload())
        sim.run(until=30.0)
        assert failures == ["fenced"]
        assert successor.producer_epoch == zombie.producer_epoch + 1
        assert successor.transactions_committed == 1
        # The zombie's half-written transaction was aborted, not committed:
        # read_committed only ever sees the successor's record.
        assert [r.value for r in committed.received] == [1]
        assert cluster.total_transactions_aborted() == 1
        assert cluster.total_fenced_end_txn() >= 1
        with pytest.raises(ProducerFencedError):
            zombie.begin_transaction()

    def test_sweeper_abort_fails_a_slow_commit(self):
        sim, network, sites, cluster = build_cluster(transaction_timeout=3.0)
        producer = cluster.create_producer(
            sites[0], config=ProducerConfig(transactional_id="tx1", linger=0.01)
        )
        committed = cluster.create_consumer(
            sites[1], config=ConsumerConfig(
                poll_interval=0.05, keep_payloads=True,
                isolation_level="read_committed",
            )
        )
        committed.subscribe(["topicA"])
        outcomes = []

        def workload():
            yield sim.timeout(8.0)
            producer.start()
            committed.start()
            producer.begin_transaction()
            producer.send(ProducerRecord(topic="topicA", key="k", value=1, size=50))
            yield sim.timeout(8.0)  # past the coordinator's 3s ceiling
            try:
                yield from producer.commit_transaction()
                outcomes.append("committed")
            except DeliveryFailed:
                outcomes.append("refused")

        sim.process(workload())
        sim.run(until=30.0)
        assert outcomes == ["refused"]
        assert cluster.coordinator.txn_metrics["transactions_timed_out"] == 1
        assert committed.records_consumed == 0  # swept writes stay invisible

    def test_commit_marker_survives_leader_failover(self):
        sim, network, sites, cluster = build_cluster(
            n_sites=4,
            partitions=1,
            replication=3,
            session_timeout=4.0,
            preferred_leader="broker-site3",
        )
        producer = cluster.create_producer(
            sites[3], config=ProducerConfig(transactional_id="tx1", linger=0.01)
        )

        def workload():
            yield sim.timeout(8.0)
            producer.start()
            producer.begin_transaction()
            for i in range(4):
                producer.send(
                    ProducerRecord(topic="topicA", key="k", value=i, size=50)
                )
            yield from producer.commit_transaction()

        sim.process(workload())
        sim.run(until=20.0)
        old_leader = cluster.leader_broker("topicA", 0)
        from repro.network.faults import Fault, FaultInjector

        injector = FaultInjector(network)
        injector.schedule(Fault("node_disconnect", [old_leader.host.name], start=0.1))
        sim.run(until=sim.now + 15.0)
        new_leader = cluster.leader_broker("topicA", 0)
        assert new_leader is not None and new_leader is not old_leader
        # The marker replicated with the data: the new leader knows the
        # transaction is closed and serves all four records to
        # read_committed fetches.
        log = new_leader.log_for("topicA", 0)
        assert log.last_markers[producer.producer_id][1] == "commit"
        assert log.open_txn_first_offset(producer.producer_id) is None
        assert log.last_stable_offset == log.high_watermark == 5

    def test_non_transactional_path_untouched(self):
        """With no transactional_id nothing changes: no txn state, no control
        records, no isolation header, default consumer view identical."""
        sim, network, sites, cluster = build_cluster()
        producer = cluster.create_producer(
            sites[0], config=ProducerConfig(idempotence=True)
        )
        consumer = cluster.create_consumer(sites[2])
        consumer.subscribe(["topicA"])

        def workload():
            yield sim.timeout(8.0)
            producer.start()
            consumer.start()
            for i in range(10):
                producer.send(ProducerRecord(topic="topicA", key=i, value=i, size=90))
                yield sim.timeout(0.1)

        sim.process(workload())
        sim.run(until=30.0)
        assert consumer.records_consumed == 10
        assert cluster.coordinator.transactions == {}
        assert cluster.total_control_batches() == 0
        for broker in cluster.brokers.values():
            for log in broker.logs.values():
                assert not log.has_transactions


class TestScenarioPlumbing:
    """The transactional knobs ride the same config plumbing as idempotence."""

    def test_stub_config_parses_transactional_knobs(self):
        from repro.core.configs import ConsumerStubConfig, ProducerStubConfig

        parsed = ProducerStubConfig.from_dict(
            {"topicName": "t", "transactionalId": "tx1", "transactionBatch": 7}
        )
        assert parsed.transactional_id == "tx1"
        assert parsed.transaction_batch == 7
        defaults = ProducerStubConfig.from_dict({"topicName": "t"})
        assert defaults.transactional_id is None
        assert defaults.transaction_batch == 20

        sink = ConsumerStubConfig.from_dict(
            {"topics": ["t"], "isolationLevel": "read_committed"}
        )
        assert sink.isolation_level == "read_committed"
        assert ConsumerStubConfig.from_dict({}).isolation_level == "read_uncommitted"

    def test_control_records_never_reach_the_spe(self):
        """The batch the consumer hands the SPE's ingest (``on_batch``) must
        not carry commit/abort markers: a marker's payload leaking into an
        operator crashes any map that indexes into its records."""
        from repro.engine.sources import KafkaSource

        sim, network, sites, cluster = build_cluster()
        producer = cluster.create_producer(
            sites[0], config=ProducerConfig(transactional_id="tx-spe")
        )
        source = KafkaSource(
            network.host(sites[2]),
            topics=["topicA"],
            bootstrap=cluster.bootstrap_hosts(),
        )

        def workload():
            yield sim.timeout(8.0)
            producer.start()
            source.start()
            producer.begin_transaction()
            for i in range(5):
                producer.send(
                    ProducerRecord(topic="topicA", key=i, value={"v": i}, size=90)
                )
                yield sim.timeout(0.05)
            yield from producer.commit_transaction()
            producer.begin_transaction()
            producer.send(
                ProducerRecord(topic="topicA", key=9, value={"v": 9}, size=90)
            )
            yield from producer.abort_transaction()

        sim.process(workload())
        sim.run(until=30.0)
        batch = source.drain()
        # read_uncommitted (the SPE default): committed + aborted data records
        # flow, but never the two control markers.
        assert source.records_ingested == 6
        assert len(batch) == 6
        assert all(isinstance(value, dict) for value in batch.values)
        # One marker per touched partition: the commit spanned both
        # partitions of topicA, the abort touched one.
        assert cluster.total_control_batches() == 3

    def test_explicit_consumer_config_keeps_spe_ingest_batch_native(self, monkeypatch):
        """A ``KafkaSource`` handed an explicit ``ConsumerConfig`` — whose
        ``keep_payloads`` defaults to True — still ingests whole wire batches:
        no ``ConsumerRecord`` is built per message, for a plain and for a
        sharded stream, and ``read_committed`` filtering still applies."""
        import repro.broker.consumer as consumer_module
        from repro.engine import StreamingConfig, StreamingContext

        built = []
        real = consumer_module.ConsumerRecord
        monkeypatch.setattr(
            consumer_module,
            "ConsumerRecord",
            lambda *args, **kwargs: built.append(kwargs) or real(*args, **kwargs),
        )
        sim, network, sites, cluster = build_cluster()
        producer = cluster.create_producer(
            sites[0], config=ProducerConfig(transactional_id="tx-spe")
        )
        context = StreamingContext(
            network.host(sites[2]), config=StreamingConfig(batch_interval=0.5), cluster=cluster
        )
        read_committed = ConsumerConfig(isolation_level="read_committed")
        assert read_committed.keep_payloads
        plain = context.kafka_stream(["topicA"], consumer_config=read_committed).to_memory()
        sharded = context.sharded_kafka_stream(
            "topicA", [0, 1], consumer_config=read_committed
        ).to_memory()

        def workload():
            yield sim.timeout(8.0)
            producer.start()
            context.start()
            producer.begin_transaction()
            for i in range(5):
                producer.send(ProducerRecord(topic="topicA", key=i, value={"v": i}, size=90))
            yield from producer.commit_transaction()
            producer.begin_transaction()
            producer.send(ProducerRecord(topic="topicA", key=9, value={"v": 9}, size=90))
            yield from producer.abort_transaction()

        sim.process(workload())
        sim.run(until=30.0)
        assert built == []
        for sink in (plain, sharded):
            assert sorted(record.key for record in sink.results) == [0, 1, 2, 3, 4]
            assert all(record.size == 90 for record in sink.results)

    def test_fig7b_read_committed_matches_the_locked_figure_output(self):
        """``isolation_level=read_committed`` makes fig7b build an explicit
        ``ConsumerConfig``; with no transactions in flight the figure is the
        one ``tests/test_determinism_trace.py`` locks for the default."""
        from repro.core.configs import PlatformOverrides
        from repro.experiments.fig7b_traffic_monitoring import Fig7bConfig, run_fig7b

        platform = PlatformOverrides(isolation_level="read_committed")
        result = run_fig7b(Fig7bConfig(user_counts=[20, 60], slots=10, platform=platform))
        assert result.input_records == {20: 200, 60: 600}
        assert repr(result.mean_runtime_s[20]) == "0.1625230502499999"
        assert repr(result.mean_runtime_s[60]) == "0.23757060875000002"

    def test_transactional_word_count_pipeline_end_to_end(self):
        """A full Figure 2 pipeline with a transactional document source and a
        read_committed sink still delivers end to end."""
        from repro.apps.word_count import create_task
        from repro.core.configs import PlatformOverrides
        from repro.core.emulation import Emulation
        from repro.workloads.text import generate_documents

        task = create_task(n_documents=12, files_per_second=10.0)
        documents = generate_documents(12, seed=3)
        emulation = Emulation(
            task,
            seed=3,
            datasets={"documents": documents},
            platform=PlatformOverrides(
                transactional_id="tx1", isolation_level="read_committed"
            ),
        )
        result = emulation.run(duration=45.0)
        source = emulation.producers["h1"]
        assert source.transactions_committed >= 1
        assert emulation.cluster.total_transactions_committed() >= 1
        assert emulation.cluster.total_control_batches() >= 1
        assert result.messages_produced == 12
        assert result.messages_consumed > 0
