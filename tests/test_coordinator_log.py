"""The coordinator's metadata log: its state is a fold over its records.

``Coordinator._record`` is the only way the coordinator changes what it
knows, and ``Coordinator.replay`` rebuilds all of it from the log alone — what
a restarted controller does.  These tests hold the fold to the live state on
real runs (Fig. 6, a consumer group that churns, transactions), replay in the
middle of a run and keep going, and break the one rule the log rests on (a
change made without a record) to show the check is not blind.
``tests/test_history_rules.py`` runs the same check on every chaos arm.
"""

from dataclasses import asdict
from unittest.mock import Mock

import pytest

from repro.broker import (
    BrokerCluster,
    ClusterConfig,
    ConsumerConfig,
    CoordinationMode,
    ProducerConfig,
    ProducerRecord,
    TopicConfig,
)
from repro.broker.coordinator import Coordinator
from repro.experiments.fig6_partition import Fig6Config, run_fig6
from repro.network.link import LinkConfig
from repro.network.topology import one_big_switch, star_topology
from repro.simulation import Simulator
from repro.testing import run_chaos


def canonical(coordinator):
    """Everything the controller knows except liveness stamps, in the order
    it iterates it (failure detection and elections walk these dicts)."""
    return {
        "brokers": [(name, reg.host, reg.alive) for name, reg in coordinator.brokers.items()],
        "partitions": [
            (key, list(state.replicas), state.leader, state.leader_epoch, list(state.isr))
            for key, state in coordinator.partitions.items()
        ],
        "topics": list(coordinator.topics.items()),
        "groups": [
            (
                name,
                group.assignor,
                group.generation,
                [(member, list(state.topics)) for member, state in group.members.items()],
                {member: list(keys) for member, keys in group.assignment.items()},
                dict(group.committed),
            )
            for name, group in coordinator.groups.items()
        ],
        "producer_ids": [(name, list(entry)) for name, entry in coordinator.producer_ids.items()],
        "next_producer_id": coordinator._next_producer_id,
        "transactions": [(tid, asdict(txn)) for tid, txn in coordinator.transactions.items()],
        "metadata_version": coordinator.metadata_version,
    }


def assert_replay_equals_live(coordinator):
    live = canonical(coordinator)
    coordinator.replay()
    assert canonical(coordinator) == live


@pytest.fixture
def coordinators(monkeypatch):
    """Every coordinator built while the test runs."""
    built = []
    init = Coordinator.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Coordinator, "__init__", recording_init)
    return built


def run_until(sim, done):
    """Step the simulator until ``done()`` holds (at most 60 simulated s)."""
    deadline = sim.now + 60.0
    while not done():
        assert sim.now < deadline, "condition never reached"
        sim.step()


# -- replay equals live -----------------------------------------------------------------


def test_replay_equals_live_after_a_fig6_run(coordinators):
    result = run_fig6(
        Fig6Config(
            n_sites=4,
            duration=75.0,
            disconnect_start=15.0,
            disconnect_duration=30.0,
            preferred_election_interval=20.0,
            seed=3,
        )
    )
    (coordinator,) = coordinators
    reasons = [election["reason"] for election in coordinator.elections]
    assert "leader-failure" in reasons and "preferred-replica-election" in reasons
    assert result.election_times() == [election["time"] for election in coordinator.elections]
    assert_replay_equals_live(coordinator)


def group_churn():
    """Three members of one group over a four-partition topic: one leaves
    gracefully at 12 s, one is cut off at 18 s and expires."""
    sim = Simulator(seed=5)
    network = one_big_switch(
        sim,
        ["broker", "c0", "c1", "c2", "source"],
        default_config=LinkConfig(latency_ms=1.0, bandwidth_mbps=1000.0),
    )
    cluster = BrokerCluster(network, coordinator_host="broker", config=ClusterConfig(session_timeout=3.0))
    cluster.add_broker("broker")
    cluster.add_topic(TopicConfig(name="events", partitions=4))
    cluster.start(settle_time=1.0)
    producer = cluster.create_producer("source", config=ProducerConfig(linger=0.01))
    members = []
    for index in range(3):
        member = cluster.create_consumer(
            f"c{index}", config=ConsumerConfig(group="g", poll_interval=0.05), name=f"m{index}"
        )
        member.subscribe(["events"])
        members.append(member)

    def drive():
        yield sim.timeout(3.0)
        producer.start()
        members[0].start()
        members[1].start()
        yield sim.timeout(2.0)
        members[2].start()
        for i in range(300):
            producer.send(ProducerRecord(topic="events", key=f"k{i % 13}", value=i))
            yield sim.timeout(0.05)

    sim.process(drive())
    sim.call_at(12.0, members[1].stop)
    sim.call_at(18.0, network.link_between("c2", "s1").set_down)
    return sim, cluster, members


def test_replay_equals_live_after_group_churn():
    sim, cluster, members = group_churn()
    sim.run(until=30.0)
    coordinator = cluster.coordinator
    events = [record["event"] for record in coordinator.event_log]
    for event in ("group-member-joined", "group-member-left", "group-member-expired", "offset-commit"):
        assert event in events
    assert list(coordinator.group_state("g").members) == ["m0"]
    assert_replay_equals_live(coordinator)


def test_an_offset_commit_is_recorded_only_when_an_offset_advances():
    sim, cluster, members = group_churn()
    sim.run(until=30.0)
    commits = [r for r in cluster.coordinator.event_log if r["event"] == "offset-commit"]
    assert commits
    previous = {}
    for commit in commits:
        for key, offset in commit["offsets"].items():
            assert offset > previous.get(key, 0)
            previous[key] = offset
    assert previous == cluster.coordinator.group_state("g").committed


@pytest.mark.parametrize("profile", ["producer-kill", "coordinator-kill"])
def test_replay_equals_live_after_a_transactional_run(profile):
    run = run_chaos(11, profile, isolation="read_committed")
    coordinator = run.cluster.coordinator
    assert coordinator.transactions and coordinator.txn_metrics["transactions_committed"]
    assert_replay_equals_live(coordinator)


# -- replay mid-run, then keep running --------------------------------------------------


def replicated_cluster():
    """Three brokers, three partitions, every broker a replica of each; the
    producer runs ``acks="all"`` and broker-site3 is cut off at 10 s, so it
    leads one partition and only follows the other two when it dies."""
    sim = Simulator(seed=2)
    network, sites = star_topology(
        sim, 5, link_config=LinkConfig(latency_ms=2.0, bandwidth_mbps=100.0)
    )
    cluster = BrokerCluster(
        network,
        coordinator_host=sites[0],
        config=ClusterConfig(
            mode=CoordinationMode.KRAFT, session_timeout=3.0, preferred_election_interval=1e9
        ),
    )
    for site in sites[1:4]:
        cluster.add_broker(site)
    cluster.add_topic(TopicConfig(name="events", partitions=3, replication_factor=3))
    cluster.start(settle_time=1.0)
    producer = cluster.create_producer(
        sites[4], config=ProducerConfig(acks="all", linger=0.01, request_timeout=1.0)
    )

    def drive():
        yield sim.timeout(3.0)
        producer.start()
        for i in range(400):
            producer.send(ProducerRecord(topic="events", key=f"k{i % 7}", value=i))
            yield sim.timeout(0.05)

    sim.process(drive())
    for link in network.links:
        if "site3" in link.name:
            sim.call_at(10.0, link.set_down)
    return sim, cluster, producer


def test_replay_right_after_a_leader_failure_serves_the_same_metadata():
    sim, cluster, producer = replicated_cluster()
    coordinator = cluster.coordinator
    run_until(sim, lambda: coordinator.elections)
    dead = "broker-site3"
    followed = [
        key for key, state in coordinator.partitions.items()
        if state.leader != dead and key != coordinator.elections[0]["partition"]
    ]
    assert len(followed) == 2
    assert all(dead not in coordinator.partitions[key].isr for key in followed)
    served = coordinator.metadata_snapshot()
    assert_replay_equals_live(coordinator)
    assert coordinator.metadata_snapshot() == served
    sim.run(until=40.0)
    assert producer.records_acked == 400 and producer.records_failed == 0


def test_replay_mid_rebalance_members_resync_to_the_same_assignment():
    sim, cluster, members = group_churn()
    coordinator = cluster.coordinator

    def third_member_balanced():
        group = coordinator.group_state("g")
        return group is not None and len(group.members) == 3

    run_until(sim, third_member_balanced)
    group = coordinator.group_state("g")
    generation, assignment = group.generation, dict(group.assignment)
    assert_replay_equals_live(coordinator)
    sim.run(until=8.0)
    group = coordinator.group_state("g")
    assert (group.generation, group.assignment) == (generation, assignment)
    for member in members:
        assert member.generation == generation
        assert member.assignment() == assignment[member.name]


def transactional_cluster():
    sim = Simulator(seed=1)
    network, sites = star_topology(
        sim, 3, link_config=LinkConfig(latency_ms=2.0, bandwidth_mbps=100.0)
    )
    cluster = BrokerCluster(network, coordinator_host=sites[0], config=ClusterConfig(session_timeout=6.0))
    for site in sites:
        cluster.add_broker(site)
    cluster.add_topic(TopicConfig(name="topicA", partitions=2, replication_factor=2))
    cluster.start(settle_time=2.0)
    return sim, cluster


def test_replay_at_prepare_commit_resumes_the_markers():
    sim, cluster = transactional_cluster()
    sim.run(until=8.0)
    coordinator = cluster.coordinator
    reply = coordinator._handle_init_producer_id({"transactional_id": "tx1"})
    caller = {"transactional_id": "tx1", "producer_id": reply["producer_id"],
              "producer_epoch": reply["producer_epoch"]}
    coordinator._handle_add_partitions_to_txn(dict(caller, partitions=["topicA-0"]))
    # The request stands in for the transport's: the reply is not looked at.
    coordinator._handle_end_txn(Mock(), dict(caller, outcome="commit"))
    # The markers are still on their way when the controller restarts.
    assert coordinator.event_log[-1]["event"] == "txn-end-requested"
    assert coordinator.event_log[-1]["state"] == "PrepareCommit"
    assert_replay_equals_live(coordinator)
    restored = coordinator.transaction_state("tx1")
    assert restored.state == "PrepareCommit"
    assert restored.partitions == ["topicA-0"]
    assert coordinator.producer_ids["tx1"] == [reply["producer_id"], reply["producer_epoch"]]
    assert coordinator._next_producer_id == reply["producer_id"] + 1
    # The restored Prepare* transaction resumes its marker fan-out.
    sim.run(until=sim.now + 5.0)
    assert restored.state == "CompleteCommit"
    log = cluster.leader_broker("topicA", 0).log_for("topicA", 0)
    assert log.last_markers[reply["producer_id"]][1] == "commit"
    completions = [r for r in coordinator.event_log if r["event"] == "txn-completed"]
    assert len(completions) == 1 and coordinator.txn_metrics["transactions_committed"] == 1


# -- the rule the log rests on ----------------------------------------------------------


def test_an_unrecorded_isr_shrink_fails_the_replay_check(monkeypatch):
    """A broker-failure handler that shrinks, in place and without a record,
    the ISRs of the partitions the dead broker only followed: the live state
    drops the dead follower, a replay puts it back."""

    def handle_broker_failure_in_place(self, broker):
        version = self.metadata_version + 1
        for state in self.partitions.values():
            if state.leader == broker:
                self._elect_leader(state, exclude=broker, reason="leader-failure", version=version)
            if broker in state.isr and len(state.isr) > 1:
                state.isr.remove(broker)

    monkeypatch.setattr(Coordinator, "_handle_broker_failure", handle_broker_failure_in_place)
    sim, cluster, _producer = replicated_cluster()
    coordinator = cluster.coordinator
    run_until(sim, lambda: coordinator.elections)
    with pytest.raises(AssertionError):
        assert_replay_equals_live(coordinator)
    assert sum("broker-site3" in state.isr for state in coordinator.partitions.values()) == 2
