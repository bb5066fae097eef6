"""Break the broker plane, and the history rules must notice.

``tests/test_history_rules.py`` shows what each rule means on histories
written by hand; this file shows the rules are not blind on real runs.  Each
test breaks one mechanism a guarantee rests on (under ``monkeypatch``, so the
break ends with the test), replays arms of the chaos matrix and requires the
rule that guards the guarantee to fire — on arms where the unbroken run,
asserted in ``tests/test_chaos_exactly_once.py``, has no violation at all.
"""

import pytest

from repro.broker import (
    BrokerCluster,
    ClusterConfig,
    ConsumerConfig,
    ProducerConfig,
    ProducerRecord,
    TopicConfig,
)
from repro.broker import broker as broker_module
from repro.broker.broker import Broker
from repro.broker.coordinator import Coordinator
from repro.broker.log import PartitionLog
from repro.network.link import LinkConfig
from repro.network.topology import star_topology
from repro.network.transport import Transport
from repro.simulation import Simulator
from repro.testing import check_history, run_chaos
from repro.testing.history import History, Reader, delivered_durable

pytestmark = pytest.mark.chaos


def fired(run):
    return {violation.rule for violation in check_history(run)}


@pytest.fixture
def eager_high_watermark(monkeypatch):
    """A leader that advances its high watermark to its own log end without
    waiting for the in-sync followers: it acknowledges ``acks="all"`` produces
    and serves fetches for offsets that exist on one replica only."""

    def advance(self, key):
        if self._partition_info(key) is not None and self._is_leader(key):
            log = self.logs[key]
            log.advance_high_watermark(log.log_end_offset)
            self._complete_waits(key)

    monkeypatch.setattr(Broker, "_maybe_advance_high_watermark", advance)


@pytest.mark.parametrize("seed", [11, 29])
def test_a_high_watermark_that_ignores_the_isr_loses_acked_and_delivered_records(
    eager_high_watermark, seed
):
    """Killing such a leader elects a follower that never had the tail: acked
    records are gone, and the consumers were handed offsets the elected leader
    never held."""
    run = run_chaos(seed, "broker-kill", partitions=4, group_size=4)
    assert {"acked_durable", "delivered_durable"} <= fired(run)


def test_a_partition_that_ends_without_a_leader_log_is_a_violation(monkeypatch):
    """mixed / seed 11 / 1 partition kills the leader of ``chaos-0`` at 32 s.
    With an ISR that had shrunk to that leader alone — what a follower polling
    every 100 ms did to it on this very arm, and a follower parked at the log
    end no longer does, so the shrink is put in by hand — nobody is eligible
    and the run ends with nobody leading: no log can vouch for its acks, which
    is a finding of ``acked_durable`` — not a loop over zero logs that passes."""
    elect = Coordinator._elect_leader

    def elect_from_an_isr_of_one(self, state, exclude, reason, version):
        state.isr = [state.leader]
        elect(self, state, exclude, reason, version)

    monkeypatch.setattr(Coordinator, "_elect_leader", elect_from_an_isr_of_one)
    run = run_chaos(11, "mixed")
    assert run.leader_logs == {} and any(run.acks())
    assert [v.detail for v in check_history(run) if v.rule == "acked_durable"] == [
        "chaos-0 has no leader log at the end of the run"
    ]


def _handed_over_partition():
    """One partition, three replicas, an ``acks=1`` producer and a consumer.
    The leader takes record ``a`` while it cannot reach its followers and is
    then cut off itself; the follower elected in its place takes ``b`` at the
    same offset."""
    sim = Simulator(seed=1)
    network, sites = star_topology(
        sim, 4, link_config=LinkConfig(latency_ms=2.0, bandwidth_mbps=100.0)
    )
    cluster = BrokerCluster(network, coordinator_host=sites[0], config=ClusterConfig())
    for site in sites[:3]:
        cluster.add_broker(site)
    cluster.add_topic(
        TopicConfig(name="events", replication_factor=3, preferred_leader="broker-site2")
    )
    cluster.start(settle_time=2.0)
    producer = cluster.create_producer(sites[3], config=ProducerConfig(acks=1, linger=0.0))
    consumer = cluster.create_consumer(sites[3], config=ConsumerConfig())
    consumer.subscribe(["events"])
    sim.call_at(4.5, producer.start)
    sim.call_at(4.5, consumer.start)
    followers = [network.link_between(site, "s0") for site in ("site1", "site3")]
    for link in followers:
        sim.call_at(6.0, link.set_down)
        sim.call_at(6.2, link.set_up)
    sim.call_at(6.05, producer.send, ProducerRecord(topic="events", key="a", value=0, size=100))
    leader = network.link_between("site2", "s0")
    sim.call_at(6.2, leader.set_down)
    sim.call_at(20.0, producer.send, ProducerRecord(topic="events", key="b", value=0, size=100))
    sim.call_at(22.0, leader.set_up)  # it learns it was deposed, and truncates
    sim.run(until=30.0)
    assert producer.records_acked == 2 and cluster.coordinator.leader_of("events") != "broker-site2"
    run = History([producer], [Reader.of(consumer)], cluster=cluster)
    run.audit(cluster)
    return run


def test_a_leader_that_serves_parked_fetches_up_to_its_log_end_hands_out_records_it_loses(
    monkeypatch,
):
    """The consumer's fetch is parked at the high watermark when ``a`` is
    appended.  Completed on the high watermark it stays parked — ``a`` was
    never replicated, and is truncated when the old leader is deposed;
    completed on the log end it hands the consumer offset 0 of a log whose
    successor holds ``b`` there."""
    assert delivered_durable(_handed_over_partition()) == []
    monkeypatch.setitem(broker_module.FETCH_BOUND, "read_uncommitted", "log_end_offset")
    assert [violation.rule for violation in delivered_durable(_handed_over_partition())] == [
        "delivered_durable"
    ]


@pytest.mark.parametrize("partitions", [1, 4])
def test_a_dedup_table_that_accepts_everything_stores_duplicates(monkeypatch, partitions):
    """``check_producer_batch`` answering "ok" to every retry is idempotence
    switched off behind the producer's back."""
    monkeypatch.setattr(PartitionLog, "check_producer_batch", lambda self, *batch, **kw: "ok")
    run = run_chaos(11, "link-loss", partitions=partitions, group_size=partitions)
    assert "no_duplicates" in fired(run)
    assert run.cluster.total_duplicates_dropped() == 0


@pytest.mark.parametrize("profile", ["producer-kill", "coordinator-kill"])
@pytest.mark.parametrize("partitions", [1, 4])
def test_a_consumer_that_ignores_skip_offsets_sees_aborted_transactions(
    monkeypatch, profile, partitions
):
    """``skip_offsets`` is how a fetch reply names the aborted records inside
    the batch it ships; a ``read_committed`` consumer that never gets to see
    it delivers them."""
    request = Transport.request

    def request_without_skip_offsets(self, dst, port, payload, **options):
        reply = yield from request(self, dst, port, payload, **options)
        if payload.get("type") == "fetch":
            reply.pop("skip_offsets", None)
        return reply

    monkeypatch.setattr(Transport, "request", request_without_skip_offsets)
    run = run_chaos(
        23, profile, partitions=partitions, group_size=partitions, isolation="read_committed"
    )
    assert "txn_atomic" in fired(run)
