"""The fetch purgatory (``docs/event_model.md``): consumer and replica fetches
park at the leader instead of polling it.

A fetch that finds nothing is held until the bound it reads up to moves (high
watermark, last stable offset, log end) or ``FETCH_MAX_WAIT`` passes; clients
re-fetch on the reply.  Times are asserted against the event that released the
wait, not against a tick; entry counts are exact for a seed.
"""

import copy

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
from repro.broker.broker import FETCH_MAX_WAIT
from repro.experiments.fig6_partition import Fig6Config, run_fig6
from repro.network.link import LinkConfig
from repro.network.topology import star_topology
from repro.simulation import Simulator

#: One way between two sites of the star: two 2 ms links (plus microseconds of
#: serialization, switching and CPU, which ``approx`` absorbs).
ONE_WAY = 0.004
NEAR = dict(abs=0.0005)


def build_cluster():
    """Three sites, one RF-3 partition led by ``broker-site1``, metadata settled."""
    sim = Simulator(seed=1)
    network, sites = star_topology(
        sim, 3, link_config=LinkConfig(latency_ms=2.0, bandwidth_mbps=100.0)
    )
    cluster = BrokerCluster(network, coordinator_host=sites[0], config=ClusterConfig())
    for site in sites:
        cluster.add_broker(site)
    cluster.add_topic(
        TopicConfig(name="events", replication_factor=3, preferred_leader="broker-site1")
    )
    cluster.start(settle_time=2.0)
    sim.run(until=4.5)
    return sim, sites, cluster


def spy_on_requests(component):
    """Log ``(type, issued at, answered at, reply)`` of every request
    ``component`` (a broker or client) completes; a timed-out one logs nothing."""
    transport, log = component.transport, []
    request = transport.request

    def spying(dst, port, payload, **options):
        issued = transport.sim.now
        reply = yield from request(dst, port, payload, **options)
        log.append((payload["type"], issued, transport.sim.now, reply))
        return reply

    transport.request = spying
    return log


def record_high_watermark_moves(sim, log):
    """``(time, new high watermark)`` whenever the leader's ``log`` moves it."""
    moves = []
    advance = log.advance_high_watermark

    def recording(offset):
        before = log.high_watermark
        advance(offset)
        if log.high_watermark != before:
            moves.append((sim.now, log.high_watermark))

    log.advance_high_watermark = recording
    return moves


def record_calls(sim, obj, method):
    """The times at which ``obj.method`` is called."""
    times, original = [], getattr(obj, method)

    def recording(*args, **kwargs):
        times.append(sim.now)
        return original(*args, **kwargs)

    setattr(obj, method, recording)
    return times


def start_consumer(cluster, site, **config):
    consumer = cluster.create_consumer(site, config=ConsumerConfig(**config))
    consumer.subscribe(["events"])
    consumer.start()
    return consumer


def send_at(sim, producer, when, key):
    sim.call_at(when, producer.send, ProducerRecord(topic="events", key=key, value=key, size=100))


# -- consumer fetches ---------------------------------------------------------------


def test_parked_fetch_is_answered_the_instant_the_high_watermark_passes_it():
    sim, sites, cluster = build_cluster()
    leader = cluster.brokers["broker-site1"]
    moves = record_high_watermark_moves(sim, leader.logs["events-0"])
    consumer = start_consumer(cluster, sites[2], poll_interval=0.1)
    producer = cluster.create_producer(sites[1], config=ProducerConfig(acks="all", linger=0.0))
    producer.start()
    sim.run(until=6.0)
    assert [wait[:2] for wait in leader._purgatory["events-0"]].count(("high_watermark", 1)) == 1
    send_at(sim, producer, 6.03, "a")  # mid-way between two 100 ms poll ticks
    sim.run(until=7.0)
    assert [high_watermark for _when, high_watermark in moves] == [1]
    (record,) = consumer.received
    # The reply left when the followers' re-fetches moved the high watermark:
    # one way later the record is delivered, no tick in between.
    assert record.received_at - moves[0][0] == pytest.approx(ONE_WAY, **NEAR)
    # Produce to delivery: request, replication round trip, reply — and nothing else.
    assert record.latency == pytest.approx(4 * ONE_WAY, abs=0.001)


def test_idle_fetch_is_answered_empty_at_fetch_max_wait_and_reissued_at_once():
    sim, sites, cluster = build_cluster()
    consumer = start_consumer(cluster, sites[2])
    log = spy_on_requests(consumer)
    sim.run(until=8.0)
    fetches = [entry for entry in log if entry[0] == "fetch"]
    assert len(fetches) >= 5
    for (_type, issued, answered, reply), following in zip(fetches, fetches[1:]):
        assert reply["error"] is None and len(reply["batch"]) == 0
        assert answered - issued == pytest.approx(FETCH_MAX_WAIT + 2 * ONE_WAY, **NEAR)
        assert following[1] == answered  # the same instant, not the next tick
    assert consumer.fetch_errors == 0


def test_read_committed_fetch_parked_at_the_lso_wakes_on_the_commit_marker():
    sim, sites, cluster = build_cluster()
    leader_log = cluster.brokers["broker-site1"].logs["events-0"]
    moves = record_high_watermark_moves(sim, leader_log)
    marker_appended_at = record_calls(sim, leader_log, "append_control")
    consumer = start_consumer(cluster, sites[2], isolation_level="read_committed")
    producer = cluster.create_producer(
        sites[1], config=ProducerConfig(transactional_id="tx", linger=0.0)
    )
    seen_before_commit = []

    def workload():
        producer.start()
        yield sim.timeout(2.0)
        producer.begin_transaction()
        producer.send(ProducerRecord(topic="events", key="a", value="a", size=100))
        yield sim.timeout(0.3)
        # The data is replicated — the high watermark covers it — and a
        # read_uncommitted fetch would have been released by it.
        seen_before_commit.append((leader_log.high_watermark, consumer.records_consumed))
        yield from producer.commit_transaction()

    sim.process(workload())
    sim.run(until=10.0)
    assert seen_before_commit == [(1, 0)]
    assert [high_watermark for _when, high_watermark in moves] == [1, 2]  # data, marker
    (record,) = consumer.received
    # The marker's append closes the transaction: the last stable offset
    # jumps to the high watermark and the reply leaves.
    assert record.received_at - marker_appended_at[0] == pytest.approx(ONE_WAY, **NEAR)
    assert marker_appended_at[0] - moves[0][0] > 0.25


def test_stop_while_parked_delivers_nothing():
    sim, sites, cluster = build_cluster()
    consumer = start_consumer(cluster, sites[2])
    producer = cluster.create_producer(sites[1], config=ProducerConfig(acks="all", linger=0.0))
    producer.start()
    sim.run(until=6.0)
    sim.call_at(6.02, consumer.stop)
    send_at(sim, producer, 6.03, "a")
    sim.run(until=8.0)
    assert producer.records_acked == 1
    # The parked fetch was answered with the record; the stopped consumer
    # dropped it, kept its position and fetched no more.
    assert consumer.received == [] and consumer.position("events") == 0
    assert consumer._fetchers == set()


# -- epoch change -------------------------------------------------------------------


def test_epoch_change_answers_parked_consumer_and_replica_fetches_not_leader():
    sim, sites, cluster = build_cluster()
    leader = cluster.brokers["broker-site1"]
    followers = [cluster.brokers["broker-site2"], cluster.brokers["broker-site3"]]
    consumer = start_consumer(cluster, sites[2])
    logs = [spy_on_requests(client) for client in (consumer, *followers)]
    sim.run(until=6.3)
    parked = sorted(wait[0] for wait in leader._purgatory["events-0"])
    assert parked == ["high_watermark", "log_end_offset", "log_end_offset"]
    # The coordinator moved leadership; this broker learns of it now.
    deposed = copy.deepcopy(leader.metadata)
    deposed["version"] += 1
    deposed["partitions"]["events-0"].update(leader="broker-site2", leader_epoch=1)
    leader.apply_metadata(deposed)
    sim.run(until=6.31)
    assert not leader._purgatory.get("events-0")
    for log in logs:
        _type, _issued, answered, reply = log[-1]
        # Answered at the epoch change — not FETCH_MAX_WAIT later, from a log
        # that by then follows (and adopts the high watermark of) a new leader.
        assert reply["error"] == "not_leader"
        assert answered == pytest.approx(6.3 + ONE_WAY, **NEAR)


# -- idle cost ----------------------------------------------------------------------

#: Heap entries of ten idle seconds on a three-broker cluster with one RF-3
#: partition and one consumer (2,217 at the parent commit: ten consumer ticks
#: and twenty follower ticks a second, each a round trip).  Per FETCH_MAX_WAIT
#: three parked fetches — the consumer's and the two followers' — of seven
#: entries each: four link arrivals, the expiry that answers it, the leader's
#: CPU timeout and the client's RPC sweep; the remaining ~110 are broker
#: heartbeats, the coordinator's failure detector and the consumer's metadata
#: refreshes.  May only go down.
IDLE_TEN_SECONDS_ENTRIES = 534


def test_idle_replicated_partition_costs_one_round_trip_per_fetch_max_wait(monkeypatch):
    sim, sites, cluster = build_cluster()
    consumer = start_consumer(cluster, sites[2], poll_interval=0.1)
    sim.run(until=6.0)
    sleepers = []
    timeout = Simulator.timeout

    def recording_timeout(self, delay, value=None):
        sleepers.append((self.active_process.name, delay))
        return timeout(self, delay, value)

    monkeypatch.setattr(Simulator, "timeout", recording_timeout)
    before = sim.processed_events
    sim.run(until=16.0)
    # Nobody slept a poll interval or a replica fetch interval: neither a
    # consumer's partition fetcher nor a replica fetcher ticks.
    assert not [name for name, _delay in sleepers if ":fetch:" in name or "fetcher" in name]
    assert consumer.config.poll_interval not in {delay for _name, delay in sleepers}
    assert sim.processed_events - before == IDLE_TEN_SECONDS_ENTRIES
    assert consumer.fetch_errors == 0


# -- the ISR --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(1, 11))
def test_isr_never_shrinks_outside_the_cut_at_the_papers_message_size(seed):
    """512 B messages are ~36 records/s per topic on ten sites.  A polling
    follower was almost never seen *at* the log end at that rate, so every
    follower fell out of the ISR every so often and rejoined
    (``perf/README.md``, known issue 1); a follower parked at the log end is
    caught up by construction.  The ISR of the partition whose leader is cut
    off changes during the cut and as that broker rejoins, and nowhere else."""
    cut_start, cut = 15.0, 12.0
    result = run_fig6(
        Fig6Config(
            n_sites=10,
            replication_factor=3,
            rate_kbps=30.0,
            message_size=512,
            duration=45.0,
            disconnect_start=cut_start,
            disconnect_duration=cut,
            mode=CoordinationMode.KRAFT,
            acks="all",
            preferred_election_interval=1e9,
            seed=seed,
        )
    )
    changes = [event for event in result.events if event["event"] == "isr-changed"]
    assert {event["partition"] for event in changes} <= {"topicA-0"}
    rejoined = cut_start + cut + 2.0  # the cut-off broker's next heartbeat, and its catch-up
    assert [event["time"] for event in changes if not cut_start <= event["time"] <= rejoined] == []
    assert len(result.election_times()) == 1 and result.acked_but_lost == 0
