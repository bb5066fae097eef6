"""Seeded-determinism trace regression tests.

Runs a small broker + producer + consumer experiment twice with the same seed
and asserts the *full simulated trace* is identical: processed event count,
final clock, per-link delivered/dropped counters and client-side record
accounting.  This locks in the behavior-preservation claim of the simulator
fast path: optimizations may change wall-clock speed, never simulated results.

Two golden tests additionally pin the trace and a figure output.  The figure
output still holds its capture on the *per-record-dict* wire format (pre
RecordBatch, PR 1); the trace was re-captured when the sender became
event-driven and when fetches began to park (see ``GOLDEN_TRACE_SEED42``).  If an intentional behavior change
ever breaks them, re-capture the constants and say so in the PR.
"""

from repro.broker.cluster import BrokerCluster, ClusterConfig
from repro.broker.consumer import ConsumerConfig
from repro.broker.message import ProducerRecord
from repro.broker.producer import ProducerConfig
from repro.broker.topic import TopicConfig
from repro.network.link import LinkConfig
from repro.network.topology import star_topology
from repro.simulation import Simulator

DURATION = 40.0


def run_trace(seed: int) -> dict:
    """One small seeded run; returns every observable counter of the trace."""
    sim = Simulator(seed=seed)
    network, _sites = star_topology(
        sim,
        3,
        link_config=LinkConfig(latency_ms=2.0, bandwidth_mbps=100.0, loss_percent=1.0),
    )
    cluster = BrokerCluster(network, coordinator_host="site1", config=ClusterConfig())
    cluster.add_broker("site1")
    cluster.add_broker("site2")
    cluster.add_topic(TopicConfig(name="events", replication_factor=2))
    cluster.start(settle_time=1.0)

    producer = cluster.create_producer(
        "site3", config=ProducerConfig(linger=0.05, request_timeout=1.0)
    )
    consumer = cluster.create_consumer(
        "site3", config=ConsumerConfig(poll_interval=0.1)
    )
    consumer.subscribe(["events"])

    rng = sim.rng("workload")

    def workload():
        yield sim.timeout(5.0)
        producer.start()
        consumer.start()
        for i in range(200):
            producer.send(ProducerRecord(topic="events", key=i, value=f"payload-{i}"))
            yield sim.timeout(rng.exponential(20.0))

    sim.process(workload(), name="workload")
    sim.run(until=DURATION)

    links = {}
    for link in network.links:
        links[link.name] = (
            link.packets_delivered,
            link.packets_dropped_loss,
            link.packets_dropped_down,
        )
    return {
        "processed_events": sim.processed_events,
        "final_clock": sim.now,
        "links": links,
        "records_sent": producer.records_sent,
        "records_acked": producer.records_acked,
        "records_failed": producer.records_failed,
        "records_consumed": consumer.records_consumed,
        "bytes_consumed": consumer.bytes_consumed,
        "consumed_keys": consumer.received_keys("events"),
        "metadata_version": producer.metadata.get("version"),
    }


def test_same_seed_produces_identical_trace():
    first = run_trace(seed=42)
    second = run_trace(seed=42)
    assert first == second
    # Sanity: the run exercised the full data plane (traffic actually flowed
    # and the lossy links dropped something, so the RNG path is covered too).
    assert first["records_consumed"] > 0
    assert first["processed_events"] > 1000
    assert sum(dropped for _, dropped, _ in first["links"].values()) > 0


def test_different_seeds_diverge():
    base = run_trace(seed=42)
    other = run_trace(seed=43)
    # The workload draws from the seeded RNG, so a different seed must change
    # the trace (guards against the RNG being silently unseeded/ignored).
    assert base["processed_events"] != other["processed_events"]


# -- golden locks ---------------------------------------------------------------

#: run_trace(seed=42) observables.  First captured on the PR 1 code (per-record
#: wire format) and reproduced byte-for-byte by the batch-native record plane.
#: Re-captured deliberately, twice, when the kernel stopped scheduling events
#: nobody waits for: the kernel + transport step moved ``processed_events``
#: only (14097 -> 10790); the event-driven sender (linger measured from a
#: batch's first record, metadata refreshed lazily) then moved simulated
#: timing: 9703 events, and the one lossy-link retry that used to deliver a
#: duplicate no longer coincides with a lost ack (201 -> 200 records,
#: 4824 -> 4800 bytes; links 1230/606/626 -> 1168/592/576 delivered, 7 -> 6
#: lost on site3's link).  Lowered, ``processed_events`` only, when a link hop
#: became one entry, RPC expiry lazy and the serve start part of the arrival
#: (9703 -> 5087; every other field, the loss draws included, as it was).
#: Re-captured when fetches began to park at the leader: the follower's and
#: the consumer's ten ticks a second, each a round trip over lossy links, are
#: one round trip per append or per ``FETCH_MAX_WAIT`` (5087 -> 2376 events;
#: links 1168/592/576 -> 609/268/344 delivered, 22 -> 13 lost); the records,
#: bytes and metadata version are what they were.
GOLDEN_TRACE_SEED42 = {
    "processed_events": 2376,
    "final_clock": 40.0,
    "records_sent": 200,
    "records_acked": 200,
    "records_failed": 0,
    "records_consumed": 200,
    "bytes_consumed": 4800,
    "metadata_version": 3,
    "links": {
        "site1:1<->s0:1": (609, 8, 0),
        "site2:1<->s0:2": (268, 2, 0),
        "site3:1<->s0:3": (344, 3, 0),
    },
}


def test_trace_matches_pre_batch_golden():
    """The seeded trace replays its golden byte-for-byte."""
    trace = run_trace(seed=42)
    consumed_keys = trace.pop("consumed_keys")
    assert trace == GOLDEN_TRACE_SEED42
    assert consumed_keys[:5] == [0, 1, 2, 3, 4]
    assert len(consumed_keys) == GOLDEN_TRACE_SEED42["records_consumed"]


def test_fig7b_figure_output_locked():
    """Figure outputs (mean runtimes, normalized series, input counts) are
    byte-identical to the pre-refactor capture for the same seed."""
    from repro.experiments.fig7b_traffic_monitoring import Fig7bConfig, run_fig7b

    result = run_fig7b(Fig7bConfig(user_counts=[20, 60], slots=10))
    assert result.input_records == {20: 200, 60: 600}
    assert repr(result.mean_runtime_s[20]) == "0.1625230502499999"
    assert repr(result.mean_runtime_s[60]) == "0.23757060875000002"
    assert repr(result.normalized[60]) == "1.4617656288419318"
