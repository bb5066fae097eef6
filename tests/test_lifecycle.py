"""A restarted component runs each of its long-lived loops once.

``Broker``, ``Producer``, ``Consumer``, both stub kinds and
``StreamingContext`` inherit :class:`repro.simulation.Lifecycle`: every
``start()`` opens a scope, spawns its loops into it, and a loop of an older
scope ends at its next ``live()`` check.  The property: stopped and started
again at drawn instants, a component ends up with exactly the loops a
never-stopped run has — counted as the processes still pending 20 s after
the last start, per name (``:control``, ``:sender``, ``:metadata``,
``:group``, ``:driver``).  Restart timings the property cannot state (batch
times, send instants, what each commit holds) stay with their own tests in
``test_engine_streaming.py`` and ``test_stubs_and_visualization.py``.
"""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.broker import (
    BrokerCluster,
    ClusterConfig,
    ConsumerConfig,
    ProducerConfig,
    ProducerRecord,
    TopicConfig,
)
from repro.core.configs import ConsumerStubConfig, ProducerStubConfig
from repro.engine import StreamingConfig, StreamingContext
from repro.network.link import LinkConfig
from repro.network.topology import star_topology
from repro.simulation import Simulator
from repro.stubs import SFSTProducerStub, StandardConsumerStub

LOOPS = (":control", ":sender", ":metadata", ":group", ":driver")
#: Drawn pauses (s): a component's run before each stop, and each stop's gap
#: before the next start.  0 restarts at the same instant; 0.01 and 0.2 fall
#: inside every loop's sleep; 2 outlasts the broker heartbeat.
GAPS = (0.0, 0.01, 0.2, 0.5, 1.0, 2.0)


def _cluster(sim):
    network, sites = star_topology(
        sim, 3, link_config=LinkConfig(latency_ms=2.0, bandwidth_mbps=100.0)
    )
    cluster = BrokerCluster(network, coordinator_host=sites[0], config=ClusterConfig())
    for site in sites:
        cluster.add_broker(site)
    cluster.add_topic(TopicConfig(name="topicA", replication_factor=2))
    cluster.start(settle_time=2.0)
    return network, sites, cluster


def _broker(sim):
    network, sites, cluster = _cluster(sim)
    return cluster.brokers[f"broker-{sites[1]}"], 0.0  # started by cluster.start


def _producer(sim):
    network, sites, cluster = _cluster(sim)
    return cluster.create_producer(sites[1]), 2.0


def _consumer(sim, group=None):
    network, sites, cluster = _cluster(sim)
    consumer = cluster.create_consumer(sites[0], config=ConsumerConfig(group=group))
    consumer.subscribe(["topicA"])
    return consumer, 2.0


def _consumer_stub(sim):
    network, sites, cluster = _cluster(sim)
    stub = StandardConsumerStub(
        cluster, sites[2], config=ConsumerStubConfig(topics=["topicA"], start_delay=1.5)
    )
    return stub, 2.0


def _producer_stub(sim):
    network, sites, cluster = _cluster(sim)
    stub = SFSTProducerStub(
        cluster, sites[1], ["x"],
        config=ProducerStubConfig(
            topic="topicA", total_messages=100_000, messages_per_second=5, start_delay=0.7
        ),
    )
    return stub, 3.0


def _context(sim):
    network, sites = star_topology(sim, 2)
    context = StreamingContext(
        network.host(sites[0]), config=StreamingConfig(batch_interval=1.0)
    )
    context.memory_stream().map(lambda x: x).to_memory()
    return context, 0.0


BUILDERS = {
    "broker": _broker,
    "producer": _producer,
    "consumer": _consumer,
    "group-consumer": lambda sim: _consumer(sim, group="g"),
    "consumer-stub": _consumer_stub,
    "producer-stub": _producer_stub,
    "context": _context,
}


def pending_loops(kind, restarts, until=None):
    """Start ``kind``'s component, stop and start it again per ``(run,
    gap)`` pair, and count its simulation's pending loops by name 20 s after
    the last start (or at ``until``).  Returns ``(counts, end time)``."""
    sim = Simulator(seed=1)
    spawned = []
    process = sim.process

    def counting_process(generator, name=None):
        spawned.append(process(generator, name=name))
        return spawned[-1]

    # Before the build: cluster.start spawns the brokers' loops.
    sim.process = counting_process
    component, at = BUILDERS[kind](sim)
    if not component.running:
        sim.call_at(at, component.start)
    for run, gap in restarts:
        at += run
        sim.call_at(at, component.stop)
        at += gap
        sim.call_at(at, component.start)
    end = at + 20.0 if until is None else until
    sim.run(until=end)
    counts = Counter(
        p.name
        for p in spawned
        # The producer's one-shot refresh beside a batch send shares the
        # ``:metadata`` suffix; it is not a loop.
        if p.name.endswith(LOOPS) and not p.triggered
        and p.generator.__name__ != "_refresh_metadata"
    )
    return counts, end


@pytest.mark.parametrize("kind", list(BUILDERS))
@settings(max_examples=25)
@given(
    restarts=st.lists(
        st.tuples(st.sampled_from(GAPS), st.sampled_from(GAPS)), min_size=1, max_size=3
    )
)
# The same instant: a stopped broker's heartbeat loop, or a producer's parked
# sender, must not carry on beside the new one.
@example(restarts=[(0.0, 0.0)])
# A consumer started at 2 s, stopped at 5.5 s and started again at 5.7 s
# (before its stopped metadata and group loops wake) or at 10 s; a context
# stopped at 1.5 s and started at 1.7 s, inside one batch interval.
@example(restarts=[(3.5, 0.2)])
@example(restarts=[(3.5, 4.5)])
@example(restarts=[(1.5, 0.2)])
# A broker stopped at 10 s and started at 10.2 s, inside HEARTBEAT_INTERVAL.
@example(restarts=[(10.0, 0.2)])
# A producer stub stopped and restarted inside its 0.7 s start delay.
@example(restarts=[(0.5, 0.01)])
def test_a_restarted_component_runs_each_loop_once(kind, restarts):
    restarted, end = pending_loops(kind, restarts)
    never_stopped, _ = pending_loops(kind, [], until=end)
    assert restarted == never_stopped
    assert never_stopped  # the kind has loops to count



def test_a_producer_restarted_mid_bootstrap_sends_under_its_identity():
    """A sender stopped before its bootstrap ends leaves readiness to the
    next start's sender, which first obtains the producer id: no batch
    leaves stamped with id -1, which the broker could not deduplicate."""
    sim = Simulator(seed=1)
    network, sites, cluster = _cluster(sim)
    producer = cluster.create_producer(
        sites[1], config=ProducerConfig(idempotence=True, linger=0.0)
    )
    stamped = []
    request = producer.transport.request

    def recording_request(host, port, payload, *args, **kwargs):
        if payload["type"] == "produce":
            stamped.append(payload["batch"].producer_id)
        return request(host, port, payload, *args, **kwargs)

    producer.transport.request = recording_request

    def restart():
        yield sim.timeout(5.0)
        producer.start()
        producer.stop()  # before the sender's first step
        yield sim.timeout(1.0)
        producer.start()
        producer.send(ProducerRecord(topic="topicA", value="v", size=50))

    sim.process(restart())
    sim.run(until=20.0)
    assert stamped == [0] and producer.records_acked == 1
