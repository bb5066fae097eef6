"""No object without a reader (``docs/event_model.md``).

The producer keeps its books per wire batch: ``send`` appends a row to the
partition's open batch, ``reports`` and send futures are derived from the
batches' columns and outcomes when somebody reads them.  These tests pin the
batch boundaries against a reference split, the lazy-future protocol, the
waiting line, and — by digests captured on the per-record implementation this
replaced — that every derived delivery report equals the stored one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker import (
    BrokerCluster,
    ClusterConfig,
    ProducerConfig,
    ProducerRecord,
    TopicConfig,
)
from repro.broker.errors import DeliveryFailed
from repro.broker.producer import Producer, SendFuture
from repro.network.link import LinkConfig
from repro.network.topology import one_big_switch, star_topology
from repro.simulation import Simulator
from repro.testing.chaos import run_chaos


def offline_producer(config=None, partitions=1):
    """A producer that is never started, with metadata for topic ``t``:
    sends are placed but nothing is flushed, so tests drive the accumulator
    by hand."""
    sim = Simulator(seed=1)
    network = one_big_switch(sim, ["source", "broker"])
    producer = Producer(network.host("source"), ["broker"], config=config)
    producer.metadata = {
        "version": 1,
        "brokers": {},
        "partitions": {
            f"t-{p}": {"topic": "t", "partition": p, "leader": None}
            for p in range(partitions)
        },
    }
    return sim, producer


def build_cluster(seed=1):
    sim = Simulator(seed=seed)
    network, sites = star_topology(
        sim, 3, link_config=LinkConfig(latency_ms=2.0, bandwidth_mbps=100.0)
    )
    cluster = BrokerCluster(network, coordinator_host=sites[0], config=ClusterConfig())
    for site in sites:
        cluster.add_broker(site)
    cluster.add_topic(
        TopicConfig(name="events", replication_factor=1, preferred_leader="broker-site1")
    )
    cluster.start(settle_time=2.0)
    sim.run(until=4.5)  # topic created, every broker holds the metadata
    return sim, network, sites, cluster


# -- batch boundaries --------------------------------------------------------------


def greedy_prefix(queue, batch_size, max_records):
    """The drain-time split the per-record accumulator made: records in order
    while the count allows and the next one still fits (the first always
    does)."""
    taken, total = [], 0
    for sequence, size in queue:
        if len(taken) >= max_records or (taken and total + size > batch_size):
            break
        taken.append((sequence, size))
        total += size
    return taken


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(st.one_of(st.integers(0, 400), st.none()), max_size=120),
    batch_size=st.integers(1, 1000),
    max_records=st.integers(1, 12),
)
def test_every_drained_batch_is_the_maximal_greedy_prefix(ops, batch_size, max_records):
    """Whatever the sizes, the limits and the interleaving of drains (``None``
    in ``ops``), appending at send time cuts exactly where a greedy split at
    drain time would."""
    _sim, producer = offline_producer(
        ProducerConfig(batch_size=batch_size, max_batch_records=max_records)
    )
    queue = []

    def drain():
        batch = producer._drain_batch("t-0")
        expected = greedy_prefix(queue, batch_size, max_records)
        del queue[: len(expected)]
        if not expected:
            assert batch is None
            return
        assert list(zip(batch.seqs, batch.wire.sizes)) == expected
        assert batch.wire.total_size == sum(size for _seq, size in expected)
        assert len(batch.wire) == len(batch.keys) == len(batch.produced_ats) == len(expected)

    sequence = 0
    for op in ops:
        if op is None:
            drain()
        else:
            producer.send(ProducerRecord(topic="t", key=sequence, value=None, size=op))
            queue.append((sequence, op))
            sequence += 1
    while queue:
        drain()
    assert producer._drain_batch("t-0") is None
    assert producer.flush_pending() == 0


def test_headers_given_are_copied_into_the_batch_column():
    """Absent headers cost nothing (``None`` on the record, no column on the
    batch); given ones are copied into the column at their row."""
    _sim, producer = offline_producer()
    headers = {"trace": "abc"}
    plain = ProducerRecord(topic="t", value=1, size=10)
    assert plain.headers is None
    producer.send(plain)
    assert producer._accumulator["t-0"][0].wire.headers is None
    producer.send(ProducerRecord(topic="t", value=2, size=10, headers=headers))
    producer.send(ProducerRecord(topic="t", value=3, size=10))
    wire = producer._drain_batch("t-0").wire
    assert wire.headers == [None, {"trace": "abc"}, None]
    assert wire.headers[1] is not headers  # a copy: the caller may reuse its dict
    assert wire.headers_at(0) == {} and wire.headers_at(1) == headers


# -- the waiting line --------------------------------------------------------------


def test_long_waiting_line_is_admitted_in_order_as_acks_free_space():
    """20,000 records parked behind a full buffer: each acknowledged batch
    admits exactly the head of the line that fits (in send order), and the
    line is rebuilt in one pass per ack, not searched once per record."""
    record_size, batch_records, parked = 100, 50, 20_000
    config = ProducerConfig(
        buffer_memory=4 * batch_records * record_size,
        batch_size=batch_records * record_size,
    )
    _sim, producer = offline_producer(config)
    in_buffer = config.buffer_memory // record_size
    for i in range(in_buffer + parked):
        producer.send(ProducerRecord(topic="t", key=i, value=i, size=record_size))
    assert producer.buffer_used == config.buffer_memory
    assert len(producer._waiting) == parked
    total = in_buffer + parked
    admitted = in_buffer
    while producer.flush_pending():
        batch = producer._drain_batch("t-0")
        assert len(batch.seqs) == batch_records
        producer._settle(batch, base_offset=batch.seqs[0])
        # The freed bytes are taken at once by the next records in line.
        newly = min(batch_records, total - admitted)
        queued = [seq for batch in producer._accumulator["t-0"] for seq in batch.seqs]
        assert queued == list(range(producer.records_acked, admitted + newly))
        admitted += newly
        assert [entry[0] for entry in producer._waiting[:3]] == list(
            range(admitted, min(admitted + 3, total))
        )
        assert len(producer._waiting) == total - admitted
        assert producer.buffer_used == len(queued) * record_size
        assert producer.buffer_used == min(
            config.buffer_memory, (total - producer.records_acked) * record_size
        )
    assert producer.records_acked == total
    assert producer.buffer_used == 0
    assert [r.offset for r in producer.reports] == list(range(total))


def test_smaller_later_record_is_admitted_past_a_larger_earlier_one():
    config = ProducerConfig(buffer_memory=1000, batch_size=400)
    _sim, producer = offline_producer(config)
    producer.send(ProducerRecord(topic="t", key="a", value=0, size=400))
    producer.send(ProducerRecord(topic="t", key="b", value=0, size=400))
    producer.send(ProducerRecord(topic="t", key="big", value=0, size=700))  # waits
    producer.send(ProducerRecord(topic="t", key="small", value=0, size=300))  # waits
    producer.send(ProducerRecord(topic="t", key="tiny", value=0, size=100))
    assert [entry[2].key for entry in producer._waiting] == ["big", "small"]
    assert producer.buffer_used == 900
    producer._settle(producer._drain_batch("t-0"), base_offset=0)  # frees "a"
    # 500 used: "big" (700) still does not fit, "small" (300) behind it does.
    assert [entry[2].key for entry in producer._waiting] == ["big"]
    assert producer.buffer_used == 800
    assert [r.key for r in producer.reports] == ["a", "b", "big", "small", "tiny"]
    assert producer.reports[0].acknowledged and not producer.reports[3].acknowledged


# -- lazy futures --------------------------------------------------------------------


def started_producer(sim, cluster, site, config=None):
    producer = cluster.create_producer(site, config=config)
    producer.start()
    sim.run(until=6.0)  # bootstrap (first metadata refresh) is over
    return producer


def test_waiter_registered_before_the_ack_gets_the_metadata():
    sim, _network, sites, cluster = build_cluster()
    producer = started_producer(sim, cluster, sites[2])
    seen = []

    def workload():
        metadata = yield producer.send(
            ProducerRecord(topic="events", key="k", value=1, size=100)
        )
        seen.append((sim.now, metadata))

    sim.process(workload())
    sim.run(until=8.0)
    (resumed_at, metadata), = seen
    report = producer.reports[0]
    assert resumed_at == report.acknowledged_at == metadata.timestamp
    assert (metadata.topic, metadata.partition, metadata.offset) == ("events", 0, 0)
    assert metadata.produced_at == report.enqueued_at == 6.0
    assert metadata.commit_latency == pytest.approx(0.02 + 0.008, abs=0.002)
    assert producer._waiters == {}


def test_waiter_arriving_after_the_ack_resumes_at_once_with_the_metadata():
    sim, _network, sites, cluster = build_cluster()
    producer = started_producer(sim, cluster, sites[2])
    future = producer.send(ProducerRecord(topic="events", key="k", value=1, size=100))
    assert isinstance(future, SendFuture)
    sim.run(until=8.0)
    assert producer.records_acked == 1
    assert producer._waiters == {}  # nothing was registered for it
    seen = []

    def late():
        metadata = yield future
        seen.append((sim.now, metadata.offset, metadata.timestamp))

    sim.process(late())
    sim.run(until=9.0)
    assert seen == [(8.0, 0, producer.reports[0].acknowledged_at)]
    assert future.triggered and future.processed and future.ok
    assert future.value.offset == 0


def test_outcome_properties_of_a_future_nobody_waits_on():
    sim, _network, sites, cluster = build_cluster()
    producer = started_producer(sim, cluster, sites[2])
    future = producer.send(ProducerRecord(topic="events", key="k", value=1, size=100))
    assert not future.triggered
    with pytest.raises(RuntimeError, match="pending"):
        future.value
    sim.run(until=8.0)
    assert future.triggered and future.ok and future.value.offset == 0
    untouched = producer.send(ProducerRecord(topic="events", key="k", value=2, size=100))
    sim.run(until=9.0)
    assert sim.run(until=untouched).offset == 1  # run(until=) on a settled send


def test_yielding_send_futures_in_different_batches():
    sim, _network, sites, cluster = build_cluster()
    producer = started_producer(sim, cluster, sites[2], ProducerConfig(linger=0.05))
    fired = []

    def workload():
        first = producer.send(ProducerRecord(topic="events", key="a", value=1, size=100))
        yield sim.timeout(0.5)  # the first batch is long gone
        second = producer.send(ProducerRecord(topic="events", key="b", value=2, size=100))
        third = producer.send(ProducerRecord(topic="events", key="c", value=3, size=100))
        fired.append(sim.now)
        pending = yield second  # parks until the second batch's ack
        settled = yield first  # settled long ago: resumes at the same time
        fired.append((sim.now, settled.offset, pending.offset))
        second_again = yield second  # both settled by now
        fired.append((sim.now, second_again.offset, (yield third).offset))

    sim.process(workload())
    sim.run(until=8.0)
    acked_at = producer.reports[1].acknowledged_at
    assert acked_at > 6.5
    assert fired == [6.5, (acked_at, 0, 1), (acked_at, 1, 2)]
    assert producer._placement[0] is not producer._placement[1]
    assert producer._placement[1] is producer._placement[2]


def test_failed_record_raises_into_its_waiter_and_an_unobserved_one_costs_nothing():
    sim, producer = offline_producer()
    observed = producer.send(ProducerRecord(topic="t", key="seen", value=1, size=10))
    unobserved = producer.send(ProducerRecord(topic="t", key="unseen", value=2, size=10))
    raised = []

    def waiter(future, label):
        try:
            yield future
        except DeliveryFailed as exc:
            raised.append((label, str(exc), sim.now))

    sim.process(waiter(observed, "early"))
    sim.run(until=1.0)
    assert list(producer._waiters) == [0]
    queued = len(sim._queue)
    producer._fail_batch(producer._drain_batch("t-0"), reason="boom")
    # One entry: the observed future's.  The unobserved failure is an outcome
    # on the batch, not an event (and not a crash waiting in the heap).
    assert len(sim._queue) == queued + 1
    sim.run(until=2.0)
    assert raised == [("early", "boom", 1.0)]
    assert producer.records_failed == 2 and producer.buffer_used == 0
    assert [r.failed_at for r in producer.reports] == [1.0, 1.0]
    sim.process(waiter(unobserved, "late"))
    sim.run(until=3.0)
    assert raised[1] == ("late", "boom", 2.0)
    assert unobserved.triggered and not unobserved.ok and unobserved.defused


def test_duplicate_ack_without_offsets_reports_duplicate_and_no_offset():
    """A dedup-hit ack for a stale retry does not echo offsets back
    (``base_offset`` -1): the records are acknowledged as duplicates with
    ``offset=None`` — in the reports and in the metadata — never a fake
    position."""
    sim, producer = offline_producer()
    futures = [
        producer.send(ProducerRecord(topic="t", key=i, value=i, size=10)) for i in range(3)
    ]
    producer._settle(producer._drain_batch("t-0"), base_offset=-1, duplicate=True)
    assert [(r.acknowledged, r.duplicate, r.offset) for r in producer.reports] == [
        (True, True, None)
    ] * 3
    assert futures[1].value.offset is None and futures[1].value.partition == 0
    # The partition is the batch's own, known even when the offset is not.
    assert {r.partition for r in producer.reports} == {0}
    producer.send(ProducerRecord(topic="t", key=3, value=3, size=10))
    producer._settle(producer._drain_batch("t-0"), base_offset=7, duplicate=True)
    assert (producer.reports[3].duplicate, producer.reports[3].offset) == (True, 7)
    assert producer.acked_sequences() == [0, 1, 2, 3] and producer.failed_sequences() == []


def test_reports_is_a_read_only_sequence():
    _sim, producer = offline_producer(partitions=2)
    for i in range(5):
        producer.send(ProducerRecord(topic="t", key=f"k{i}", value=i, size=10))
    producer.send(ProducerRecord(topic="elsewhere", key="w", value=0, size=10))  # waits
    reports = producer.reports
    assert len(reports) == 6 and reports[-1].topic == "elsewhere"
    assert [r.sequence for r in reports] == list(range(6))
    assert [r.key for r in reports[1:3]] == ["k1", "k2"]
    # A placed record reports the partition of its batch (with the offset, its
    # position in the log); one still waiting in line has none yet.
    assert [r.partition for r in reports[:5]] == [
        ProducerRecord(topic="t", key=f"k{i}", value=i).partition_for(2) for i in range(5)
    ]
    assert reports[5].partition is None
    with pytest.raises(IndexError):
        reports[6]
    with pytest.raises(TypeError):
        reports[0] = None
    assert not hasattr(reports, "append")


# -- derived reports equal the stored ones -------------------------------------------

# Captured at the parent commit (per-record DeliveryReport objects filled in
# at ack time), before the accumulator became batch-native.  The chaos one
# was re-captured when fetches began to park at the leader: every
# ``acknowledged_at`` of an acks=all run moves with the replication delay, and
# the one lost ack now hits a one-record batch instead of a three-record one.
CHAOS_LINK_LOSS_DIGEST = (
    200, "f93d05067d467e466e930645386046cc11f254855d02531d5833a9e16ad119ea"
)
STARVED_PRODUCER_DIGEST = (
    1000, "f8f5566752a31a7fa100c516f2514bb8191e60cd048eb5700a953da3b12e2675"
)


@pytest.mark.chaos
def test_reports_equal_the_per_record_implementation_under_chaos(reports_digest):
    """Seed 23 / link-loss: retries, one duplicate ack covering one record,
    every report field as the per-record bookkeeping had it."""
    (producer,) = run_chaos(23, "link-loss").producers
    assert producer.duplicate_acks == 1
    assert sum(report.duplicate for report in producer.reports) == 1
    assert reports_digest([producer]) == CHAOS_LINK_LOSS_DIGEST


def run_starved_producer():
    """A small buffer, a link that goes away for longer than the delivery
    timeout, and a topic that never exists: records wait in line, batches
    and waiting records fail, the rest is acknowledged after the link is
    back."""
    sim, network, sites, cluster = build_cluster(seed=5)
    producer = cluster.create_producer(
        sites[2],
        config=ProducerConfig(
            buffer_memory=2000, delivery_timeout=3.0, request_timeout=0.5,
            linger=0.01, acks="all",
        ),
        name="starved",
    )

    def workload():
        producer.start()
        yield sim.timeout(1.5)
        for i in range(1000):
            topic = "nowhere" if i % 50 == 7 else "events"
            producer.send(ProducerRecord(topic=topic, key=f"k{i % 13}", value=i, size=100))
            yield sim.timeout(0.01)

    link = network.link_between(sites[2], "s0")
    sim.call_later(8.0 - sim.now, link.set_down)
    sim.call_later(13.0 - sim.now, link.set_up)
    sim.process(workload())
    sim.run(until=30.0)
    return producer


def test_reports_equal_the_per_record_implementation_when_records_wait_and_fail(
    reports_digest,
):
    producer = run_starved_producer()
    assert (producer.records_acked, producer.records_failed) == (743, 257)
    assert sum(report.topic == "nowhere" for report in producer.reports) == 20
    assert producer.buffer_used == 0 and producer.flush_pending() == 0
    assert reports_digest([producer]) == STARVED_PRODUCER_DIGEST
