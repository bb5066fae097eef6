"""Core engine speed trajectory: raw events/sec plus experiment wall-clock.

Unlike the figure benchmarks (which assert the *shape* of paper results),
this module measures how fast the simulator itself runs and persists the
numbers to ``BENCH_core.json`` at the repo root, so future PRs have a perf
trajectory to beat:

* ``call_later`` dispatch rate — the zero-allocation fast path used by the
  network data plane (one heap entry per packet delivery);
* process/timeout rate — the generator-based slow path;
* packet round-trip rate through the full host->switch->host data plane and
  the ``Transport`` RPC rate on top of it, each with its exact heap entries
  per operation (``packet_events_per_round_trip``, ``rpc_events_per_request``
  — gated counters: an events/sec rate would read "slower" whenever a change
  removes events);
* heap entries per simulated second of an idle replicated partition
  (``idle_partition_events_per_sim_second``, gated: nothing may tick);
* end-to-end produce->consume record throughput through the batch-native
  broker wire path (client send -> broker append -> fetch -> header decode),
  plus the sharded variant (4 partitions / 4-member consumer group) and the
  partition-scaling ratio of their simulated drain windows, plus the
  idempotent-producer variant (sequence stamping + broker dedup table) and
  its overhead ratio versus the plain reported-send path, plus the
  transactional variant (1000-record commits drained read_committed) and
  its overhead ratio versus the idempotent rate;
* SPE drain throughput with a map->filter->reduce_by_key pipeline attached
  (``spe_vectorized_records_per_sec``, regression-gated), plus a
  windowed-reduce kernel micro-bench (reported, ungated);
* wall-clock of two packet-heavy experiments at their quick-test scale
  (fig6 partition, fig7b traffic monitoring) *and* at paper scale
  (fig6: 10 sites / 600 s; fig7b: the full 20-100-user sweep).

Assertions are loose sanity floors (hardware varies); the JSON file carries
the actual trajectory.  ``test_bench_regression_gate`` additionally fails
the bench run when a throughput metric drops more than 20% below the best
entry ever recorded on this machine's trajectory.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro.broker.cluster import BrokerCluster, ClusterConfig
from repro.broker.consumer import ConsumerConfig
from repro.broker.coordinator import CoordinationMode
from repro.broker.message import ProducerRecord
from repro.broker.producer import Producer, ProducerConfig
from repro.broker.segment import LogStorageConfig
from repro.broker.topic import TopicConfig
from repro.engine import StreamingConfig, StreamingContext
from repro.experiments.fig6_partition import Fig6Config, run_fig6
from repro.experiments.fig7b_traffic_monitoring import Fig7bConfig, run_fig7b
from repro.network import LinkConfig, Network, Transport
from repro.network.topology import one_big_switch
from repro.simulation import Simulator

from benchmarks.conftest import report

BENCH_FILE = Path(__file__).resolve().parents[1] / "BENCH_core.json"

#: Simulated drain windows of the produce->consume arms (filled by the
#: throughput benches; the partition-scaling ratio compares them).
_sim_drains: dict = {"1part": {}, "4part": {}}

#: Fraction of the best recorded value a throughput metric may drop to
#: before the regression gate fails the bench run (>20% drop = failure).
REGRESSION_FLOOR = 0.8

_results: dict = {}


def _record(name: str, value: float) -> float:
    _results[name] = round(value, 2)
    return value


def _machine_id() -> str:
    """Coarse machine fingerprint: throughput numbers are only comparable
    against runs from the same hardware, so bests are tracked per machine."""
    return f"{platform.node()}/{os.cpu_count()}cpu"


def _call_later_rate(n: int = 200_000) -> float:
    """Pure-CPU event-dispatch rate (also the session-health sentinel)."""
    sim = Simulator(seed=1)
    counter = [0]

    def tick():
        counter[0] += 1
        if counter[0] < n:
            sim.call_later(0.001, tick)

    sim.call_later(0.001, tick)
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    assert counter[0] == n
    return n / elapsed


def test_bench_call_later_dispatch_rate():
    n = 200_000
    rate = _record("call_later_events_per_sec", _call_later_rate(n))
    report("call_later dispatch", {"events": n, "events/sec": rate})
    assert rate > 50_000


def test_bench_process_timeout_rate():
    n = 100_000
    sim = Simulator(seed=1)

    def looper():
        for _ in range(n):
            yield sim.timeout(0.001)

    sim.process(looper())
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    rate = _record("process_timeout_events_per_sec", n / elapsed)
    report("process/timeout loop", {"events": n, "seconds": elapsed, "events/sec": rate})
    assert rate > 20_000


def test_bench_packet_round_trips():
    """Full data-plane path: host -> link -> switch -> link -> host and back."""
    n = 20_000
    sim = Simulator(seed=1)
    net = Network(sim)
    net.add_switch("s1")
    net.add_host("h1")
    net.add_host("h2")
    cfg = LinkConfig(latency_ms=1.0, bandwidth_mbps=1000.0)
    net.add_link("h1", "s1", cfg)
    net.add_link("h2", "s1", cfg)
    net.start()
    done = [0]

    def pong(pkt):
        net.host("h2").send("h1", "pong", size=64, dst_port=2)

    def ping(pkt):
        done[0] += 1
        if done[0] < n:
            net.host("h1").send("h2", "ping", size=64, dst_port=1)

    net.host("h2").bind(1, pong)
    net.host("h1").bind(2, ping)
    net.host("h1").send("h2", "ping", size=64, dst_port=1)
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    rate = _record("packet_round_trips_per_sec", n / elapsed)
    # Exact: one heap entry per link hop, four hops there and back.
    events = _record("packet_events_per_round_trip", sim.processed_events / n)
    report(
        "packet round-trips",
        {"round_trips": n, "seconds": elapsed, "round_trips/sec": rate,
         "events/round_trip": events},
    )
    assert done[0] == n
    assert rate > 1_000


def test_bench_transport_requests():
    """``Transport.request`` RPC loop between two hosts, one caller."""
    n = 10_000
    sim = Simulator(seed=1)
    net = one_big_switch(
        sim, ["h1", "h2"], default_config=LinkConfig(latency_ms=1.0, bandwidth_mbps=1000.0)
    )
    server = Transport(net.host("h2"))
    server.register(9000, lambda request: {"echo": request.payload["index"]})
    client = Transport(net.host("h1"))

    def caller():
        for index in range(n):
            yield from client.request("h2", 9000, {"type": "echo", "index": index}, size=64)

    sim.process(caller())
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    rate = _record("transport_requests_per_sec", n / elapsed)
    # Exact: four link hops per request — the caller resumes inside the
    # reply's arrival — plus one sweep of the deadline heap per timeout's
    # worth of requests.
    events = _record("rpc_events_per_request", sim.processed_events / n)
    report(
        "transport requests",
        {"requests": n, "seconds": elapsed, "requests/sec": rate, "events/request": events},
    )
    assert (client.requests_sent, client.requests_retried) == (n, 0)
    assert rate > 1_000


def test_bench_idle_partition_events():
    """What an idle replicated partition costs per simulated second: three
    brokers, one RF-3 partition, one consumer, nothing produced.  Consumer and
    follower fetches park at the leader for ``FETCH_MAX_WAIT``; a reintroduced
    poll or replica-fetch tick shows here as a multiple."""
    sim = Simulator(seed=1)
    hosts = ["b1", "b2", "b3"]
    net = one_big_switch(
        sim, hosts, default_config=LinkConfig(latency_ms=2.0, bandwidth_mbps=100.0)
    )
    cluster = BrokerCluster(net, coordinator_host="b1", config=ClusterConfig())
    for host in hosts:
        cluster.add_broker(host)
    cluster.add_topic(TopicConfig(name="idle", replication_factor=3))
    cluster.start(settle_time=2.0)
    consumer = cluster.create_consumer("b3", config=ConsumerConfig(poll_interval=0.1))
    consumer.subscribe(["idle"])
    consumer.start()
    sim.run(until=10.0)
    before, seconds = sim.processed_events, 20.0
    sim.run(until=10.0 + seconds)
    events = _record(
        "idle_partition_events_per_sim_second", (sim.processed_events - before) / seconds
    )
    report("idle replicated partition", {"sim_seconds": seconds, "events/sim_second": events})
    assert consumer.fetch_errors == 0 and consumer.records_consumed == 0


def _produce_consume_once(
    n_records: int,
    payload: str,
    partitions: int = 1,
    group_members: int = 1,
    idempotence: bool = False,
    transactional: bool = False,
    sim_stats: dict = None,
) -> float:
    """One produce->consume run; returns the wall seconds until the last
    record is consumed (idle post-delivery broker loops excluded).

    With ``partitions``/``group_members`` > 1 the topic is sharded and a
    consumer group (one member per host) splits it; production then waits for
    the group to stabilize first, and the drain window (production start to
    last record consumed, in *simulated* seconds) lands in ``sim_stats`` —
    the partition-scaling measurement.
    """
    sim = Simulator(seed=7)
    sinks = ["sink"] if group_members == 1 else [f"sink{i}" for i in range(group_members)]
    network = one_big_switch(
        sim,
        ["source", "broker"] + sinks,
        default_config=LinkConfig(latency_ms=0.5, bandwidth_mbps=10_000.0),
    )
    cluster = BrokerCluster(network, coordinator_host="broker", config=ClusterConfig())
    cluster.add_broker("broker")
    cluster.add_topic(
        TopicConfig(name="events", partitions=partitions, replication_factor=1)
    )
    cluster.start(settle_time=1.0)
    producer = cluster.create_producer(
        "source",
        config=ProducerConfig(
            linger=0.005,
            buffer_memory=512 * 1024 * 1024,
            idempotence=idempotence,
            transactional_id="bench-tx" if transactional else None,
        ),
    )
    consumer_config = ConsumerConfig(
        poll_interval=0.01,
        max_records_per_fetch=5000,
        keep_payloads=False,
        group="bench" if group_members > 1 else None,
        isolation_level="read_committed" if transactional else "read_uncommitted",
    )
    consumers = []
    for host in sinks:
        consumer = cluster.create_consumer(host, config=consumer_config)
        consumer.subscribe(["events"])
        consumers.append(consumer)
    done = sim.event()
    def drive():
        yield sim.timeout(2.0)
        producer.start()
        for consumer in consumers:
            consumer.start()
        if group_members > 1:
            # Let every member join and sync before traffic flows, so the
            # drain window measures steady-state sharded consumption.
            yield sim.timeout(3.0)
        drain_started = sim.now
        if transactional:
            producer.begin_transaction()
        for i in range(n_records):
            producer.send(
                ProducerRecord(topic="events", key=i, value=payload, size=112)
            )
            if transactional and i % 1000 == 999:
                # 1000-record atomic commits: marker round-trips and LSO
                # advancement are part of the measured path.
                yield from producer.commit_transaction()
                if i < n_records - 1:
                    producer.begin_transaction()
            if i % 200 == 199:
                yield sim.timeout(0.001)
        if transactional and producer.in_transaction():
            yield from producer.commit_transaction()
        while sum(consumer.records_consumed for consumer in consumers) < n_records:
            yield sim.timeout(0.05)
        if sim_stats is not None:
            sim_stats["drain_sim_seconds"] = sim.now - drain_started
        producer.stop()
        for consumer in consumers:
            consumer.stop()
        done.succeed()

    sim.process(drive())
    started = time.perf_counter()
    sim.run(until=done)
    elapsed = time.perf_counter() - started
    assert sum(consumer.records_consumed for consumer in consumers) == n_records
    assert sum(consumer.bytes_consumed for consumer in consumers) == n_records * 112
    return elapsed


def _stable_best_seconds(
    n_records: int,
    payload: str,
    partitions: int = 1,
    group_members: int = 1,
    idempotence: bool = False,
    transactional: bool = False,
    sim_stats: dict = None,
) -> float:
    """Best-of-three stabilized measurement of one produce->consume setup.

    Each run gets a collected heap and a paused GC (earlier suite modules
    leave enough garbage to skew allocation-heavy benches); both throughput
    metrics must measure under this identical protocol.
    """
    import gc

    best = float("inf")
    for _ in range(3):
        gc.collect()
        gc.disable()
        try:
            best = min(
                best,
                _produce_consume_once(
                    n_records,
                    payload,
                    partitions=partitions,
                    group_members=group_members,
                    idempotence=idempotence,
                    transactional=transactional,
                    sim_stats=sim_stats,
                ),
            )
        finally:
            gc.enable()
    return best


def test_bench_produce_consume_throughput():
    """End-to-end record throughput: producer client -> broker -> consumer.

    One producer streams records into a single-partition topic while a
    consumer (header-accounting fast path) drains it.  This exercises the
    whole batch-native record plane: accumulator drain into one
    ``RecordBatch`` per flush, whole-batch log append, batch fetch replies
    and O(1) consumer decode.  This metric feeds the regression gate, so
    the measurement is stabilized (see ``_stable_best_seconds``).
    """
    n_records = 50_000
    payload = "x" * 100
    best = _stable_best_seconds(n_records, payload, sim_stats=_sim_drains["1part"])
    rate = _record("produce_consume_records_per_sec", n_records / best)
    report(
        "produce->consume throughput",
        {"records": n_records, "seconds": best, "records/sec": rate},
    )
    assert rate > 5_000


def test_bench_producer_allocation_counters():
    """The producer's allocation budget as counts, not rates (exact for an
    interpreter version, so gated at ``<=`` the recorded value with no slack).

    * ``producer_retained_objects_per_queued_record`` — growth of the
      collector's object list across 10,000 unacknowledged sends: what the
      accumulator keeps per queued record.  Batch-native bookkeeping keeps a
      handful of lists per *batch* (146 records here), nothing per record.
    * ``producer_gen0_collections_per_100k_records`` — collections the
      interpreter started during one 100k-record produce->consume run.  Every
      collection starts as a young-generation threshold trip, so the count is
      the run's net container allocations / 700 whichever generation it went
      on to collect (that part depends on what the session left on the heap).
    """
    import gc

    sim = Simulator(seed=7)
    network = one_big_switch(sim, ["source", "broker"])
    producer = Producer(
        network.host("source"),
        ["broker"],
        config=ProducerConfig(buffer_memory=512 * 1024 * 1024),
    )
    producer.metadata = {
        "version": 1,
        "brokers": {},
        "partitions": {"events-0": {"topic": "events", "partition": 0, "leader": None}},
    }
    n_queued = 10_000
    payload = "x" * 100
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for i in range(n_queued):
            producer.send(ProducerRecord(topic="events", key=i, value=payload, size=112))
        retained = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert producer.flush_pending() == n_queued
    # An exact ratio of two counts: kept unrounded (``_record`` keeps cents).
    per_record = _results["producer_retained_objects_per_queued_record"] = (
        retained / n_queued
    )

    n_records = 100_000
    gc.collect()
    started = sum(stats["collections"] for stats in gc.get_stats())
    _produce_consume_once(n_records, payload)
    collections = sum(stats["collections"] for stats in gc.get_stats()) - started
    _record("producer_gen0_collections_per_100k_records", collections)
    report(
        "producer allocation counters",
        {
            "retained_objects_per_queued_record": per_record,
            "gen0_collections_per_100k_records": collections,
        },
    )
    assert per_record < 0.5  # the per-record bookkeeping kept ~5


def test_bench_produce_consume_idempotent_throughput():
    """Exactly-once produce path: sequence stamping + broker dedup overhead.

    Same stabilized protocol as the reported-send bench, with
    ``ProducerConfig(idempotence=True)``: one init_producer_id handshake at
    start, per-batch identity stamping at drain time, and the leader's
    dedup-table check per produce.  Records the end-to-end rate
    (``produce_consume_idempotent_records_per_sec``, regression-gated) and
    the overhead ratio versus the plain reported-send rate measured just
    before it — the cost of exactly-once on a clean (fault-free) run.
    """
    n_records = 50_000
    payload = "x" * 100
    best = _stable_best_seconds(n_records, payload, idempotence=True)
    rate = _record("produce_consume_idempotent_records_per_sec", n_records / best)
    reported = _results.get("produce_consume_records_per_sec", 0.0)
    ratio = reported / rate if rate else 0.0
    if reported:
        # Plain rate / idempotent rate: 1.0 = free, higher = costlier.
        _record("produce_consume_idempotence_overhead_ratio", ratio)
    report(
        "produce->consume throughput (idempotent producer)",
        {
            "records": n_records,
            "seconds": best,
            "records/sec": rate,
            "overhead_vs_reported": f"{ratio:.3f}x" if reported else "n/a",
        },
    )
    assert rate > 5_000
    # The ratio itself is reported-but-ungated: it compares two stabilized
    # wall-clock measurements taken minutes apart, which machine noise alone
    # can push past any tight budget (same reasoning as the other wall-clock
    # comparisons in this trajectory).  A genuine dedup-table tax on the
    # idempotent path is caught by the per-machine 0.8x regression gate on
    # ``produce_consume_idempotent_records_per_sec`` below.


def test_bench_produce_consume_txn_throughput():
    """Transactional produce path: atomic 1000-record commits, read_committed.

    Same stabilized protocol as the idempotent bench, with a transactional id:
    the producer groups its stream into 1000-record transactions (each commit
    is an end_txn round-trip plus a COMMIT marker append that advances the
    LSO) and the consumer drains with ``read_committed`` isolation (LSO-capped
    fetches + aborted-range filtering on the hot decode path).  Records the
    end-to-end rate (``produce_consume_txn_records_per_sec``, regression-
    gated) and the overhead ratio versus the idempotent rate measured just
    before it — the incremental cost of atomicity on top of exactly-once.
    """
    n_records = 50_000
    payload = "x" * 100
    best = _stable_best_seconds(n_records, payload, transactional=True)
    rate = _record("produce_consume_txn_records_per_sec", n_records / best)
    idempotent = _results.get("produce_consume_idempotent_records_per_sec", 0.0)
    ratio = idempotent / rate if rate else 0.0
    if idempotent:
        # Idempotent rate / transactional rate: 1.0 = free, higher = costlier.
        _record("produce_consume_txn_overhead_ratio", ratio)
    report(
        "produce->consume throughput (transactional, read_committed)",
        {
            "records": n_records,
            "seconds": best,
            "records/sec": rate,
            "overhead_vs_idempotent": f"{ratio:.3f}x" if idempotent else "n/a",
        },
    )
    assert rate > 5_000
    # Like the idempotence ratio above, the overhead ratio is reported-but-
    # ungated; real slowdowns are caught by the per-machine regression gate
    # on ``produce_consume_txn_records_per_sec``.


def test_bench_produce_consume_4part_group_throughput():
    """Sharded data plane: 4 partitions drained by a 4-member consumer group.

    Records the wall-clock end-to-end rate (``produce_consume_4part_records_
    per_sec``, same stabilized protocol as the 1-partition bench) and the
    *partition-scaling ratio*: the simulated drain throughput of the sharded
    arm versus the single-partition arm.  Sharding parallelizes consumer CPU
    across hosts in simulated time, so the ratio must clear 1.2x — unlike
    the wall-clock sweep gate, simulated time is deterministic and host-
    independent, so the assertion applies wherever both arms ran.
    """
    n_records = 50_000
    payload = "x" * 100
    best = _stable_best_seconds(
        n_records,
        payload,
        partitions=4,
        group_members=4,
        sim_stats=_sim_drains["4part"],
    )
    rate = _record("produce_consume_4part_records_per_sec", n_records / best)
    drain_1p = _sim_drains["1part"].get("drain_sim_seconds")
    drain_4p = _sim_drains["4part"].get("drain_sim_seconds")
    ratio = (drain_1p / drain_4p) if drain_1p and drain_4p else None
    if ratio is not None:
        # Only meaningful when the 1-partition bench ran in this session;
        # never persist a placeholder into the trajectory.
        _record("produce_consume_partition_scaling_ratio", ratio)
    report(
        "produce->consume throughput (4 partitions, 4-member group)",
        {
            "records": n_records,
            "seconds": best,
            "records/sec": rate,
            "drain_sim_s_1part": drain_1p,
            "drain_sim_s_4part": drain_4p,
            "partition_scaling_ratio": f"{ratio:.2f}x" if ratio else "n/a",
        },
    )
    assert rate > 5_000
    if ratio is not None:
        assert ratio > 1.2, (
            f"expected the 4-partition group drain to beat the single-partition "
            f"arm by >1.2x in simulated time, got {ratio:.2f}x"
        )


def _spe_pipeline_once(n_records: int, payload: str) -> float:
    """One SPE drain run; returns the wall seconds of fetch -> operators -> sink.

    The topic is pre-populated *outside* the timed window (production and log
    appends would only dilute the engine's share); the timed window opens
    with the context started and measures the consumer fetch slices flowing
    through a map -> filter -> reduce_by_key pipeline into a
    header-accounting memory sink.
    """
    sim = Simulator(seed=7)
    network = one_big_switch(
        sim,
        ["source", "broker", "spe"],
        default_config=LinkConfig(latency_ms=0.5, bandwidth_mbps=10_000.0),
    )
    cluster = BrokerCluster(network, coordinator_host="broker", config=ClusterConfig())
    cluster.add_broker("broker")
    cluster.add_topic(TopicConfig(name="events", partitions=1, replication_factor=1))
    cluster.start(settle_time=1.0)
    producer = cluster.create_producer(
        "source",
        config=ProducerConfig(linger=0.005, buffer_memory=512 * 1024 * 1024),
    )
    ctx = StreamingContext(
        network.host("spe"),
        config=StreamingConfig(batch_interval=0.25),
        cluster=cluster,
    )
    (
        ctx.kafka_stream(
            ["events"],
            consumer_config=ConsumerConfig(
                poll_interval=0.01, max_records_per_fetch=5000, keep_payloads=False
            ),
        )
        .map(lambda value: value)
        .filter(lambda value: value is not None)
        .reduce_by_key(lambda a, b: b)
        .to_memory(name="spe-bench-sink", keep_records=False)
    )
    produced = sim.event()
    done = sim.event()

    def produce_phase():
        yield sim.timeout(2.0)
        producer.start()
        for i in range(n_records):
            producer.send(
                ProducerRecord(topic="events", key=i % 16, value=payload, size=112)
            )
            if i % 500 == 499:
                yield sim.timeout(0.001)
        # Let the accumulator flush the tail into the log before the timed
        # window opens (consumers start at offset 0, nothing is missed).
        yield sim.timeout(1.0)
        produced.succeed()

    def drain_phase():
        yield produced
        ctx.start()
        while ctx.total_input_records() < n_records:
            yield sim.timeout(0.05)
        ctx.stop()
        done.succeed()

    sim.process(produce_phase())
    sim.process(drain_phase())
    sim.run(until=produced)  # untimed: production + log appends
    started = time.perf_counter()
    sim.run(until=done)  # timed: fetch slices -> operator plane -> sink
    elapsed = time.perf_counter() - started
    assert ctx.total_input_records() == n_records
    return elapsed


def _spe_stable_best_seconds(n_records: int, payload: str) -> float:
    """Best-of-three stabilized SPE drain (same GC protocol as the others)."""
    import gc

    best = float("inf")
    for _ in range(3):
        gc.collect()
        gc.disable()
        try:
            best = min(best, _spe_pipeline_once(n_records, payload))
        finally:
            gc.enable()
    return best


def test_bench_spe_vectorized_throughput():
    """SPE drain rate with map->filter->reduce_by_key attached.

    The tentpole metric of the columnar operator plane: fetch slices adopt
    the broker's column slices zero-copy, kernels run whole-column, and the
    memory sink counts headers without ever materializing a StreamRecord.
    Regression-gated (stabilized best-of-three, session-health-scaled floor
    like every other gated throughput).
    """
    n_records = 50_000
    payload = "x" * 100
    best = _spe_stable_best_seconds(n_records, payload)
    rate = _record("spe_vectorized_records_per_sec", n_records / best)
    report(
        "SPE drain throughput (columnar plane, map->filter->reduce)",
        {"records": n_records, "seconds": best, "records/sec": rate},
    )
    assert rate > 5_000


def test_bench_spe_windowed_reduce_kernels():
    """Windowed reduce micro-bench over the operator kernels alone.

    Pure operator-plane measurement (no broker, no network): a 30-batch
    stream of keyed batches flows through window(5.0) -> reduce_by_key.  The
    window re-emits its whole buffer every batch, so this is the
    amplification-heavy shape where most of the cost is buffer
    concatenation.  Reported-but-ungated (micro-rates are noisier than the
    stabilized end-to-end benches).
    """
    import gc

    from repro.engine.columns import ColumnBatch
    from repro.engine.operators import ReduceByKeyOperator, WindowOperator

    n_batches = 30
    batch_size = 2_000
    column_batches = [
        ColumnBatch(
            values=list(range(batch_size)),
            keys=[f"k{index % 32}" for index in range(batch_size)],
            event_times=[float(batch_index)] * batch_size,
            ingest_times=[float(batch_index)] * batch_size,
            sizes=[112] * batch_size,
        )
        for batch_index in range(n_batches)
    ]
    total = n_batches * batch_size

    def kernel_pass() -> float:
        window = WindowOperator(5.0)
        reduce_op = ReduceByKeyOperator(lambda a, b: b)
        started = time.perf_counter()
        for now, cols in enumerate(column_batches):
            reduce_op.apply(window.apply(cols, float(now)), float(now))
        return time.perf_counter() - started

    gc.collect()
    gc.disable()
    try:
        seconds = min(kernel_pass() for _ in range(3))
    finally:
        gc.enable()
    rate = _record("spe_window_reduce_columnar_records_per_sec", total / seconds)
    report(
        "windowed reduce kernels (window(5.0) -> reduce_by_key, 30 batches)",
        {"records": total, "records/sec": rate},
    )
    assert rate > 5_000


def test_bench_fig6_wall_clock():
    config = Fig6Config(
        n_sites=4,
        duration=150.0,
        disconnect_start=50.0,
        disconnect_duration=35.0,
        mode=CoordinationMode.ZOOKEEPER,
        acks=1,
        seed=3,
    )
    started = time.perf_counter()
    result = run_fig6(config)
    elapsed = time.perf_counter() - started
    _record("fig6_quick_wall_seconds", elapsed)
    report(
        "fig6 partition (quick scale)",
        {"wall_seconds": elapsed, "messages_produced": result.messages_produced},
    )
    assert result.messages_produced > 100


def test_bench_fig7b_wall_clock():
    config = Fig7bConfig(user_counts=[20, 60], slots=10)
    started = time.perf_counter()
    result = run_fig7b(config)
    elapsed = time.perf_counter() - started
    _record("fig7b_quick_wall_seconds", elapsed)
    report(
        "fig7b traffic monitoring (quick scale)",
        {"wall_seconds": elapsed, "input_records_60u": result.input_records.get(60, 0)},
    )
    assert all(runtime > 0 for runtime in result.mean_runtime_s.values())


def test_bench_fig6_paper_scale():
    """Figure 6 at the paper's full scale: 10 sites, 600 s, ~20% disconnect."""
    config = Fig6Config(
        n_sites=10,
        duration=600.0,
        disconnect_start=180.0,
        disconnect_duration=120.0,
        mode=CoordinationMode.ZOOKEEPER,
        acks=1,
        seed=3,
    )
    started = time.perf_counter()
    result = run_fig6(config)
    elapsed = time.perf_counter() - started
    _record("fig6_paper_wall_seconds", elapsed)
    report(
        "fig6 partition (paper scale, 10 sites / 600 s)",
        {"wall_seconds": elapsed, "messages_produced": result.messages_produced},
    )
    assert result.messages_produced > 10_000
    # The paper's qualitative claim holds at full scale too: ZooKeeper mode
    # silently loses acknowledged topic-A records during the partition.
    assert result.acked_but_lost > 0
    assert result.loss_only_on_topic_a()


def test_bench_fig7b_paper_scale():
    """Figure 7b with the paper's full user sweep (20-100 users)."""
    config = Fig7bConfig()  # defaults = the paper sweep
    started = time.perf_counter()
    result = run_fig7b(config)
    elapsed = time.perf_counter() - started
    _record("fig7b_paper_wall_seconds", elapsed)
    report(
        "fig7b traffic monitoring (paper sweep)",
        {"wall_seconds": elapsed, "input_records_100u": result.input_records.get(100, 0)},
    )
    series = result.normalized_series()
    assert series[0] == 1.0
    assert series[-1] > 1.0


@pytest.mark.sweep
def test_bench_fig7b_parallel_sweep_speedup():
    """Process-parallel sweep vs sequential: identical results, wall-clock win.

    Runs the full fig7b user sweep through the scenario Sweep API twice —
    ``workers=1`` and ``workers=4`` — asserts the results are bitwise
    identical (the scenario determinism contract), and records the speedup
    as ``fig7b_parallel_sweep_speedup`` in the trajectory.  The >1.5x
    speedup assertion only applies where it is physically meaningful: at
    least as many cores as workers (4) *and* fork-start worker pools (under
    spawn, each worker re-imports the package, which can eat a sweep this
    size whole); elsewhere the metric is recorded but not gated.
    """
    import multiprocessing

    from repro.scenarios import ScenarioParams, Sweep
    from repro.experiments.fig7b_traffic_monitoring import Fig7bConfig
    from repro.workloads import pregenerated
    from repro.workloads.nettraffic import generate_traffic_batches

    user_counts = [20, 40, 60, 80, 100]
    slots = 40  # double the paper's slot count: a wide, pool-noise-proof window

    # Warm the workload memo for every point *before* timing either pass.
    # Otherwise the sequential pass (first) absorbs the one-time synthesis
    # cost while the fork-started parallel pass inherits the warm cache,
    # biasing the speedup.  Must mirror run_single's pregenerated() call.
    defaults = Fig7bConfig()
    for n_users in user_counts:
        pregenerated(
            generate_traffic_batches,
            n_users=n_users,
            duration_s=slots,
            packets_per_user_per_s=defaults.packets_per_user_per_s,
            seed=defaults.seed,
        )

    def run_sweep(workers: int):
        sweep = Sweep(
            "fig7b", params=ScenarioParams(scale="default", overrides={"slots": slots})
        ).over("user_counts", user_counts)
        started = time.perf_counter()  # workloads pre-warmed above: pure sim time
        outcome = sweep.run(workers=workers)
        elapsed = time.perf_counter() - started
        return [result.result for result in outcome.results()], elapsed

    sequential_results, sequential_s = run_sweep(workers=1)
    parallel_results, parallel_s = run_sweep(workers=4)
    assert parallel_results == sequential_results, (
        "parallel sweep must be bitwise-identical to sequential"
    )
    speedup = sequential_s / parallel_s if parallel_s else 0.0
    _record("fig7b_parallel_sweep_speedup", speedup)
    _record("fig7b_parallel_sweep_sequential_seconds", sequential_s)
    _record("fig7b_parallel_sweep_parallel_seconds", parallel_s)
    cores = os.cpu_count() or 1
    start_method = multiprocessing.get_start_method()
    report(
        "fig7b parallel sweep (5 points, workers=4)",
        {
            "sequential_s": sequential_s,
            "parallel_s": parallel_s,
            "speedup": speedup,
            "host_cores": cores,
            "start_method": start_method,
        },
    )
    if cores >= 4 and start_method == "fork":
        assert speedup > 1.5, (
            f"expected >1.5x sweep speedup at 4 workers on {cores} cores, "
            f"got {speedup:.2f}x"
        )


def _build_cold_tier_log(tmp_dir: str, n_records: int, payload: str,
                         segment_records: int = 2048):
    """A segmented log with every record sealed into cold-tier files,
    carrying producer columns so recovery rebuilds the dedup table too."""
    from repro.broker.batch import RecordBatch
    from repro.broker.log import PartitionLog

    storage = LogStorageConfig(
        segment_records=segment_records, segment_dir=tmp_dir
    )
    log = PartitionLog("bench", 0, storage=storage, file_tag="b0")
    size = len(payload)
    batch_records = 512
    sequence = 0
    for start in range(0, n_records, batch_records):
        count = min(batch_records, n_records - start)
        batch = RecordBatch(
            "bench", 0, producer_id=1, producer_epoch=0, base_sequence=sequence
        )
        for index in range(count):
            batch.append((start + index) % 1024, payload, size, 0.0)
        log.append_batch(batch, timestamp=start * 0.001, leader_epoch=0)
        sequence += count
    log._seal_head()
    return log, storage


def _log_recovery_best_seconds(n_records: int) -> float:
    """Best-of-three stabilized replica bootstrap from segment files."""
    import gc
    import tempfile

    from repro.broker.log import PartitionLog

    payload = "x" * 100
    best = float("inf")
    with tempfile.TemporaryDirectory() as tmp_dir:
        _build_cold_tier_log(tmp_dir, n_records, payload)
        for _ in range(3):
            gc.collect()
            gc.disable()
            try:
                started = time.perf_counter()
                recovered = PartitionLog.recover(
                    "bench", 0, LogStorageConfig(
                        segment_records=2048, segment_dir=tmp_dir
                    ),
                    file_tag="b0",
                )
                best = min(best, time.perf_counter() - started)
            finally:
                gc.enable()
        assert len(recovered) == n_records
        assert recovered.producer_entry(1) is not None
    return best


def test_bench_log_recovery_throughput():
    """Replica bootstrap rate: replaying cold-tier segment files back into a
    full log — columns, epoch boundaries, producer dedup state.  This is the
    segmented-storage recovery path (``PartitionLog.recover``) and it feeds
    the regression gate, so the measurement is stabilized."""
    n_records = 100_000
    best = _log_recovery_best_seconds(n_records)
    rate = _record("log_recovery_records_per_sec", n_records / best)
    report(
        "log recovery (segment-file replay)",
        {"records": n_records, "seconds": best, "records/sec": rate},
    )
    assert rate > 20_000


def test_bench_fetch_cold_tier_throughput():
    """Sequential consume of a fully-evicted log: every read_batch below the
    head faults one sealed segment in from its file.  Reported-but-ungated
    (dominated by pickle load times, which vary more than 20% across hosts);
    also locks the retention-bounds-memory contract: after eviction the hot
    tier is empty, yet every record remains readable."""
    import gc
    import tempfile

    n_records = 100_000
    payload = "x" * 100
    best = float("inf")
    with tempfile.TemporaryDirectory() as tmp_dir:
        log, _storage = _build_cold_tier_log(tmp_dir, n_records, payload)
        for _ in range(3):
            log._evict_down_to(0)  # drop every sealed segment's columns
            assert log.size_bytes == 0  # hot tier fully bounded
            gc.collect()
            gc.disable()
            try:
                started = time.perf_counter()
                offset = log.log_start_offset
                consumed = 0
                while offset < log.log_end_offset:
                    batch = log.read_batch(offset)
                    consumed += len(batch)
                    offset = batch.next_offset
                best = min(best, time.perf_counter() - started)
            finally:
                gc.enable()
        assert consumed == n_records
        assert log.stats["cold_loads"] > 0
    rate = _record("fetch_cold_tier_records_per_sec", n_records / best)
    report(
        "cold-tier fetch (fault-in reads)",
        {"records": n_records, "seconds": best, "records/sec": rate},
    )
    assert rate > 20_000


def test_bench_persist_trajectory():
    """Runs last in the module: writes the collected numbers to BENCH_core.json.

    Besides the (bounded) run history, a per-machine ``best`` map keeps the
    running maximum of every rate metric forever — the regression gate reads
    it, so truncating old runs can never silently re-loosen the gate.  The
    exact work counters (:data:`GATED_COUNTERS`) are machine-independent:
    one ``counters`` map keeps the lowest value ever recorded.
    """
    assert _results, "earlier benchmarks populated no results"
    history: list = []
    best: dict = {}
    counters: dict = {}
    if BENCH_FILE.exists():
        try:
            previous = json.loads(BENCH_FILE.read_text())
            history = previous.get("runs", [])
            best = previous.get("best", {})
            counters = previous.get("counters", {})
        except (ValueError, AttributeError):
            history, best, counters = [], {}, {}
    machine = _machine_id()
    history.append(
        {"unix_time": int(time.time()), "machine": machine, "metrics": dict(_results)}
    )
    machine_best = best.setdefault(machine, {})
    for name, value in _results.items():
        if name.endswith("_per_sec"):
            machine_best[name] = max(machine_best.get(name, 0.0), value)
    for name in GATED_COUNTERS:
        if name in _results:
            counters[name] = min(counters.get(name, _results[name]), _results[name])
    BENCH_FILE.write_text(
        json.dumps(
            {
                "latest": dict(_results),
                "best": best,
                "counters": counters,
                "runs": history[-20:],
            },
            indent=2,
        )
        + "\n"
    )
    report("BENCH_core.json", _results)


#: Metrics the regression gate enforces.  Only the stabilized end-to-end
#: throughputs gate: the micro-rates (call_later, packet round-trips) are
#: single-shot measurements whose run-to-run variance under a loaded machine
#: exceeds the 20% budget — they stay reported-but-ungated in the trajectory.
GATED_METRICS = (
    "produce_consume_records_per_sec",
    "produce_consume_idempotent_records_per_sec",
    "produce_consume_txn_records_per_sec",
    "produce_consume_4part_records_per_sec",
    "spe_vectorized_records_per_sec",
    "log_recovery_records_per_sec",
)

#: Exact work counters (ROADMAP item 1): deterministic for an interpreter
#: version, so gated at ``<=`` the lowest value ever recorded — no 0.8x
#: slack, no session-health scaling, no re-measurement.
GATED_COUNTERS = (
    "producer_retained_objects_per_queued_record",
    "producer_gen0_collections_per_100k_records",
    "packet_events_per_round_trip",
    "rpc_events_per_request",
    "idle_partition_events_per_sim_second",
)

#: Simulator-core-only micro-rates used as a *session health* sentinel: no
#: broker/record-plane change can hide a regression in them, so when they run
#: well below their own recorded best the whole session is degraded (noisy
#: neighbour, throttling) and the gate's floor scales down accordingly.
SESSION_HEALTH_METRICS = (
    "call_later_events_per_sec",
    "process_timeout_events_per_sec",
)

#: Hard lower bound on session health.  Below this, host noise and a uniform
#: code slowdown are indistinguishable from inside one session — so the
#: floor never loosens past 0.8 * 0.75 = 0.6x best, and any >=40% regression
#: fails the gate no matter how sick the sentinels look.
MIN_SESSION_HEALTH = 0.75

#: Re-measurement hooks for gated metrics: a metric below its floor gets one
#: fresh stabilized measurement before the run is declared a regression —
#: transient host contention rarely spans both windows, a real code
#: regression always does.
_REMEASURE = {
    "produce_consume_records_per_sec": lambda: 50_000
    / _stable_best_seconds(50_000, "x" * 100),
    "produce_consume_idempotent_records_per_sec": lambda: 50_000
    / _stable_best_seconds(50_000, "x" * 100, idempotence=True),
    "produce_consume_txn_records_per_sec": lambda: 50_000
    / _stable_best_seconds(50_000, "x" * 100, transactional=True),
    "produce_consume_4part_records_per_sec": lambda: 50_000
    / _stable_best_seconds(50_000, "x" * 100, partitions=4, group_members=4),
    "spe_vectorized_records_per_sec": lambda: 50_000
    / _spe_stable_best_seconds(50_000, "x" * 100),
    "log_recovery_records_per_sec": lambda: 100_000
    / _log_recovery_best_seconds(100_000),
}


def test_bench_regression_gate():
    """Fail the bench run on a >20% throughput drop versus the best entry.

    The best value comes from the never-truncated per-machine ``best`` map in
    the trajectory file, so the gate tightens as the record plane gets faster
    and never re-loosens.  Bests are per machine fingerprint: the first bench
    run on new hardware establishes that machine's baseline instead of being
    judged against someone else's CPU.

    Two noise controls keep the gate honest on shared/loaded hosts (the
    bests are captured at quiet moments; a contended session measures every
    metric 15-30% low across code the diff never touched):

    * the floor scales with *session health* — the best ratio the pure-CPU
      sentinel micro-rates achieved this session (a record-plane regression
      cannot hide there, so a low sentinel means a degraded machine, not a
      regression), refreshed with one cheap sample at gate time and clamped
      at :data:`MIN_SESSION_HEALTH` so the floor never drops below 0.6x
      best — a uniform >=40% slowdown still fails even on a host that looks
      degraded;
    * a metric still below its scaled floor is re-measured once with the
      same stabilized protocol before failing the run.
    """
    if not _results:
        pytest.skip("gate needs the earlier benchmarks in the same session")
    trajectory = json.loads(BENCH_FILE.read_text())
    machine_best = trajectory.get("best", {}).get(_machine_id(), {})
    recorded = trajectory.get("counters", {})
    raised = {
        name: (_results[name], recorded[name])
        for name in GATED_COUNTERS
        if name in _results and name in recorded and _results[name] > recorded[name]
    }
    assert not raised, (
        "exact work counters rose above their recorded value (they do not "
        "depend on the machine or its load, only on the code and the "
        f"interpreter version): {raised}"
    )
    best = {
        name: machine_best[name] for name in GATED_METRICS if name in machine_best
    }
    health_ratios = [
        _results[name] / machine_best[name]
        for name in SESSION_HEALTH_METRICS
        if machine_best.get(name) and _results.get(name)
    ]
    health = min(1.0, max(health_ratios)) if health_ratios else 1.0
    if health < 1.0 and machine_best.get("call_later_events_per_sec"):
        # The sentinels ran at module start; contention may have begun or
        # ended since.  One fresh sample at gate time keeps health current.
        health = min(
            1.0,
            max(
                health,
                _call_later_rate() / machine_best["call_later_events_per_sec"],
            ),
        )
    health = max(health, MIN_SESSION_HEALTH)
    floor_factor = REGRESSION_FLOOR * health
    current = {
        name: _results[name] for name in best if name in _results
    }
    for name, value in list(current.items()):
        if value < best[name] * floor_factor and name in _REMEASURE:
            current[name] = max(value, _REMEASURE[name]())
    regressions = {
        name: (value, best[name])
        for name, value in current.items()
        if value < best[name] * floor_factor
    }
    report(
        f"regression gate (floor = best * 0.8 * session health {health:.2f})",
        [
            {
                "metric": name,
                "current": current.get(name, 0.0),
                "best": best_value,
                "floor": round(best_value * floor_factor, 2),
            }
            for name, best_value in sorted(best.items())
        ],
    )
    assert not regressions, (
        f"throughput regressed below 0.8 * best * session-health({health:.2f}) "
        "even after one re-measurement: "
        + ", ".join(
            f"{name}: {value:.0f} < {best_value * floor_factor:.0f}"
            for name, (value, best_value) in regressions.items()
        )
    )
