"""Integration tests for the streaming context, sources and sinks."""

import pytest

from repro.broker import BrokerCluster, ClusterConfig, ProducerRecord, TopicConfig
from repro.engine import ExecutorConfig, StreamingConfig, StreamingContext
from repro.network.link import LinkConfig
from repro.network.topology import star_topology
from repro.simulation import Simulator
from repro.store import StoreClient, StoreServer


def make_context(sim=None, batch_interval=1.0, parallelism=4, cores=8):
    sim = sim or Simulator(seed=3)
    network, sites = star_topology(sim, 2)
    host = network.host(sites[0])
    host.set_cores(cores)
    config = StreamingConfig(
        batch_interval=batch_interval,
        executor=ExecutorConfig(parallelism=parallelism),
    )
    return sim, network, StreamingContext(host, config=config)


class TestMemoryPipelines:
    def test_word_count_pipeline(self):
        sim, network, ctx = make_context()
        stream = ctx.memory_stream()
        sink = (
            stream.flat_map(lambda text: text.split())
            .map_pairs(lambda word: (word, 1))
            .reduce_by_key(lambda a, b: a + b)
            .to_memory()
        )
        source = ctx.sources[0]

        def feed():
            ctx.start()
            source.push_value("the quick brown fox", now=sim.now)
            source.push_value("the lazy dog", now=sim.now)
            yield sim.timeout(3.0)
            ctx.stop()

        sim.process(feed())
        sim.run(until=5.0)
        counts = {record.key: record.value for record in sink.results}
        assert counts["the"] == 2
        assert counts["fox"] == 1

    def test_stateful_counts_accumulate_across_batches(self):
        sim, network, ctx = make_context(batch_interval=0.5)
        stream = ctx.memory_stream()
        sink = (
            stream.map_pairs(lambda word: (word, 1))
            .update_state_by_key(lambda new, old: (old or 0) + sum(new))
            .to_memory()
        )
        source = ctx.sources[0]

        def feed():
            ctx.start()
            source.push_value("alpha", now=sim.now)
            yield sim.timeout(1.0)
            source.push_value("alpha", now=sim.now)
            yield sim.timeout(1.0)
            ctx.stop()

        sim.process(feed())
        sim.run(until=4.0)
        assert sink.latest_by_key()["alpha"] == 2

    def test_branched_output_streams_share_one_drain(self):
        """Two output streams over one source each see the whole micro-batch,
        and each job is charged for it."""
        sim, network, ctx = make_context()
        stream = ctx.memory_stream()
        doubled = stream.map(lambda x: x * 2).to_memory()
        kept = stream.filter(lambda x: x > 1).to_memory()
        source = ctx.sources[0]

        def feed():
            ctx.start()
            for value in (1, 2, 3):
                source.push_value(value, now=sim.now)
            yield sim.timeout(1.5)
            ctx.stop()

        sim.process(feed())
        sim.run(until=3.0)
        assert [record.value for record in doubled.results] == [2, 4, 6]
        assert [record.value for record in kept.results] == [2, 3]
        first_batch = ctx.batch_metrics[:2]
        assert [(m.stream_index, m.input_records) for m in first_batch] == [(0, 3), (1, 3)]

    def test_self_join_sees_its_own_batch(self):
        sim, network, ctx = make_context()
        pairs = ctx.memory_stream().map_pairs(lambda v: (v % 2, v))
        sink = pairs.join(pairs).to_memory()
        source = ctx.sources[0]

        def feed():
            ctx.start()
            for value in (1, 2, 3):
                source.push_value(value, now=sim.now)
            yield sim.timeout(1.5)
            ctx.stop()

        sim.process(feed())
        sim.run(until=3.0)
        assert [record.value for record in sink.results] == [
            (1, 1), (1, 3), (2, 2), (3, 1), (3, 3),
        ]

    @staticmethod
    def run_batches(sim, ctx, *batches):
        """Push each batch of values mid-way through its own micro-batch
        interval, then stop."""
        source = ctx.sources[0]

        def feed():
            ctx.start()
            for values in batches:
                yield sim.timeout(0.5)
                for value in values:
                    source.push_value(value, now=sim.now)
                yield sim.timeout(0.5)
            yield sim.timeout(0.5)
            ctx.stop()

        sim.process(feed())
        sim.run(until=len(batches) + 1.0)

    def test_self_join_of_a_running_count_advances_it_once(self):
        sim, network, ctx = make_context()
        counts = ctx.memory_stream().map_pairs(lambda v: (v, 1)).update_state_by_key(
            lambda new, old: (old or 0) + len(new))
        sink = counts.join(counts).to_memory()
        self.run_batches(sim, ctx, ["a", "a", "b"], ["a"])
        assert [(record.key, record.value) for record in sink.results] == [
            ("a", (2, 2)), ("b", (1, 1)), ("a", (3, 3)),
        ]

    def test_branches_of_a_running_count_advance_it_once(self):
        sim, network, ctx = make_context()
        counts = ctx.memory_stream().map_pairs(lambda v: (v, 1)).update_state_by_key(
            lambda new, old: (old or 0) + len(new))
        plain = counts.to_memory()
        scaled = counts.map(lambda count: count * 10).to_memory()
        self.run_batches(sim, ctx, ["a", "a", "b"], ["a"])
        assert [record.value for record in plain.results] == [2, 1, 3]
        assert [record.value for record in scaled.results] == [20, 10, 30]

    def test_branches_of_a_window_keep_each_chunk_once(self):
        sim, network, ctx = make_context()
        seen = []
        window = ctx.memory_stream().for_each(lambda record: seen.append(record.value)).window(10.0)
        whole = window.to_memory()
        doubled = window.map(lambda v: v * 2).to_memory()
        self.run_batches(sim, ctx, [1, 2], [3])
        assert [record.value for record in whole.results] == [1, 2, 1, 2, 3]
        assert [record.value for record in doubled.results] == [2, 4, 2, 4, 6]
        # The side effect in the shared prefix runs once per record.
        assert seen == [1, 2, 3]

    def test_chained_joins_each_read_their_right_side(self):
        sim, network, ctx = make_context()
        pairs = ctx.memory_stream().map_pairs(lambda v: (v % 2, v))
        sink = pairs.join(pairs.map(lambda v: -v)).join(pairs.map(lambda v: v * 10)).to_memory()
        self.run_batches(sim, ctx, [1, 2])
        assert [record.value for record in sink.results] == [((1, -1), 10), ((2, -2), 20)]

    def test_batch_metrics_recorded(self):
        sim, network, ctx = make_context(batch_interval=0.5)
        stream = ctx.memory_stream()
        stream.map(lambda x: x).to_memory()
        source = ctx.sources[0]

        def feed():
            ctx.start()
            for _ in range(10):
                source.push_value("x", now=sim.now)
            yield sim.timeout(2.0)
            ctx.stop()

        sim.process(feed())
        sim.run(until=3.0)
        assert ctx.batches_run >= 3
        busy = [m for m in ctx.batch_metrics if m.input_records > 0]
        assert len(busy) == 1
        assert busy[0].input_records == 10
        assert busy[0].processing_time > 0

    def test_processing_time_scales_with_input_volume(self):
        sim, network, ctx = make_context(batch_interval=1.0, parallelism=1)
        stream = ctx.memory_stream()
        stream.map(lambda x: x).to_memory(keep_records=False)
        source = ctx.sources[0]

        def feed():
            ctx.start()
            for _ in range(100):
                source.push_value("x", now=sim.now)
            yield sim.timeout(1.5)
            for _ in range(2000):
                source.push_value("x", now=sim.now)
            yield sim.timeout(1.5)
            ctx.stop()

        sim.process(feed())
        sim.run(until=6.0)
        busy = [m for m in ctx.batch_metrics if m.input_records > 0]
        assert len(busy) == 2
        small, large = busy
        assert large.processing_time > small.processing_time

    def test_parallelism_saturates_at_core_count(self):
        def run(parallelism, cores):
            sim, network, ctx = make_context(
                batch_interval=1.0, parallelism=parallelism, cores=cores
            )
            stream = ctx.memory_stream()
            stream.map(lambda x: x).to_memory(keep_records=False)
            source = ctx.sources[0]

            def feed():
                ctx.start()
                for _ in range(5000):
                    source.push_value("x", now=sim.now)
                yield sim.timeout(4.0)
                ctx.stop()

            sim.process(feed())
            sim.run(until=8.0)
            busy = [m for m in ctx.batch_metrics if m.input_records > 0]
            return busy[0].processing_time

        serial = run(parallelism=1, cores=8)
        parallel = run(parallelism=4, cores=8)
        oversubscribed = run(parallelism=16, cores=2)
        assert parallel < serial
        assert oversubscribed > parallel

    def test_context_requires_output_stream(self):
        sim, network, ctx = make_context()
        with pytest.raises(RuntimeError):
            ctx.start()

    def test_kafka_stream_requires_cluster(self):
        sim, network, ctx = make_context()
        with pytest.raises(RuntimeError):
            ctx.kafka_stream(["topic"])

    def test_max_batches_stops_the_context(self):
        sim, network, ctx = make_context(batch_interval=0.2)
        ctx.config.max_batches = 3
        stream = ctx.memory_stream()
        stream.map(lambda x: x).to_memory()
        ctx.start()
        sim.run(until=5.0)
        assert ctx.batches_run == 3
        assert not ctx.running

    def test_stop_mid_interval_runs_no_further_batch(self):
        """The batch already waiting for its time when stop() comes is not run."""
        sim, network, ctx = make_context(batch_interval=1.0)
        ctx.memory_stream().map(lambda x: x).to_memory()
        ctx.start()
        sim.call_later(1.5, ctx.stop)
        sim.run(until=5.0)
        assert [metric.batch_time for metric in ctx.batch_metrics] == [1.0]

    def test_restart_within_one_interval_runs_one_driver_loop(self):
        """The loop stopped at 1.5 s must not wake at 2.03 s beside the one
        started at 1.7 s: one batch per interval after the restart (each
        interval starts when the previous 0.03 s batch ends)."""
        sim, network, ctx = make_context(batch_interval=1.0)
        ctx.memory_stream().map(lambda x: x).to_memory()
        ctx.start()
        sim.call_later(1.5, ctx.stop)
        sim.call_later(1.7, ctx.start)
        sim.run(until=4.0)
        times = [metric.batch_time for metric in ctx.batch_metrics]
        assert times == pytest.approx([1.0, 2.7, 3.73])
        assert ctx.running


class TestKafkaIntegration:
    def _cluster(self, seed=5):
        sim = Simulator(seed=seed)
        network, sites = star_topology(
            sim, 3, link_config=LinkConfig(latency_ms=2.0, bandwidth_mbps=100.0)
        )
        cluster = BrokerCluster(network, coordinator_host=sites[0], config=ClusterConfig())
        for site in sites:
            cluster.add_broker(site)
        cluster.add_topic(TopicConfig(name="input", replication_factor=1))
        cluster.add_topic(TopicConfig(name="output", replication_factor=1))
        cluster.start(settle_time=2.0)
        return sim, network, sites, cluster

    def test_kafka_to_kafka_pipeline(self):
        sim, network, sites, cluster = self._cluster()
        producer = cluster.create_producer(sites[0])
        spe_host = network.host(sites[1])
        ctx = StreamingContext(
            spe_host, config=StreamingConfig(batch_interval=0.5), cluster=cluster
        )
        stream = ctx.kafka_stream(["input"])
        stream.map(lambda text: text.upper()).to_kafka("output")
        final_consumer = cluster.create_consumer(sites[2])
        final_consumer.subscribe(["output"])

        def workload():
            yield sim.timeout(10.0)
            producer.start()
            ctx.start()
            final_consumer.start()
            for i in range(10):
                producer.send(ProducerRecord(topic="input", value=f"msg-{i}", size=60))
                yield sim.timeout(0.2)

        sim.process(workload())
        sim.run(until=40.0)
        assert ctx.total_input_records() == 10
        values = [record.value["value"] for record in final_consumer.received]
        assert sorted(values) == sorted(f"MSG-{i}" for i in range(10))
        # End-to-end event time is preserved through the SPE stage.
        assert all(record.value["event_time"] > 0 for record in final_consumer.received)

    def test_store_sink_persists_results(self):
        sim, network, sites, cluster = self._cluster()
        producer = cluster.create_producer(sites[0])
        store_server = StoreServer(network.host(sites[2]))
        spe_host = network.host(sites[1])
        ctx = StreamingContext(
            spe_host, config=StreamingConfig(batch_interval=0.5), cluster=cluster
        )
        client = StoreClient(spe_host, store_host=sites[2])
        from repro.engine.sinks import StoreSink

        stream = ctx.kafka_stream(["input"])
        stream.map_pairs(lambda v: (v, 1)).reduce_by_key(lambda a, b: a + b).to(
            StoreSink(client, table="counts")
        )

        def workload():
            yield sim.timeout(10.0)
            producer.start()
            ctx.start()
            for value in ["ship-1", "ship-2", "ship-1"]:
                producer.send(ProducerRecord(topic="input", value=value, size=40))
                yield sim.timeout(0.1)

        sim.process(workload())
        sim.run(until=30.0)
        table = store_server.tables.table("counts")
        assert table.count() == 2
        assert store_server.operations_served >= 2
