"""The four workloads.  Each one is a class with the same five steps, driven
by ``perf/child.py``:

``setup()``    imports aside, everything before the timed section: input
               generation from the seed, topology/cluster build, pre-population
``run()``      the timed section
``collect()``  read the program's outputs (and, on the observed pass, the
               simulated latencies) into plain Python values
``check()``    compare them with the reference in ``perf/check.py``
``cleanup()``  remove what the workload left on disk

Why these four, and which layer each is expected to stress, is in
``perf/README.md``.  ``SIZES["full"]`` is what ``BENCHMARK.json`` measures;
``"smoke"`` is the same code at a size the pytest tier can afford.

``probes`` is ``None`` on the timed pass and a :class:`perf.trace.Probes` on
the observed pass; anything that needs a hook inside the program (per-batch
latency, offset continuity) is attached only then.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from array import array
from typing import Any, Dict, List, Optional

from repro.apps import word_count
from repro.broker.batch import RecordBatch
from repro.broker.cluster import BrokerCluster, ClusterConfig
from repro.broker.consumer import ConsumerConfig
from repro.broker.coordinator import CoordinationMode
from repro.broker.message import ProducerRecord
from repro.broker.producer import ProducerConfig
from repro.broker.topic import TopicConfig
from repro.core.emulation import Emulation
from repro.engine.context import StreamingConfig, StreamingContext
from repro.engine.executor import ExecutorConfig
from repro.engine.sinks import MemorySink, StoreSink
from repro.experiments.fig6_partition import Fig6Config, run_fig6
from repro.network.link import LinkConfig
from repro.network.topology import one_big_switch
from repro.simulation import Simulator
from repro.store.server import StoreClient, StoreServer
from repro.workloads.text import generate_documents

from perf import check

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

_FAST_LINK = LinkConfig(latency_ms=0.5, bandwidth_mbps=10_000.0)


def seeded_uint32(seed: int, count: int) -> List[int]:
    """``count`` uniform 32-bit integers from ``seed`` (plain ``random``)."""
    return array("I", random.Random(seed).randbytes(4 * count)).tolist()


class Workload:
    name = ""
    #: Layer whose public function ``run()`` calls (the ``run`` span's layer).
    run_layer = "simulation"
    SIZES: Dict[str, Dict[str, Any]] = {}

    def __init__(self, seed: int, size: str, tracer, probes=None) -> None:
        self.seed = seed
        self.params = self.SIZES[size]
        self.tracer = tracer
        self.probes = probes
        #: Records that reached the final sink (set by ``collect``).
        self.delivered = 0
        #: Simulated seconds from record creation to arrival at the final
        #: sink (observed pass; ``None`` where it needs a hook and has none).
        self.latencies: Optional[List[float]] = None

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def collect(self) -> None:
        raise NotImplementedError

    def check(self, corrupt_reference: bool = False) -> check.Verdict:
        raise NotImplementedError

    def cleanup(self) -> None:
        """Nothing on disk by default."""


class WordcountPipeline(Workload):
    """Fig. 2's reference application through ``apps`` + ``core.Emulation``."""

    name = "wordcount_pipeline"
    run_layer = "core"
    SIZES = {
        "full": {"documents": 1500, "messages": 52_500, "rate": 1500.0},
        "smoke": {"documents": 100, "messages": 1_500, "rate": 1500.0},
    }

    def setup(self) -> None:
        params = self.params
        with self.tracer.span("generate_documents", "workloads"):
            self.documents = generate_documents(params["documents"], seed=self.seed)
        with self.tracer.span("create_task", "apps"):
            task = word_count.create_task(
                n_documents=params["messages"],
                files_per_second=params["rate"],
                batch_interval=0.5,
            )
        with self.tracer.span("Emulation.build", "core"):
            self.emulation = Emulation(
                task, seed=self.seed, datasets={"documents": self.documents}
            ).build()
        # Clients start at t=10; the source then sends on a fixed simulated
        # schedule (open loop); 5 s more drains both SPE jobs.
        self.duration = 10.0 + params["messages"] / params["rate"] + 5.0

    def run(self) -> None:
        self.emulation.run(duration=self.duration)

    def collect(self) -> None:
        sink = self.emulation.consumers[word_count.HOSTS["sink"]]
        self.word_results = []
        self.average_results = []
        self.latencies = []
        for record in sink.records:
            envelope = record.value
            if record.topic == word_count.WORDS_TOPIC:
                self.word_results.append(envelope["value"])
                self.latencies.append(record.received_at - envelope["event_time"])
            else:
                self.average_results.append((record.key, envelope["value"]))
        self.delivered = len(self.word_results)

    def check(self, corrupt_reference: bool = False) -> check.Verdict:
        return check.check_wordcount(
            self.documents,
            self.params["messages"],
            self.word_results,
            self.average_results,
            corrupt_reference,
        )


class Fig6Partition(Workload):
    """Fig. 6's deployment via ``run_fig6``: KRaft, ``acks="all"``.

    Three settings differ from the paper's and each avoids a defect found
    while sizing (``perf/README.md``, known issues): 1 KiB messages keep the
    ISR from flapping, a 40 s disconnection outlasts the old leader's 30 s
    high-watermark wait, and preferred-leader re-election is off.
    """

    name = "fig6_partition"
    run_layer = "experiments"
    SIZES = {
        "full": {"n_sites": 10, "duration": 150.0, "disconnect_start": 40.0},
        "smoke": {"n_sites": 4, "duration": 75.0, "disconnect_start": 15.0},
    }
    #: run_fig6 ignores acknowledgements in the last 20 s when counting losses.
    TAIL_MARGIN = 20.0

    def setup(self) -> None:
        params = self.params
        self.config = Fig6Config(
            n_sites=params["n_sites"],
            replication_factor=3,
            rate_kbps=30.0,
            message_size=1024,
            duration=params["duration"],
            disconnect_start=params["disconnect_start"],
            disconnect_duration=40.0,
            mode=CoordinationMode.KRAFT,
            acks="all",
            preferred_election_interval=1e9,
            seed=self.seed,
        )

    def run(self) -> None:
        self.result = run_fig6(self.config)

    def collect(self) -> None:
        self.delivered = self.result.messages_consumed
        self.raw: Dict[str, Any] = {}
        if self.probes is None:
            return
        produced_keys: Dict[str, set] = {}
        acked = []
        for producer in self.probes.of("Producer"):
            for report in producer.reports:
                produced_keys.setdefault(report.topic, set()).add(report.key)
                if report.acknowledged:
                    acked.append((report.topic, report.key, report.acknowledged_at))
        delivered: Dict[str, Dict[str, List[str]]] = {}
        self.latencies = []
        for consumer in self.probes.of("Consumer"):
            topics = delivered.setdefault(consumer.name, {})
            for record in consumer.received:
                topics.setdefault(record.topic, []).append(record.key)
                self.latencies.append(record.latency)
        self.raw = {
            "produced_keys": produced_keys,
            "acked": acked,
            "delivered": delivered,
            "ack_cutoff": self.config.duration - self.TAIL_MARGIN,
        }

    def check(self, corrupt_reference: bool = False) -> check.Verdict:
        return check.check_fig6(
            self.result.messages_produced,
            self.result.acked_but_lost,
            len(self.result.election_times()),
            corrupt_reference=corrupt_reference,
            **self.raw,
        )


class BulkIngest(Workload):
    """One producer (reported ``send``) -> one partition -> one consumer."""

    name = "bulk_ingest"
    SIZES = {"full": {"records": 400_000}, "smoke": {"records": 20_000}}
    PAYLOAD = "x" * 100

    def setup(self) -> None:
        count = self.params["records"]
        with self.tracer.span("generate_records", "bench"):
            self.keys = seeded_uint32(self.seed, count)
            # 80..144 B, 112 B on average.
            self.sizes = [80 + (key >> 8) % 65 for key in self.keys]
        self.sim = Simulator(seed=self.seed)
        with self.tracer.span("one_big_switch", "network"):
            network = one_big_switch(
                self.sim, ["source", "broker", "sink"], default_config=_FAST_LINK
            )
        with self.tracer.span("cluster", "broker.broker"):
            cluster = BrokerCluster(network, coordinator_host="broker")
            cluster.add_broker("broker")
            cluster.add_topic(TopicConfig(name="events", partitions=1, replication_factor=1))
            cluster.start(settle_time=1.0)
            self.producer = cluster.create_producer(
                "source",
                config=ProducerConfig(linger=0.005, buffer_memory=512 * 1024 * 1024),
            )
            self.consumer = cluster.create_consumer(
                "sink",
                config=ConsumerConfig(
                    poll_interval=0.01, max_records_per_fetch=5000, keep_payloads=False
                ),
            )
            self.consumer.subscribe(["events"])
        self.batch_spans: Optional[List[tuple]] = None
        if self.probes is not None:
            self.batch_spans = []
            self.latencies = []
            self.consumer.on_batch = self._on_batch
        self.done = self.sim.event()
        self.sim.process(self._drive())

    def _on_batch(self, topic, partition, batch, received_at, skip=None) -> None:
        self.batch_spans.append((batch.base_offset, len(batch)))
        self.latencies.extend(
            [received_at - produced_at for produced_at in batch.produced_ats]
        )

    def _drive(self):
        sim, producer, consumer = self.sim, self.producer, self.consumer
        keys, sizes, payload = self.keys, self.sizes, self.PAYLOAD
        yield sim.timeout(2.0)
        producer.start()
        consumer.start()
        # Open loop in simulated time: 200 records every millisecond,
        # whatever the broker manages to drain.
        for index, key in enumerate(keys):
            producer.send(
                ProducerRecord(topic="events", key=key, value=payload, size=sizes[index])
            )
            if index % 200 == 199:
                yield sim.timeout(0.001)
        while consumer.records_consumed < len(keys):
            yield sim.timeout(0.05)
        producer.stop()
        consumer.stop()
        self.done.succeed()

    def run(self) -> None:
        self.sim.run(until=self.done)

    def collect(self) -> None:
        self.delivered = self.consumer.records_consumed

    def check(self, corrupt_reference: bool = False) -> check.Verdict:
        return check.check_bulk(
            self.sizes,
            self.consumer.records_consumed,
            self.consumer.bytes_consumed,
            self.batch_spans,
            corrupt_reference,
        )


def replay_chain(stream):
    """The ``replay_spe`` operator chain (also driven by ``perf/layers.py``)."""

    def fold(new_values, previous):
        count, total = (previous["count"], previous["total"]) if previous else (0, 0)
        for value_count, value_total in new_values:
            count += value_count
            total += value_total
        return {"count": count, "total": total}

    return (
        stream.map(lambda value: value % check.REPLAY_MODULUS)
        .filter(lambda value: value % check.REPLAY_DROP_MULTIPLES_OF != 0)
        .map_pairs(lambda value: (value % check.REPLAY_KEYS, (1, value)))
        .repartition_by_key()
        .reduce_by_key(lambda a, b: (a[0] + b[0], a[1] + b[1]))
        .update_state_by_key(fold)
    )


class _LatencySink(MemorySink):
    """Header-accounting memory sink that also notes, per emitted record, the
    simulated time since its representative input was ingested."""

    def __init__(self, latencies: List[float]) -> None:
        super().__init__(keep_records=False)
        self.latencies = latencies

    def write(self, batch, now: float) -> None:
        super().write(batch, now)
        self.latencies.extend([now - record.ingest_time for record in batch])

    def write_columns(self, cols, now: float) -> None:
        super().write_columns(cols, now)
        self.latencies.extend([now - ingested for ingested in cols.ingest_times])


class ReplaySpe(Workload):
    """History reprocessing: segmented log with a cold tier -> sharded SPE
    ingest -> keyed operator chain -> memory sink + store sink."""

    name = "replay_spe"
    PARTITIONS = 4
    log_dir: Optional[str] = None
    SIZES = {
        "full": {"records": 2_000_000, "segment_records": 4096,
                 "retention_bytes": 4 * 1024 * 1024},
        "smoke": {"records": 60_000, "segment_records": 1024,
                  "retention_bytes": 128 * 1024},
    }
    RECORD_SIZE = 64
    APPEND_BATCH = 512

    def setup(self) -> None:
        params = self.params
        with self.tracer.span("generate_records", "bench"):
            self.values = seeded_uint32(self.seed, params["records"])
        os.makedirs(OUT_DIR, exist_ok=True)
        self.log_dir = tempfile.mkdtemp(prefix="replay-log-", dir=OUT_DIR)
        self.sim = Simulator(seed=self.seed)
        with self.tracer.span("one_big_switch", "network"):
            network = one_big_switch(
                self.sim, ["broker", "spe", "store"], default_config=_FAST_LINK
            )
        with self.tracer.span("cluster", "broker.broker"):
            self.cluster = BrokerCluster(
                network,
                coordinator_host="broker",
                config=ClusterConfig(
                    segment_records=params["segment_records"],
                    retention_bytes=params["retention_bytes"],
                    log_dir=self.log_dir,
                ),
            )
            self.cluster.add_broker("broker")
            self.cluster.add_topic(
                TopicConfig(name="history", partitions=self.PARTITIONS, replication_factor=1)
            )
            self.cluster.start(settle_time=1.0)
        with self.tracer.span("store", "store"):
            self.store = StoreServer(network.host("store"))
        with self.tracer.span("pipeline", "engine"):
            # A chain of integer lambdas: 2 us per record per stage keeps the
            # simulated executor ahead of the fetchers, so micro-batches stay
            # in the tens of thousands of records instead of a few huge ones.
            self.context = StreamingContext(
                network.host("spe"),
                config=StreamingConfig(
                    batch_interval=0.1, executor=ExecutorConfig(per_record_cost=2e-6)
                ),
                cluster=self.cluster,
            )
            stream = self.context.sharded_kafka_stream(
                "history",
                list(range(self.PARTITIONS)),
                consumer_config=ConsumerConfig(
                    poll_interval=0.01, max_records_per_fetch=5000, keep_payloads=False
                ),
            )
            output = replay_chain(stream)
            if self.probes is not None:
                self.latencies = []
                output.to(_LatencySink(self.latencies))
            else:
                output.to_memory(keep_records=False)
            output.to(
                StoreSink(StoreClient(network.host("spe"), store_host="store"), table="totals")
            )
        with self.tracer.span("create_topic", "simulation"):
            self.sim.run(until=2.0)
        with self.tracer.span("prepopulate", "broker.log"):
            self._prepopulate()
        self.done = self.sim.event()
        self.sim.process(self._drive())

    def _prepopulate(self) -> None:
        """Append the history straight into the leader logs, so segments are
        sealed and evicted to files before anything is timed."""
        now = self.sim.now
        per_partition = len(self.values) // self.PARTITIONS
        for partition in range(self.PARTITIONS):
            log = self.cluster.leader_broker("history", partition).log_for("history", partition)
            start = partition * per_partition
            stop = len(self.values) if partition == self.PARTITIONS - 1 else start + per_partition
            for at in range(start, stop, self.APPEND_BATCH):
                values = self.values[at:min(at + self.APPEND_BATCH, stop)]
                batch = RecordBatch.from_columns(
                    "history",
                    partition,
                    base_offset=-1,
                    # key % PARTITIONS == partition: a key lives in one partition.
                    keys=[(value % 1024) * self.PARTITIONS + partition for value in values],
                    values=values,
                    # 48..79 B, RECORD_SIZE on average.
                    sizes=[self.RECORD_SIZE - 16 + (value & 31) for value in values],
                    produced_ats=[now] * len(values),
                )
                log.append_batch(batch, timestamp=now, leader_epoch=0)
                log.advance_high_watermark(log.log_end_offset)
                log.maybe_maintain(now)

    def _drive(self):
        self.context.start()
        while self.context.total_input_records() < len(self.values):
            yield self.sim.timeout(0.05)
        # The last micro-batch's store writes are still in flight.
        yield self.sim.timeout(0.5)
        self.context.stop()
        self.done.succeed()

    def run(self) -> None:
        self.sim.run(until=self.done)

    def collect(self) -> None:
        self.sink_totals = {
            row.key: dict(row.columns) for row in self.store.tables.select("totals")
        }
        self.delivered = sum(entry["count"] for entry in self.sink_totals.values())

    def check(self, corrupt_reference: bool = False) -> check.Verdict:
        return check.check_replay(self.values, self.sink_totals, corrupt_reference)

    def cleanup(self) -> None:
        if self.log_dir is not None:
            shutil.rmtree(self.log_dir, ignore_errors=True)


WORKLOADS = {
    cls.name: cls for cls in (WordcountPipeline, Fig6Partition, BulkIngest, ReplaySpe)
}
