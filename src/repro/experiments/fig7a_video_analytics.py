"""Figure 7a: reproduction of Ichinose et al. (Kafka-based video analytics).

The original experiment measures the frame transfer throughput of a Kafka
cluster when a single host runs one broker, one producer and a varying number
of consumers.  A large batch of MNIST images is produced *before* the first
consumer subscribes (so consumers never stall on the producer), and the
metric is the aggregate rate at which consumers pull frames.

Paper shape: throughput increases with the number of consumers up to the
core count of the underlying host (8) and flattens beyond that.  Absolute
numbers differ between stream2gym and the original hardware by roughly an
order of magnitude (software stack vs the authors' testbed), which the paper
explicitly discusses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.broker.cluster import BrokerCluster, ClusterConfig
from repro.broker.consumer import ConsumerConfig
from repro.broker.producer import Producer, ProducerConfig
from repro.broker.message import ProducerRecord
from repro.broker.topic import TopicConfig
from repro.core.configs import PlatformOverrides
from repro.network.link import LinkConfig
from repro.network.topology import one_big_switch
from repro.scenarios import Scenario, ScenarioRunner, register
from repro.simulation import Simulator
from repro.workloads.images import generate_frames


@dataclass
class Fig7aConfig:
    """Sweep parameters (quick defaults; the paper pre-produces many more frames)."""

    consumer_counts: List[int] = field(default_factory=lambda: [1, 2, 4, 8, 16])
    n_frames: int = 8000
    host_cores: int = 8
    measure_duration: float = 10.0
    #: CPU cost per frame on the consumer side (frame decode / deserialize).
    consumer_cpu_per_frame: float = 100e-6
    #: CPU cost per frame on the broker side (fetch serving).
    broker_cpu_per_record: float = 12e-6
    seed: int = 5
    #: Catalog-wide knobs (frames are keyed by frame id, so a sharded topic
    #: keeps per-frame order).
    platform: PlatformOverrides = field(default_factory=PlatformOverrides)


@dataclass
class Fig7aResult:
    """throughput[n_consumers] = aggregate frames per second."""

    throughput: Dict[int, float]
    per_consumer: Dict[int, List[float]]

    def series(self) -> List[float]:
        return [self.throughput[n] for n in sorted(self.throughput)]

    def saturation_ratio(self, cores: int = 8) -> float:
        """Throughput beyond the core count relative to throughput at the core count."""
        counts = sorted(self.throughput)
        at_cores = next((self.throughput[n] for n in counts if n >= cores), None)
        beyond = [self.throughput[n] for n in counts if n > cores]
        if at_cores is None or not beyond:
            return 1.0
        return max(beyond) / at_cores


def run_single(n_consumers: int, config: Fig7aConfig) -> Dict[str, object]:
    """Run one point: a single host with broker + producer + ``n_consumers``."""
    platform = config.platform
    sim = Simulator(seed=config.seed)
    network = one_big_switch(
        sim, ["node"], default_config=LinkConfig(latency_ms=0.2, bandwidth_mbps=1000.0)
    )
    host = network.host("node")
    host.set_cores(config.host_cores)

    cluster = BrokerCluster(network, coordinator_host="node", config=ClusterConfig())
    broker = cluster.add_broker("node")
    broker.cpu_per_record = config.broker_cpu_per_record
    cluster.add_topic(platform.onto(TopicConfig(name="frames", replication_factor=1)))
    cluster.start(settle_time=1.0)

    frames = generate_frames(config.n_frames, seed=config.seed)
    producer = Producer(
        host,
        bootstrap=["node"],
        config=platform.onto(ProducerConfig(buffer_memory=64 * 1024 * 1024, linger=0.005)),
        name="frame-producer",
    )

    consumers = []
    for index in range(n_consumers):
        consumer = cluster.create_consumer(
            "node",
            config=platform.onto(
                ConsumerConfig(
                    poll_interval=0.01,
                    max_records_per_fetch=500,
                    keep_payloads=False,
                    cpu_per_record=config.consumer_cpu_per_frame,
                )
            ),
            name=f"frame-consumer-{index}",
        )
        consumer.subscribe(["frames"])
        consumers.append(consumer)

    consume_start = {"time": None}

    def produce_all():
        producer.start()
        # Transactional preload commits in chunks so no single transaction
        # outlives the coordinator's transaction timeout.
        txn_chunk = 2000
        if platform.transactional_id:
            producer.begin_transaction()
        for index, frame in enumerate(frames):
            # The future goes unread: the experiment only watches records_acked.
            producer.send(
                ProducerRecord(
                    topic="frames", key=frame["frame_id"], value=frame, size=frame["size"]
                )
            )
            if platform.transactional_id and (index + 1) % txn_chunk == 0:
                yield from producer.commit_transaction()
                producer.begin_transaction()
        # Wait until the broker has everything before consumers subscribe —
        # exactly the methodology of the original experiment (no data stalls).
        while producer.records_acked < len(frames):
            yield sim.timeout(0.2)
        if platform.transactional_id:
            yield from producer.commit_transaction()
        consume_start["time"] = sim.now
        for consumer in consumers:
            consumer.start()

    sim.process(produce_all())

    # Run until every consumer has drained the pre-produced frames (or a
    # generous deadline passes), then compute the aggregate transfer rate.
    deadline = 600.0
    while sim.now < deadline:
        sim.run(until=sim.now + 0.2)
        if consume_start["time"] is not None and all(
            consumer.records_consumed >= config.n_frames for consumer in consumers
        ):
            break
    end_time = sim.now
    start_time = consume_start["time"] if consume_start["time"] is not None else 0.0
    elapsed = max(1e-9, end_time - start_time)
    per_consumer_rate = [consumer.records_consumed / elapsed for consumer in consumers]
    return {
        "aggregate": sum(per_consumer_rate),
        "per_consumer": per_consumer_rate,
    }


def scenario_grid(config: Fig7aConfig) -> Dict[str, dict]:
    """One independent point per consumer count."""
    return {f"consumers={n}": {"n_consumers": n} for n in config.consumer_counts}


def scenario_combine(config: Fig7aConfig, runs: List[tuple]) -> Fig7aResult:
    throughput: Dict[int, float] = {}
    per_consumer: Dict[int, List[float]] = {}
    for point, outcome in runs:
        throughput[point["n_consumers"]] = outcome["aggregate"]
        per_consumer[point["n_consumers"]] = outcome["per_consumer"]
    return Fig7aResult(throughput=throughput, per_consumer=per_consumer)


def run_fig7a(config: Optional[Fig7aConfig] = None, workers: int = 1) -> Fig7aResult:
    """Run the full consumer-count sweep (across ``workers`` processes if > 1)."""
    return ScenarioRunner(SCENARIO).run_config(config or Fig7aConfig(), workers=workers).result


PAPER_SHAPE = {
    "throughput_increases_until_cores": True,
    "cores": 8,
    "flat_beyond_cores_tolerance": 0.35,
}


def check_shape(config: Fig7aConfig, result: Fig7aResult) -> List[str]:
    """Check the qualitative Figure 7a shape on a host of ``config.host_cores``."""
    cores = config.host_cores
    problems = []
    counts = sorted(result.throughput)
    below = [n for n in counts if n <= cores]
    for earlier, later in zip(below, below[1:]):
        if result.throughput[later] <= result.throughput[earlier]:
            problems.append(
                f"throughput should grow from {earlier} to {later} consumers "
                f"({result.throughput[earlier]:.0f} -> {result.throughput[later]:.0f})"
            )
    ratio = result.saturation_ratio(cores)
    if ratio > 1.0 + PAPER_SHAPE["flat_beyond_cores_tolerance"]:
        problems.append(
            f"throughput should flatten beyond {cores} consumers (ratio {ratio:.2f})"
        )
    return problems


def scenario_metrics(result: Fig7aResult) -> Dict[str, float]:
    metrics = {
        f"throughput_{n}c": round(result.throughput[n], 1)
        for n in sorted(result.throughput)
    }
    metrics["saturation_ratio"] = round(result.saturation_ratio(), 3)
    return metrics


SCENARIO = register(
    Scenario(
        name="fig7a",
        title="Figure 7a — Kafka frame-transfer throughput vs consumer count",
        config_factory=Fig7aConfig,
        run=run_single,
        grid=scenario_grid,
        combine=scenario_combine,
        metrics=scenario_metrics,
        tiers={
            "quick": {"consumer_counts": [1, 4], "n_frames": 2000},
            "paper": {"n_frames": 20000},
        },
        sweep_axis="consumer_counts",
        check=check_shape,
    )
)
