"""Figure 7b: reproduction of Ocampo et al. (Spark-based traffic monitoring).

The original system mirrors packets from enterprise switches into an event
streaming platform and computes per-service metrics (active connections,
bandwidth usage) in one-second slots on a one-node Spark cluster.  The
evaluation scales the number of concurrent users (traffic generators), each
following a Poisson process, and reports the Spark mean execution time
normalized to the 20-user case.

Paper shape: the normalized runtime grows from 1.0 at 20 users to roughly
1.8 at 100 users, with stream2gym showing slightly more variation at the
high end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.broker.cluster import BrokerCluster, ClusterConfig
from repro.broker.consumer import ConsumerConfig
from repro.broker.message import ProducerRecord
from repro.broker.producer import Producer, ProducerConfig
from repro.broker.topic import TopicConfig
from repro.core.configs import PlatformOverrides
from repro.engine import ExecutorConfig, StreamingConfig, StreamingContext
from repro.network.link import LinkConfig
from repro.network.topology import one_big_switch
from repro.scenarios import Scenario, ScenarioRunner, register
from repro.simulation import Simulator
from repro.workloads import pregenerated
from repro.workloads.nettraffic import generate_traffic_batches, service_name


@dataclass
class Fig7bConfig:
    """Sweep parameters (quick defaults; the paper sweeps 20-100 users)."""

    user_counts: List[int] = field(default_factory=lambda: [20, 40, 60, 80, 100])
    slots: int = 20
    packets_per_user_per_s: float = 25.0
    batch_interval: float = 1.0
    #: Executor cost model calibrated so the 20->100 user ratio lands near the
    #: paper's ~1.8x (fixed job overhead plus per-mirrored-report cost).
    job_overhead: float = 0.5
    per_record_cost: float = 6e-3
    parallelism: int = 4
    seed: int = 11
    #: Catalog-wide knobs.  ``partitions`` > 1 shards the mirrored-packets
    #: topic by flow key and runs one SPE source instance per partition (the
    #: partition-aware ingest plane); 1 keeps the paper's deployment.
    platform: PlatformOverrides = field(default_factory=PlatformOverrides)


@dataclass
class Fig7bResult:
    """Mean Spark execution time per user count, plus the normalized series."""

    mean_runtime_s: Dict[int, float]
    normalized: Dict[int, float]
    input_records: Dict[int, int]

    def normalized_series(self) -> List[float]:
        return [self.normalized[n] for n in sorted(self.normalized)]


def run_single(n_users: int, config: Fig7bConfig) -> Dict[str, float]:
    """One point: broker + one-node Spark cluster + per-switch mirror producer."""
    platform = config.platform
    sim = Simulator(seed=config.seed)
    network = one_big_switch(
        sim,
        ["mirror", "broker", "spark"],
        default_config=LinkConfig(latency_ms=1.0, bandwidth_mbps=1000.0),
    )
    cluster = BrokerCluster(network, coordinator_host="broker", config=ClusterConfig())
    cluster.add_broker("broker")
    cluster.add_topic(
        platform.onto(TopicConfig(name="mirrored-packets", replication_factor=1))
    )
    cluster.start(settle_time=1.0)

    ctx = StreamingContext(
        network.host("spark"),
        config=StreamingConfig(
            batch_interval=config.batch_interval,
            executor=ExecutorConfig(
                parallelism=config.parallelism,
                job_overhead=config.job_overhead,
                per_record_cost=config.per_record_cost,
            ),
        ),
        cluster=cluster,
        name="spark-traffic-monitor",
    )

    def summarize(slot_report: dict) -> dict:
        # One report covers one user's packets for one slot; the packet
        # columns arrive as parallel arrays straight from the workload batch.
        service_ids = slot_report["service_ids"]
        sizes = slot_report["sizes"]
        by_service: Dict[int, list] = {}
        for index, service_id in enumerate(service_ids):
            entry = by_service.get(service_id)
            if entry is None:
                by_service[service_id] = [1, sizes[index]]
            else:
                entry[0] += 1
                entry[1] += sizes[index]
        return {
            service_name(service_id): {
                "packets": entry[0],
                "bytes": entry[1],
                "active_users": 1,
            }
            for service_id, entry in by_service.items()
        }

    consumer_config = platform.onto(ConsumerConfig())
    if platform.partitions > 1:
        # Partition-aware ingest: one source instance per partition, merged
        # deterministically in partition order at each micro-batch boundary.
        shards = list(range(platform.partitions))
        stream = ctx.sharded_kafka_stream(
            "mirrored-packets", partitions=shards, consumer_config=consumer_config
        )
    else:
        stream = ctx.kafka_stream(["mirrored-packets"], consumer_config=consumer_config)
    sink = stream.map(summarize).to_memory(keep_records=False)

    producer = Producer(
        network.host("mirror"),
        bootstrap=["broker"],
        config=platform.onto(ProducerConfig(buffer_memory=64 * 1024 * 1024)),
        name="mirror-producer",
    )
    traffic = pregenerated(
        generate_traffic_batches,
        n_users=n_users,
        duration_s=config.slots,
        packets_per_user_per_s=config.packets_per_user_per_s,
        seed=config.seed,
    )

    def drive():
        yield sim.timeout(5.0)
        producer.start()
        ctx.start()
        for slot in traffic:
            # One mirrored report per user per second (the per-switch sFlow-style
            # export used by the original system), sized by its packet volume.
            # The batch already groups packets by user with byte totals, so no
            # per-packet work happens inside the simulation loop.  With a
            # transactional id, each one-second export slot is one atomic
            # transaction.
            if platform.transactional_id:
                producer.begin_transaction()
            for key, value, size in slot.iter_keyed_reports():
                # The mirror never reads delivery outcomes (an unread send
                # future costs nothing).  Reports are keyed by the user's
                # stable flow id, so sharded topics keep each flow's history
                # ordered on one partition.
                producer.send(
                    ProducerRecord(
                        topic="mirrored-packets",
                        key=key,
                        value=value,
                        size=size,
                    )
                )
            if platform.transactional_id:
                yield from producer.commit_transaction()
            yield sim.timeout(1.0)

    sim.process(drive())
    sim.run(until=10.0 + config.slots + 10.0)
    busy = [metric for metric in ctx.batch_metrics if metric.input_records > 0]
    mean_runtime = (
        sum(metric.processing_time for metric in busy) / len(busy) if busy else 0.0
    )
    total_records = sum(metric.input_records for metric in busy)
    del sink
    return {"mean_runtime": mean_runtime, "input_records": total_records}


def scenario_grid(config: Fig7bConfig) -> Dict[str, dict]:
    """One independent point per swept user count."""
    return {f"users={n}": {"n_users": n} for n in config.user_counts}


def scenario_combine(config: Fig7bConfig, runs: List[tuple]) -> Fig7bResult:
    mean_runtime: Dict[int, float] = {}
    input_records: Dict[int, int] = {}
    for point, outcome in runs:
        mean_runtime[point["n_users"]] = outcome["mean_runtime"]
        input_records[point["n_users"]] = int(outcome["input_records"])
    baseline_users = min(mean_runtime)
    baseline = mean_runtime[baseline_users] or 1.0
    normalized = {n: runtime / baseline for n, runtime in mean_runtime.items()}
    return Fig7bResult(
        mean_runtime_s=mean_runtime, normalized=normalized, input_records=input_records
    )


def run_fig7b(config: Optional[Fig7bConfig] = None, workers: int = 1) -> Fig7bResult:
    """Run the full user-count sweep (across ``workers`` processes if > 1)."""
    return ScenarioRunner(SCENARIO).run_config(config or Fig7bConfig(), workers=workers).result


PAPER_SHAPE = {
    "normalized_at_baseline": 1.0,
    "normalized_at_100_users_min": 1.4,
    "normalized_at_100_users_max": 2.2,
    "monotonic_growth": True,
}


def check_shape(config: Fig7bConfig, result: Fig7bResult) -> List[str]:
    """Check the qualitative Figure 7b shape."""
    problems = []
    counts = sorted(result.normalized)
    series = [result.normalized[n] for n in counts]
    if abs(series[0] - 1.0) > 1e-9:
        problems.append("the smallest user count should normalize to 1.0")
    for earlier, later in zip(series, series[1:]):
        if later < earlier * 0.95:
            problems.append("normalized runtime should not decrease as users grow")
            break
    top = series[-1]
    if not (PAPER_SHAPE["normalized_at_100_users_min"] <= top <= PAPER_SHAPE["normalized_at_100_users_max"]):
        problems.append(
            f"normalized runtime at the largest user count should land near the paper's "
            f"~1.8x (got {top:.2f})"
        )
    return problems


def scenario_metrics(result: Fig7bResult) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for n in sorted(result.normalized):
        metrics[f"normalized_{n}u"] = round(result.normalized[n], 4)
        metrics[f"mean_runtime_{n}u_s"] = round(result.mean_runtime_s[n], 5)
    return metrics


SCENARIO = register(
    Scenario(
        name="fig7b",
        title="Figure 7b — normalized Spark runtime vs concurrent traffic users",
        config_factory=Fig7bConfig,
        run=run_single,
        grid=scenario_grid,
        combine=scenario_combine,
        metrics=scenario_metrics,
        tiers={
            "quick": {"user_counts": [20, 60], "slots": 10},
            "paper": {},  # the module defaults are the paper's 20-100 sweep
        },
        sweep_axis="user_counts",
        check=check_shape,
    )
)
