"""Ablation benchmarks for the design choices called out in DESIGN.md.

These are not paper figures; they quantify how the reproduction's own design
knobs affect behaviour, which is useful both as regression benchmarks and as
evidence that the substrates behave like their real counterparts.
"""

from repro.broker import (
    BrokerCluster,
    ClusterConfig,
    ProducerConfig,
    ProducerRecord,
    TopicConfig,
)
from repro.network.link import LinkConfig
from repro.network.topology import star_topology
from repro.simulation import Simulator
from benchmarks.conftest import report


def _run_cluster_workload(acks, replication, n_messages=60, latency_ms=5.0):
    """Produce a burst of messages and report mean commit latency."""
    sim = Simulator(seed=9)
    network, sites = star_topology(
        sim, 3, link_config=LinkConfig(latency_ms=latency_ms, bandwidth_mbps=100.0)
    )
    cluster = BrokerCluster(network, coordinator_host=sites[0], config=ClusterConfig())
    for site in sites:
        cluster.add_broker(site)
    cluster.add_topic(TopicConfig(name="bench", replication_factor=replication))
    cluster.start(settle_time=2.0)
    producer = cluster.create_producer(
        sites[1], config=ProducerConfig(acks=acks, request_timeout=5.0)
    )
    consumer = cluster.create_consumer(sites[2])
    consumer.subscribe(["bench"])

    def workload():
        yield sim.timeout(10.0)
        producer.start()
        consumer.start()
        for index in range(n_messages):
            producer.send(ProducerRecord(topic="bench", key=index, value=index, size=256))
            yield sim.timeout(0.2)

    sim.process(workload())
    sim.run(until=60.0)
    commit_latencies = [
        report_.acknowledged_at - report_.enqueued_at
        for report_ in producer.reports
        if report_.acknowledged
    ]
    delivery_latencies = consumer.latencies("bench")
    mean = lambda values: sum(values) / len(values) if values else float("nan")  # noqa: E731
    return {
        "acked": len(commit_latencies),
        "mean_commit_latency_s": mean(commit_latencies),
        "mean_delivery_latency_s": mean(delivery_latencies),
    }


def test_bench_ablation_acks_and_replication(run_once):
    """acks=all with more replicas costs commit latency but not delivery correctness."""

    def run_all():
        return {
            ("acks=1", 1): _run_cluster_workload(1, 1),
            ("acks=1", 3): _run_cluster_workload(1, 3),
            ("acks=all", 3): _run_cluster_workload("all", 3),
        }

    results = run_once(run_all)
    report(
        "Ablation: acknowledgement level and replication factor",
        [
            {"acks": key[0], "replication": key[1], **value}
            for key, value in results.items()
        ],
    )
    assert results[("acks=all", 3)]["mean_commit_latency_s"] >= results[("acks=1", 1)][
        "mean_commit_latency_s"
    ]
    assert all(value["acked"] > 0 for value in results.values())


def test_bench_ablation_batch_interval(run_once):
    """Smaller micro-batch intervals reduce SPE-stage latency (at more overhead)."""
    from repro.apps.word_count import create_task
    from repro.core.emulation import Emulation
    from repro.experiments.fig5_link_delay import end_to_end_latencies
    from repro.workloads.text import generate_documents

    def run_one(batch_interval):
        task = create_task(
            n_documents=20, files_per_second=5.0, batch_interval=batch_interval
        )
        emulation = Emulation(
            task, seed=7, datasets={"documents": generate_documents(20, seed=7)}
        )
        emulation.run(duration=40.0)
        latencies = end_to_end_latencies(emulation)
        return sum(latencies) / len(latencies) if latencies else float("nan")

    def run_all():
        return {interval: run_one(interval) for interval in (0.25, 1.0, 2.0)}

    results = run_once(run_all)
    report(
        "Ablation: micro-batch interval vs end-to-end latency",
        [
            {"batch_interval_s": interval, "mean_e2e_latency_s": value}
            for interval, value in sorted(results.items())
        ],
    )
    assert results[0.25] < results[2.0]


def test_bench_ablation_routing_under_failure(run_once):
    """Shortest-path re-routing restores connectivity faster than spanning-tree rebuilds."""
    from repro.network.network import Network
    from repro.network.topology import TopologyBuilder

    def run_one(routing):
        sim = Simulator(seed=11)
        builder = TopologyBuilder()
        for name in ("s1", "s2", "s3"):
            builder.add_switch(name)
        builder.add_host("a").add_host("b")
        cfg = LinkConfig(latency_ms=2.0)
        builder.add_link("a", "s1", cfg).add_link("b", "s2", cfg)
        builder.add_link("s1", "s2", cfg).add_link("s2", "s3", cfg).add_link("s1", "s3", cfg)
        network = builder.build(sim, routing=routing)
        network.start(monitor=False)
        delivered = []
        network.host("b").bind(5, lambda pkt: delivered.append(sim.now))

        def scenario():
            network.host("a").send("b", "x", size=50, dst_port=5)
            yield sim.timeout(1.0)
            network.link_between("s1", "s2").set_down()
            network.controller.handle_topology_change()
            network.host("a").send("b", "y", size=50, dst_port=5)

        sim.process(scenario())
        sim.run()
        return {"delivered": len(delivered), "recomputations": network.controller.recomputations}

    def run_all():
        return {routing: run_one(routing) for routing in ("shortest-path", "spanning-tree")}

    results = run_once(run_all)
    report(
        "Ablation: routing algorithm under an inter-switch failure",
        [{"routing": routing, **value} for routing, value in results.items()],
    )
    assert results["shortest-path"]["delivered"] == 2
    assert results["spanning-tree"]["delivered"] == 2
