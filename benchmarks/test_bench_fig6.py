"""Figure 6 benchmark: network partitioning in a replicated streaming deployment."""

from repro.broker.coordinator import CoordinationMode
from repro.experiments.fig6_partition import (
    Fig6Config,
    check_shape,
    run_fig6,
)
from benchmarks.conftest import report


def _config(mode, acks):
    return Fig6Config(
        n_sites=5,
        duration=240.0,
        disconnect_start=80.0,
        disconnect_duration=50.0,
        mode=mode,
        acks=acks,
    )


def test_bench_fig6_partition(run_once):
    def run_both():
        return {
            "zookeeper": run_fig6(_config(CoordinationMode.ZOOKEEPER, 1)),
            "kraft": run_fig6(_config(CoordinationMode.KRAFT, "all")),
        }

    results = run_once(run_both)
    zk = results["zookeeper"]
    kraft = results["kraft"]

    report(
        "Figure 6b: delivery of the co-located producer's messages (ZooKeeper mode)",
        [
            {
                "consumer": consumer,
                "delivery_rate": zk.delivery.delivery_rate(consumer),
                "lost_messages": len(zk.delivery.lost_indices(consumer)),
            }
            for consumer in sorted(zk.delivery.matrix)
        ],
    )
    print(zk.delivery.render_text())

    spikes = zk.latency_spike_topics(threshold=5.0)
    report(
        "Figure 6c: latency spikes per topic (messages above 5 s)",
        [{"topics_with_spikes": ", ".join(spikes), "total_points": len(zk.latency_points)}],
    )
    report(
        "Figure 6d: events of interest",
        [
            {"event": "disconnect_window", "value": str(zk.disconnect_window)},
            {"event": "leader_elections_at", "value": str(zk.election_times())},
        ],
    )
    report(
        "Figure 6: ZooKeeper vs Raft-based coordination",
        [
            {
                "mode": "zookeeper",
                "acked_but_lost": zk.acked_but_lost,
                "lost_topicA": zk.lost_topic_breakdown.get("topicA", 0),
                "lost_topicB": zk.lost_topic_breakdown.get("topicB", 0),
            },
            {
                "mode": "kraft",
                "acked_but_lost": kraft.acked_but_lost,
                "lost_topicA": kraft.lost_topic_breakdown.get("topicA", 0),
                "lost_topicB": kraft.lost_topic_breakdown.get("topicB", 0),
            },
        ],
    )
    problems = check_shape(_config(CoordinationMode.ZOOKEEPER, 1), results)
    assert problems == [], problems
