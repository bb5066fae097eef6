"""Figure 6: behaviour of a replicated event streaming deployment under a partition.

Scenario (Figure 6a): ``n_sites`` coordinating sites are connected in a star.
Every site hosts a message broker, a data producer that randomly injects data
into two topics at 30 Kbps, and a consumer subscribed to both topics.  The
node hosting the leader broker of topic A is disconnected for a while
(roughly 20% of the experiment).

Reproduced artefacts:

* Figure 6b — the delivery matrix of the producer co-located with the
  disconnected broker: in ZooKeeper mode, messages produced to topic A during
  the disconnection are acknowledged locally but silently lost; topic B
  messages are delayed, not lost.  KRaft mode shows no silent loss.
* Figure 6c — per-message latency at a consumer, ordered by arrival: two
  latency spikes, one per topic.
* Figure 6d — sending throughput of the relevant hosts over time, showing
  the leader disconnection, the new-leader election/backlog commit, backlog
  serving to consumers, and the preferred-leader re-election.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.broker.cluster import ClusterConfig
from repro.broker.coordinator import CoordinationMode
from repro.core.configs import PlatformOverrides, TopicConfig
from repro.core.emulation import Emulation
from repro.core.task import TaskDescription
from repro.core.visualization import (
    DeliveryMatrix,
    LatencyPoint,
    delivery_matrix,
    latency_by_arrival,
    latency_spikes,
    throughput_timeseries,
)
from repro.network.faults import Fault
from repro.scenarios import Scenario, ScenarioRunner, register
from repro.testing.history import History, Reader, acked_delivered

TOPIC_A = "topicA"
TOPIC_B = "topicB"


@dataclass
class Fig6Config:
    """Scenario parameters (quick defaults; the paper runs 10 sites / 600 s).

    The catalog-wide knobs live on ``platform`` (``--set partitions=3``,
    ``--set segment_records=256``, ...).  With several partitions the pinned
    preferred leader keeps partition 0 of topic A on the disconnected site
    and the fault triggers one election per partition that site led;
    idempotence dedups retries, not the ZooKeeper-mode truncation loss.
    """

    n_sites: int = 6
    replication_factor: int = 3
    rate_kbps: float = 30.0
    message_size: int = 512
    duration: float = 300.0
    disconnect_start: float = 90.0
    disconnect_duration: float = 60.0
    mode: CoordinationMode = CoordinationMode.ZOOKEEPER
    acks: object = 1
    session_timeout: float = 9.0
    preferred_election_interval: float = 20.0
    seed: int = 3
    #: Site index (1-based) whose broker leads topic A and gets disconnected.
    leader_site_index: int = 3
    platform: PlatformOverrides = field(default_factory=PlatformOverrides)


@dataclass
class Fig6Result:
    """All the data behind Figures 6b, 6c and 6d plus summary counters."""

    mode: str
    delivery: DeliveryMatrix
    latency_points: List[LatencyPoint]
    throughput: Dict[str, List[tuple]]
    events: List[dict]
    acked_but_lost: int
    lost_topic_breakdown: Dict[str, int]
    messages_produced: int
    messages_consumed: int
    disconnect_window: tuple
    #: Storage-plane aggregates (all zero unless segmentation was enabled).
    storage: Dict[str, int] = field(default_factory=dict)

    def loss_only_on_topic_a(self) -> bool:
        other = {
            topic: count
            for topic, count in self.lost_topic_breakdown.items()
            if topic != TOPIC_A and count > 0
        }
        return not other

    def latency_spike_topics(self, threshold: float = 5.0) -> List[str]:
        return sorted(latency_spikes(self.latency_points, threshold))

    def election_times(self) -> List[float]:
        return [
            event["time"]
            for event in self.events
            if event.get("event") == "leader-elected"
        ]


def sites_task(
    n_sites: int,
    replication_factor: int,
    producer: Dict[str, object],
    keep_payloads: bool,
    leader_site_index: Optional[int] = None,
    disconnect: Optional[Tuple[float, float]] = None,
) -> TaskDescription:
    """The Figure 6a deployment as a task description.

    ``n_sites`` sites around one core switch, each hosting a broker, a
    ``RANDOM_RATE`` producer over both topics (``producer`` holds its other
    ``prodCfg`` entries) and a ``STANDARD`` consumer of both.  With
    ``leader_site_index`` (1-based) that site leads topic A and the next one
    topic B, the first other site coordinates, and ``disconnect=(start,
    duration)`` cuts the leader site off; without it (Figure 9) the first site
    coordinates and leaders fall where the cluster assigns them.
    """
    sites = [f"site{index}" for index in range(1, n_sites + 1)]
    leaders = (None, None)
    if leader_site_index is not None:
        leaders = (sites[leader_site_index - 1], sites[leader_site_index % n_sites])
    coordinator = next(site for site in sites if site != leaders[0])
    topics = [TOPIC_A, TOPIC_B]
    task = TaskDescription(name="fig6a-sites")
    task.add_switch("s0")
    for site in sites:
        task.add_node(
            site,
            brokerCfg={"coordinator": site == coordinator},
            prodType="RANDOM_RATE",
            prodCfg={"name": f"prod-{site}", "topics": topics, **producer},
            consType="STANDARD",
            consCfg={
                "name": f"cons-{site}",
                "topics": topics,
                "pollInterval": 0.1,
                "keepPayloads": keep_payloads,
            },
        )
        task.add_link(site, "s0", lat=2.0, bw=100.0)
    task.set_topics(
        [
            TopicConfig(topic, replication_factor=replication_factor, preferred_leader=leader)
            for topic, leader in zip(topics, leaders)
        ]
    )
    if disconnect is not None:
        start, duration = disconnect
        task.set_faults([Fault("node_disconnect", [leaders[0]], start=start, duration=duration)])
    return task


def run_fig6(config: Optional[Fig6Config] = None) -> Fig6Result:
    """Run the Figure 6 scenario and collect all three sub-figures' data."""
    config = config or Fig6Config()
    task = sites_task(
        config.n_sites,
        config.replication_factor,
        producer={
            "messageSize": config.message_size,
            "rateKbps": config.rate_kbps,
            "acks": config.acks,
            "deliveryTimeout": config.duration,
            "requestTimeout": 1.0,
        },
        keep_payloads=True,
        leader_site_index=config.leader_site_index,
        disconnect=(config.disconnect_start, config.disconnect_duration),
    )
    emulation = Emulation(
        task,
        seed=config.seed,
        cluster_config=ClusterConfig(
            mode=config.mode,
            session_timeout=config.session_timeout,
            preferred_election_interval=config.preferred_election_interval,
        ),
        platform=config.platform,
    )
    outcome = emulation.run(duration=config.duration, settle_time=3.0, client_start=10.0)
    network, cluster = emulation.network, emulation.cluster
    producers = {site: stub.producer for site, stub in emulation.producers.items()}
    consumers = {site: stub.consumer for site, stub in emulation.consumers.items()}

    leader_site, other_leader = (topic.preferred_leader for topic in task.topics)
    coordinator_site = cluster.coordinator.host.name
    observer = next(consumers[site] for site in consumers if site != leader_site)

    matrix = delivery_matrix(producers[leader_site], list(consumers.values()), topic=None)
    points = latency_by_arrival(observer, topics=[TOPIC_A, TOPIC_B])
    throughput = {}
    for site in (leader_site, other_leader, coordinator_site):
        series = network.bandwidth_monitor.series_for(site)
        throughput[site] = throughput_timeseries(series) if series else []

    # "Acked but lost" is the history rule ``acked_delivered``: records the
    # producers believe were delivered (they got an acknowledgement) that no
    # consumer ever received.  Records acked close to the end of the run are
    # not judged — consumers may simply not have fetched them yet, which is a
    # measurement artefact, not data loss.  The history is a view: the rule
    # walks the reports and the consumers' lists in place, and a stub's keys
    # (``host:sequence``) are unique across topics, so the key is the identity.
    tail_margin = 20.0
    lost = acked_delivered(
        History(
            list(producers.values()),
            [Reader.of(consumer) for consumer in consumers.values()],
            ident=lambda record: record.key,
            ack_cutoff=config.duration - tail_margin,
        )
    )
    lost_breakdown: Dict[str, int] = {TOPIC_A: 0, TOPIC_B: 0}
    for violation in lost:
        lost_breakdown[violation.topic] = lost_breakdown.get(violation.topic, 0) + 1

    return Fig6Result(
        mode=CoordinationMode(config.mode).value,
        delivery=matrix,
        latency_points=points,
        throughput=throughput,
        events=list(cluster.coordinator.event_log),
        acked_but_lost=len(lost),
        lost_topic_breakdown=lost_breakdown,
        messages_produced=outcome.messages_produced,
        messages_consumed=outcome.messages_consumed,
        disconnect_window=(
            config.disconnect_start,
            config.disconnect_start + config.disconnect_duration,
        ),
        storage={
            "segments_sealed": cluster.total_segments_sealed(),
            "segments_evicted": cluster.total_segments_evicted(),
            "retention_records_dropped": cluster.total_retention_records_dropped(),
            "compaction_records_removed": cluster.total_compaction_records_removed(),
        },
    )


def scenario_grid(config: Fig6Config) -> Dict[str, dict]:
    """Both coordination modes of the paper's comparison, config's own mode first.

    The configured ``mode``/``acks`` are honored verbatim for the primary
    arm (so ``--set mode=... --set acks=...`` is never silently discarded);
    the counterpart arm uses the paper's setting for the *other* mode
    (ZooKeeper with acks=1, KRaft with acks="all").  Each arm brings its own
    config.
    """
    primary = CoordinationMode(config.mode)
    if primary is CoordinationMode.ZOOKEEPER:
        other = (CoordinationMode.KRAFT, "all")
    else:
        other = (CoordinationMode.ZOOKEEPER, 1)
    return {
        mode.value: {"config": dataclasses.replace(config, mode=mode, acks=acks)}
        for mode, acks in [(primary, config.acks), other]
    }


def scenario_combine(config: Fig6Config, runs: List[tuple]) -> Dict[str, Fig6Result]:
    return {outcome.mode: outcome for _point, outcome in runs}


def run_mode_comparison(
    config: Optional[Fig6Config] = None, workers: int = 1
) -> Dict[str, Fig6Result]:
    """Run the scenario in both coordination modes (the paper's ZK vs Raft finding)."""
    return ScenarioRunner(SCENARIO).run_config(config or Fig6Config(), workers=workers).result


PAPER_SHAPE = {
    "zookeeper_loses_messages": True,
    "losses_only_from_partitioned_topic": True,
    "kraft_loses_messages": False,
    "latency_spikes_per_topic": 2,
    "throughput_events": ["leader-disconnection", "election", "backlog-serving", "preferred-reelection"],
}


def check_shape(config: Fig6Config, results: Dict[str, Fig6Result]) -> List[str]:
    """Check the qualitative Figure 6 findings on a ZK/KRaft result pair."""
    problems = []
    zk = results.get("zookeeper")
    kraft = results.get("kraft")
    if zk is not None:
        if zk.acked_but_lost == 0:
            problems.append("ZooKeeper mode should silently lose some acknowledged records")
        if not zk.loss_only_on_topic_a():
            problems.append("losses should come only from the partitioned topic (topic A)")
        if not zk.election_times():
            problems.append("a new leader election should have happened")
    if kraft is not None and kraft.acked_but_lost > 0:
        problems.append("KRaft mode must not silently lose acknowledged records")
    return problems


def scenario_metrics(results: Dict[str, Fig6Result]) -> Dict[str, object]:
    metrics: Dict[str, object] = {}
    for mode, result in results.items():
        metrics[f"{mode}_produced"] = result.messages_produced
        metrics[f"{mode}_consumed"] = result.messages_consumed
        metrics[f"{mode}_acked_but_lost"] = result.acked_but_lost
        metrics[f"{mode}_elections"] = len(result.election_times())
        # Storage-plane counters only when the run actually exercised the
        # segmented log (zero-noise metrics stay out of RunResult.metrics).
        for name, value in result.storage.items():
            if value:
                metrics[f"{mode}_{name}"] = value
    return metrics


SCENARIO = register(
    Scenario(
        name="fig6",
        title="Figure 6 — replicated deployment under a partition (ZK vs KRaft)",
        config_factory=Fig6Config,
        run=run_fig6,
        grid=scenario_grid,
        combine=scenario_combine,
        metrics=scenario_metrics,
        tiers={
            "quick": {
                "n_sites": 4,
                "duration": 150.0,
                "disconnect_start": 50.0,
                "disconnect_duration": 35.0,
            },
            "paper": {
                "n_sites": 10,
                "duration": 600.0,
                "disconnect_start": 180.0,
                "disconnect_duration": 120.0,
            },
        },
        sweep_axis="n_sites",
        check=check_shape,
    )
)
