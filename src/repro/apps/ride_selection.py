"""Ride selection: best tipping areas from a structured taxi-ride stream.

Pipeline (5 components): a ride-info producer and a tip producer feed two
topics; one stream processing job joins the two streams on the ride id,
groups the joined records by pickup area over a sliding window, and keeps a
running ranking of areas by average tip (stateful processing); a standard
data sink consumes the ranking topic; a single broker moves all the data.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.configs import PlatformOverrides, TopicSpec
from repro.core.emulation import Emulation, EmulationResult
from repro.core.registry import register_app
from repro.core.task import TaskDescription
from repro.workloads.rides import generate_rides

RIDES_TOPIC = "ride-info"
TIPS_TOPIC = "ride-tips"
RANKING_TOPIC = "tipping-areas"


def build_ride_selection(ctx, config, emulation) -> None:
    """Join rides with tips, window by area, rank areas by average tip."""
    rides_topic = config.options.get("ridesTopic", RIDES_TOPIC)
    tips_topic = config.options.get("tipsTopic", TIPS_TOPIC)
    output_topic = config.output_topic or RANKING_TOPIC
    window_s = float(config.options.get("windowSeconds", 30.0))

    rides = ctx.kafka_stream([rides_topic]).map_pairs(
        lambda ride: (ride["ride_id"], ride)
    )
    tips = ctx.kafka_stream([tips_topic]).map_pairs(
        lambda tip: (tip["ride_id"], tip["tip"])
    )

    def update_area_stats(new_values, previous):
        state = previous or {"rides": 0, "tip_total": 0.0}
        for ride, tip in new_values:
            state = {
                "rides": state["rides"] + 1,
                "tip_total": state["tip_total"] + tip,
            }
        state["avg_tip"] = state["tip_total"] / max(1, state["rides"])
        return state

    (
        rides.join(tips)
        .window(window_s)
        .map_pairs(lambda joined: (joined[0]["area"], joined))
        .update_state_by_key(update_area_stats)
        .to_kafka(output_topic)
    )


register_app("ride_selection", build_ride_selection)


def split_rides(rides: List[Dict]) -> Tuple[List[Dict], List[Dict]]:
    """Split full ride records into the ride-info and tip streams."""
    info = [
        {key: value for key, value in ride.items() if key != "tip"} for ride in rides
    ]
    tips = [{"ride_id": ride["ride_id"], "tip": ride["tip"]} for ride in rides]
    return info, tips


def create_task(
    n_rides: int = 200,
    rides_per_second: float = 20.0,
    link_latency_ms: float = 5.0,
    batch_interval: float = 0.5,
    window_seconds: float = 30.0,
) -> TaskDescription:
    """Build the ride-selection task description (5 components)."""
    task = TaskDescription(name="ride-selection")
    task.add_node(
        "h1",
        prodType="SFST",
        prodCfg={
            "topicName": RIDES_TOPIC,
            "filePath": "ride-info",
            "totalMessages": n_rides,
            "messagesPerSecond": rides_per_second,
        },
    )
    task.add_node(
        "h2",
        prodType="SFST",
        prodCfg={
            "topicName": TIPS_TOPIC,
            "filePath": "ride-tips",
            "totalMessages": n_rides,
            "messagesPerSecond": rides_per_second,
        },
    )
    task.add_node("h3", brokerCfg={"coordinator": True})
    task.add_node(
        "h4",
        streamProcType="SPARK",
        streamProcCfg={
            "app": "ride_selection",
            "inputTopics": [RIDES_TOPIC],
            "outputTopic": RANKING_TOPIC,
            "batchInterval": batch_interval,
            "ridesTopic": RIDES_TOPIC,
            "tipsTopic": TIPS_TOPIC,
            "windowSeconds": window_seconds,
        },
    )
    task.add_node("h5", consType="STANDARD", consCfg={"topics": [RANKING_TOPIC]})
    task.add_switch("s1")
    for host in ("h1", "h2", "h3", "h4", "h5"):
        task.add_link(host, "s1", lat=link_latency_ms, bw=100.0)
    task.set_topics(
        [
            TopicSpec(name=RIDES_TOPIC, primary_broker="h3"),
            TopicSpec(name=TIPS_TOPIC, primary_broker="h3"),
            TopicSpec(name=RANKING_TOPIC, primary_broker="h3"),
        ]
    )
    return task


def run(
    n_rides: int = 200,
    duration: float = 60.0,
    seed: int = 0,
    platform: Optional[PlatformOverrides] = None,
    **task_kwargs,
) -> EmulationResult:
    """Build and run the ride-selection pipeline end to end."""
    task = create_task(n_rides=n_rides, **task_kwargs)
    rides = generate_rides(n_rides, seed=seed)
    info, tips = split_rides(rides)
    emulation = Emulation(
        task, seed=seed, datasets={"ride-info": info, "ride-tips": tips}, platform=platform
    )
    result = emulation.run(duration=duration)
    sink = emulation.consumers.get("h5")
    if sink is not None and sink.records:
        latest: Dict[str, Dict] = {}
        for record in sink.records:
            payload = record.value
            value = payload.get("value") if isinstance(payload, dict) else None
            if value is not None:
                latest[record.key] = value
        ranking = sorted(
            latest.items(), key=lambda item: item[1].get("avg_tip", 0.0), reverse=True
        )
        result.extras["area_ranking"] = ranking
    return result
