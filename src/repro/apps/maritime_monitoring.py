"""Maritime monitoring: ships heading to watched ports, persisted externally.

Pipeline (4 components): an AIS producer feeds ship position reports into the
``ais-reports`` topic, a broker transports them, a stream processing job
counts — per time window — the distinct ships heading to each watched port,
and writes the per-port counts into an external data store (the MySQL
substitute), which is the application's persistent-storage feature.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.configs import PlatformOverrides, TopicConfig
from repro.core.emulation import Emulation, EmulationResult
from repro.core.registry import register_app
from repro.core.task import TaskDescription
from repro.engine.sinks import StoreSink
from repro.store.server import StoreClient
from repro.workloads.ais import PORTS, generate_ais_messages

AIS_TOPIC = "ais-reports"
RESULTS_TABLE = "ships-per-port"


def build_maritime_monitoring(ctx, config, emulation) -> None:
    """Windowed count of distinct ships heading to each watched port."""
    input_topics = config.input_topics or [AIS_TOPIC]
    window_s = float(config.options.get("windowSeconds", 20.0))
    watched = config.options.get("watchedPorts") or list(PORTS)
    store_node = config.options.get("storeNode")
    if store_node is None:
        raise ValueError("maritime monitoring requires a storeNode option")

    client = StoreClient(ctx.host, store_host=store_node)

    def count_ships(values: List[Dict]) -> Dict:
        ships = {report["mmsi"] for report in values}
        return {"ships": len(ships), "mmsis": sorted(ships)[:50]}

    (
        ctx.kafka_stream(input_topics)
        .filter(lambda report: report["destination"] in watched)
        .window(window_s)
        .map_pairs(lambda report: (report["destination"], report))
        .group_by_key()
        .map(count_ships)
        .to(StoreSink(client, table=RESULTS_TABLE))
    )


register_app("maritime_monitoring", build_maritime_monitoring)


def create_task(
    n_messages: int = 400,
    messages_per_second: float = 40.0,
    link_latency_ms: float = 5.0,
    batch_interval: float = 0.5,
    window_seconds: float = 20.0,
    watched_ports: Optional[List[str]] = None,
) -> TaskDescription:
    """Build the maritime-monitoring task description (4 components)."""
    watched = watched_ports or ["halifax", "boston"]
    task = TaskDescription(name="maritime-monitoring")
    task.add_node(
        "h1",
        prodType="SFST",
        prodCfg={
            "topicName": AIS_TOPIC,
            "filePath": "ais",
            "totalMessages": n_messages,
            "messagesPerSecond": messages_per_second,
        },
    )
    task.add_node("h2", brokerCfg={"coordinator": True})
    task.add_node(
        "h3",
        streamProcType="SPARK",
        streamProcCfg={
            "app": "maritime_monitoring",
            "inputTopics": [AIS_TOPIC],
            "batchInterval": batch_interval,
            "windowSeconds": window_seconds,
            "watchedPorts": watched,
            "storeNode": "h4",
        },
    )
    task.add_node("h4", storeType="MYSQL", storeCfg={"tables": [RESULTS_TABLE]})
    task.add_switch("s1")
    for host in ("h1", "h2", "h3", "h4"):
        task.add_link(host, "s1", lat=link_latency_ms, bw=100.0)
    task.set_topics([TopicConfig(name=AIS_TOPIC, preferred_leader="h2")])
    return task


def run(
    n_messages: int = 400,
    duration: float = 60.0,
    seed: int = 0,
    platform: Optional[PlatformOverrides] = None,
    **task_kwargs,
) -> EmulationResult:
    """Build and run the maritime-monitoring pipeline end to end."""
    task = create_task(n_messages=n_messages, **task_kwargs)
    reports = generate_ais_messages(n_messages, seed=seed)
    emulation = Emulation(task, seed=seed, datasets={"ais": reports}, platform=platform)
    result = emulation.run(duration=duration)
    store = emulation.stores.get("h4")
    if store is not None:
        rows = store.tables.select(RESULTS_TABLE)
        result.extras["ships_per_port"] = {
            row.key: row.get("ships", row.get("value")) for row in rows
        }
        result.extras["store_operations"] = store.operations_served
    return result
