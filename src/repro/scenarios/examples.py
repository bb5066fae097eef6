"""Scenario definitions for the bundled example applications.

Each of the five ``examples/*.py`` scripts is a thin reporting shim over a
scenario registered here, so every example is also listable and runnable
from the one front door::

    python -m repro run quickstart
    python -m repro run failure-injection --scale quick

The point functions return plain picklable dicts (never live emulation
objects), so the examples inherit process-parallel execution and the
subprocess round-trip guarantees of the scenario API for free.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List

from repro.core.configs import PlatformOverrides
from repro.core.emulation import Emulation
from repro.core.graphml import parse_graphml_string
from repro.experiments import fig5_link_delay, fig6_partition
from repro.experiments.fig5_link_delay import Fig5Config
from repro.experiments.fig6_partition import Fig6Config
from repro.scenarios.spec import PointSpec, Scenario
from repro.scenarios.registry import register
from repro.workloads import pregenerated
from repro.workloads.text import generate_documents


# -- quickstart: the Figure 2 word-count pipeline ---------------------------------


@dataclass
class QuickstartConfig:
    """The paper's reference pipeline at example scale."""

    n_documents: int = 50
    files_per_second: float = 10.0
    link_latency_ms: float = 5.0
    duration: float = 60.0
    seed: int = 42
    #: ``--set partitions=4`` shards the whole pipeline, ``--set
    #: idempotence=true`` / ``--set transactional_id=tx1`` pick the document
    #: source's produce path, ``--set isolation_level=read_committed`` makes
    #: the sink deliver only committed transactions.
    platform: PlatformOverrides = field(default_factory=PlatformOverrides)


def run_quickstart(config: QuickstartConfig) -> Dict[str, Any]:
    from repro.apps.word_count import create_task

    task = create_task(
        n_documents=config.n_documents,
        files_per_second=config.files_per_second,
        link_latency_ms=config.link_latency_ms,
    )
    documents = pregenerated(generate_documents, config.n_documents, seed=config.seed)
    emulation = Emulation(
        task, seed=config.seed, datasets={"documents": documents}, platform=config.platform
    )
    result = emulation.run(duration=config.duration)
    sink = emulation.consumers["h5"]
    samples = []
    for record in sink.records[:3]:
        value = record.value.get("value") if isinstance(record.value, dict) else record.value
        samples.append(
            {
                "doc_id": value.get("doc_id"),
                "total_words": value.get("total_words"),
                "distinct_words": value.get("distinct_words"),
                "latency_s": record.latency,
            }
        )
    spe1 = emulation.spes["h3"]
    return {
        "task_summary": task.summary(),
        "summary": result.summary(),
        "sink_samples": samples,
        "spe_job1": {
            "input_records": spe1.total_input_records(),
            "batches_run": spe1.batches_run,
            "mean_processing_ms": spe1.mean_processing_time() * 1000,
        },
    }


def _quickstart_points(config: QuickstartConfig) -> List[PointSpec]:
    return [PointSpec(fn=run_quickstart, kwargs={"config": config}, label="quickstart")]


def _single_outcome(config: Any, outcomes: List[Any]) -> Any:
    return outcomes[0]


def _quickstart_metrics(result: Dict[str, Any]) -> Dict[str, Any]:
    summary = result["summary"]
    return {
        "messages_produced": summary["messages_produced"],
        "messages_consumed": summary["messages_consumed"],
        "mean_latency_s": round(summary["latency"].get("mean", 0.0), 4),
        "spe1_batches": result["spe_job1"]["batches_run"],
    }


register(
    Scenario(
        name="quickstart",
        title="Quickstart — prototype the word-count pipeline in a few lines",
        config_factory=QuickstartConfig,
        points=_quickstart_points,
        combine=_single_outcome,
        metrics=_quickstart_metrics,
        tiers={
            "quick": {"n_documents": 15, "duration": 30.0},
            "paper": {},
        },
        description="The Figure 2 reference pipeline, run end to end.",
    )
)


# -- graphml-task: the paper's Figure 4 GraphML listing ---------------------------

GRAPHML_TASK = """<?xml version="1.0" encoding="UTF-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <graph edgedefault="undirected">
    <data key="topicCfg">{topics: [
        {name: raw-data, replicas: 1, primaryBroker: h2},
        {name: words-per-doc, replicas: 1, primaryBroker: h2}]}</data>

    <!-- Cluster allocation -->
    <node id="h1">
      <data key="prodType">DIRECTORY</data>
      <data key="prodCfg">{topicName: raw-data, filePath: documents,
                           totalMessages: 30, messagesPerSecond: 6}</data>
    </node>
    <node id="h2">
      <data key="brokerCfg">{coordinator: true}</data>
    </node>
    <node id="h3">
      <data key="streamProcType">SPARK</data>
      <data key="streamProcCfg">{app: word_count, inputTopics: [raw-data],
                                 outputTopic: words-per-doc, batchInterval: 0.5}</data>
    </node>
    <node id="h5">
      <data key="consType">STANDARD</data>
      <data key="consCfg">{topics: [words-per-doc]}</data>
    </node>

    <!-- Network setup -->
    <node id="s1"/>
    <edge source="s1" target="h1"><data key="st">1</data><data key="dt">1</data><data key="lat">50</data></edge>
    <edge source="s1" target="h2"><data key="lat">5</data><data key="bw">100</data></edge>
    <edge source="s1" target="h3"><data key="lat">5</data><data key="bw">100</data></edge>
    <edge source="s1" target="h5"><data key="lat">5</data><data key="bw">100</data></edge>
  </graph>
</graphml>
"""


@dataclass
class GraphmlTaskConfig:
    """Run the Figure 4 GraphML task description."""

    n_documents: int = 30
    duration: float = 45.0
    seed: int = 7
    #: A set knob overrides every topic / ``prodCfg`` / ``consCfg`` of the
    #: listing; left alone, whatever the listing declares inline stands.
    platform: PlatformOverrides = field(default_factory=PlatformOverrides)


def run_graphml_task(config: GraphmlTaskConfig) -> Dict[str, Any]:
    task = parse_graphml_string(GRAPHML_TASK, name="figure4-example")
    problems = task.validate()
    documents = pregenerated(generate_documents, config.n_documents, seed=config.seed)
    emulation = Emulation(
        task, seed=config.seed, datasets={"documents": documents}, platform=config.platform
    )
    result = emulation.run(duration=config.duration)
    sink = emulation.consumers["h5"]
    samples = []
    for record in sink.records[:5]:
        value = record.value.get("value") if isinstance(record.value, dict) else record.value
        samples.append(
            {"doc_id": value.get("doc_id"), "distinct_words": value.get("distinct_words")}
        )
    return {
        "validation_problems": problems,
        "task_summary": task.summary(),
        "messages_produced": result.messages_produced,
        "messages_consumed": result.messages_consumed,
        "mean_latency_s": result.latency_summary["mean"],
        "sink_samples": samples,
    }


def _graphml_points(config: GraphmlTaskConfig) -> List[PointSpec]:
    return [PointSpec(fn=run_graphml_task, kwargs={"config": config}, label="graphml")]


def _graphml_metrics(result: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "messages_produced": result["messages_produced"],
        "messages_consumed": result["messages_consumed"],
        "mean_latency_s": round(result["mean_latency_s"], 4),
    }


def _graphml_check(config: GraphmlTaskConfig, result: Dict[str, Any]) -> List[str]:
    return list(result["validation_problems"])


register(
    Scenario(
        name="graphml-task",
        title="GraphML task — the paper's Figure 4 description, parsed and run",
        config_factory=GraphmlTaskConfig,
        points=_graphml_points,
        combine=_single_outcome,
        metrics=_graphml_metrics,
        tiers={
            "quick": {"n_documents": 10, "duration": 25.0},
            "paper": {},
        },
        check=_graphml_check,
        description="Parse the Figure 4 GraphML listing, validate it and run it.",
    )
)


# -- failure-injection / geo-latency: fig6 / fig5 at example scale -----------------
# The same studies under another name and default size; the tiers are the
# figures' own (geo-latency's paper tier also restores the full delay grid
# that its default config trims to three points).

register(
    dataclasses.replace(
        fig6_partition.SCENARIO,
        name="failure-injection",
        title="Failure injection — broker partition, ZooKeeper vs KRaft loss",
        config_factory=partial(
            Fig6Config, n_sites=5, duration=240.0, disconnect_start=80.0, disconnect_duration=50.0
        ),
    )
)
register(
    dataclasses.replace(
        fig5_link_delay.SCENARIO,
        name="geo-latency",
        title="Geo-distributed latency — which component's WAN delay hurts most",
        config_factory=partial(
            Fig5Config, link_delays_ms=[25, 75, 150], n_documents=25, duration=50.0
        ),
        tiers={
            **fig5_link_delay.SCENARIO.tiers,
            "paper": {
                **fig5_link_delay.SCENARIO.tiers["paper"],
                "link_delays_ms": [25, 50, 75, 100, 125, 150],
            },
        },
    )
)


# -- fraud-pipeline: streaming fraud detection with an SVM ------------------------


@dataclass
class FraudPipelineConfig:
    """The Table II fraud-detection pipeline at example scale."""

    n_transactions: int = 300
    duration: float = 60.0
    fraud_rate: float = 0.1
    transactions_per_second: float = 30.0
    seed: int = 13
    #: Catalog-wide knobs (transactions are keyed by account id, so sharded
    #: topics keep one account's history ordered).
    platform: PlatformOverrides = field(default_factory=PlatformOverrides)


def run_fraud_pipeline(config: FraudPipelineConfig) -> Dict[str, Any]:
    from repro.apps.fraud_detection import run as run_fraud_detection

    result = run_fraud_detection(
        n_transactions=config.n_transactions,
        duration=config.duration,
        seed=config.seed,
        fraud_rate=config.fraud_rate,
        transactions_per_second=config.transactions_per_second,
        platform=config.platform,
    )
    alerts = result.extras["alerts"]
    true_positives = result.extras["true_positive_alerts"]
    frauds = result.extras["actual_frauds_in_stream"]
    return {
        "transactions_produced": result.messages_produced,
        "alerts": alerts,
        "true_positive_alerts": true_positives,
        "actual_frauds_in_stream": frauds,
        "recall": true_positives / frauds if frauds else 0.0,
        "precision": true_positives / alerts if alerts else 0.0,
        "mean_alert_latency_s": result.latency_summary["mean"],
        "median_cpu_percent": result.resource_report.median_cpu(),
    }


def _fraud_points(config: FraudPipelineConfig) -> List[PointSpec]:
    return [PointSpec(fn=run_fraud_pipeline, kwargs={"config": config}, label="fraud")]


def _fraud_metrics(result: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "transactions_produced": result["transactions_produced"],
        "alerts": result["alerts"],
        "recall": round(result["recall"], 3),
        "precision": round(result["precision"], 3),
        "mean_alert_latency_s": round(result["mean_alert_latency_s"], 4),
    }


register(
    Scenario(
        name="fraud-pipeline",
        title="Fraud detection — SVM-scored transaction stream with alerts",
        config_factory=FraudPipelineConfig,
        points=_fraud_points,
        combine=_single_outcome,
        metrics=_fraud_metrics,
        tiers={
            "quick": {"n_transactions": 80, "duration": 30.0},
            "paper": {},
        },
        description="The Table II fraud-detection pipeline with alert quality.",
    )
)
