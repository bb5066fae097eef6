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

from dataclasses import dataclass
from typing import Any, Dict, List

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
    #: Partitions per topic (``--set partitions=4`` shards the whole pipeline).
    partitions: int = 1
    #: Exactly-once produce path (``--set idempotence=true``): the document
    #: source carries sequence numbers and brokers drop duplicate retries.
    idempotence: bool = False
    #: Transactional produce path (``--set transactional_id=tx1``): the
    #: document source commits atomic batches; implies idempotence.
    transactional_id: str = ""
    #: ``--set isolation_level=read_committed`` makes the sink deliver only
    #: committed transactions (meaningful with ``transactional_id``).
    isolation_level: str = "read_uncommitted"
    seed: int = 42


def run_quickstart(config: QuickstartConfig) -> Dict[str, Any]:
    from repro.apps.word_count import create_task

    task = create_task(
        n_documents=config.n_documents,
        files_per_second=config.files_per_second,
        link_latency_ms=config.link_latency_ms,
        partitions=config.partitions,
        idempotence=config.idempotence,
        transactional_id=config.transactional_id or None,
        isolation_level=config.isolation_level,
    )
    documents = pregenerated(generate_documents, config.n_documents, seed=config.seed)
    emulation = Emulation(task, seed=config.seed, datasets={"documents": documents})
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
    #: ``> 1`` shards every topic of the GraphML listing to this count; ``1``
    #: (the default) keeps whatever counts the listing's ``topicCfg``
    #: declares (which also accepts a ``partitions`` entry inline).
    partitions: int = 1
    #: ``True`` switches every producer of the listing to the exactly-once
    #: produce path (a ``prodCfg`` may also declare ``idempotence`` inline).
    idempotence: bool = False
    #: Non-empty switches every producer of the listing to the transactional
    #: produce path (a ``prodCfg`` may also declare ``transactionalId``).
    transactional_id: str = ""
    #: Applied to every consumer of the listing (``consCfg`` may also declare
    #: ``isolationLevel`` inline).
    isolation_level: str = "read_uncommitted"
    seed: int = 7


def run_graphml_task(config: GraphmlTaskConfig) -> Dict[str, Any]:
    task = parse_graphml_string(GRAPHML_TASK, name="figure4-example")
    if config.partitions > 1:
        for topic in task.topics:
            topic.partitions = config.partitions
    if config.idempotence:
        for node in task.nodes.values():
            prod_cfg = node.attributes.get("prodCfg")
            if isinstance(prod_cfg, dict):
                prod_cfg["idempotence"] = True
    if config.transactional_id:
        for node in task.nodes.values():
            prod_cfg = node.attributes.get("prodCfg")
            if isinstance(prod_cfg, dict):
                prod_cfg["transactionalId"] = config.transactional_id
    if config.isolation_level != "read_uncommitted":
        for node in task.nodes.values():
            cons_cfg = node.attributes.get("consCfg")
            if isinstance(cons_cfg, dict):
                cons_cfg["isolationLevel"] = config.isolation_level
    problems = task.validate()
    documents = pregenerated(generate_documents, config.n_documents, seed=config.seed)
    emulation = Emulation(task, seed=config.seed, datasets={"documents": documents})
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


# -- failure-injection: the Figure 6 study at example scale -----------------------


def _failure_injection_config() -> Fig6Config:
    return Fig6Config(
        n_sites=5,
        duration=240.0,
        disconnect_start=80.0,
        disconnect_duration=50.0,
        seed=3,
    )


register(
    Scenario(
        name="failure-injection",
        title="Failure injection — broker partition, ZooKeeper vs KRaft loss",
        config_factory=_failure_injection_config,
        points=fig6_partition.scenario_points,
        combine=fig6_partition.scenario_combine,
        metrics=fig6_partition.scenario_metrics,
        # Same study as fig6, so the scale tiers are shared with it — only
        # the "default" (example-scale) config differs.
        tiers=fig6_partition.SCENARIO.tiers,
        sweep_axis="n_sites",
        check=fig6_partition._scenario_check,
        description="The Figure 6 partition study at example scale, both modes.",
    )
)


# -- geo-latency: the Figure 5 study at example scale -----------------------------


def _geo_latency_config() -> Fig5Config:
    return Fig5Config(
        link_delays_ms=[25, 75, 150],
        components=["producer", "broker", "spe", "consumer"],
        n_documents=25,
        duration=50.0,
    )


register(
    Scenario(
        name="geo-latency",
        title="Geo-distributed latency — which component's WAN delay hurts most",
        config_factory=_geo_latency_config,
        points=fig5_link_delay.scenario_points,
        combine=fig5_link_delay.scenario_combine,
        metrics=fig5_link_delay.scenario_metrics,
        # Shares fig5's tiers; paper scale additionally restores the full
        # delay grid that this example's default config trims to 3 points.
        tiers={
            "quick": fig5_link_delay.SCENARIO.tiers["quick"],
            "paper": {
                **fig5_link_delay.SCENARIO.tiers["paper"],
                "link_delays_ms": [25, 50, 75, 100, 125, 150],
            },
        },
        sweep_axis="link_delays_ms",
        check=fig5_link_delay._scenario_check,
        description="The Figure 5 link-delay sweep at example scale.",
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
    #: Partitions per topic (transactions are keyed by account id).
    partitions: int = 1
    #: Exactly-once produce path for the transaction source.
    idempotence: bool = False
    #: Transactional produce path for the transaction source (atomic batches
    #: of card transactions; implies idempotence).
    transactional_id: str = ""
    #: ``read_committed`` makes the alert sink deliver only committed
    #: transactions.
    isolation_level: str = "read_uncommitted"
    seed: int = 13


def run_fraud_pipeline(config: FraudPipelineConfig) -> Dict[str, Any]:
    from repro.apps.fraud_detection import run as run_fraud_detection

    result = run_fraud_detection(
        n_transactions=config.n_transactions,
        duration=config.duration,
        seed=config.seed,
        fraud_rate=config.fraud_rate,
        transactions_per_second=config.transactions_per_second,
        partitions=config.partitions,
        idempotence=config.idempotence,
        transactional_id=config.transactional_id or None,
        isolation_level=config.isolation_level,
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
