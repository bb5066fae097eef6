"""Table II: example applications deployed on the tool.

The paper summarizes five applications by their component count, the feature
each one exercises, and the lines of code needed to express them.  This
harness deploys all five on the reproduction, verifies they produce their
expected outputs, and reports the same three columns (components, features,
LoC of the application module).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps import (
    fraud_detection,
    maritime_monitoring,
    ride_selection,
    sentiment_analysis,
    word_count,
)
from repro.scenarios import PointSpec, Scenario, ScenarioRunner, register

#: Paper-reported rows (application -> (components, feature)).
PAPER_TABLE = {
    "word_count": (5, "Multiple stream processing jobs"),
    "ride_selection": (5, "Structured data, stateful processing"),
    "sentiment_analysis": (3, "Unstructured data"),
    "maritime_monitoring": (4, "Persistent storage"),
    "fraud_detection": (5, "Machine learning prediction"),
}

_MODULES = {
    "word_count": word_count,
    "ride_selection": ride_selection,
    "sentiment_analysis": sentiment_analysis,
    "maritime_monitoring": maritime_monitoring,
    "fraud_detection": fraud_detection,
}


@dataclass
class Table2Config:
    """How heavily to exercise each application."""

    run_pipelines: bool = True
    n_items: int = 60
    duration: float = 40.0
    #: Partitions per application topic (every app's task plumbs it through).
    partitions: int = 1
    #: Exactly-once produce path for every app's ingestion producer.
    idempotence: bool = False
    #: Transactional produce path (atomic batches; implies idempotence).
    transactional_id: str = ""
    #: ``read_committed`` delivers only committed transactions downstream.
    isolation_level: str = "read_uncommitted"
    seed: int = 1


@dataclass
class Table2Row:
    application: str
    components: int
    feature: str
    loc: int
    messages_consumed: Optional[int] = None
    verified: bool = False


@dataclass
class Table2Result:
    rows: List[Table2Row] = field(default_factory=list)

    def as_dicts(self) -> List[dict]:
        return [row.__dict__ for row in self.rows]

    def row(self, application: str) -> Table2Row:
        for row in self.rows:
            if row.application == application:
                return row
        raise KeyError(application)


def _loc_of(module) -> int:
    """Lines of code of the application module (Table II's LoC column analogue)."""
    source = inspect.getsource(module)
    return sum(
        1
        for line in source.splitlines()
        if line.strip() and not line.strip().startswith("#")
    )


def _run_application(name: str, config: Table2Config) -> Dict[str, object]:
    if name == "word_count":
        result = word_count.run(
            n_documents=config.n_items, duration=config.duration, seed=config.seed,
            files_per_second=10.0, partitions=config.partitions,
            idempotence=config.idempotence,
            transactional_id=config.transactional_id or None,
            isolation_level=config.isolation_level,
        )
        return {"consumed": result.messages_consumed, "verified": result.messages_consumed > 0}
    if name == "ride_selection":
        result = ride_selection.run(
            n_rides=config.n_items, duration=config.duration, seed=config.seed,
            rides_per_second=15.0, partitions=config.partitions,
            idempotence=config.idempotence,
            transactional_id=config.transactional_id or None,
            isolation_level=config.isolation_level,
        )
        return {
            "consumed": result.messages_consumed,
            "verified": bool(result.extras.get("area_ranking")),
        }
    if name == "sentiment_analysis":
        result = sentiment_analysis.run(
            n_tweets=config.n_items, duration=config.duration, seed=config.seed,
            tweets_per_second=15.0, partitions=config.partitions,
            idempotence=config.idempotence,
            transactional_id=config.transactional_id or None,
            isolation_level=config.isolation_level,
        )
        return {
            "consumed": result.extras.get("scored_tweets", 0),
            "verified": result.extras.get("scored_tweets", 0) > 0,
        }
    if name == "maritime_monitoring":
        result = maritime_monitoring.run(
            n_messages=config.n_items, duration=config.duration, seed=config.seed,
            messages_per_second=15.0, partitions=config.partitions,
            idempotence=config.idempotence,
            transactional_id=config.transactional_id or None,
            isolation_level=config.isolation_level,
        )
        return {
            "consumed": result.spe_metrics.get("h3", {}).get("input_records", 0),
            "verified": bool(result.extras.get("ships_per_port")),
        }
    if name == "fraud_detection":
        result = fraud_detection.run(
            n_transactions=config.n_items, duration=config.duration, seed=config.seed,
            fraud_rate=0.2, transactions_per_second=15.0, partitions=config.partitions,
            idempotence=config.idempotence,
            transactional_id=config.transactional_id or None,
            isolation_level=config.isolation_level,
        )
        return {
            "consumed": result.messages_consumed,
            "verified": result.extras.get("alerts", 0) > 0,
        }
    raise KeyError(name)


def run_application_row(name: str, config: Table2Config) -> Table2Row:
    """Build (and optionally run) one application; the scenario's point unit."""
    components, feature = PAPER_TABLE[name]
    module = _MODULES[name]
    task = module.create_task()
    row = Table2Row(
        application=name,
        components=task.component_count(),
        feature=feature,
        loc=_loc_of(module),
    )
    if row.components != components:
        raise AssertionError(
            f"{name}: expected {components} components, built {row.components}"
        )
    if config.run_pipelines:
        outcome = _run_application(name, config)
        row.messages_consumed = int(outcome["consumed"])
        row.verified = bool(outcome["verified"])
    return row


def scenario_points(config: Table2Config) -> List[PointSpec]:
    """One independent point per Table II application."""
    return [
        PointSpec(
            fn=run_application_row,
            kwargs={"name": name, "config": config},
            label=name,
            index=index,
        )
        for index, name in enumerate(PAPER_TABLE)
    ]


def scenario_combine(config: Table2Config, outcomes: List[Table2Row]) -> Table2Result:
    return Table2Result(rows=list(outcomes))


def run_table2(config: Optional[Table2Config] = None, workers: int = 1) -> Table2Result:
    """Build (and optionally run) all five applications and produce the table."""
    return ScenarioRunner(SCENARIO).run_config(config or Table2Config(), workers=workers).result


def check_shape(result: Table2Result) -> List[str]:
    """Every application matches its paper component count and actually works."""
    problems = []
    for name, (components, _feature) in PAPER_TABLE.items():
        row = result.row(name)
        if row.components != components:
            problems.append(f"{name} should have {components} components, has {row.components}")
        if row.messages_consumed is not None and not row.verified:
            problems.append(f"{name} did not produce its expected output")
    return problems


def scenario_metrics(result: Table2Result) -> Dict[str, object]:
    metrics: Dict[str, object] = {}
    for row in result.rows:
        metrics[f"{row.application}_components"] = row.components
        metrics[f"{row.application}_loc"] = row.loc
        if row.messages_consumed is not None:
            metrics[f"{row.application}_verified"] = row.verified
    return metrics


def _scenario_check(config: Table2Config, result: Table2Result) -> List[str]:
    return check_shape(result)


SCENARIO = register(
    Scenario(
        name="table2",
        title="Table II — the five example applications, deployed and verified",
        config_factory=Table2Config,
        points=scenario_points,
        combine=scenario_combine,
        metrics=scenario_metrics,
        tiers={
            "quick": {"run_pipelines": False},
            "paper": {"n_items": 100, "duration": 60.0},
        },
        sweep_axis=None,
        check=_scenario_check,
        description=__doc__.strip().splitlines()[0],
    )
)
