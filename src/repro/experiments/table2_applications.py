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
from repro.core.configs import PlatformOverrides
from repro.scenarios import Scenario, ScenarioRunner, register

#: Paper-reported rows (application -> (components, feature)).
PAPER_TABLE = {
    "word_count": (5, "Multiple stream processing jobs"),
    "ride_selection": (5, "Structured data, stateful processing"),
    "sentiment_analysis": (3, "Unstructured data"),
    "maritime_monitoring": (4, "Persistent storage"),
    "fraud_detection": (5, "Machine learning prediction"),
}

def _sink_count(result):
    return result.messages_consumed


def _extra(key: str):
    return lambda result: result.extras.get(key, 0)


#: application -> (module, its ``run`` rate keywords, records that reached the
#: end of the pipeline, the output whose presence verifies the application).
_APPLICATIONS = {
    "word_count": (word_count, {"files_per_second": 10.0}, _sink_count, _sink_count),
    "ride_selection": (
        ride_selection, {"rides_per_second": 15.0}, _sink_count, _extra("area_ranking"),
    ),
    "sentiment_analysis": (
        sentiment_analysis, {"tweets_per_second": 15.0},
        _extra("scored_tweets"), _extra("scored_tweets"),
    ),
    "maritime_monitoring": (
        maritime_monitoring, {"messages_per_second": 15.0},
        lambda result: result.spe_metrics.get("h3", {}).get("input_records", 0),
        _extra("ships_per_port"),
    ),
    "fraud_detection": (
        fraud_detection, {"transactions_per_second": 15.0, "fraud_rate": 0.2},
        _sink_count, _extra("alerts"),
    ),
}


@dataclass
class Table2Config:
    """How heavily to exercise each application."""

    run_pipelines: bool = True
    n_items: int = 60
    duration: float = 40.0
    seed: int = 1
    platform: PlatformOverrides = field(default_factory=PlatformOverrides)


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


def run_application_row(name: str, config: Table2Config) -> Table2Row:
    """Build (and optionally run) one application; the scenario's point unit."""
    components, feature = PAPER_TABLE[name]
    module, rate, consumed, verified = _APPLICATIONS[name]
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
        # Every app's ``run`` takes its item count first.
        result = module.run(
            config.n_items,
            duration=config.duration,
            seed=config.seed,
            platform=config.platform,
            **rate,
        )
        row.messages_consumed = int(consumed(result))
        row.verified = bool(verified(result))
    return row


def scenario_grid(config: Table2Config) -> Dict[str, dict]:
    """One independent point per Table II application."""
    return {name: {"name": name} for name in PAPER_TABLE}


def scenario_combine(config: Table2Config, runs: List[tuple]) -> Table2Result:
    return Table2Result(rows=[row for _point, row in runs])


def run_table2(config: Optional[Table2Config] = None, workers: int = 1) -> Table2Result:
    """Build (and optionally run) all five applications and produce the table."""
    return ScenarioRunner(SCENARIO).run_config(config or Table2Config(), workers=workers).result


def check_shape(config: Table2Config, result: Table2Result) -> List[str]:
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


SCENARIO = register(
    Scenario(
        name="table2",
        title="Table II — the five example applications, deployed and verified",
        config_factory=Table2Config,
        run=run_application_row,
        grid=scenario_grid,
        combine=scenario_combine,
        metrics=scenario_metrics,
        tiers={
            "quick": {"run_pipelines": False},
            "paper": {"n_items": 100, "duration": 60.0},
        },
        sweep_axis=None,
        check=check_shape,
    )
)
