"""Figure 5: word-count end-to-end latency while varying per-component link delay.

The word-count pipeline of Figure 2 runs in a one-big-switch topology.  In
each run, the access link of exactly one component (producer, broker, stream
processing engine, or consumer) is set to the swept delay while every other
link stays below 10 ms; the metric is the average end-to-end latency of a
text file through the whole pipeline (production of the raw document to
arrival of the final per-topic average at the data sink).

Paper shape: latency grows with the delay for every component, but the broker
and SPE links hurt far more (up to ~6x at 150 ms) because those components
sit on every data path (the broker) or add several broker round trips per
stage (the SPE).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.apps.word_count import AVERAGE_TOPIC, WORDS_TOPIC, create_task
from repro.core.configs import PlatformOverrides
from repro.core.emulation import Emulation
from repro.scenarios import PointSpec, Scenario, ScenarioRunner, register
from repro.workloads import pregenerated
from repro.workloads.text import generate_documents

#: The four components whose access link is swept, as named in the paper.
COMPONENTS = ("producer", "broker", "spe", "consumer")

_COMPONENT_TO_ROLE = {
    "producer": "source",
    "broker": "broker",
    "spe": "spe_job1",
    "consumer": "sink",
}


@dataclass
class Fig5Config:
    """Sweep parameters (quick defaults; the paper uses 100 files per point)."""

    link_delays_ms: List[float] = field(default_factory=lambda: [25, 50, 75, 100, 125, 150])
    components: List[str] = field(default_factory=lambda: list(COMPONENTS))
    n_documents: int = 40
    files_per_second: float = 5.0
    baseline_delay_ms: float = 5.0
    duration: float = 60.0
    seed: int = 1
    platform: PlatformOverrides = field(default_factory=PlatformOverrides)


@dataclass
class Fig5Result:
    """latency_s[component][delay_ms] = mean end-to-end latency in seconds."""

    latency_s: Dict[str, Dict[float, float]]
    samples: Dict[str, Dict[float, int]]

    def series(self, component: str) -> List[float]:
        return [self.latency_s[component][delay] for delay in sorted(self.latency_s[component])]

    def impact_factor(self, component: str) -> float:
        """Latency at the largest delay divided by latency at the smallest."""
        series = self.series(component)
        if not series or series[0] == 0:
            return 0.0
        return series[-1] / series[0]

    def rows(self) -> List[dict]:
        rows = []
        for component, by_delay in self.latency_s.items():
            for delay, latency in sorted(by_delay.items()):
                rows.append(
                    {"component": component, "link_delay_ms": delay, "e2e_latency_s": latency}
                )
        return rows


def _end_to_end_latencies(emulation: Emulation) -> List[float]:
    """Latency from original document production to arrival at the data sink."""
    sink = emulation.consumers.get("h5")
    if sink is None:
        return []
    latencies = []
    for record in sink.records:
        if record.topic not in (WORDS_TOPIC, AVERAGE_TOPIC):
            continue
        value = record.value
        event_time = None
        if isinstance(value, dict):
            event_time = value.get("event_time")
        if event_time is None:
            continue
        latencies.append(record.received_at - event_time)
    return latencies


def run_single(component: str, delay_ms: float, config: Fig5Config) -> List[float]:
    """Run one point of the sweep and return the per-file latencies."""
    role = _COMPONENT_TO_ROLE[component]
    task = create_task(
        n_documents=config.n_documents,
        link_latency_ms=config.baseline_delay_ms,
        per_component_latency={role: delay_ms},
        files_per_second=config.files_per_second,
    )
    # Pre-generated: every sweep point replays the identical seeded corpus,
    # so synthesis runs once for the whole figure.
    documents = pregenerated(generate_documents, config.n_documents, seed=config.seed)
    emulation = Emulation(
        task, seed=config.seed, datasets={"documents": documents}, platform=config.platform
    )
    emulation.run(duration=config.duration)
    return _end_to_end_latencies(emulation)


def _sweep_grid(config: Fig5Config) -> List[tuple]:
    """Canonical (component, delay) order — the single source shared by
    point generation and outcome combination, so the two can never skew."""
    return [
        (component, delay)
        for component in config.components
        for delay in config.link_delays_ms
    ]


def scenario_points(config: Fig5Config) -> List[PointSpec]:
    """One independent point per (component, delay) pair, in sweep order."""
    return [
        PointSpec(
            fn=run_single,
            kwargs={"component": component, "delay_ms": delay, "config": config},
            label=f"{component}@{delay:g}ms",
            index=index,
        )
        for index, (component, delay) in enumerate(_sweep_grid(config))
    ]


def scenario_combine(config: Fig5Config, outcomes: List[List[float]]) -> Fig5Result:
    grid = _sweep_grid(config)
    assert len(outcomes) == len(grid)
    latency: Dict[str, Dict[float, float]] = {}
    samples: Dict[str, Dict[float, int]] = {}
    for (component, delay), values in zip(grid, outcomes):
        latency.setdefault(component, {})[delay] = (
            sum(values) / len(values) if values else float("nan")
        )
        samples.setdefault(component, {})[delay] = len(values)
    return Fig5Result(latency_s=latency, samples=samples)


def run_fig5(config: Fig5Config = None, workers: int = 1) -> Fig5Result:
    """Run the full Figure 5 sweep (across ``workers`` processes if > 1)."""
    return ScenarioRunner(SCENARIO).run_config(config or Fig5Config(), workers=workers).result


#: Paper reference shape used by the benchmark harness.
PAPER_SHAPE = {
    # Broker and SPE delays dominate (paper reports up to ~6x at 150 ms).
    "dominant_components": ("broker", "spe"),
    "max_latency_at_150ms_s": 6.0,
}


def check_shape(result: Fig5Result) -> List[str]:
    """Qualitative checks against the paper's shape; returns a list of violations."""
    problems = []
    for component in result.latency_s:
        series = result.series(component)
        if series and series[-1] < series[0]:
            problems.append(f"latency should not decrease with delay for {component}")
    broker_impact = result.impact_factor("broker") if "broker" in result.latency_s else 0
    producer_impact = result.impact_factor("producer") if "producer" in result.latency_s else 0
    consumer_impact = result.impact_factor("consumer") if "consumer" in result.latency_s else 0
    if broker_impact and producer_impact and broker_impact <= producer_impact:
        problems.append("broker link delay should hurt more than the producer link delay")
    if broker_impact and consumer_impact and broker_impact <= consumer_impact:
        problems.append("broker link delay should hurt more than the consumer link delay")
    return problems


def scenario_metrics(result: Fig5Result) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for component in result.latency_s:
        metrics[f"impact_{component}"] = round(result.impact_factor(component), 3)
        series = result.series(component)
        if series:
            metrics[f"latency_max_{component}_s"] = round(series[-1], 4)
    return metrics


def _scenario_check(config: Fig5Config, result: Fig5Result) -> List[str]:
    return check_shape(result)


SCENARIO = register(
    Scenario(
        name="fig5",
        title="Figure 5 — word-count latency vs per-component link delay",
        config_factory=Fig5Config,
        points=scenario_points,
        combine=scenario_combine,
        metrics=scenario_metrics,
        tiers={
            "quick": {
                "link_delays_ms": [25.0, 150.0],
                "components": ["producer", "broker"],
                "n_documents": 12,
                "duration": 35.0,
            },
            "paper": {"n_documents": 100},
        },
        sweep_axis="link_delays_ms",
        check=_scenario_check,
        description=__doc__.strip().splitlines()[0],
    )
)
