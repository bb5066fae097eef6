"""Scenario execution: points -> outcomes -> RunResult, optionally parallel.

The only things that ever cross a process boundary are a scenario's
module-level point function, one point's picklable kwargs and its outcome,
so worker processes need nothing beyond ``import repro``.  Outcomes are
always handed to ``combine`` in the scenario's canonical point order, which
is why parallel runs are bitwise-identical to sequential ones (see the
determinism contract in :mod:`repro.scenarios.spec`).
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.scenarios import registry
from repro.scenarios.spec import RunResult, Scenario, ScenarioParams


def run_point(fn: Callable[..., Any], kwargs: Dict[str, Any]) -> Any:
    """Execute one point (the unit of work a pool worker receives)."""
    return fn(**kwargs)


def execute_points(
    fn: Callable[..., Any], points: Sequence[Dict[str, Any]], workers: int = 1
) -> List[Any]:
    """Call ``fn`` once per kwargs dict; return the outcomes in canonical order.

    ``workers <= 1`` runs in-process (no pool, no pickling — the quick test
    tier never needs a subprocess).  Larger values shard the points across a
    ``ProcessPoolExecutor``; ``pool.map`` preserves submission order, so the
    outcome list is identical to the sequential one.
    """
    points = list(points)
    if workers <= 1 or len(points) <= 1:
        return [run_point(fn, kwargs) for kwargs in points]
    with ProcessPoolExecutor(max_workers=min(workers, len(points))) as pool:
        return list(pool.map(run_point, itertools.repeat(fn), points))


def assemble_run_result(
    scenario: Scenario,
    config: Any,
    points: Dict[str, Dict[str, Any]],
    outcomes: Sequence[Any],
    *,
    workers: int,
    scale: str,
    wall_seconds: float,
) -> RunResult:
    """Combine point outcomes into the uniform :class:`RunResult`.

    Shared by :class:`ScenarioRunner` and :class:`~repro.scenarios.sweep.Sweep`
    so the result assembly (combine -> metrics -> check) exists exactly once.
    """
    result = scenario.combine(config, list(zip(points.values(), outcomes)))
    metrics = scenario.metrics(result) if scenario.metrics else {}
    problems = scenario.check(config, result) if scenario.check else None
    return RunResult(
        scenario=scenario.name,
        scale=scale,
        seed=scenario.config_seed(config),
        fingerprint=scenario.fingerprint(config),
        metrics=metrics,
        wall_seconds=wall_seconds,
        workers=workers,
        n_points=len(points),
        point_labels=list(points),
        problems=problems,
        result=result,
    )


class ScenarioRunner:
    """Execute a scenario (by name or instance) into a :class:`RunResult`."""

    def __init__(self, scenario: Union[str, Scenario]) -> None:
        self.scenario = registry.resolve(scenario)

    def run(
        self,
        params: Optional[ScenarioParams] = None,
        workers: int = 1,
    ) -> RunResult:
        params = params or ScenarioParams()
        config = self.scenario.build_config(params)
        return self.run_config(config, workers=workers, scale=params.scale)

    def run_config(
        self, config: Any, workers: int = 1, scale: str = "custom"
    ) -> RunResult:
        """Run an already-materialized configuration.

        This is the delegation target of the legacy ``run_fig*`` entry
        points: they build their historical config object and hand it here,
        so every old script transparently gains ``workers``.
        """
        scenario = self.scenario
        points = scenario.points(config)
        started = time.perf_counter()
        outcomes = execute_points(scenario.run, points.values(), workers=workers)
        wall = time.perf_counter() - started
        return assemble_run_result(
            scenario,
            config,
            points,
            outcomes,
            workers=workers,
            scale=scale,
            wall_seconds=wall,
        )


def run(
    scenario: Union[str, Scenario],
    params: Optional[ScenarioParams] = None,
    workers: int = 1,
    **param_kwargs: Any,
) -> RunResult:
    """One-call front door: ``run("fig7b", scale="paper", workers=4)``.

    ``param_kwargs`` are :class:`ScenarioParams` fields; passing both
    ``params`` and kwargs is an error.
    """
    if params is not None and param_kwargs:
        raise TypeError("pass either params or ScenarioParams field kwargs, not both")
    if param_kwargs:
        params = ScenarioParams(**param_kwargs)
    return ScenarioRunner(scenario).run(params=params, workers=workers)
