"""Sweeps: run a scenario across one or more config axes, optionally parallel.

``Sweep("fig7b").over("user_counts", [20, 40, 60, 80, 100]).run(workers=4)``
runs one full scenario per axis value, sharding *all* points of *all* sweep
values across one process pool — a sweep of five single-point runs keeps
four workers busy, not one.

Seeding is deterministic per point: every point's randomness flows from its
config (the swept field plus the base seed), never from execution order or
process placement, so ``run(workers=N)`` is bitwise-identical to
``run(workers=1)`` for the same axes.  Scenarios that want sweep points to
use *different* seeds derive them per value via
:func:`repro.scenarios.spec.derive_seed` on a config field — still a pure
function of the point identity.
"""

from __future__ import annotations

import copy
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.scenarios import registry
from repro.scenarios.runner import assemble_run_result, execute_points
from repro.scenarios.spec import (
    RunResult,
    Scenario,
    ScenarioParams,
    _set_config_field,
    derive_seed,
)


@dataclass
class SweepResult:
    """All runs of one sweep, in axis-product order."""

    scenario: str
    axes: List[Tuple[str, List[Any]]]
    runs: List[Tuple[Tuple[Any, ...], RunResult]]
    wall_seconds: float
    workers: int

    def values(self) -> List[Tuple[Any, ...]]:
        return [combo for combo, _ in self.runs]

    def results(self) -> List[RunResult]:
        return [result for _, result in self.runs]

    def metrics_rows(self) -> List[Dict[str, Any]]:
        """One flat dict per run: axis values + that run's metrics."""
        rows = []
        axis_names = [name for name, _ in self.axes]
        for combo, result in self.runs:
            row: Dict[str, Any] = dict(zip(axis_names, combo))
            row.update(result.metrics)
            rows.append(row)
        return rows

    def summary(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "axes": [[name, list(values)] for name, values in self.axes],
            "wall_seconds": round(self.wall_seconds, 4),
            "workers": self.workers,
            "runs": [
                {"values": list(combo), **result.summary()}
                for combo, result in self.runs
            ],
        }


class Sweep:
    """Fluent sweep builder over a scenario's config fields."""

    def __init__(
        self,
        scenario: Union[str, Scenario],
        params: Optional[ScenarioParams] = None,
    ) -> None:
        self.scenario = registry.resolve(scenario)
        self.params = params or ScenarioParams()
        self._axes: List[Tuple[str, List[Any]]] = []
        self._repetitions = 1

    def repetitions(self, n: int) -> "Sweep":
        """Run every configuration ``n`` times with derived per-rep seeds.

        Rep 0 keeps the configuration's base seed (so ``repetitions(1)`` is
        exactly a plain sweep); rep ``r`` runs with
        ``derive_seed(base_seed, "rep", r)`` — a pure function of the point
        identity, preserving the parallel==sequential determinism contract.
        Each combination's :class:`RunResult` carries rep 0's native result
        plus cross-rep aggregates in ``metrics``: ``<metric>_mean`` and
        ``<metric>_ci95`` (normal-approximation 95% confidence interval) for
        every numeric metric, ``repetitions`` and the ``rep_seeds`` used.
        """
        if n < 1:
            raise ValueError("repetitions must be >= 1")
        self._repetitions = n
        return self

    def over(self, field_name: Optional[str], values: Sequence[Any]) -> "Sweep":
        """Add an axis; ``None`` targets the scenario's natural sweep axis."""
        if field_name is None:
            field_name = self.scenario.sweep_axis
            if field_name is None:
                raise ValueError(
                    f"scenario {self.scenario.name!r} declares no sweep_axis; "
                    "name the config field explicitly"
                )
        self._axes.append((field_name, list(values)))
        return self

    def configs(self) -> List[Tuple[Tuple[Any, ...], Any]]:
        """Materialize one config per axis-product combination.

        A scalar value swept over a list-valued field (e.g. ``20`` over
        fig7b's ``user_counts``) is wrapped into a one-element list, so
        sweeping an axis externally means "one scenario run per value".
        """
        if not self._axes:
            raise ValueError("sweep has no axes; call over() first")
        combos = []
        for combo in itertools.product(*(values for _, values in self._axes)):
            config = self.scenario.build_config(self.params)
            for (field_name, _), value in zip(self._axes, combo):
                # Validating setter: a mistyped axis name must raise (not
                # silently run every combination at the default config); it
                # also wraps scalars assigned to list-valued fields.
                _set_config_field(config, field_name, value)
            combos.append((combo, config))
        return combos

    def _rep_configs(self, config: Any) -> List[Any]:
        """The per-repetition configs of one combination (rep 0 = verbatim)."""
        if self._repetitions == 1:
            return [config]
        scenario = self.scenario
        base_seed = scenario.config_seed(config)
        rep_configs = [config]
        for rep in range(1, self._repetitions):
            rep_config = copy.deepcopy(config)
            _set_config_field(
                rep_config, scenario.seed_field, derive_seed(base_seed, "rep", rep)
            )
            rep_configs.append(rep_config)
        return rep_configs

    def run(self, workers: int = 1) -> SweepResult:
        """Execute every combination; all points share one worker pool.

        Because runs interleave in the shared pool, per-run wall clock is
        not attributable: every :class:`RunResult` in the sweep carries the
        whole batch's ``wall_seconds`` (equal to ``SweepResult.wall_seconds``).
        """
        if self._axes:
            combos = self.configs()
        elif self._repetitions > 1:
            # A pure repetition study sweeps nothing: one combination, the
            # scenario's configured defaults.
            combos = [((), self.scenario.build_config(self.params))]
        else:
            raise ValueError("sweep has no axes; call over() first")
        scenario = self.scenario
        per_combo_configs = [self._rep_configs(config) for _, config in combos]
        per_combo_points = [
            [scenario.points(rep_config) for rep_config in rep_configs]
            for rep_configs in per_combo_configs
        ]
        flat = [
            kwargs
            for rep_points in per_combo_points
            for points in rep_points
            for kwargs in points.values()
        ]
        started = time.perf_counter()
        outcomes = execute_points(scenario.run, flat, workers=workers)
        wall = time.perf_counter() - started
        runs: List[Tuple[Tuple[Any, ...], RunResult]] = []
        cursor = 0
        for (combo, _config), rep_configs, rep_points in zip(
            combos, per_combo_configs, per_combo_points
        ):
            rep_results: List[RunResult] = []
            for rep_config, points in zip(rep_configs, rep_points):
                slice_outcomes = outcomes[cursor : cursor + len(points)]
                cursor += len(points)
                rep_results.append(
                    assemble_run_result(
                        scenario,
                        rep_config,
                        points,
                        slice_outcomes,
                        workers=workers,
                        scale=self.params.scale,
                        wall_seconds=wall,
                    )
                )
            primary = rep_results[0]
            if self._repetitions > 1:
                _aggregate_rep_metrics(primary, rep_results)
                primary.metrics["rep_seeds"] = [
                    scenario.config_seed(rep_config) for rep_config in rep_configs
                ]
                # A failing shape check in ANY repetition must surface (and
                # fail --check), not just rep 0's.
                labeled = [
                    f"rep {rep} (seed {result.seed}): {problem}"
                    for rep, result in enumerate(rep_results[1:], start=1)
                    for problem in (result.problems or [])
                ]
                if labeled:
                    primary.problems = list(primary.problems or []) + labeled
            runs.append((combo, primary))
        return SweepResult(
            scenario=scenario.name,
            axes=list(self._axes),
            runs=runs,
            wall_seconds=wall,
            workers=workers,
        )


def _aggregate_rep_metrics(primary: RunResult, rep_results: List[RunResult]) -> None:
    """Attach cross-repetition mean/CI aggregates to the primary RunResult.

    For every metric that is numeric in *all* repetitions, add
    ``<name>_mean`` and ``<name>_ci95`` (1.96 * stderr, the normal-
    approximation 95% confidence half-width; 0.0 for a single rep).
    """
    n = len(rep_results)
    primary.metrics = dict(primary.metrics)
    for name, value in list(primary.metrics.items()):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        values = []
        for result in rep_results:
            rep_value = result.metrics.get(name)
            if isinstance(rep_value, bool) or not isinstance(rep_value, (int, float)):
                break
            values.append(float(rep_value))
        if len(values) != n:
            continue
        mean = sum(values) / n
        if n > 1:
            variance = sum((v - mean) ** 2 for v in values) / (n - 1)
            ci95 = 1.96 * math.sqrt(variance / n)
        else:
            ci95 = 0.0
        primary.metrics[f"{name}_mean"] = round(mean, 6)
        primary.metrics[f"{name}_ci95"] = round(ci95, 6)
    primary.metrics["repetitions"] = n


def sweep(
    scenario: Union[str, Scenario],
    params: Optional[ScenarioParams] = None,
) -> Sweep:
    """Convenience constructor mirroring :func:`repro.scenarios.run`."""
    return Sweep(scenario, params=params)
