"""repro.scenarios — the declarative front door for every experiment.

Every figure/table reproduction and every bundled example is registered here
as a :class:`Scenario`: a declarative spec describing how to configure a run,
its point function and the labelled grid of independent points it is called
on, and how point outcomes combine into the study's result.  One runner
executes any of them (sequentially or across a process pool), one sweep API
shards parameter studies, and one CLI (``python -m repro``) lists and runs
the whole catalog.

    from repro.scenarios import run, Sweep

    result = run("fig7b", scale="paper", workers=4)
    sweep = Sweep("fig7b").over("user_counts", [20, 60, 100]).run(workers=4)

See ``docs/scenario_api.md`` for the spec schema and the seeding /
determinism contract.
"""

from repro.scenarios.registry import all_scenarios, get, names, register, resolve
from repro.scenarios.runner import ScenarioRunner, execute_points, run, run_point
from repro.scenarios.spec import (
    RunResult,
    Scenario,
    ScenarioParams,
    config_fingerprint,
    derive_seed,
)
from repro.scenarios.sweep import Sweep, SweepResult, sweep

__all__ = [
    "RunResult",
    "Scenario",
    "ScenarioParams",
    "ScenarioRunner",
    "Sweep",
    "SweepResult",
    "all_scenarios",
    "config_fingerprint",
    "derive_seed",
    "execute_points",
    "get",
    "names",
    "register",
    "resolve",
    "run",
    "run_point",
    "sweep",
]
