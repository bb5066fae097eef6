"""``python -m repro`` — list and run scenarios from one entry point.

Commands
--------
``python -m repro list``
    Show every registered scenario with its scale tiers and sweep axis.

``python -m repro run <scenario> [options]``
    Run one scenario::

        python -m repro run quickstart
        python -m repro run fig7b --scale paper --workers 4
        python -m repro run fig5 --set n_documents=20 --seed 7
        python -m repro run fig7b --sweep user_counts=20,40,60,80,100 --workers 4
        python -m repro run fig6 --json

    ``--sweep`` accepts ``field=v1,v2,...`` (or bare ``v1,v2,...`` to target
    the scenario's natural axis) and may repeat to form a product; each
    value becomes one full scenario run, all sharded across ``--workers``.

    ``--reps N`` repeats every configuration N times with derived seeds
    (``derive_seed(base, "rep", r)``) and reports ``<metric>_mean`` /
    ``<metric>_ci95`` aggregates — a per-point seed study, e.g.::

        python -m repro run fig7b --reps 5 --workers 4
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.scenarios import registry
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import RunResult, ScenarioParams
from repro.scenarios.sweep import Sweep


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the paper's experiments and examples as declarative scenarios.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list every registered scenario")

    run_parser = commands.add_parser("run", help="run one scenario (optionally a sweep)")
    run_parser.add_argument("scenario", help="scenario name (see: python -m repro list)")
    run_parser.add_argument(
        "--scale",
        default="quick",
        help='scale tier: "quick" (default), "paper", or "default" (module constants)',
    )
    run_parser.add_argument("--seed", type=int, default=None, help="override the seed")
    run_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard independent points across N processes (default: 1, in-process)",
    )
    run_parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="override one config field (repeatable)",
    )
    run_parser.add_argument(
        "--sweep",
        dest="sweeps",
        action="append",
        default=[],
        metavar="[FIELD=]V1,V2,...",
        help="sweep a config field; bare values target the scenario's sweep axis",
    )
    run_parser.add_argument(
        "--reps",
        type=int,
        default=1,
        metavar="N",
        help="repeat each configuration N times with derived seeds; metrics "
        "gain <name>_mean / <name>_ci95 aggregates",
    )
    run_parser.add_argument("--json", action="store_true", help="emit a JSON summary")
    run_parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when the paper-shape check reports problems",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    return _cmd_run(args)


def _cmd_list() -> int:
    scenarios = registry.all_scenarios()
    width = max(len(s.name) for s in scenarios)
    print(f"{len(scenarios)} scenarios registered:\n")
    for scenario in scenarios:
        scales = ",".join(scenario.scales())
        axis = f"  sweep axis: {scenario.sweep_axis}" if scenario.sweep_axis else ""
        print(f"  {scenario.name:<{width}}  {scenario.title}")
        print(f"  {'':<{width}}  scales: {scales}{axis}")
    print("\nrun one with: python -m repro run <name> [--scale paper] [--workers N]")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = registry.get(args.scenario)
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.reps < 1:
        print(f"error: --reps must be >= 1, got {args.reps}", file=sys.stderr)
        return 2
    params = ScenarioParams(
        scale=args.scale,
        seed=args.seed,
        overrides=dict(_parse_override(item) for item in args.overrides),
    )
    try:
        if args.sweeps or args.reps > 1:
            return _run_sweep(scenario, params, args)
        result = ScenarioRunner(scenario).run(params=params, workers=args.workers)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.summary(), indent=2, default=str))
    else:
        _print_run(result)
    return _exit_code(args, [result])


def _run_sweep(scenario, params: ScenarioParams, args: argparse.Namespace) -> int:
    sweep = Sweep(scenario, params=params)
    for item in args.sweeps:
        field_name, values = _parse_sweep(item)
        sweep.over(field_name, values)
    if args.reps > 1:
        sweep.repetitions(args.reps)
    outcome = sweep.run(workers=args.workers)
    if args.json:
        print(json.dumps(outcome.summary(), indent=2, default=str))
    else:
        axes_label = (
            " x ".join(f"{name}={values}" for name, values in outcome.axes)
            or f"reps={args.reps}"
        )
        print(
            f"sweep {outcome.scenario} over {axes_label}"
            + f"  ({len(outcome.runs)} runs, workers={outcome.workers}, "
            f"{outcome.wall_seconds:.2f}s)"
        )
        for row in outcome.metrics_rows():
            print("  " + ", ".join(f"{key}={value}" for key, value in row.items()))
        problems = [p for result in outcome.results() for p in (result.problems or [])]
        if problems:
            print("shape problems: " + "; ".join(problems))
    return _exit_code(args, outcome.results())


def _print_run(result: RunResult) -> None:
    print(
        f"scenario {result.scenario} (scale={result.scale}, seed={result.seed}, "
        f"fingerprint={result.fingerprint})"
    )
    print(
        f"  {result.n_points} points, workers={result.workers}, "
        f"{result.wall_seconds:.2f}s wall"
    )
    for key, value in result.metrics.items():
        print(f"  {key:>28}: {value}")
    if result.problems:
        print("  shape problems vs the paper:")
        for problem in result.problems:
            print(f"    - {problem}")
    elif result.problems is not None:
        print("  shape check vs the paper: OK")


def _exit_code(args: argparse.Namespace, results: List[RunResult]) -> int:
    if not args.check:
        return 0
    return 1 if any(result.problems for result in results) else 0


def _parse_override(item: str) -> Tuple[str, Any]:
    if "=" not in item:
        raise SystemExit(f"--set expects FIELD=VALUE, got {item!r}")
    name, _, raw = item.partition("=")
    raw = raw.strip()
    try:
        value = ast.literal_eval(raw)
        # `--set user_counts=20,40` literal-evals to a *tuple*; normalize to
        # a list so both comma spellings (numeric and string) and the Python
        # API hand scenarios the same type.
        if isinstance(value, tuple):
            value = list(value)
        return name.strip(), value
    except (ValueError, SyntaxError):
        pass
    if "," in raw:
        # `--set components=producer,broker` means a list of values, exactly
        # like --sweep's value syntax.
        return name.strip(), [_parse_value(part) for part in raw.split(",") if part.strip()]
    return name.strip(), _parse_value(raw)


def _parse_sweep(item: str) -> Tuple[Optional[str], List[Any]]:
    if "=" in item:
        name, _, raw = item.partition("=")
        field_name: Optional[str] = name.strip()
    else:
        field_name, raw = None, item
    values = [_parse_value(part) for part in raw.split(",") if part.strip()]
    if not values:
        raise SystemExit(f"--sweep got no values in {item!r}")
    return field_name, values


def _parse_value(raw: str) -> Any:
    raw = raw.strip()
    # Lowercase booleans are what shells hand us (--set idempotence=true);
    # without this they would land as truthy *strings*, making "false" True.
    if raw.lower() == "true":
        return True
    if raw.lower() == "false":
        return False
    try:
        return ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        return raw
