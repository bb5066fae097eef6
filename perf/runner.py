"""``python3 -m perf run``: measure workloads and print every metric.

The runner never imports the program.  It starts one fresh child
interpreter per pass (``perf/child.py``), one after another:

* the timed pass — children with nothing installed, repeated until their
  timed sections add up to ``--seconds`` (at least :data:`MIN_REPEATS`
  times, or exactly ``--repeats`` times).  Wall-clock metrics are the
  median over these children; only the median is compared;
* the observed pass — one child with probes (and, when per-layer metrics
  are wanted, the profiler) installed.  The simulator is deterministic for a
  seed, so every exact quantity — events, simulated latencies, counters —
  and every per-layer number comes from here and never perturbs the timed
  pass.

Two ways to call it:

* ``--workload W --trace 0|1`` is the contract ``BENCHMARK.json`` declares:
  one workload, ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
  the per-layer metrics, and the last line of output is one JSON object
  ``{"correct", "attempted", "failed", "metrics"}``;
* without ``--trace`` it runs both passes for every workload (or the one
  named), prints all metrics and writes them to ``--out`` for
  ``python3 -m perf compare``.

Exit status is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
CHILD_TIMEOUT_S = 170
MIN_REPEATS = 3


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def spawn_child(mode: str, seed: int, size: str, workload: Optional[str] = None,
                profile: bool = False, corrupt_reference: bool = False) -> Dict[str, Any]:
    """Run one child to completion and return the JSON object it printed."""
    command = [sys.executable, "-m", "perf", "child", "--mode", mode,
               "--seed", str(seed), "--size", size, "--spawned-at", repr(time.time())]
    if workload is not None:
        command += ["--workload", workload]
    if profile:
        command.append("--profile")
    if corrupt_reference:
        command.append("--corrupt-reference")
    environment = dict(os.environ)
    inherited = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + inherited if inherited else ""
    )
    # String hashing decides dict layouts; left random it alone moves a
    # child's wall time by several percent from one interpreter to the next.
    environment["PYTHONHASHSEED"] = "0"
    completed = subprocess.run(
        command, cwd=ROOT, env=environment, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"perf: {mode} child of {workload or 'layer drivers'} exited with "
            f"status {completed.returncode}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _sample(values: List[float]) -> Dict[str, Any]:
    return {
        "value": statistics.median(values),
        "n": len(values),
        "min": min(values),
        "max": max(values),
    }


def _exact(value: float, samples: int = 1) -> Dict[str, Any]:
    return {"value": value, "n": samples, "min": value, "max": value}


def measure(workload: str, args: argparse.Namespace, seconds: float, want_layers: bool,
            layer_rates: Optional[Dict[str, float]]) -> Dict[str, Any]:
    """Both passes of one workload -> its metrics and its verdict."""
    timed: List[Dict[str, Any]] = []
    if args.repeats is not None:
        repeats_wanted = args.repeats
    elif args.trace == 1:
        repeats_wanted = 1  # only the base of trace.overhead_ratio
    else:
        repeats_wanted = None
    while True:
        timed.append(spawn_child("timed", args.seed, args.size, workload,
                                 corrupt_reference=args.corrupt_reference))
        if repeats_wanted is not None:
            if len(timed) >= repeats_wanted:
                break
        elif len(timed) >= MIN_REPEATS and sum(c["wall_s"] for c in timed) >= seconds:
            break
    observed = spawn_child("observed", args.seed, args.size, workload, profile=want_layers,
                           corrupt_reference=args.corrupt_reference)
    children = timed + [observed]

    problems = [
        f"{child['mode']} pass: {child['first_mismatch']}"
        for child in children if child["failed"]
    ]
    if len({child["delivered"] for child in children}) != 1:
        problems.append(
            "passes of one seed delivered different record counts: "
            f"{[child['delivered'] for child in children]}"
        )
    delivered = observed["delivered"]
    latency = observed["latency"]
    if not delivered or latency is None:
        problems.append("nothing reached the final sink")
        delivered = delivered or 1
        latency = {"p50_ms": 0.0, "p99_ms": 0.0, "samples": 0}

    wall = _sample([child["wall_s"] for child in timed])
    end_to_end = {
        "setup_s": _sample([child["setup_s"] for child in timed]),
        "wall_s": wall,
        "records_per_s": {
            "value": delivered / wall["value"],
            "n": wall["n"],
            "min": delivered / wall["max"],
            "max": delivered / wall["min"],
        },
        "peak_rss_mb": _sample([child["peak_rss_mb"] for child in timed]),
        "events_per_record": _exact(observed["events"] / delivered),
        "sim_latency_p50_ms": _exact(latency["p50_ms"], latency["samples"]),
        "sim_latency_p99_ms": _exact(latency["p99_ms"], latency["samples"]),
    }
    per_layer: Dict[str, Dict[str, Any]] = {}
    if want_layers:
        values = dict(observed["layers"])
        values["trace.overhead_ratio"] = observed["observed_wall_s"] / wall["value"]
        values.update(layer_rates or {})
        per_layer = {name: _exact(value) for name, value in values.items()}
    return {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "attempted": sum(child["attempted"] for child in children),
        "failed": sum(child["failed"] for child in children),
        "problems": problems,
    }


def _declared(spec: Dict[str, Any], section: str) -> Dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def print_metrics(workload: str, metrics: Dict[str, Dict[str, Any]],
                  units: Dict[str, str]) -> None:
    """One line per metric: ``metric <workload> <name> <value> <unit> n= min= max=``.

    Refuses to print a set of names that differs from the declared one."""
    if set(metrics) != set(units):
        raise SystemExit(
            f"perf: {workload}: measured metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(units))}"
        )
    for name, unit in units.items():
        sample = metrics[name]
        print(
            f"metric {workload} {name} {sample['value']!r} {unit} "
            f"n={sample['n']} min={sample['min']!r} max={sample['max']!r}"
        )


def run(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise SystemExit(f"perf: nothing to measure: {ROOT}/src/repro is missing")
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        raise SystemExit(f"perf: unknown workload {args.workload!r}; choose from {names}")
    if args.trace is not None and args.workload is None:
        raise SystemExit("perf: --trace needs --workload")
    selected = [args.workload] if args.workload else names
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    want_end_to_end = args.trace in (None, 0)
    want_layers = args.trace in (None, 1)

    layer_rates = None
    if want_layers:
        layer_rates = spawn_child("layers", args.seed, args.size)["layers"]
    results: Dict[str, Any] = {}
    for workload in selected:
        print(f"== {workload}  seed={args.seed} size={args.size}")
        result = measure(workload, args, seconds, want_layers, layer_rates)
        if want_end_to_end:
            print_metrics(workload, result["end_to_end"], _declared(spec, "end_to_end"))
        if want_layers:
            print_metrics(workload, result["per_layer"], _declared(spec, "per_layer"))
        print(f"check {workload} attempted={result['attempted']} failed={result['failed']}")
        for problem in result["problems"]:
            print(f"FAILED {workload}: {problem}")
        results[workload] = result

    correct = not any(result["problems"] for result in results.values())
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump({"seed": args.seed, "size": args.size, "workloads": results},
                      handle, indent=1)
    if args.trace is not None:
        result = results[args.workload]
        section = "end_to_end" if args.trace == 0 else "per_layer"
        units = _declared(spec, section)
        print(json.dumps({
            "correct": correct,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": result[section][name]["value"], "unit": unit}
                for name, unit in units.items()
            },
        }))
    return 0 if correct else 1


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=11,
                        help="seeds input generation and the Simulator (default 11)")
    parser.add_argument("--seconds", type=float,
                        help="timed pass: repeat until the timed sections add up to this "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--repeats", type=int,
                        help="timed pass: exactly this many children instead of --seconds")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only, 1: per-layer metrics only; "
                             "the last output line is then the result as JSON")
    parser.add_argument("--out", help="write all metrics here (input of `compare`)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-test: falsify the reference, so the run must fail")
