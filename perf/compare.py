"""``python3 -m perf compare A.json B.json``: B against A, metric by metric.

A and B are files written by ``python3 -m perf run --out``.  Each (workload,
end-to-end metric) pair gets one row with both medians, the ratio B/A (A is
the base) and a verdict from the metric's bound in ``BENCHMARK.json``:

``improved``    B is better than A by more than the bound
``regressed``   B is worse than A by more than the bound
``unresolved``  a side's own min..max spread is wider than the bound, so
                the medians cannot be told apart at that resolution
``unchanged``   otherwise

Exit status is non-zero when any row is ``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from perf.runner import load_spec


def _spread(sample: Dict[str, Any]) -> float:
    return (sample["max"] - sample["min"]) / abs(sample["value"]) if sample["value"] else 0.0


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> str:
    if max(_spread(a), _spread(b)) > bound:
        return "unresolved"
    change = (b["value"] - a["value"]) / abs(a["value"]) if a["value"] else 0.0
    if better == "lower":
        change = -change
    if change > bound:
        return "improved"
    if change < -bound:
        return "regressed"
    return "unchanged"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        side_a = json.load(handle)["workloads"]
    with open(path_b) as handle:
        side_b = json.load(handle)["workloads"]
    metrics = load_spec()["end_to_end"]
    rows: List[str] = []
    bad = 0
    for workload in (name for name in side_a if name in side_b):
        for metric in metrics:
            name = metric["name"]
            a = side_a[workload]["end_to_end"][name]
            b = side_b[workload]["end_to_end"][name]
            outcome = verdict(a, b, metric["better"], metric["bound"])
            bad += outcome in ("regressed", "unresolved")
            ratio = b["value"] / a["value"] if a["value"] else float("nan")
            rows.append(
                f"{workload:20s} {name:20s} {outcome:10s} A={a['value']:<14.6g} "
                f"B={b['value']:<14.6g} B/A={ratio:.4f} {metric['unit']} "
                f"(better: {metric['better']}, bound {metric['bound']:.0%})"
            )
    print("\n".join(rows))
    return 1 if bad else 0
