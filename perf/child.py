"""One pass of one workload in this (fresh) interpreter.

Started by ``perf/runner.py`` as ``python -m perf child ...``; prints one
JSON object as the last line of its standard output.

* ``--mode timed``: nothing is installed.  GC stays enabled; one
  ``gc.collect()`` precedes the timed section.  Reports ``setup_s`` (spawn to
  start of the timed section), ``wall_s`` and the peak RSS.
* ``--mode observed``: probes and tracer installed (``perf/trace.py``);
  reports every exact quantity — simulator events, simulated latencies,
  public counters — and, with ``--profile``, exclusive seconds per layer.
  Spans go to ``perf/out/<workload>.trace.json``.
* ``--mode layers``: no workload, the isolated drivers of ``perf/layers.py``.

Both workload modes check the outputs against the reference and report
``attempted`` / ``failed``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import time
from typing import Any, Dict, List, Optional

from perf import layers, trace
from perf.workloads import OUT_DIR, WORKLOADS


def _run_pass(args: argparse.Namespace) -> Dict[str, Any]:
    observed = args.mode == "observed"
    tracer = trace.Tracer(f"{args.workload}/{args.seed}") if observed else trace.NullTracer()
    probes = trace.Probes() if observed else None
    gc_probe = trace.GcProbe() if observed and args.profile else None
    if probes is not None:
        probes.install()
    workload = WORKLOADS[args.workload](args.seed, args.size, tracer, probes)
    try:
        with tracer.span(args.workload, "bench"):
            with tracer.span("setup", "bench"):
                workload.setup()
            gc.collect()
            if gc_probe is not None:
                gc_probe.start()
            setup_s = time.time() - args.spawned_at
            started = time.perf_counter()
            with tracer.span("run", workload.run_layer, profile=args.profile):
                workload.run()
            wall_s = time.perf_counter() - started
            if gc_probe is not None:
                gc_probe.stop()
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            counts = probes.counts() if probes is not None else {}
            with tracer.span("collect", "bench"):
                workload.collect()
            with tracer.span("check", "bench"):
                verdict = workload.check(args.corrupt_reference)
    finally:
        workload.cleanup()
        if probes is not None:
            probes.uninstall()

    result: Dict[str, Any] = {
        "workload": args.workload,
        "mode": args.mode,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "delivered": workload.delivered,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "first_mismatch": verdict.first_mismatch,
    }
    if observed:
        result["events"] = probes.events()
        result["latency"] = trace.latency_summary(workload.latencies or [])
        if args.profile:
            counts["simulation.process_resumes"] = tracer.process_resumes
            counts["runtime.gc_pause_s"] = gc_probe.pause_s
            counts["runtime.gc_collections"] = gc_probe.collections
            counts["trace.coverage"] = tracer.coverage("run")
            result["layers"] = {**tracer.self_seconds(), **counts}
            result["observed_wall_s"] = tracer.duration("run")
        tracer.write(
            os.path.join(OUT_DIR, f"{args.workload}.trace.json"),
            counts=counts,
            requests_by_type=dict(probes.requests_by_type),
        )
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf child")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--mode", choices=("timed", "observed", "layers"), required=True)
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.spawned_at is None:
        args.spawned_at = time.time()
    if args.mode == "layers":
        result = {"layers": layers.run_all(args.seed, args.size)}
    else:
        result = _run_pass(args)
    print(json.dumps(result))
    return 0
