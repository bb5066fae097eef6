"""The repo's benchmark: four long-run workloads measured end to end, plus a
layer-attributed observed run.  ``BENCHMARK.json`` (repo root) declares the
command, workloads and metrics; ``perf/README.md`` has the protocol.

Entry point: ``python3 -m perf run`` (see ``perf/__main__.py``).
"""
