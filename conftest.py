"""Repo-level pytest configuration.

Registers the ``bench`` marker used by the benchmark harness under
``benchmarks/`` (every test collected there is auto-marked).  Common
invocations:

* ``PYTHONPATH=src python -m pytest -x -q`` — full tier-1 suite, benchmarks
  included (the default gate; must stay green).
* ``PYTHONPATH=src python -m pytest -x -q -m "not bench"`` — quick tier for
  local iteration: unit/integration tests only, a few seconds.
* ``PYTHONPATH=src python -m pytest -x -q -m "not bench and not chaos"`` —
  fastest tier: additionally skips the seeded chaos/fault-injection matrix
  (``tests/test_chaos_exactly_once.py``).
* ``PYTHONPATH=src python -m pytest benchmarks -q`` — paper figures/tables
  plus the core-speed trajectory (updates ``BENCH_core.json``).

Engine
------
The SPE has one execution plane (columnar kernels over ``ColumnBatch``, see
``docs/vectorized_engine.md``), so there is nothing to select:
``tests/test_engine_model.py`` is the row-list reference it is judged against.

Hypothesis
----------
Property tests (``tests/test_property_based.py``, the log oracle in
``tests/test_log_model.py``) run under the ``repro`` profile registered below:
derandomized, so every run draws the same examples and a failure replays.
"""

import hashlib

import pytest
from hypothesis import settings

# A tier-1 failure must replay bit-for-bit, property tests included; simulated
# time makes wall-clock deadlines meaningless.
settings.register_profile("repro", derandomize=True, deadline=None)
settings.load_profile("repro")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "bench: slow paper-reproduction benchmark (deselect with -m \"not bench\")",
    )
    config.addinivalue_line(
        "markers",
        "chaos: seeded chaos/fault-injection matrix (deselect with -m \"not chaos\")",
    )
    config.addinivalue_line(
        "markers",
        "sweep: spawns subprocess worker pools (deselect with -m \"not sweep\" on "
        "hosts where forking pools is unavailable); the rest of the quick tier "
        "never needs a subprocess",
    )


def _reports_digest(producers):
    digest = hashlib.sha256()
    count = 0
    for producer in sorted(producers, key=lambda producer: producer.name):
        digest.update(producer.name.encode())
        for report in producer.reports:
            row = (
                report.sequence, report.topic, report.key, report.enqueued_at,
                report.acknowledged_at, report.failed_at, report.offset,
                report.duplicate,
            )
            digest.update(repr(row).encode())
            count += 1
    return count, digest.hexdigest()


@pytest.fixture(scope="session")
def reports_digest():
    """``reports_digest(producers) -> (reports, sha256)`` over every field of
    every delivery report, producers in name order: what the goldens of the
    producer's derived ``reports`` are compared by."""
    return _reports_digest
