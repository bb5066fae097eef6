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

Engine path
-----------
``--engine-path={columnar,record,both}`` selects the SPE execution plane for
the whole run (default ``columnar``, the production default):

* ``record`` forces the per-record reference path everywhere — contexts
  follow the session default unless a test pins ``StreamingConfig
  (vectorized=...)`` explicitly;
* ``both`` keeps the session default columnar but runs every test that
  requests the ``engine_path`` fixture once per path (the SPE-facing chaos
  tests and the vectorized equivalence suite use it).

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


def pytest_addoption(parser):
    parser.addoption(
        "--engine-path",
        choices=("columnar", "record", "both"),
        default="columnar",
        help=(
            "SPE execution plane: 'columnar' (vectorized, default), 'record' "
            "(force the per-record reference path session-wide), or 'both' "
            "(parametrize engine_path-fixture tests over the two paths)"
        ),
    )


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
    path = config.getoption("--engine-path")
    if path in ("columnar", "record"):
        try:
            from repro.engine import set_default_engine_path
        except ImportError:
            # src/ not importable yet (PYTHONPATH unset): "columnar" is the
            # in-code default anyway; an explicit "record" run must not
            # silently proceed on the wrong path.
            if path == "record":
                raise
        else:
            set_default_engine_path(path)


def pytest_generate_tests(metafunc):
    if "engine_path" in metafunc.fixturenames:
        mode = metafunc.config.getoption("--engine-path")
        paths = ["columnar", "record"] if mode == "both" else [mode]
        metafunc.parametrize("engine_path", paths, indirect=True)


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


@pytest.fixture
def engine_path(request):
    """The SPE path this test runs under; sets the session default for its
    duration (parametrized over both paths under ``--engine-path=both``)."""
    from repro.engine import default_engine_path, set_default_engine_path

    path = request.param
    previous = default_engine_path()
    set_default_engine_path(path)
    yield path
    set_default_engine_path(previous)
