"""Table II benchmark: the five example applications deployed on the tool."""

from repro.experiments.table2_applications import Table2Config, check_shape, run_table2
from benchmarks.conftest import report


def test_bench_table2_applications(run_once):
    config = Table2Config(run_pipelines=True, n_items=40, duration=35.0)
    result = run_once(run_table2, config)
    report(
        "Table II: example applications deployed on the reproduction",
        [
            {
                "application": row.application,
                "components": row.components,
                "feature": row.feature,
                "loc": row.loc,
                "consumed": row.messages_consumed,
                "verified": row.verified,
            }
            for row in result.rows
        ],
    )
    problems = check_shape(config, result)
    assert problems == [], problems
