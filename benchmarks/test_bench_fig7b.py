"""Figure 7b benchmark: Ocampo et al. traffic-monitoring reproduction."""

from repro.experiments.fig7b_traffic_monitoring import Fig7bConfig, check_shape, run_fig7b
from benchmarks.conftest import report


def test_bench_fig7b_traffic_monitoring(run_once):
    config = Fig7bConfig(user_counts=[20, 40, 60, 80, 100], slots=12)
    result = run_once(run_fig7b, config)
    report(
        "Figure 7b: normalized Spark runtime vs concurrent users",
        [
            {
                "users": n,
                "mean_runtime_s": result.mean_runtime_s[n],
                "normalized": result.normalized[n],
                "input_records": result.input_records[n],
            }
            for n in sorted(result.normalized)
        ],
    )
    problems = check_shape(config, result)
    assert problems == [], problems
