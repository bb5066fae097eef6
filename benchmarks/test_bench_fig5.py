"""Figure 5 benchmark: word-count latency vs per-component link delay."""

from repro.experiments.fig5_link_delay import Fig5Config, check_shape, run_fig5
from benchmarks.conftest import report


def test_bench_fig5_link_delay(run_once):
    config = Fig5Config(
        link_delays_ms=[25, 75, 150],
        components=["producer", "broker", "spe", "consumer"],
        n_documents=25,
        duration=50.0,
    )
    result = run_once(run_fig5, config)
    report("Figure 5: end-to-end latency (s) vs link delay", result.rows())
    report(
        "Figure 5: impact factor (latency at 150 ms / latency at 25 ms)",
        [
            {"component": component, "impact": result.impact_factor(component)}
            for component in config.components
        ],
    )
    problems = check_shape(config, result)
    assert problems == [], problems
