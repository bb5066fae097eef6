"""Figure 8 benchmark: emulation accuracy vs the hardware calibration profile."""

from repro.experiments.fig8_accuracy import Fig8Config, check_shape, run_fig8
from benchmarks.conftest import report


def test_bench_fig8_accuracy(run_once):
    config = Fig8Config(
        link_delays_ms=[25, 75, 150],
        components=["broker", "spe"],
        n_documents=20,
        duration=50.0,
    )
    result = run_once(run_fig8, config)
    report("Figure 8: stream2gym vs hardware end-to-end latency (s)", result.rows())
    report(
        "Figure 8: agreement",
        [{"max_relative_error": result.max_relative_error()}],
    )
    problems = check_shape(config, result)
    assert problems == [], problems
