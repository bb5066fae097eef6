"""Figure 7a benchmark: Ichinose et al. video-analytics reproduction."""

from repro.experiments.fig7a_video_analytics import Fig7aConfig, check_shape, run_fig7a
from benchmarks.conftest import report


def test_bench_fig7a_video_analytics(run_once):
    config = Fig7aConfig(consumer_counts=[1, 2, 4, 8, 16], n_frames=6000)
    result = run_once(run_fig7a, config)
    report(
        "Figure 7a: frame transfer throughput vs number of consumers",
        [
            {"consumers": n, "throughput_imgs_per_s": result.throughput[n]}
            for n in sorted(result.throughput)
        ],
    )
    problems = check_shape(config, result)
    assert problems == [], problems
