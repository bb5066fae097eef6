"""Figure 9 benchmark: CPU and memory scalability of the emulation host."""

from repro.experiments.fig9_resources import Fig9Config, check_shape, run_fig9
from benchmarks.conftest import report

MB = 1024 * 1024


def test_bench_fig9_resources(run_once):
    config = Fig9Config(
        site_counts=[2, 4, 6, 8, 10],
        buffer_sizes=[16 * MB, 32 * MB],
        duration=60.0,
        warmup=30.0,
    )
    result = run_once(run_fig9, config)

    rows = []
    for buffer_size in config.buffer_sizes:
        medians = result.median_cpu_series(buffer_size)
        peaks = result.peak_memory_series(buffer_size)
        for sites in sorted(medians):
            rows.append(
                {
                    "sites": sites,
                    "buffer": f"{buffer_size // MB} MB",
                    "median_cpu_percent": medians[sites],
                    "peak_memory_percent": peaks[sites],
                }
            )
    report("Figure 9b/9c: median CPU and peak memory vs coordinating sites", rows)

    largest = max(config.site_counts)
    cdf_points = result.cpu_cdf(largest, 32 * MB)
    below_60 = result.reports[(largest, 32 * MB)].fraction_below(60.0)
    report(
        "Figure 9a: CPU CDF summary at the largest scale",
        [
            {"sites": largest, "samples": len(cdf_points), "fraction_below_60pct_cpu": below_60},
        ],
    )
    problems = check_shape(config, result)
    assert problems == [], problems
