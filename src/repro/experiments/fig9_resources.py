"""Figure 9: resource usage of the underlying server for large emulations.

The scenario of Figure 6a is scaled from 2 to 10 coordinating sites (each
site hosting a broker, a 30 Kbps producer and a consumer).  The underlying
server's CPU and memory utilization is sampled every 500 ms after a warm-up
interval.

Reproduced artefacts:

* Figure 9a — the CDF of CPU utilization per site count (the CPU stays below
  ~60% for the vast majority of samples even at 10 sites);
* Figure 9b — the median CPU utilization grows only a few percentage points
  from 2 to 10 sites and stays low (~10%);
* Figure 9c — the peak memory usage grows roughly linearly with the site
  count and is sensitive to the producers' ``buffer.memory`` (16 MB vs 32 MB).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.configs import PlatformOverrides
from repro.core.emulation import Emulation
from repro.core.resources import ResourceReport
from repro.experiments.fig6_partition import sites_task
from repro.scenarios import Scenario, ScenarioRunner, register

MB = 1024 * 1024


@dataclass
class Fig9Config:
    """Scaling parameters (quick defaults; the paper samples 2-10 sites)."""

    site_counts: List[int] = field(default_factory=lambda: [2, 4, 6, 8, 10])
    buffer_sizes: List[int] = field(
        default_factory=lambda: [16 * 1024 * 1024, 32 * 1024 * 1024]
    )
    rate_kbps: float = 30.0
    message_size: int = 512
    duration: float = 90.0
    warmup: float = 60.0
    replication_factor: int = 2
    seed: int = 4
    platform: PlatformOverrides = field(default_factory=PlatformOverrides)


@dataclass
class Fig9Result:
    """Reports keyed by (n_sites, buffer_size)."""

    reports: Dict[tuple, ResourceReport]

    def median_cpu_series(self, buffer_size: int) -> Dict[int, float]:
        return {
            sites: report.median_cpu()
            for (sites, buffer), report in self.reports.items()
            if buffer == buffer_size
        }

    def peak_memory_series(self, buffer_size: int) -> Dict[int, float]:
        return {
            sites: report.peak_memory()
            for (sites, buffer), report in self.reports.items()
            if buffer == buffer_size
        }

    def cpu_cdf(self, n_sites: int, buffer_size: int):
        return self.reports[(n_sites, buffer_size)].cpu_cdf()

    def cpu_increase(self, buffer_size: int) -> float:
        """Median CPU increase from the smallest to the largest site count."""
        series = self.median_cpu_series(buffer_size)
        counts = sorted(series)
        if len(counts) < 2:
            return 0.0
        return series[counts[-1]] - series[counts[0]]

    def memory_increase_percent(self, buffer_size: int) -> float:
        series = self.peak_memory_series(buffer_size)
        counts = sorted(series)
        if len(counts) < 2:
            return 0.0
        return series[counts[-1]] - series[counts[0]]


def run_single(n_sites: int, buffer_size: int, config: Fig9Config) -> ResourceReport:
    """Run the Figure 6a scenario at one (site count, buffer size) point."""
    task = sites_task(
        n_sites,
        min(config.replication_factor, n_sites),
        producer={
            "messageSize": config.message_size,
            "rateKbps": config.rate_kbps,
            "bufferMemory": buffer_size,
        },
        keep_payloads=False,
    )
    emulation = Emulation(task, seed=config.seed, platform=config.platform)
    result = emulation.run(
        duration=config.duration, warmup=config.warmup, settle_time=3.0, client_start=8.0
    )
    return result.resource_report


def scenario_grid(config: Fig9Config) -> Dict[str, dict]:
    """One point per (buffer size, site count), in sweep order."""
    return {
        f"{n_sites}sites/{buffer_size // MB}MB": {"n_sites": n_sites, "buffer_size": buffer_size}
        for buffer_size in config.buffer_sizes
        for n_sites in config.site_counts
    }


def scenario_combine(config: Fig9Config, runs: List[tuple]) -> Fig9Result:
    return Fig9Result(
        reports={(point["n_sites"], point["buffer_size"]): report for point, report in runs}
    )


def run_fig9(config: Optional[Fig9Config] = None, workers: int = 1) -> Fig9Result:
    """Run the full scaling sweep (across ``workers`` processes if > 1)."""
    return ScenarioRunner(SCENARIO).run_config(config or Fig9Config(), workers=workers).result


PAPER_SHAPE = {
    "cpu_below_60_percent_fraction": 0.9,
    "median_cpu_increase_max": 8.0,
    "memory_increase_max_percent": 25.0,
    "buffer_size_affects_memory": True,
}


def check_shape(config: Fig9Config, result: Fig9Result) -> List[str]:
    """Check the qualitative Figure 9 findings."""
    problems = []
    largest = max(config.site_counts)
    big_buffer = max(config.buffer_sizes)
    small_buffer = min(config.buffer_sizes)
    report = result.reports[(largest, big_buffer)]
    if report.fraction_below(60.0) < PAPER_SHAPE["cpu_below_60_percent_fraction"]:
        problems.append("CPU should stay below 60% for the vast majority of samples")
    if result.cpu_increase(big_buffer) > PAPER_SHAPE["median_cpu_increase_max"]:
        problems.append("median CPU increase across the sweep should stay small (<8%)")
    memory_series = result.peak_memory_series(big_buffer)
    counts = sorted(memory_series)
    for earlier, later in zip(counts, counts[1:]):
        if memory_series[later] < memory_series[earlier]:
            problems.append("peak memory should grow with the number of sites")
            break
    if result.memory_increase_percent(big_buffer) > PAPER_SHAPE["memory_increase_max_percent"]:
        problems.append("total memory increase should stay modest (<25 points)")
    if big_buffer != small_buffer:
        big = result.peak_memory_series(big_buffer)[largest]
        small = result.peak_memory_series(small_buffer)[largest]
        if big <= small:
            problems.append("larger producer buffers should consume more memory")
    return problems


def scenario_metrics(result: Fig9Result) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for (sites, buffer_size), report in sorted(result.reports.items()):
        suffix = f"{sites}s_{buffer_size // (1024 * 1024)}mb"
        metrics[f"median_cpu_{suffix}"] = round(report.median_cpu(), 2)
        metrics[f"peak_memory_{suffix}"] = round(report.peak_memory(), 2)
    return metrics


SCENARIO = register(
    Scenario(
        name="fig9",
        title="Figure 9 — server CPU / memory scalability vs site count",
        config_factory=Fig9Config,
        run=run_single,
        grid=scenario_grid,
        combine=scenario_combine,
        metrics=scenario_metrics,
        tiers={
            "quick": {
                "site_counts": [2, 4],
                "buffer_sizes": [16 * MB, 32 * MB],
                "duration": 25.0,
                "warmup": 10.0,
            },
            "paper": {},  # the module defaults are the paper's 2-10 site sweep
        },
        sweep_axis="site_counts",
        check=check_shape,
    )
)
