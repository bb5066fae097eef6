"""Figure 8: emulation accuracy compared to a hardware testbed.

The paper runs the word-count pipeline both in stream2gym and on a 4-node
hardware testbed (Xeon/i7 servers, SmartNICs, a Tofino switch) while varying
the broker and SPE link delays, and shows the end-to-end latencies match
almost exactly.

The hardware testbed is not available offline, so the reproduction runs the
same pipeline under two *calibration profiles*:

* ``stream2gym`` — the default software-switch constants used everywhere else;
* ``hardware`` — hardware-testbed constants: an order-of-magnitude faster
  switching path, NIC-offload-level per-record costs, and NTP-style
  measurement jitter.

Because the end-to-end latency is dominated by the injected link delays (the
quantity both environments share), the two profiles should agree closely —
which is exactly the claim Figure 8 makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.configs import PlatformOverrides
from repro.experiments.fig5_link_delay import end_to_end_latencies, word_count_emulation
from repro.scenarios import Scenario, ScenarioRunner, register
from repro.simulation.rng import SeededRandom


@dataclass
class CalibrationProfile:
    """Environment-specific constants."""

    name: str
    switching_delay: float
    broker_cpu_per_record: float
    measurement_jitter_s: float


STREAM2GYM_PROFILE = CalibrationProfile(
    name="stream2gym",
    switching_delay=30e-6,
    broker_cpu_per_record=12e-6,
    measurement_jitter_s=0.0,
)

HARDWARE_PROFILE = CalibrationProfile(
    name="hardware",
    switching_delay=2e-6,
    broker_cpu_per_record=6e-6,
    #: Clock synchronization over a public NTP server adds a little noise.
    measurement_jitter_s=0.004,
)


@dataclass
class Fig8Config:
    """Sweep parameters (broker and SPE link delays, both environments)."""

    link_delays_ms: List[float] = field(default_factory=lambda: [25, 50, 75, 100, 125, 150])
    components: List[str] = field(default_factory=lambda: ["broker", "spe"])
    n_documents: int = 30
    files_per_second: float = 5.0
    duration: float = 60.0
    seed: int = 2
    platform: PlatformOverrides = field(default_factory=PlatformOverrides)


@dataclass
class Fig8Result:
    """latency[component][environment][delay] = mean end-to-end latency (s)."""

    latency: Dict[str, Dict[str, Dict[float, float]]]

    def relative_error(self, component: str, delay: float) -> float:
        emulated = self.latency[component]["stream2gym"][delay]
        hardware = self.latency[component]["hardware"][delay]
        if hardware == 0:
            return 0.0
        return abs(emulated - hardware) / hardware

    def max_relative_error(self) -> float:
        worst = 0.0
        for component, environments in self.latency.items():
            for delay in environments["stream2gym"]:
                worst = max(worst, self.relative_error(component, delay))
        return worst

    def rows(self) -> List[dict]:
        rows = []
        for component, environments in self.latency.items():
            for delay in sorted(environments["stream2gym"]):
                rows.append(
                    {
                        "component": component,
                        "link_delay_ms": delay,
                        "stream2gym_s": environments["stream2gym"][delay],
                        "hardware_s": environments["hardware"][delay],
                        "relative_error": self.relative_error(component, delay),
                    }
                )
        return rows


def run_single(
    component: str, delay_ms: float, profile: CalibrationProfile, config: Fig8Config
) -> float:
    """Mean end-to-end latency of one (component, delay, profile) run."""
    emulation = word_count_emulation(component, delay_ms, 5.0, config)
    for switch in emulation.network.switches.values():
        switch.switching_delay = profile.switching_delay
    if emulation.cluster is not None:
        for broker in emulation.cluster.brokers.values():
            broker.config.cpu_per_record = profile.broker_cpu_per_record
    emulation.run(duration=config.duration)
    latencies = end_to_end_latencies(emulation)
    if not latencies:
        return float("nan")
    mean = sum(latencies) / len(latencies)
    if profile.measurement_jitter_s > 0:
        rng = SeededRandom(config.seed * 97 + int(delay_ms))
        mean += rng.gauss(0.0, profile.measurement_jitter_s)
    return max(0.0, mean)


def scenario_grid(config: Fig8Config) -> Dict[str, dict]:
    """One point per (component, delay, calibration profile), in sweep order."""
    return {
        f"{component}@{delay:g}ms/{profile.name}": {
            "component": component,
            "delay_ms": delay,
            "profile": profile,
        }
        for component in config.components
        for delay in config.link_delays_ms
        for profile in (STREAM2GYM_PROFILE, HARDWARE_PROFILE)
    }


def scenario_combine(config: Fig8Config, runs: List[tuple]) -> Fig8Result:
    latency: Dict[str, Dict[str, Dict[float, float]]] = {}
    for point, outcome in runs:
        environments = latency.setdefault(
            point["component"], {"stream2gym": {}, "hardware": {}}
        )
        environments[point["profile"].name][point["delay_ms"]] = outcome
    return Fig8Result(latency=latency)


def run_fig8(config: Optional[Fig8Config] = None, workers: int = 1) -> Fig8Result:
    """Run the emulation-vs-hardware comparison (parallel if ``workers`` > 1)."""
    return ScenarioRunner(SCENARIO).run_config(config or Fig8Config(), workers=workers).result


PAPER_SHAPE = {
    "results_match_almost_exactly": True,
    "max_relative_error": 0.15,
}


def check_shape(config: Fig8Config, result: Fig8Result) -> List[str]:
    """Check that both environments agree and latency grows with delay."""
    problems = []
    if result.max_relative_error() > PAPER_SHAPE["max_relative_error"]:
        problems.append(
            f"emulation and hardware profiles should match closely "
            f"(max relative error {result.max_relative_error():.2f})"
        )
    for component, environments in result.latency.items():
        series = [environments["stream2gym"][d] for d in sorted(environments["stream2gym"])]
        if series and series[-1] <= series[0]:
            problems.append(f"latency should grow with {component} link delay")
    return problems


def scenario_metrics(result: Fig8Result) -> Dict[str, float]:
    return {"max_relative_error": round(result.max_relative_error(), 4)}


SCENARIO = register(
    Scenario(
        name="fig8",
        title="Figure 8 — emulation vs hardware-testbed latency accuracy",
        config_factory=Fig8Config,
        run=run_single,
        grid=scenario_grid,
        combine=scenario_combine,
        metrics=scenario_metrics,
        tiers={
            "quick": {
                "link_delays_ms": [50.0],
                "components": ["broker"],
                "n_documents": 10,
                "duration": 35.0,
            },
            "paper": {"n_documents": 100},
        },
        sweep_axis="link_delays_ms",
        check=check_shape,
    )
)
