"""Executor cost model.

Spark executes each micro-batch as a job split into tasks that run on
executor cores.  The emulation reproduces the *timing* of that execution on
the host's CPU model: processing ``n`` records through an operator chain of
depth ``d`` costs ``n * d * per_record_cost`` CPU-seconds (plus a fixed
per-job scheduling overhead), divided across ``parallelism`` tasks that each
occupy one core of the SPE host (``Host.compute``).  This is what makes job
runtimes grow with input volume (Figure 7b) and saturate when the host runs
out of cores (Figure 7a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.host import Host

#: CPU seconds charged per byte of input read into a job.
PER_BYTE_COST = 4e-9


@dataclass
class ExecutorConfig:
    """Cost-model parameters for one streaming context (``streamProcCfg``)."""

    #: Number of parallel tasks a job is split into (Spark default = cores).
    parallelism: int = 4
    #: Fixed driver/scheduler overhead charged once per job (seconds).
    job_overhead: float = 0.030
    #: CPU seconds charged per record per operator stage.
    per_record_cost: float = 25e-6
    #: Executor memory in bytes (accounted by the resource model, Figure 9).
    executor_memory: int = 1024 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.parallelism <= 0:
            raise ValueError("parallelism must be positive")
        if self.job_overhead < 0 or self.per_record_cost < 0:
            raise ValueError("costs must be non-negative")

    def job_cost(self, n_records: int, n_bytes: int, n_stages: int) -> float:
        """Total CPU-seconds a job consumes across all its tasks."""
        stages = max(1, n_stages)
        return (
            self.job_overhead
            + n_records * stages * self.per_record_cost
            + n_bytes * PER_BYTE_COST
        )


class Executor:
    """Runs jobs on a host, splitting work across parallel tasks."""

    def __init__(self, host: "Host", config: ExecutorConfig) -> None:
        self.host = host
        self.config = config
        self.jobs_run = 0
        self.busy_seconds = 0.0

    def run_job(self, n_records: int, n_bytes: int, n_stages: int):
        """Generator: execute one job's worth of CPU work and return its duration.

        The job is ``tasks`` equal charges on the host's CPU, made now in task
        order; it ends when the last one completes — one wait, at that time.
        """
        sim = self.host.sim
        start = sim.now
        total_cost = self.config.job_cost(n_records, n_bytes, n_stages)
        tasks = min(self.config.parallelism, max(1, n_records))
        per_task = total_cost / tasks
        done = max(self.host.compute(per_task) for _ in range(tasks))
        if done > start:
            yield sim.timeout_at(done)
        duration = sim.now - start
        self.jobs_run += 1
        self.busy_seconds += total_cost
        return duration
