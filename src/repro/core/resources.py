"""Model of the underlying (physical) host's resource usage.

stream2gym runs every emulated component as a process on one physical server
and reports that server's CPU and memory utilization by sampling
``/proc/stat`` and ``/proc/meminfo`` every 500 ms (Figure 9).  The
reproduction models the same quantities from the emulation's activity:

* CPU: a per-sample utilization estimate combining an OS baseline, a fixed
  idle cost per deployed component (JVM housekeeping, Mininet namespaces), a
  start-up surge while components initialize, and a dynamic term proportional
  to the network traffic and broker/SPE work done in the sampling interval.
* Memory: an OS baseline plus per-component footprints (broker heap, producer
  ``buffer.memory``, consumer fetch buffers, SPE executor memory) plus the
  bytes retained in broker logs and data stores.

The constants are calibrated against the figures reported for the paper's
i7-3770 / 16 GB reference machine, and the *shape* (growth per added site,
buffer-size effect) is what the Figure 9 reproduction asserts on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.broker.broker import Broker
from repro.broker.consumer import Consumer
from repro.broker.producer import Producer
from repro.engine.context import StreamingContext
from repro.network.stats import SAMPLE_INTERVAL
from repro.store.server import StoreServer

#: Memory of the physical server hosting the emulation (Section IV of the
#: paper).
SERVER_MEMORY_BYTES = 16 * 1024**3
#: Baseline CPU utilization of the idle OS + emulator control plane (%).
BASELINE_CPU = 2.0
#: Baseline memory utilization (OS, emulator, interpreter) as a fraction.
BASELINE_MEMORY_FRACTION = 0.14


@dataclass
class ResourceSample:
    """One 500 ms sample of host utilization."""

    time: float
    cpu_percent: float
    memory_percent: float


@dataclass
class ResourceReport:
    """Aggregated view over all samples of one emulation run."""

    samples: List[ResourceSample] = field(default_factory=list)

    def cpu_values(self) -> List[float]:
        return [sample.cpu_percent for sample in self.samples]

    def memory_values(self) -> List[float]:
        return [sample.memory_percent for sample in self.samples]

    def median_cpu(self) -> float:
        values = sorted(self.cpu_values())
        if not values:
            return 0.0
        middle = len(values) // 2
        if len(values) % 2 == 1:
            return values[middle]
        return (values[middle - 1] + values[middle]) / 2.0

    def peak_memory(self) -> float:
        return max(self.memory_values(), default=0.0)

    def cpu_cdf(self) -> List[tuple]:
        """(utilization, cumulative fraction) points for the Figure 9a CDF."""
        values = sorted(self.cpu_values())
        n = len(values)
        return [(value, (index + 1) / n) for index, value in enumerate(values)]

    def fraction_below(self, cpu_threshold: float) -> float:
        values = self.cpu_values()
        if not values:
            return 0.0
        return sum(1 for value in values if value <= cpu_threshold) / len(values)


#: Per-component idle CPU cost (% of one server) and memory footprint (bytes).
COMPONENT_CPU_IDLE = {
    "broker": 0.55,
    "producer": 0.12,
    "consumer": 0.12,
    "spe": 0.80,
    "store": 0.30,
    "switch": 0.05,
    "coordinator": 0.25,
    #: Every emulated host costs a little even when idle (network namespace,
    #: veth pair, per-host monitoring task).
    "host": 0.08,
}

COMPONENT_MEMORY = {
    "broker": 220 * 1024**2,
    "producer": 48 * 1024**2,
    "consumer": 56 * 1024**2,
    "spe": 420 * 1024**2,
    "store": 180 * 1024**2,
    "switch": 8 * 1024**2,
    "coordinator": 96 * 1024**2,
    "host": 14 * 1024**2,
}

#: Dynamic CPU cost per megabyte moved through the emulated network.
CPU_PER_MBYTE = 0.9
#: Extra CPU charged while the platform is still initializing (start-up surge).
STARTUP_SURGE_CPU = 18.0
STARTUP_WINDOW = 12.0


class HostResourceModel:
    """Samples the modelled CPU/memory utilization of the underlying server."""

    def __init__(self, network) -> None:
        self.network = network
        self.sim = network.sim
        self.report = ResourceReport()
        self._last_bytes = 0
        self._started_at = self.sim.now

    # -- component inventory ----------------------------------------------------------
    def component_counts(self) -> Dict[str, int]:
        counts = {key: 0 for key in COMPONENT_CPU_IDLE}
        counts["switch"] = len(self.network.switches)
        counts["host"] = len(self.network.hosts)
        for host in self.network.hosts.values():
            for component in host.components:
                counts[self._kind_of(component)] = counts.get(self._kind_of(component), 0) + 1
        return counts

    @staticmethod
    def _kind_of(component) -> str:
        if isinstance(component, Broker):
            return "broker"
        if isinstance(component, Producer):
            return "producer"
        if isinstance(component, Consumer):
            return "consumer"
        if isinstance(component, StreamingContext):
            return "spe"
        if isinstance(component, StoreServer):
            return "store"
        type_name = type(component).__name__.lower()
        if "coordinator" in type_name:
            return "coordinator"
        return "other"

    # -- sampling ------------------------------------------------------------------------
    def tick(self, warmup: float) -> None:
        """One ``SAMPLE_INTERVAL`` has passed (the emulation's monitoring tick calls
        this): take a sample, discarding it during the warm-up as in the
        paper's methodology."""
        sample = self.sample()
        if sample.time > warmup:
            self.report.samples.append(sample)

    def _network_bytes(self) -> int:
        total = 0
        for host in self.network.hosts.values():
            total += host.port.stats.tx_bytes + host.port.stats.rx_bytes
        return total

    def sample(self) -> ResourceSample:
        """Compute one utilization sample at the current simulated time."""
        now = self.sim.now
        counts = self.component_counts()

        cpu = BASELINE_CPU
        for kind, count in counts.items():
            cpu += COMPONENT_CPU_IDLE.get(kind, 0.1) * count
        current_bytes = self._network_bytes()
        delta_mb = max(0, current_bytes - self._last_bytes) / 1024**2
        self._last_bytes = current_bytes
        cpu += CPU_PER_MBYTE * delta_mb / SAMPLE_INTERVAL
        if now - self._started_at < STARTUP_WINDOW:
            remaining = 1.0 - (now - self._started_at) / STARTUP_WINDOW
            cpu += STARTUP_SURGE_CPU * remaining
        cpu = min(100.0, cpu)

        memory_bytes = BASELINE_MEMORY_FRACTION * SERVER_MEMORY_BYTES
        for kind, count in counts.items():
            memory_bytes += COMPONENT_MEMORY.get(kind, 16 * 1024**2) * count
        for host in self.network.hosts.values():
            for component in host.components:
                if isinstance(component, Producer):
                    # The configured buffer.memory is reserved up front by the
                    # Kafka producer, which is what Figure 9c measures.
                    memory_bytes += component.config.buffer_memory
                elif isinstance(component, Broker):
                    memory_bytes += sum(log.size_bytes for log in component.logs.values())
                elif isinstance(component, StoreServer):
                    memory_bytes += component.kv.bytes_stored + component.tables.bytes_stored
                elif isinstance(component, StreamingContext):
                    memory_bytes += 0.1 * component.config.executor.executor_memory
        memory_percent = min(100.0, 100.0 * memory_bytes / SERVER_MEMORY_BYTES)
        return ResourceSample(time=now, cpu_percent=cpu, memory_percent=memory_percent)
