"""OpenFlow-style port statistics and bandwidth monitoring.

stream2gym uses OpenFlow 1.3 port counters to report per-port throughput.  We
keep equivalent counters on every emulated port and provide a periodic
bandwidth monitor that samples them, producing the time-series the
visualization module (and Figure 6d) consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass
class PortStats:
    """Cumulative counters for one port, mirroring OpenFlow port stats."""

    tx_packets: int = 0
    rx_packets: int = 0
    tx_bytes: int = 0
    rx_bytes: int = 0
    tx_dropped: int = 0
    rx_dropped: int = 0

    def record_tx(self, size: int) -> None:
        self.tx_packets += 1
        self.tx_bytes += size

    def record_rx(self, size: int) -> None:
        self.rx_packets += 1
        self.rx_bytes += size

    def record_tx_drop(self) -> None:
        self.tx_dropped += 1

    def record_rx_drop(self) -> None:
        self.rx_dropped += 1

    def snapshot(self) -> Dict[str, int]:
        return {
            "tx_packets": self.tx_packets,
            "rx_packets": self.rx_packets,
            "tx_bytes": self.tx_bytes,
            "rx_bytes": self.rx_bytes,
            "tx_dropped": self.tx_dropped,
            "rx_dropped": self.rx_dropped,
        }


@dataclass
class BandwidthSample:
    """One sample of a port's sending/receiving rate."""

    time: float
    tx_mbps: float
    rx_mbps: float


@dataclass
class BandwidthSeries:
    """Time series of bandwidth samples for a single node/port."""

    node: str
    samples: List[BandwidthSample] = field(default_factory=list)

    def append(self, sample: BandwidthSample) -> None:
        self.samples.append(sample)

    def times(self) -> List[float]:
        return [s.time for s in self.samples]

    def tx_series(self) -> List[float]:
        return [s.tx_mbps for s in self.samples]

    def rx_series(self) -> List[float]:
        return [s.rx_mbps for s in self.samples]

    def peak_tx(self) -> float:
        return max((s.tx_mbps for s in self.samples), default=0.0)

    def mean_tx(self) -> float:
        if not self.samples:
            return 0.0
        return sum(s.tx_mbps for s in self.samples) / len(self.samples)

    def __iter__(self) -> Iterator[BandwidthSample]:
        return iter(self.samples)

    def __len__(self) -> int:
        return len(self.samples)


class BandwidthMonitor:
    """Periodically samples port counters and derives throughput series.

    Parameters
    ----------
    network:
        The :class:`~repro.network.network.Network` to monitor.
    interval:
        Sampling period in seconds (stream2gym samples every 500 ms).
    """

    def __init__(self, network, interval: float = 0.5) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.network = network
        self.interval = interval
        self.series: Dict[str, BandwidthSeries] = {}
        self._last_counters: Dict[str, Tuple[int, int]] = {}
        self._running = False
        self._process = None

    def start(self) -> None:
        """Begin sampling (idempotent)."""
        if self._running:
            return
        self._running = True
        self._process = self.network.sim.process(self._run(), name="bandwidth-monitor")

    def stop(self) -> None:
        self._running = False

    def _run(self):
        sim = self.network.sim
        while self._running:
            yield sim.timeout(self.interval)
            self.sample(sim.now)

    def sample(self, now: float) -> None:
        """Take one sample per host; call once per ``interval`` (``start()``
        does, and so does a caller that owns the sampling tick)."""
        for host in self.network.hosts.values():
            stats = host.port.stats
            previous_tx, previous_rx = self._last_counters.get(host.name, (0, 0))
            delta_tx = stats.tx_bytes - previous_tx
            delta_rx = stats.rx_bytes - previous_rx
            self._last_counters[host.name] = (stats.tx_bytes, stats.rx_bytes)
            series = self.series.setdefault(host.name, BandwidthSeries(node=host.name))
            series.append(
                BandwidthSample(
                    time=now,
                    tx_mbps=delta_tx * 8 / self.interval / 1e6,
                    rx_mbps=delta_rx * 8 / self.interval / 1e6,
                )
            )

    def series_for(self, node: str) -> Optional[BandwidthSeries]:
        return self.series.get(node)
