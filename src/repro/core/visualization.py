"""Visualization data: the series behind the paper's figures.

stream2gym renders plots with Matplotlib; the reproduction keeps the
visualization layer dependency-free by producing the *data* for each figure
(delivery matrices, latency-vs-arrival-order series, throughput time series,
CDFs) plus simple text renderings that tests, examples and the benchmark
harness print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.broker.consumer import Consumer
from repro.broker.producer import Producer
from repro.network.stats import BandwidthSeries


def cdf(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Return (value, cumulative fraction) points for a CDF plot."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return []
    return [(value, (index + 1) / n) for index, value in enumerate(ordered)]


def percentile(values: Sequence[float], fraction: float) -> float:
    """Simple nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if not 0 <= fraction <= 1:
        raise ValueError("fraction must lie in [0, 1]")
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


@dataclass
class DeliveryMatrix:
    """Figure 6b: per-message delivery status at each consumer.

    ``matrix[consumer_name][i]`` is True when message ``i`` (in production
    order, restricted to one producer) was delivered to that consumer.
    """

    producer: str
    message_keys: List[Any] = field(default_factory=list)
    matrix: Dict[str, List[bool]] = field(default_factory=dict)

    @property
    def n_messages(self) -> int:
        return len(self.message_keys)

    def delivery_rate(self, consumer: str) -> float:
        row = self.matrix.get(consumer, [])
        if not row:
            return 0.0
        return sum(row) / len(row)

    def lost_indices(self, consumer: str) -> List[int]:
        return [index for index, ok in enumerate(self.matrix.get(consumer, [])) if not ok]

    def lost_anywhere(self) -> List[int]:
        lost = set()
        for consumer in self.matrix:
            lost.update(self.lost_indices(consumer))
        return sorted(lost)

    def render_text(self, width: int = 80) -> str:
        """Coarse ASCII rendering: one row per consumer, '.' delivered, 'X' lost."""
        if not self.message_keys:
            return "(no messages)"
        lines = []
        bucket = max(1, self.n_messages // width)
        for consumer, row in sorted(self.matrix.items()):
            cells = []
            for start in range(0, len(row), bucket):
                window = row[start:start + bucket]
                cells.append("." if all(window) else "X")
            lines.append(f"{consumer:>20} |{''.join(cells)}|")
        return "\n".join(lines)


def delivery_matrix(
    producer: Producer,
    consumers: Iterable[Consumer],
    topic: Optional[str] = None,
) -> DeliveryMatrix:
    """Build the Figure 6b matrix for one producer against a set of consumers."""
    reports = [
        report
        for report in producer.reports
        if topic is None or report.topic == topic
    ]
    keys = [report.key for report in reports]
    result = DeliveryMatrix(producer=producer.name, message_keys=keys)
    for consumer in consumers:
        delivered = set(
            record.key for record in consumer.received
            if topic is None or record.topic == topic
        )
        result.matrix[consumer.name] = [key in delivered for key in keys]
    return result


@dataclass
class LatencyPoint:
    """One point of the Figure 6c series."""

    order: int
    latency: float
    topic: str


def latency_by_arrival(consumer: Consumer, topics: Optional[List[str]] = None) -> List[LatencyPoint]:
    """Figure 6c: per-message latency ordered by receive time, labelled by topic."""
    records = [
        record for record in consumer.received
        if topics is None or record.topic in topics
    ]
    records.sort(key=lambda record: record.received_at)
    return [
        LatencyPoint(order=index, latency=record.latency, topic=record.topic)
        for index, record in enumerate(records)
    ]


def latency_spikes(points: List[LatencyPoint], threshold: float) -> Dict[str, int]:
    """Count, per topic, how many messages exceeded a latency threshold."""
    spikes: Dict[str, int] = {}
    for point in points:
        if point.latency > threshold:
            spikes[point.topic] = spikes.get(point.topic, 0) + 1
    return spikes


def throughput_timeseries(series: BandwidthSeries) -> List[Tuple[float, float]]:
    """Figure 6d: (time, tx Mbps) points for one host."""
    return [(sample.time, sample.tx_mbps) for sample in series]


def render_series_text(
    points: Sequence[Tuple[float, float]],
    width: int = 60,
    label: str = "",
) -> str:
    """Tiny ASCII sparkline of a (x, y) series (used by example scripts)."""
    if not points:
        return f"{label}: (empty)"
    values = [value for _, value in points]
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    blocks = " .:-=+*#%@"
    stride = max(1, len(values) // width)
    sampled = values[::stride][:width]
    chars = [blocks[int((value - low) / span * (len(blocks) - 1))] for value in sampled]
    return f"{label} [{low:.2f}..{high:.2f}] {''.join(chars)}"


def summarize_distribution(values: Sequence[float]) -> Dict[str, float]:
    """Mean / median / p95 / max summary used across experiment reports."""
    ordered = sorted(values)
    if not ordered:
        return {"count": 0, "mean": 0.0, "median": 0.0, "p95": 0.0, "max": 0.0}
    # Clamp against float rounding: sum()/n can land 1 ulp outside [min, max].
    mean = min(max(sum(ordered) / len(ordered), ordered[0]), ordered[-1])
    return {
        "count": len(ordered),
        "mean": mean,
        "median": percentile(ordered, 0.5),
        "p95": percentile(ordered, 0.95),
        "max": ordered[-1],
    }
