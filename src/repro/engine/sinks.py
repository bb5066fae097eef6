"""Output sinks for the stream processing engine."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.broker.message import ProducerRecord
from repro.broker.producer import Producer, ProducerConfig
from repro.engine.columns import ColumnBatch
from repro.engine.records import StreamRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.host import Host
    from repro.store.server import StoreClient


class Sink:
    """Base sink: receives the records emitted by a DStream every micro-batch.

    The engine calls :meth:`write_columns` with the batch's
    :class:`~repro.engine.columns.ColumnBatch`.  Sinks that can consume the
    columns directly override it and never build a ``StreamRecord``; sinks
    with record granularity (user callbacks, store writers) override
    :meth:`write` instead, and the base materializes the records for them.
    """

    def __init__(self, name: str = "sink") -> None:
        self.name = name
        self.records_written = 0

    def write(self, batch: List[StreamRecord], now: float) -> None:
        self.records_written += len(batch)

    def write_columns(self, cols: ColumnBatch, now: float) -> None:
        """Columnar write entry point (fallback: materialize and delegate)."""
        self.write(cols.to_records(), now)

    def start(self) -> None:
        """Hook for sinks that own network clients."""

    def stop(self) -> None:
        """Hook for sinks that own network clients."""


class MemorySink(Sink):
    """Collects emitted records in memory (used by tests and local analysis)."""

    def __init__(self, name: str = "memory-sink", keep_records: bool = True) -> None:
        super().__init__(name=name)
        self.keep_records = keep_records
        self.results: List[StreamRecord] = []

    def write_columns(self, cols: ColumnBatch, now: float) -> None:
        # With keep_records off (the large-experiment mode) this is pure
        # header accounting — no record is ever materialized.
        self.records_written += len(cols)
        if self.keep_records:
            self.results.extend(cols.to_records())

    def values(self) -> List[Any]:
        return [record.value for record in self.results]

    def latest_by_key(self) -> dict:
        latest = {}
        for record in self.results:
            latest[record.key] = record.value
        return latest


class CallbackSink(Sink):
    """Invokes a user callback per emitted record (data-sink stub hook)."""

    def __init__(self, fn: Callable[[StreamRecord, float], None], name: str = "callback-sink") -> None:
        super().__init__(name=name)
        self.fn = fn

    def write(self, batch: List[StreamRecord], now: float) -> None:
        super().write(batch, now)
        for record in batch:
            self.fn(record, now)


class KafkaSink(Sink):
    """Publishes emitted records to a topic on the event streaming platform.

    The original ``event_time`` of each element is carried in the produced
    value envelope so that downstream pipeline stages (and the final data
    sink) can compute end-to-end latency across multiple topics.
    """

    def __init__(
        self,
        host: "Host",
        topic: str,
        bootstrap: List[str],
        producer_config: Optional[ProducerConfig] = None,
        name: Optional[str] = None,
        envelope: bool = True,
    ) -> None:
        super().__init__(name=name or f"kafka-sink-{topic}")
        self.topic = topic
        self.envelope = envelope
        self.producer = Producer(
            host,
            bootstrap=bootstrap,
            config=producer_config,
            name=f"{self.name}-producer",
        )

    def start(self) -> None:
        self.producer.start()

    def stop(self) -> None:
        self.producer.stop()

    def write_columns(self, cols: ColumnBatch, now: float) -> None:
        """Publish straight from columns: same envelope, same size accounting."""
        self.records_written += len(cols)
        topic = self.topic
        envelope = self.envelope
        send = self.producer.send
        keys = cols.keys
        event_times = cols.event_times
        size_at = cols.size_at
        for index, value in enumerate(cols.values):
            if envelope:
                value = {"value": value, "event_time": event_times[index]}
            send(
                ProducerRecord(
                    topic=topic,
                    key=keys[index],
                    value=value,
                    size=max(size_at(index), 16),
                )
            )


class StoreSink(Sink):
    """Writes each emitted record into an external key-value / table store."""

    def __init__(
        self,
        client: "StoreClient",
        table: str = "results",
        name: Optional[str] = None,
        key_fn: Optional[Callable[[StreamRecord], Any]] = None,
    ) -> None:
        super().__init__(name=name or f"store-sink-{table}")
        self.client = client
        self.table = table
        self.key_fn = key_fn or (lambda record: record.key)

    def write(self, batch: List[StreamRecord], now: float) -> None:
        super().write(batch, now)
        for record in batch:
            self.client.put_async(self.table, self.key_fn(record), record.value)
