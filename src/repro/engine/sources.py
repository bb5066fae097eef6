"""Input sources for the stream processing engine."""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, List, Optional, Sequence

from repro.broker.batch import RecordBatch
from repro.broker.consumer import Consumer, ConsumerConfig
from repro.engine.columns import ColumnBatch
from repro.engine.records import StreamRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.broker.cluster import BrokerCluster
    from repro.network.host import Host


class Source:
    """Base class: accumulates rows until the driver drains a micro-batch."""

    def __init__(self, name: str = "source") -> None:
        self.name = name
        self._pending = ColumnBatch()
        self.records_ingested = 0

    def push(self, record: StreamRecord) -> None:
        self._pending.append(record)
        self.records_ingested += 1

    def drain(self) -> ColumnBatch:
        """Take every row accumulated since the previous micro-batch.

        The caller owns the returned batch; the source starts a new one.
        """
        batch, self._pending = self._pending, ColumnBatch()
        return batch

    @property
    def backlog(self) -> int:
        return len(self._pending)

    def start(self) -> None:
        """Begin ingesting (overridden by receiver-backed sources)."""

    def stop(self) -> None:
        """Stop ingesting."""


class MemorySource(Source):
    """A source fed directly by test or application code."""

    def push_value(self, value: Any, event_time: Optional[float] = None, now: float = 0.0) -> None:
        self.push(
            StreamRecord(
                value=value,
                event_time=event_time if event_time is not None else now,
                ingest_time=now,
            )
        )


class KafkaSource(Source):
    """A receiver that consumes records from the event streaming platform.

    Wraps a :class:`~repro.broker.consumer.Consumer` that hands over whole
    fetched :class:`RecordBatch` objects; the source accumulates them as
    pending columns (adopting the reply's slices zero-copy when possible), so
    no ``ConsumerRecord`` or ``StreamRecord`` is built per message.  The
    original produce timestamp is preserved as the row's ``event_time`` so
    end-to-end latency can be measured after several pipeline stages.
    """

    def __init__(
        self,
        host: "Host",
        topics: List[str],
        bootstrap: List[str],
        consumer_config: Optional[ConsumerConfig] = None,
        name: Optional[str] = None,
        partitions: Optional[Sequence[int]] = None,
        group: Optional[str] = None,
    ) -> None:
        """``partitions`` statically assigns this source specific partitions of
        a single topic (one source instance per assigned partition is the
        sharded-ingest pattern — see :meth:`StreamingContext.sharded_kafka_stream`);
        ``group`` instead joins a coordinator-managed consumer group."""
        super().__init__(name=name or f"kafka-source-{host.name}")
        # The source owns its consumer and reads batches only, so the
        # consumer never needs to keep per-record payloads.
        config = dataclasses.replace(consumer_config or ConsumerConfig(), keep_payloads=False)
        if group is not None:
            config = dataclasses.replace(config, group=group)
        if partitions is not None and len(topics) != 1:
            raise ValueError("a partition-assigned KafkaSource takes exactly one topic")
        self.consumer = Consumer(
            host,
            bootstrap=bootstrap,
            config=config,
            name=f"{self.name}-consumer",
            on_batch=self._on_wire_batch,
        )
        self.consumer.subscribe(topics)
        if partitions is not None:
            self.consumer.assign(topics[0], list(partitions))

    def _on_wire_batch(
        self,
        topic: str,
        partition: int,
        batch: RecordBatch,
        received_at: float,
        skip=None,
    ) -> None:
        """Accumulate one fetched batch as pending columns (no materialization).

        ``skip`` holds offsets the consumer marked invisible (transaction
        control markers and, under ``read_committed``, aborted records) —
        they ship inside the contiguous wire batch but must never enter the
        stream."""
        self.records_ingested += self._pending.extend_from_wire(batch, received_at, skip)

    def start(self) -> None:
        self.consumer.start()

    def stop(self) -> None:
        self.consumer.stop()


class MergingSource(Source):
    """Deterministic merge of several child sources into one micro-batch feed.

    The partition-aware ingest plane runs one :class:`KafkaSource` per
    assigned partition; this façade presents them to the driver as a single
    source.  ``drain()`` concatenates the children's pending rows *in child
    (partition) order*, so the merged micro-batch order is a pure function of
    the simulated fetch schedule — per-partition offset order is preserved
    within each child, and therefore per-key order survives sharding (a key
    always lives in exactly one partition).
    """

    def __init__(self, children: List[Source], name: str = "merging-source") -> None:
        super().__init__(name=name)
        self.children = list(children)

    def drain(self) -> ColumnBatch:
        """Concatenate the children's pending columns in child (partition) order.

        Children relinquish their drained batches, so the merge adopts the
        first child's columns and extends them in place — the single-child
        (and single-fetch) case stays zero-copy end to end.
        """
        merged = ColumnBatch()
        for child in self.children:
            merged.extend(child.drain())
        self.records_ingested += len(merged)
        return merged

    @property
    def backlog(self) -> int:
        return sum(child.backlog for child in self.children)

    def start(self) -> None:
        for child in self.children:
            child.start()

    def stop(self) -> None:
        for child in self.children:
            child.stop()


def kafka_source_for_cluster(
    cluster: "BrokerCluster",
    host_name: str,
    topics: List[str],
    consumer_config: Optional[ConsumerConfig] = None,
    partitions: Optional[Sequence[int]] = None,
    group: Optional[str] = None,
) -> KafkaSource:
    """Convenience constructor wiring a KafkaSource to a cluster's bootstrap list."""
    host = cluster.network.host(host_name)
    source = KafkaSource(
        host,
        topics=topics,
        bootstrap=cluster.bootstrap_hosts(prefer=host_name),
        consumer_config=consumer_config,
        partitions=partitions,
        group=group,
    )
    return source
