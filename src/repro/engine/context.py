"""The StreamingContext: driver, batch scheduler and job metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.broker.consumer import ConsumerConfig
from repro.broker.producer import ProducerConfig
from repro.engine.dstream import DStream
from repro.engine.executor import Executor, ExecutorConfig
from repro.engine.sinks import KafkaSink, Sink
from repro.engine.sources import KafkaSource, MemorySource, MergingSource, Source

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.broker.cluster import BrokerCluster
    from repro.network.host import Host


@dataclass
class StreamingConfig:
    """Context-level configuration (``streamProcCfg`` keys map onto these)."""

    batch_interval: float = 1.0
    executor: ExecutorConfig = field(default_factory=ExecutorConfig)
    #: Stop scheduling new batches after this many (None = run forever).
    max_batches: Optional[int] = None

    def __post_init__(self) -> None:
        if self.batch_interval <= 0:
            raise ValueError("batch_interval must be positive")


@dataclass
class BatchMetric:
    """Execution record of one micro-batch job (one per output stream per batch)."""

    batch_time: float
    stream_index: int
    input_records: int
    input_bytes: int
    output_records: int
    processing_time: float
    scheduling_delay: float

    @property
    def total_delay(self) -> float:
        return self.processing_time + self.scheduling_delay


class StreamingContext:
    """A micro-batch stream processing engine bound to a driver host."""

    def __init__(
        self,
        host: "Host",
        config: Optional[StreamingConfig] = None,
        cluster: Optional["BrokerCluster"] = None,
        name: Optional[str] = None,
    ) -> None:
        self.host = host
        self.sim = host.sim
        self.config = config or StreamingConfig()
        self.cluster = cluster
        self.name = name or f"spe-{host.name}"
        self.executor = Executor(host, self.config.executor)
        self.sources: List[Source] = []
        self.output_streams: List[DStream] = []
        self.batch_metrics: List[BatchMetric] = []
        self.batches_run = 0
        self.running = False
        host.register_component(self)

    # -- stream construction ---------------------------------------------------------
    def memory_stream(self, name: str = "memory") -> DStream:
        """A stream fed programmatically (tests, file replay drivers)."""
        source = MemorySource(name=name)
        self.sources.append(source)
        return DStream(self, source)

    def kafka_stream(
        self,
        topics: List[str],
        consumer_config: Optional[ConsumerConfig] = None,
        partitions: Optional[List[int]] = None,
        group: Optional[str] = None,
    ) -> DStream:
        """A stream consuming from the event streaming platform.

        ``partitions`` statically assigns the stream specific partitions of a
        single topic; ``group`` joins a coordinator-managed consumer group so
        several contexts can split a topic's partitions between them.
        """
        if self.cluster is None:
            raise RuntimeError("kafka_stream() requires a StreamingContext with a cluster")
        source = KafkaSource(
            self.host,
            topics=topics,
            bootstrap=self.cluster.bootstrap_hosts(prefer=self.host.name),
            consumer_config=consumer_config,
            partitions=partitions,
            group=group,
        )
        self.sources.append(source)
        return DStream(self, source)

    def sharded_kafka_stream(
        self,
        topic: str,
        partitions: List[int],
        consumer_config: Optional[ConsumerConfig] = None,
    ) -> DStream:
        """A partition-sharded stream: one source instance per assigned partition.

        Each partition gets its own :class:`KafkaSource` (its own consumer
        client fetching exactly that partition); a :class:`MergingSource`
        merges their pending records in partition order at every micro-batch
        boundary, so the merged output is deterministic under the simulator
        and per-key order survives sharding.  Chain ``.repartition_by_key()``
        before keyed stateful operators to regroup records by key.
        """
        if self.cluster is None:
            raise RuntimeError(
                "sharded_kafka_stream() requires a StreamingContext with a cluster"
            )
        bootstrap = self.cluster.bootstrap_hosts(prefer=self.host.name)
        children = [
            KafkaSource(
                self.host,
                topics=[topic],
                bootstrap=bootstrap,
                consumer_config=consumer_config,
                name=f"{self.name}-{topic}-p{partition}",
                partitions=[partition],
            )
            for partition in partitions
        ]
        source = MergingSource(children, name=f"{self.name}-{topic}-sharded")
        self.sources.append(source)
        return DStream(self, source)

    def kafka_sink(
        self, topic: str, producer_config: Optional[ProducerConfig] = None, envelope: bool = True
    ) -> KafkaSink:
        if self.cluster is None:
            raise RuntimeError("kafka_sink() requires a StreamingContext with a cluster")
        return KafkaSink(
            self.host,
            topic=topic,
            bootstrap=self.cluster.bootstrap_hosts(prefer=self.host.name),
            producer_config=producer_config,
            envelope=envelope,
        )

    def register_output(self, stream: DStream) -> None:
        if stream not in self.output_streams:
            self.output_streams.append(stream)

    # -- lifecycle -----------------------------------------------------------------------
    def start(self) -> None:
        """Start receivers, sinks and the micro-batch scheduling loop."""
        if self.running:
            return
        if not self.output_streams:
            raise RuntimeError(f"{self.name} has no output streams registered")
        self.running = True
        for source in self.sources:
            source.start()
        for stream in self.output_streams:
            for sink in stream.sinks:
                sink.start()
        self.sim.process(self._driver_loop(), name=f"{self.name}:driver")

    def stop(self) -> None:
        self.running = False
        for source in self.sources:
            source.stop()
        for stream in self.output_streams:
            for sink in stream.sinks:
                sink.stop()

    # -- driver loop ------------------------------------------------------------------------
    def _driver_loop(self):
        while self.running:
            yield self.sim.timeout(self.config.batch_interval)
            scheduled_at = self.sim.now
            yield from self._run_batch(scheduled_at)
            self.batches_run += 1
            if (
                self.config.max_batches is not None
                and self.batches_run >= self.config.max_batches
            ):
                self.stop()
                return

    def _run_batch(self, scheduled_at: float):
        for index, stream in enumerate(self.output_streams):
            cols = stream.source.drain()
            input_records = len(cols)
            input_bytes = cols.total_bytes()
            start = self.sim.now
            # The cost model is charged before the kernels run: simulated time
            # depends only on input record count, input bytes and stage count.
            duration = yield from self.executor.run_job(
                n_records=input_records,
                n_bytes=input_bytes,
                n_stages=stream.n_stages,
            )
            output = stream.execute_columns(cols, self.sim.now)
            # Row views are materialised only for sinks that need them, and
            # shared between those that do.
            records = None
            for sink in stream.sinks:
                if sink.accepts_columns:
                    sink.write_columns(output, self.sim.now)
                else:
                    if records is None:
                        records = output.to_records()
                    sink.write(records, self.sim.now)
            self.batch_metrics.append(
                BatchMetric(
                    batch_time=scheduled_at,
                    stream_index=index,
                    input_records=input_records,
                    input_bytes=input_bytes,
                    output_records=len(output),
                    processing_time=duration,
                    scheduling_delay=start - scheduled_at,
                )
            )

    # -- metrics ------------------------------------------------------------------------------
    def mean_processing_time(self, skip_empty: bool = True) -> float:
        """Average job processing time (the Figure 7b metric)."""
        metrics = [
            metric for metric in self.batch_metrics
            if not skip_empty or metric.input_records > 0
        ]
        if not metrics:
            return 0.0
        return sum(metric.processing_time for metric in metrics) / len(metrics)

    def total_input_records(self) -> int:
        return sum(metric.input_records for metric in self.batch_metrics)

    def total_output_records(self) -> int:
        return sum(metric.output_records for metric in self.batch_metrics)
