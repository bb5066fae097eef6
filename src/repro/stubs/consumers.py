"""Data sink (consumer) stubs."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.broker.batch import RecordBatch
from repro.broker.cluster import BrokerCluster
from repro.broker.consumer import Consumer, ConsumerConfig, ConsumerRecord
from repro.core.configs import ConsumerStubConfig
from repro.simulation.process import Lifecycle
from repro.store.server import StoreClient


class ConsumerStub(Lifecycle):
    """Base class for data sinks: owns a consumer client and latency accounting."""

    def __init__(
        self,
        cluster: BrokerCluster,
        host_name: str,
        config: Optional[ConsumerStubConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.host_name = host_name
        self.config = config or ConsumerStubConfig()
        self.name = name or f"{type(self).__name__}-{host_name}"
        self.consumer: Consumer = cluster.create_consumer(
            host_name,
            config=ConsumerConfig(
                poll_interval=self.config.poll_interval,
                keep_payloads=self.config.keep_payloads,
                isolation_level=self.config.isolation_level,
            ),
            name=f"{self.name}-consumer",
            on_batch=self._on_batch,
        )
        self.consumer.subscribe(self.config.topics)
        self.latencies: List[float] = []

    def start(self) -> None:
        if not self._open():
            return
        if self.config.start_delay > 0:
            self.sim.call_later(self.config.start_delay, self._start_consumer, self._scope)
        else:
            self.consumer.start()

    def _start_consumer(self, scope: set) -> None:
        # A stub stopped during its start delay stays stopped, and one
        # restarted there starts when the restart's delay runs out.
        if self.running and scope is self._scope:
            self.consumer.start()

    def stop(self) -> None:
        super().stop()
        self.consumer.stop()

    @property
    def messages_consumed(self) -> int:
        return self.consumer.records_consumed

    def _on_batch(
        self, topic: str, partition: int, batch: RecordBatch, received_at: float
    ) -> None:
        self.latencies.extend(
            [received_at - produced_at for produced_at in batch.produced_ats]
        )
        self.handle(topic, batch)

    def handle(self, topic: str, batch: RecordBatch) -> None:
        """Subclass hook: what to do with each delivered batch of visible rows."""

    # -- metrics --------------------------------------------------------------------
    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    def max_latency(self) -> float:
        return max(self.latencies, default=0.0)


class StandardConsumerStub(ConsumerStub):
    """The default data sink: record everything, compute delivery metrics."""

    @property
    def records(self) -> List[ConsumerRecord]:
        """Every delivered record (empty unless ``keepPayloads``): the
        consumer client's own ``received`` list, not a second copy."""
        return self.consumer.received

    def received_keys(self, topic: Optional[str] = None) -> List[Any]:
        return [
            record.key
            for record in self.records
            if topic is None or record.topic == topic
        ]


class FileSinkConsumerStub(ConsumerStub):
    """Append consumed payloads to an in-memory file image (one list per topic)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.files: Dict[str, List[Any]] = {}

    def handle(self, topic: str, batch: RecordBatch) -> None:
        self.files.setdefault(topic, []).extend(batch.values)

    def lines(self, topic: str) -> List[Any]:
        return list(self.files.get(topic, []))


class StoreSinkConsumerStub(ConsumerStub):
    """Forward each consumed message into an external data store."""

    def __init__(
        self,
        cluster: BrokerCluster,
        host_name: str,
        config: Optional[ConsumerStubConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(cluster, host_name, config, name)
        if not self.config.store_host:
            raise ValueError("StoreSinkConsumerStub requires storeHost in its config")
        self.store_client = StoreClient(
            cluster.network.host(host_name), store_host=self.config.store_host
        )

    def handle(self, topic: str, batch: RecordBatch) -> None:
        keys = batch.keys
        for index, value in enumerate(batch.values):
            key = keys[index]
            if key is None:
                key = f"{topic}-{batch.offset_at(index)}"
            self.store_client.put_async(self.config.store_table, key, value)
