"""Data sink (consumer) stubs."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.broker.cluster import BrokerCluster
from repro.broker.consumer import Consumer, ConsumerConfig, ConsumerRecord
from repro.core.configs import ConsumerStubConfig
from repro.store.server import StoreClient


class ConsumerStub:
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
            on_record=self._on_record,
        )
        self.consumer.subscribe(self.config.topics)
        self.messages_consumed = 0
        self.latencies: List[float] = []
        self.running = False

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        if self.config.start_delay > 0:
            self.sim.schedule_callback(
                self.config.start_delay, self.consumer.start, name=f"{self.name}:start"
            )
        else:
            self.consumer.start()

    def stop(self) -> None:
        self.running = False
        self.consumer.stop()

    def _on_record(self, record: ConsumerRecord) -> None:
        self.messages_consumed += 1
        self.latencies.append(record.latency)
        self.handle(record)

    def handle(self, record: ConsumerRecord) -> None:
        """Subclass hook: what to do with each record."""

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

    def handle(self, record: ConsumerRecord) -> None:
        self.files.setdefault(record.topic, []).append(record.value)

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

    def handle(self, record: ConsumerRecord) -> None:
        key = record.key if record.key is not None else f"{record.topic}-{record.offset}"
        self.store_client.put_async(self.config.store_table, key, record.value)
