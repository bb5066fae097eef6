"""Cluster orchestration helper: coordinator + brokers + topics + clients.

:class:`BrokerCluster` is the convenience layer the stream2gym core uses to
stand up the event streaming platform described in a task description: it
places the coordination service, starts one broker per requested host,
creates the configured topics and hands out producers/consumers bound to
specific hosts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.broker.broker import Broker
from repro.broker.consumer import Consumer, ConsumerConfig
from repro.broker.coordinator import CoordinationMode, Coordinator
from repro.broker.producer import Producer, ProducerConfig
from repro.broker.segment import LogStorageConfig
from repro.broker.topic import TopicConfig
from repro.network.network import Network


@dataclass
class ClusterConfig:
    """Cluster-wide knobs for the event streaming platform."""

    mode: CoordinationMode = CoordinationMode.ZOOKEEPER
    session_timeout: float = 9.0
    preferred_election_interval: float = 30.0
    #: Ceiling on how long a transaction may stay open before the
    #: coordinator's sweeper aborts it (producers may configure less).
    transaction_timeout: float = 60.0
    #: Cluster-wide log storage, declared here and only here (sweepable like
    #: every other knob): :meth:`log_storage` folds these five into the
    #: :class:`~repro.broker.segment.LogStorageConfig` each broker's logs
    #: start from; all at their defaults means logs never roll and keep
    #: every record.  ``retention_ms`` follows Kafka's unit; ``log_dir``
    #: enables the on-disk cold tier for sealed segments.
    segment_records: Optional[int] = None
    retention_bytes: Optional[int] = None
    retention_ms: Optional[float] = None
    cleanup_policy: str = "delete"
    log_dir: Optional[str] = None

    def __post_init__(self) -> None:
        self.mode = CoordinationMode(self.mode)
        self.log_storage()  # a bad storage knob fails here, not at deployment

    def log_storage(self) -> Optional[LogStorageConfig]:
        """The storage knobs as one config (``None`` when none is set)."""
        storage = LogStorageConfig(
            segment_records=self.segment_records,
            retention_bytes=self.retention_bytes,
            retention_ms=self.retention_ms,
            cleanup_policy=self.cleanup_policy,
            segment_dir=self.log_dir,
        )
        return None if storage == LogStorageConfig() else storage


class BrokerCluster:
    """One event streaming cluster deployed over an emulated network."""

    def __init__(
        self,
        network: Network,
        coordinator_host: str,
        config: Optional[ClusterConfig] = None,
    ) -> None:
        self.network = network
        self.sim = network.sim
        self.config = config or ClusterConfig()
        self.coordinator = Coordinator(
            network.host(coordinator_host),
            mode=self.config.mode,
            session_timeout=self.config.session_timeout,
            preferred_election_interval=self.config.preferred_election_interval,
            transaction_timeout=self.config.transaction_timeout,
        )
        self.brokers: Dict[str, Broker] = {}
        self.topics: Dict[str, TopicConfig] = {}
        self.producers: List[Producer] = []
        self.consumers: List[Consumer] = []
        self._started = False

    # -- construction -------------------------------------------------------------------
    def add_broker(self, host_name: str, name: Optional[str] = None) -> Broker:
        """Place a broker on ``host_name``."""
        broker = Broker(
            self.network.host(host_name),
            name=name or f"broker-{host_name}",
            coordinator_host=self.coordinator.host.name,
            mode=self.config.mode,
            log_storage=self.config.log_storage(),
        )
        self.brokers[broker.name] = broker
        return broker

    def add_topic(self, config: TopicConfig) -> None:
        """Declare a topic; it is created on the coordinator at start()."""
        if config.name in self.topics:
            raise ValueError(f"topic {config.name!r} already declared")
        self.topics[config.name] = config

    def create_producer(
        self,
        host_name: str,
        config: Optional[ProducerConfig] = None,
        name: Optional[str] = None,
    ) -> Producer:
        producer = Producer(
            self.network.host(host_name),
            bootstrap=self.bootstrap_hosts(prefer=host_name),
            config=config,
            name=name,
        )
        self.producers.append(producer)
        return producer

    def create_consumer(
        self,
        host_name: str,
        config: Optional[ConsumerConfig] = None,
        name: Optional[str] = None,
        on_batch=None,
    ) -> Consumer:
        consumer = Consumer(
            self.network.host(host_name),
            bootstrap=self.bootstrap_hosts(prefer=host_name),
            config=config,
            name=name,
            on_batch=on_batch,
        )
        self.consumers.append(consumer)
        return consumer

    def bootstrap_hosts(self, prefer: Optional[str] = None) -> List[str]:
        """Broker host names usable for bootstrapping clients.

        A client co-located with a broker lists its local broker first, which
        mirrors the common Kafka deployment practice and matters during
        partitions (the local broker remains reachable over loopback).
        """
        hosts = [broker.host.name for broker in self.brokers.values()]
        if prefer in hosts:
            hosts.remove(prefer)
            hosts.insert(0, prefer)
        return hosts

    # -- lifecycle ----------------------------------------------------------------------
    def start(self, settle_time: float = 5.0) -> None:
        """Start coordinator and brokers and create topics.

        ``settle_time`` schedules topic creation shortly after the brokers
        have registered (registration itself is an asynchronous exchange).
        """
        if self._started:
            return
        self._started = True
        self.coordinator.start()
        for broker in self.brokers.values():
            broker.start()
        self.sim.call_later(settle_time, self._create_topics)

    def _create_topics(self) -> None:
        for config in self.topics.values():
            self.coordinator.create_topic(config)

    # -- introspection --------------------------------------------------------------------
    def leader_broker(self, topic: str, partition: int = 0) -> Optional[Broker]:
        leader_name = self.coordinator.leader_of(topic, partition)
        return self.brokers.get(leader_name) if leader_name else None

    def group_state(self, name: str):
        """Coordinator-side state of one consumer group (or None)."""
        return self.coordinator.group_state(name)

    def total_lost_records(self) -> int:
        """Records that were acknowledged to producers but truncated away."""
        return sum(
            log.truncated_records
            for broker in self.brokers.values()
            for log in broker.logs.values()
        )

    def total_duplicates_dropped(self) -> int:
        """Duplicate records dropped by broker-side idempotence dedup."""
        return sum(
            broker.metrics["duplicate_records"] for broker in self.brokers.values()
        )

    def total_transactions_committed(self) -> int:
        """Transactions the coordinator drove to CompleteCommit."""
        return self.coordinator.txn_metrics["transactions_committed"]

    def total_transactions_aborted(self) -> int:
        """Transactions aborted (producer-requested, timed out, or fenced)."""
        return self.coordinator.txn_metrics["transactions_aborted"]

    def total_fenced_end_txn(self) -> int:
        """end_txn attempts rejected because a newer instance fenced the caller."""
        return self.coordinator.txn_metrics["fenced_end_txn"]

    def total_control_batches(self) -> int:
        """COMMIT/ABORT control records appended across all partition leaders."""
        return sum(
            broker.metrics["control_batches"] for broker in self.brokers.values()
        )

    def total_control_batch_bytes(self) -> int:
        """Log bytes occupied by transaction control records."""
        return sum(
            broker.metrics["control_batch_bytes"] for broker in self.brokers.values()
        )

    def _total_storage_metric(self, name: str) -> int:
        """Sum of one ``PartitionLog.stats`` counter over every replica."""
        return sum(
            log.stats[name] for broker in self.brokers.values() for log in broker.logs.values()
        )

    def total_segments_sealed(self) -> int:
        """Head segments sealed across all replicas (storage plane)."""
        return self._total_storage_metric("segments_sealed")

    def total_segments_evicted(self) -> int:
        """Sealed segments evicted to the cold tier across all replicas."""
        return self._total_storage_metric("segments_evicted")

    def total_retention_records_dropped(self) -> int:
        """Records deleted by time/size retention across all replicas."""
        return self._total_storage_metric("retention_records_dropped")

    def total_compaction_records_removed(self) -> int:
        """Records removed by key compaction across all replicas."""
        return self._total_storage_metric("compaction_records_removed")

    def describe(self) -> dict:
        return {
            "mode": self.config.mode.value,
            "coordinator": self.coordinator.host.name,
            "brokers": {name: broker.host.name for name, broker in self.brokers.items()},
            "topics": list(self.topics),
        }
