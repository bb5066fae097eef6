"""Event streaming platform (Apache Kafka substitute).

This package implements, at protocol level, the parts of Apache Kafka that
stream2gym's evaluation exercises:

* topics with replicated, partitioned, append-only logs;
* a cluster controller driven by either a ZooKeeper-style coordination
  service (sessions + watches, reproducing the silent message loss on
  network-partition merge reported in the paper) or a Raft-style metadata
  quorum (``KRaft``, which does not lose messages);
* leader election from the in-sync replica set, follower log truncation on
  rejoin, and preferred-replica (re-)election;
* producers with buffer memory, batching, retries, acknowledgements and
  request timeouts;
* consumers with offset tracking, polling fetches and delivery latency
  accounting.

Public entry points are :class:`BrokerCluster` (server side),
:class:`Producer` and :class:`Consumer` (client side).
"""

from repro.broker.broker import Broker
from repro.broker.cluster import BrokerCluster, ClusterConfig, CoordinationMode
from repro.broker.consumer import Consumer, ConsumerConfig, ConsumerRecord
from repro.broker.coordinator import Coordinator, GroupState, assign_range, assign_roundrobin
from repro.broker.errors import DeliveryFailed
from repro.broker.log import LogRecord, PartitionLog
from repro.broker.message import ProducerRecord, RecordMetadata
from repro.broker.producer import Producer, ProducerConfig
from repro.broker.topic import PartitionState, TopicConfig

__all__ = [
    "Broker",
    "BrokerCluster",
    "ClusterConfig",
    "CoordinationMode",
    "Coordinator",
    "GroupState",
    "assign_range",
    "assign_roundrobin",
    "Producer",
    "ProducerConfig",
    "ProducerRecord",
    "RecordMetadata",
    "Consumer",
    "ConsumerConfig",
    "ConsumerRecord",
    "TopicConfig",
    "PartitionState",
    "PartitionLog",
    "LogRecord",
    "DeliveryFailed",
]
