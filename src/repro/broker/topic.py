"""Topic configuration and partition state metadata."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.broker.segment import LogStorageConfig

#: The storage knobs in ``topicCfg`` order: their YAML key and value type.
#: The field names are read as keys too.
_STORAGE_KEYS = {
    "segment_records": ("segmentRecords", int),
    "retention_bytes": ("retentionBytes", int),
    "retention_ms": ("retentionMs", float),
    "cleanup_policy": ("cleanupPolicy", str),
}


@dataclass
class TopicConfig:
    """One topic: an entry of the ``topicCfg`` graph attribute (Table I).

    Attributes
    ----------
    name:
        Topic name (``name`` or ``topicName`` in YAML).
    partitions:
        Number of partitions (the paper's scenarios use 1 per topic).
    replication_factor:
        Number of replicas per partition (``replicas`` or
        ``replicationFactor`` in YAML).
    preferred_leader:
        Broker name that should lead partition 0 (stream2gym lets users pin a
        "primary broker" per topic: ``primaryBroker`` in YAML, which may name
        the broker's node); remaining replicas are assigned by the cluster.
    retention_bytes / retention_ms / segment_records / cleanup_policy:
        Per-topic log storage knobs (Kafka's ``retention.bytes`` /
        ``retention.ms`` / ``segment.*`` / ``cleanup.policy``).  All default
        to "unset" — topics then inherit the broker-wide
        :class:`~repro.broker.segment.LogStorageConfig` (or, when no storage
        is configured at all, logs that never roll).  Non-default
        values travel in the metadata snapshot's per-partition ``"log"``
        entry and are merged over the broker default on every replica.
    """

    name: str
    partitions: int = 1
    replication_factor: int = 1
    preferred_leader: Optional[str] = None
    retention_bytes: Optional[int] = None
    retention_ms: Optional[float] = None
    segment_records: Optional[int] = None
    cleanup_policy: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("topic name must be non-empty")
        if self.partitions <= 0:
            raise ValueError("partitions must be positive")
        if self.replication_factor <= 0:
            raise ValueError("replication_factor must be positive")
        LogStorageConfig(**(self.storage_overrides() or {}))  # checks the knobs

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TopicConfig":
        """One entry of a ``topicCfg`` document."""
        storage = {}
        for name, (key, kind) in _STORAGE_KEYS.items():
            value = data.get(key, data.get(name))
            if value is not None:
                storage[name] = kind(value)
        return cls(
            name=data.get("name") or data.get("topicName"),
            partitions=int(data.get("partitions", 1)),
            replication_factor=int(data.get("replicas", data.get("replicationFactor", 1))),
            preferred_leader=data.get("primaryBroker") or data.get("primary_broker"),
            **storage,
        )

    def to_dict(self) -> Dict[str, Any]:
        """The ``topicCfg`` entry :meth:`from_dict` reads back as this topic
        (storage knobs only when set, keeping default documents stable)."""
        entry = {
            "name": self.name,
            "partitions": self.partitions,
            "replicas": self.replication_factor,
            "primaryBroker": self.preferred_leader,
        }
        for name, value in (self.storage_overrides() or {}).items():
            entry[_STORAGE_KEYS[name][0]] = value
        return entry

    def storage_overrides(self) -> Optional[dict]:
        """The topic's non-default storage knobs as a metadata-snapshot dict
        (``None`` — no ``"log"`` entry at all — when everything is default,
        keeping default snapshots byte-identical on the wire)."""
        overrides = {name: getattr(self, name) for name in _STORAGE_KEYS}
        return {name: value for name, value in overrides.items() if value is not None} or None


@dataclass
class PartitionState:
    """Dynamic, cluster-wide view of one topic-partition.

    This is the metadata the controller maintains and distributes: the replica
    assignment (first entry = preferred leader), the current leader, the
    leader epoch, and the in-sync replica set.
    """

    topic: str
    partition: int
    replicas: List[str]
    leader: Optional[str] = None
    leader_epoch: int = 0
    isr: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.replicas:
            raise ValueError("a partition needs at least one replica")
        if not self.isr:
            self.isr = list(self.replicas)
        if self.leader is None:
            self.leader = self.replicas[0]

    @property
    def key(self) -> str:
        return f"{self.topic}-{self.partition}"

    @property
    def preferred_leader(self) -> str:
        return self.replicas[0]

    def copy(self) -> "PartitionState":
        return PartitionState(
            topic=self.topic,
            partition=self.partition,
            replicas=list(self.replicas),
            leader=self.leader,
            leader_epoch=self.leader_epoch,
            isr=list(self.isr),
        )

    def __repr__(self) -> str:
        return (
            f"<PartitionState {self.key} leader={self.leader} epoch={self.leader_epoch} "
            f"isr={self.isr}>"
        )
