"""Topic configuration and partition state metadata."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class TopicConfig:
    """Static configuration of one topic (from the ``topicCfg`` graph attribute).

    Attributes
    ----------
    name:
        Topic name.
    partitions:
        Number of partitions (the paper's scenarios use 1 per topic).
    replication_factor:
        Number of replicas per partition.
    preferred_leader:
        Broker name that should lead partition 0 (stream2gym lets users pin a
        "primary broker" per topic); remaining replicas are assigned by the
        cluster.
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
        if self.cleanup_policy is not None and self.cleanup_policy not in (
            "delete",
            "compact",
        ):
            raise ValueError(
                f"unknown cleanup_policy {self.cleanup_policy!r}; expected "
                "'delete' or 'compact'"
            )
        if self.retention_bytes is not None and self.retention_bytes <= 0:
            raise ValueError("retention_bytes must be positive")
        if self.retention_ms is not None and self.retention_ms <= 0:
            raise ValueError("retention_ms must be positive")
        if self.segment_records is not None and self.segment_records <= 0:
            raise ValueError("segment_records must be positive")

    def storage_overrides(self) -> Optional[dict]:
        """The topic's non-default storage knobs as a metadata-snapshot dict
        (``None`` — no ``"log"`` entry at all — when everything is default,
        keeping default snapshots byte-identical on the wire)."""
        overrides = {}
        if self.segment_records is not None:
            overrides["segment_records"] = self.segment_records
        if self.retention_bytes is not None:
            overrides["retention_bytes"] = self.retention_bytes
        if self.retention_ms is not None:
            overrides["retention_ms"] = self.retention_ms
        if self.cleanup_policy is not None:
            overrides["cleanup_policy"] = self.cleanup_policy
        return overrides or None


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

    def shrink_isr(self, broker: str) -> None:
        if broker in self.isr and len(self.isr) > 1:
            self.isr.remove(broker)

    def expand_isr(self, broker: str) -> None:
        if broker in self.replicas and broker not in self.isr:
            self.isr.append(broker)

    def __repr__(self) -> str:
        return (
            f"<PartitionState {self.key} leader={self.leader} epoch={self.leader_epoch} "
            f"isr={self.isr}>"
        )
