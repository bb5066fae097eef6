"""Component configuration objects and YAML loading.

Each application component referenced from the task description carries its
own configuration, written as a small YAML document (Figure 3 of the paper).
This module defines the schema of those documents as dataclasses and converts
freely between YAML text, dictionaries and the dataclasses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Optional

import yaml

from repro.broker.topic import TopicConfig
from repro.network.faults import Fault
from repro.simulation.engine import duration_to_seconds


def load_yaml_file(path: str) -> Any:
    """Load a YAML document from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return yaml.safe_load(handle)


def load_config_value(value: Any, base_dir: Optional[str] = None) -> Any:
    """Resolve an attribute value: inline YAML/dict or a path to a YAML file."""
    if isinstance(value, dict):
        return value
    if not isinstance(value, str):
        return value
    candidate = value.strip()
    looks_like_file = candidate.endswith((".yaml", ".yml", ".cfg", ".json"))
    if looks_like_file:
        path = candidate
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        if os.path.exists(path):
            return load_yaml_file(path)
        # Referenced but missing config files resolve to an empty mapping so
        # that task descriptions copied from the paper remain loadable.
        return {}
    parsed = yaml.safe_load(candidate)
    return parsed


def _size_to_bytes(value: Any, default: int) -> int:
    """Parse human-friendly sizes such as ``32m``, ``16MB``, ``1g``."""
    if value is None:
        return default
    if isinstance(value, (int, float)):
        return int(value)
    text = str(value).strip().lower()
    multipliers = {"k": 1024, "m": 1024**2, "g": 1024**3}
    for suffix in ("kb", "mb", "gb", "k", "m", "g", "b"):
        if text.endswith(suffix):
            number = text[: -len(suffix)].strip()
            factor = multipliers.get(suffix[0], 1)
            return int(float(number) * factor)
    return int(float(text))


@dataclass
class PlatformOverrides:
    """The catalog-wide platform knobs, declared once.

    Every scenario config carries one of these as its ``platform`` field
    (``--set partitions=4`` resolves through it) and
    :meth:`Emulation.build <repro.core.emulation.Emulation.build>` lays it
    :meth:`onto` every topic, ``prodCfg`` and ``consCfg`` of the task
    description it deploys.  A knob is named after the field it overrides on
    :class:`~repro.broker.topic.TopicConfig`, the stub configs below and the
    broker client configs they feed, so adding one is adding one field here.
    A knob left at its default leaves the description's own value alone.
    """

    #: Partitions per topic (replica sets rotate across the brokers).
    partitions: int = 1
    #: Exactly-once produce path: producers carry sequence numbers and
    #: brokers drop duplicate retries (``docs/exactly_once.md``).
    idempotence: bool = False
    #: Transactional produce path (atomic batches; implies idempotence).
    transactional_id: str = ""
    #: ``read_committed`` delivers only committed transactions downstream.
    isolation_level: str = "read_uncommitted"
    #: Segmented log storage (``docs/log_storage.md``); all unset = logs that
    #: never roll and keep every record.
    segment_records: Optional[int] = None
    retention_bytes: Optional[int] = None
    retention_ms: Optional[float] = None
    cleanup_policy: str = "delete"

    def onto(self, config: Any) -> Any:
        """``config`` (any dataclass) with every set knob it has a field for."""
        names = {spec.name for spec in fields(config)}
        changes = {
            knob.name: getattr(self, knob.name)
            for knob in fields(self)
            if knob.name in names and getattr(self, knob.name) != knob.default
        }
        return replace(config, **changes) if changes else config


@dataclass
class ProducerStubConfig:
    """Configuration of a data source stub (Figure 3a)."""

    #: Stub name (``name`` in YAML; default ``producer-<node>``).  It seeds
    #: the stub's RNG stream and suffixes its transactional id.
    name: Optional[str] = None
    topic: str = "raw-data"
    topics: List[str] = field(default_factory=list)
    file_path: Optional[str] = None
    total_messages: Optional[int] = None
    message_size: int = 512
    rate_kbps: Optional[float] = None
    messages_per_second: Optional[float] = None
    request_timeout: float = 2.0
    #: How long a record may wait for its acknowledgement before it fails
    #: (``deliveryTimeout`` in YAML; Kafka's ``delivery.timeout.ms``).
    delivery_timeout: float = 120.0
    buffer_memory: int = 32 * 1024 * 1024
    acks: Any = 1
    #: Exactly-once produce path (``idempotence`` in YAML): the stub's
    #: producer initializes a coordinator-allocated id and brokers drop
    #: duplicate retries (see ``docs/exactly_once.md``).
    idempotence: bool = False
    #: Transactional produce path (``transactionalId`` in YAML): the stub
    #: groups its output into atomic transactions of ``transaction_batch``
    #: records each (implies idempotence).  The stub suffixes its own name,
    #: so several stubs sharing one scenario-level id never fence each other.
    transactional_id: Optional[str] = None
    #: Records per committed transaction when ``transactional_id`` is set.
    transaction_batch: int = 20
    start_delay: float = 0.0
    #: Dict field of each produced item to use as the record key (``keyField``
    #: in YAML).  Keyed records hash to a stable partition, so multi-partition
    #: topics preserve per-entity order; unset falls back to the stub's
    #: sequential key.
    key_field: Optional[str] = None

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ProducerStubConfig":
        data = data or {}
        topics = data.get("topics") or []
        if isinstance(topics, str):
            topics = [topics]
        return cls(
            name=data.get("name"),
            topic=data.get("topicName") or data.get("topic") or "raw-data",
            topics=list(topics),
            file_path=data.get("filePath") or data.get("file"),
            total_messages=(
                None
                if data.get("totalMessages") is None
                else int(data["totalMessages"])
            ),
            message_size=_size_to_bytes(data.get("messageSize"), 512),
            rate_kbps=(None if data.get("rateKbps") is None else float(data["rateKbps"])),
            messages_per_second=(
                None
                if data.get("messagesPerSecond") is None
                else float(data["messagesPerSecond"])
            ),
            request_timeout=duration_to_seconds(data.get("requestTimeout"), 2.0),
            delivery_timeout=duration_to_seconds(data.get("deliveryTimeout"), 120.0),
            buffer_memory=_size_to_bytes(data.get("bufferMemory"), 32 * 1024 * 1024),
            acks=data.get("acks", 1),
            idempotence=bool(data.get("idempotence", data.get("idempotent", False))),
            transactional_id=(
                data.get("transactionalId") or data.get("transactional_id")
            ),
            transaction_batch=int(
                data.get("transactionBatch", data.get("transaction_batch", 20))
            ),
            start_delay=duration_to_seconds(data.get("startDelay"), 0.0),
            key_field=data.get("keyField") or data.get("key_field"),
        )

    @property
    def all_topics(self) -> List[str]:
        return self.topics if self.topics else [self.topic]


@dataclass
class ConsumerStubConfig:
    """Configuration of a data sink stub."""

    #: Stub name (``name`` in YAML; default ``consumer-<node>``).
    name: Optional[str] = None
    topics: List[str] = field(default_factory=lambda: ["raw-data"])
    output_path: Optional[str] = None
    store_host: Optional[str] = None
    store_table: str = "results"
    poll_interval: float = 0.05
    keep_payloads: bool = True
    #: ``read_uncommitted`` (default) or ``read_committed`` — the latter only
    #: delivers records of committed transactions (``isolationLevel`` in
    #: YAML; see ``docs/exactly_once.md``).
    isolation_level: str = "read_uncommitted"
    start_delay: float = 0.0

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ConsumerStubConfig":
        data = data or {}
        topics = data.get("topics") or data.get("topicName") or data.get("topic") or ["raw-data"]
        if isinstance(topics, str):
            topics = [topics]
        return cls(
            name=data.get("name"),
            topics=list(topics),
            output_path=data.get("outputPath"),
            store_host=data.get("storeHost"),
            store_table=data.get("storeTable", "results"),
            poll_interval=duration_to_seconds(data.get("pollInterval"), 0.05),
            keep_payloads=bool(data.get("keepPayloads", True)),
            isolation_level=str(
                data.get("isolationLevel", data.get("isolation_level", "read_uncommitted"))
            ),
            start_delay=duration_to_seconds(data.get("startDelay"), 0.0),
        )


@dataclass
class SPEAppConfig:
    """Configuration of a stream processing job (Figure 3b)."""

    app: str = "identity"
    input_topics: List[str] = field(default_factory=lambda: ["raw-data"])
    output_topic: Optional[str] = None
    batch_interval: float = 1.0
    parallelism: int = 4
    executor_memory: int = 1024 * 1024 * 1024
    event_log: bool = False
    options: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SPEAppConfig":
        data = data or {}
        input_topics = data.get("inputTopics") or data.get("inputTopic") or ["raw-data"]
        if isinstance(input_topics, str):
            input_topics = [input_topics]
        app = data.get("app", "identity")
        if isinstance(app, str) and app.endswith(".py"):
            app = os.path.splitext(os.path.basename(app))[0].replace("-", "_")
        known = {
            "app", "inputTopics", "inputTopic", "outputTopic", "batchInterval",
            "parallelism", "executorMemory", "eventLog",
        }
        options = {key: value for key, value in data.items() if key not in known}
        return cls(
            app=app,
            input_topics=list(input_topics),
            output_topic=data.get("outputTopic"),
            batch_interval=duration_to_seconds(data.get("batchInterval"), 1.0),
            parallelism=int(data.get("parallelism", 4)),
            executor_memory=_size_to_bytes(data.get("executorMemory"), 1024**3),
            event_log=bool(data.get("eventLog", False)),
            options=options,
        )


@dataclass
class BrokerNodeConfig:
    """Configuration of a message broker node."""

    name: Optional[str] = None
    is_coordinator: bool = False

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BrokerNodeConfig":
        data = data or {}
        return cls(
            name=data.get("name"),
            is_coordinator=bool(data.get("coordinator", False)),
        )


@dataclass
class StoreNodeConfig:
    """Configuration of a data store node."""

    name: Optional[str] = None
    tables: List[str] = field(default_factory=list)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StoreNodeConfig":
        data = data or {}
        tables = data.get("tables") or []
        if isinstance(tables, str):
            tables = [tables]
        return cls(name=data.get("name"), tables=list(tables))


def _entries(document: Any, key: str) -> List[Dict[str, Any]]:
    """A ``topicCfg`` / ``faultCfg`` document's entries: the document is their
    list, or a mapping holding it under ``key``."""
    if document is None:
        return []
    return document.get(key, []) if isinstance(document, dict) else document


def parse_topics_config(document: Any) -> List[TopicConfig]:
    """Parse a ``topicCfg`` document (list of topic entries or mapping)."""
    return [TopicConfig.from_dict(entry) for entry in _entries(document, "topics")]


def parse_faults_config(document: Any) -> List[Fault]:
    """Parse a ``faultCfg`` document (list of fault entries or mapping)."""
    return [Fault.from_dict(entry) for entry in _entries(document, "faults")]
