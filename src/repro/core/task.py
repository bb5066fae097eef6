"""Programmatic task descriptions.

A :class:`TaskDescription` is the in-memory form of the stream2gym input: a
set of nodes (hosts or switches) with Table I attributes, a set of links, and
the graph-level topic and fault configurations.  GraphML files parse into this
structure; programmatic users (and the example applications) can also build it
directly through the fluent helper methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.attributes import (
    NodeAttribute,
    validate_link_attributes,
    validate_node_attributes,
)
from repro.core.configs import (
    FaultSpec,
    TopicSpec,
    parse_faults_config,
    parse_topics_config,
)


@dataclass
class NodeDescription:
    """One node of the task description graph."""

    node_id: str
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def is_switch(self) -> bool:
        """Nodes without component attributes are plain switches."""
        return not self.attributes

    @property
    def is_host(self) -> bool:
        return not self.is_switch

    def attribute(self, name: str, default: Any = None) -> Any:
        return self.attributes.get(name, default)

    def component_kinds(self) -> List[str]:
        """Which component kinds this node hosts (producer, broker, ...)."""
        kinds = []
        if NodeAttribute.PROD_TYPE.value in self.attributes:
            kinds.append("producer")
        if NodeAttribute.CONS_TYPE.value in self.attributes:
            kinds.append("consumer")
        if NodeAttribute.BROKER_CFG.value in self.attributes:
            kinds.append("broker")
        if NodeAttribute.STREAM_PROC_TYPE.value in self.attributes:
            kinds.append("spe")
        if NodeAttribute.STORE_TYPE.value in self.attributes:
            kinds.append("store")
        return kinds


@dataclass
class LinkDescription:
    """One link of the task description graph."""

    source: str
    target: str
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def latency_ms(self) -> float:
        return float(self.attributes.get("lat", 1.0))

    @property
    def bandwidth_mbps(self) -> Optional[float]:
        raw = self.attributes.get("bw")
        return None if raw is None else float(raw)

    @property
    def loss_percent(self) -> float:
        return float(self.attributes.get("loss", 0.0))

    @property
    def source_port(self) -> Optional[int]:
        raw = self.attributes.get("st")
        return None if raw is None else int(raw)

    @property
    def destination_port(self) -> Optional[int]:
        raw = self.attributes.get("dt")
        return None if raw is None else int(raw)


class TaskDescription:
    """The complete description of one emulation task."""

    def __init__(self, name: str = "task") -> None:
        self.name = name
        self.nodes: Dict[str, NodeDescription] = {}
        self.links: List[LinkDescription] = []
        self.graph_attributes: Dict[str, Any] = {}

    # -- construction helpers --------------------------------------------------------
    def add_node(self, node_id: str, **attributes: Any) -> NodeDescription:
        """Add a node; keyword arguments become Table I attributes."""
        if node_id in self.nodes:
            raise ValueError(f"duplicate node id {node_id!r}")
        node = NodeDescription(node_id=node_id, attributes=dict(attributes))
        self.nodes[node_id] = node
        return node

    def add_switch(self, node_id: str) -> NodeDescription:
        return self.add_node(node_id)

    def add_link(
        self,
        source: str,
        target: str,
        lat: Optional[float] = None,
        bw: Optional[float] = None,
        loss: Optional[float] = None,
        st: Optional[int] = None,
        dt: Optional[int] = None,
    ) -> LinkDescription:
        attributes: Dict[str, Any] = {}
        if lat is not None:
            attributes["lat"] = lat
        if bw is not None:
            attributes["bw"] = bw
        if loss is not None:
            attributes["loss"] = loss
        if st is not None:
            attributes["st"] = st
        if dt is not None:
            attributes["dt"] = dt
        link = LinkDescription(source=source, target=target, attributes=attributes)
        self.links.append(link)
        return link

    def set_topics(self, topics: List[TopicSpec]) -> None:
        entries = []
        for topic in topics:
            entry = {
                "name": topic.name,
                "partitions": topic.partitions,
                "replicas": topic.replicas,
                "primaryBroker": topic.primary_broker,
            }
            # Storage knobs only when set, keeping default documents stable.
            if topic.segment_records is not None:
                entry["segmentRecords"] = topic.segment_records
            if topic.retention_bytes is not None:
                entry["retentionBytes"] = topic.retention_bytes
            if topic.retention_ms is not None:
                entry["retentionMs"] = topic.retention_ms
            if topic.cleanup_policy is not None:
                entry["cleanupPolicy"] = topic.cleanup_policy
            entries.append(entry)
        self.graph_attributes["topicCfg"] = {"topics": entries}

    def set_faults(self, faults: List[FaultSpec]) -> None:
        self.graph_attributes["faultCfg"] = {
            "faults": [
                {
                    "kind": fault.kind,
                    "targets": list(fault.targets),
                    "start": fault.start,
                    "duration": fault.duration,
                    "lossPercent": fault.loss_percent,
                }
                for fault in faults
            ]
        }

    # -- derived views -------------------------------------------------------------------
    @property
    def topics(self) -> List[TopicSpec]:
        return parse_topics_config(self.graph_attributes.get("topicCfg"))

    @property
    def faults(self) -> List[FaultSpec]:
        return parse_faults_config(self.graph_attributes.get("faultCfg"))

    def hosts(self) -> List[NodeDescription]:
        return [node for node in self.nodes.values() if node.is_host]

    def switches(self) -> List[NodeDescription]:
        return [node for node in self.nodes.values() if node.is_switch]

    def nodes_with(self, attribute: str) -> List[NodeDescription]:
        return [node for node in self.nodes.values() if attribute in node.attributes]

    def component_count(self) -> int:
        """Number of application components across all nodes (Table II metric)."""
        return sum(len(node.component_kinds()) for node in self.nodes.values())

    # -- validation -----------------------------------------------------------------------
    def validate(self) -> List[str]:
        """Return all problems found in the description (empty when valid)."""
        problems: List[str] = []
        for node in self.nodes.values():
            for problem in validate_node_attributes(node.attributes):
                problems.append(f"node {node.node_id}: {problem}")
        known = set(self.nodes)
        for link in self.links:
            for endpoint in (link.source, link.target):
                if endpoint not in known:
                    problems.append(f"link references unknown node {endpoint!r}")
            for problem in validate_link_attributes(link.attributes):
                problems.append(f"link {link.source}-{link.target}: {problem}")
        if not self.links and len(self.nodes) > 1:
            problems.append("task has multiple nodes but no links")
        broker_nodes = self.nodes_with("brokerCfg")
        if self.topics and not broker_nodes:
            problems.append("topics are configured but no node hosts a broker")
        for topic in self.topics:
            if topic.replicas > max(1, len(broker_nodes)):
                problems.append(
                    f"topic {topic.name!r} requests {topic.replicas} replicas but only "
                    f"{len(broker_nodes)} broker nodes exist"
                )
        linked = {frozenset((link.source, link.target)) for link in self.links}
        for fault in self.faults:
            for target in fault.targets:
                if target not in known:
                    problems.append(f"{fault.kind} fault targets unknown node {target!r}")
            if (
                fault.kind in ("link_down", "transient_loss")
                and known.issuperset(fault.targets)
                and frozenset(fault.targets) not in linked
            ):
                problems.append(f"{fault.kind} fault: no link between {fault.targets}")
        return problems

    def require_valid(self) -> None:
        problems = self.validate()
        if problems:
            raise ValueError("invalid task description:\n- " + "\n- ".join(problems))

    def summary(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "hosts": len(self.hosts()),
            "switches": len(self.switches()),
            "links": len(self.links),
            "components": self.component_count(),
            "topics": [topic.name for topic in self.topics],
            "faults": len(self.faults),
        }
