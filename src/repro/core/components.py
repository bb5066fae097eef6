"""Component factory: deploy a task description onto the emulation substrates.

Given a validated :class:`TaskDescription`, the factory builds the network
topology, stands up the event streaming platform (coordinator + brokers +
topics), and instantiates every application component declared on the nodes:
producer stubs, consumer stubs, stream processing contexts (with their
registered application wired in), and data store servers.  Fault
configurations are translated into scheduled fault-injector actions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.broker.cluster import BrokerCluster, ClusterConfig
from repro.core.attributes import ConsumerType, NodeAttribute, ProducerType, StoreType
from repro.core.configs import (
    BrokerNodeConfig,
    ConsumerStubConfig,
    PlatformOverrides,
    ProducerStubConfig,
    SPEAppConfig,
    StoreNodeConfig,
)
from repro.core.registry import app_builder
from repro.core.task import NodeDescription, TaskDescription
from repro.engine.context import StreamingConfig, StreamingContext
from repro.engine.executor import ExecutorConfig
from repro.network.faults import FaultInjector
from repro.network.link import LinkConfig
from repro.network.network import Network
from repro.simulation import Simulator
from repro.store.server import StoreServer
from repro.stubs.consumers import (
    FileSinkConsumerStub,
    StandardConsumerStub,
    StoreSinkConsumerStub,
)
from repro.stubs.producers import (
    DirectoryProducerStub,
    RandomRateProducerStub,
    ReplayProducerStub,
    SFSTProducerStub,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.emulation import Emulation


@dataclass
class Deployment:
    """Everything the factory created for one emulation."""

    network: Network
    cluster: Optional[BrokerCluster] = None
    fault_injector: Optional[FaultInjector] = None
    producers: Dict[str, Any] = field(default_factory=dict)
    consumers: Dict[str, Any] = field(default_factory=dict)
    spes: Dict[str, StreamingContext] = field(default_factory=dict)
    stores: Dict[str, StoreServer] = field(default_factory=dict)


def build_network(task: TaskDescription, sim: Simulator) -> Network:
    """Create hosts, then switches, then links from the (validated) task."""
    network = Network(sim)
    for node in task.hosts():
        cpu = float(node.attribute(NodeAttribute.CPU_PERCENTAGE.value, 100.0))
        network.add_host(node.node_id, cpu_percentage=cpu)
    for node in task.switches():
        network.add_switch(node.node_id)
    for link in task.links:
        network.add_link(
            link.source,
            link.target,
            config=LinkConfig(
                latency_ms=link.latency_ms,
                bandwidth_mbps=link.bandwidth_mbps if link.bandwidth_mbps else 1000.0,
                loss_percent=link.loss_percent,
            ),
            port_a=link.source_port,
            port_b=link.destination_port,
        )
    network.start()
    return network


def build_cluster(
    task: TaskDescription,
    network: Network,
    cluster_config: Optional[ClusterConfig],
    platform: PlatformOverrides,
) -> Optional[BrokerCluster]:
    """Stand up the event streaming platform declared by the task description."""
    broker_nodes = task.nodes_with(NodeAttribute.BROKER_CFG.value)
    if not broker_nodes:
        return None
    configs = {
        node.node_id: BrokerNodeConfig.from_dict(
            node.attribute(NodeAttribute.BROKER_CFG.value) or {}
        )
        for node in broker_nodes
    }
    coordinator_host = next(
        (node_id for node_id, config in configs.items() if config.is_coordinator),
        broker_nodes[0].node_id,
    )
    cluster = BrokerCluster(network, coordinator_host=coordinator_host, config=cluster_config)
    broker_names = {
        node_id: cluster.add_broker(node_id, name=config.name).name
        for node_id, config in configs.items()
    }
    for topic in map(platform.onto, task.topics):
        # ``primaryBroker`` names a node; a broker name passes through.
        leader = broker_names.get(topic.preferred_leader, topic.preferred_leader)
        cluster.add_topic(replace(topic, preferred_leader=leader))
    return cluster


def build_fault_injector(task: TaskDescription, network: Network) -> FaultInjector:
    """Arm the fault injector with the ``faultCfg`` entries."""
    injector = FaultInjector(network)
    for fault in task.faults:
        injector.schedule(fault)
    return injector


def deploy_components(
    task: TaskDescription,
    deployment: Deployment,
    emulation: "Emulation",
    datasets: Dict[str, Sequence[Any]],
    platform: PlatformOverrides,
) -> None:
    """Instantiate producer/consumer stubs, SPE contexts and store servers."""
    for node in task.hosts():
        _deploy_store(node, deployment)
    for node in task.hosts():
        _deploy_producer(node, deployment, datasets, platform)
        _deploy_consumer(node, deployment, platform)
        _deploy_spe(node, deployment, emulation)


def _deploy_producer(
    node: NodeDescription,
    deployment: Deployment,
    datasets: Dict[str, Sequence[Any]],
    platform: PlatformOverrides,
) -> None:
    prod_type = node.attribute(NodeAttribute.PROD_TYPE.value)
    if prod_type is None:
        return
    if deployment.cluster is None:
        raise ValueError(
            f"node {node.node_id} declares a producer but no broker exists in the task"
        )
    config = platform.onto(
        ProducerStubConfig.from_dict(node.attribute(NodeAttribute.PROD_CFG.value) or {})
    )
    producer_type = ProducerType(prod_type)
    name = config.name or f"producer-{node.node_id}"
    if producer_type is ProducerType.SFST:
        items = list(datasets.get(config.file_path or "", [])) or _default_items(config)
        stub = SFSTProducerStub(deployment.cluster, node.node_id, items, config, name=name)
    elif producer_type is ProducerType.DIRECTORY:
        files = list(datasets.get(config.file_path or "", []))
        if not files:
            files = [(f"doc-{i}.txt", text) for i, text in enumerate(_default_items(config))]
        stub = DirectoryProducerStub(deployment.cluster, node.node_id, files, config, name=name)
    elif producer_type is ProducerType.RANDOM_RATE:
        stub = RandomRateProducerStub(deployment.cluster, node.node_id, config, name=name)
    elif producer_type is ProducerType.REPLAY:
        timeline = list(datasets.get(config.file_path or "", []))
        stub = ReplayProducerStub(deployment.cluster, node.node_id, timeline, config, name=name)
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unsupported producer type {producer_type}")
    deployment.producers[node.node_id] = stub


def _default_items(config: ProducerStubConfig) -> List[str]:
    """Fallback synthetic items when no dataset was registered for a file path."""
    total = config.total_messages or 100
    return [f"synthetic record {index} for {config.topic}" for index in range(total)]


def _deploy_consumer(
    node: NodeDescription, deployment: Deployment, platform: PlatformOverrides
) -> None:
    cons_type = node.attribute(NodeAttribute.CONS_TYPE.value)
    if cons_type is None:
        return
    if deployment.cluster is None:
        raise ValueError(
            f"node {node.node_id} declares a consumer but no broker exists in the task"
        )
    config = platform.onto(
        ConsumerStubConfig.from_dict(node.attribute(NodeAttribute.CONS_CFG.value) or {})
    )
    consumer_type = ConsumerType(cons_type)
    name = config.name or f"consumer-{node.node_id}"
    if consumer_type is ConsumerType.STANDARD:
        stub = StandardConsumerStub(deployment.cluster, node.node_id, config, name=name)
    elif consumer_type is ConsumerType.FILE:
        stub = FileSinkConsumerStub(deployment.cluster, node.node_id, config, name=name)
    elif consumer_type is ConsumerType.STORE:
        stub = StoreSinkConsumerStub(deployment.cluster, node.node_id, config, name=name)
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unsupported consumer type {consumer_type}")
    deployment.consumers[node.node_id] = stub


def _deploy_spe(node: NodeDescription, deployment: Deployment, emulation: "Emulation") -> None:
    spe_type = node.attribute(NodeAttribute.STREAM_PROC_TYPE.value)
    if spe_type is None:
        return
    config = SPEAppConfig.from_dict(
        node.attribute(NodeAttribute.STREAM_PROC_CFG.value) or {}
    )
    host = deployment.network.host(node.node_id)
    context = StreamingContext(
        host,
        config=StreamingConfig(
            batch_interval=config.batch_interval,
            executor=ExecutorConfig(
                parallelism=config.parallelism,
                executor_memory=config.executor_memory,
            ),
        ),
        cluster=deployment.cluster,
        name=f"spe-{node.node_id}",
    )
    builder = app_builder(config.app)
    builder(context, config, emulation)
    deployment.spes[node.node_id] = context


def _deploy_store(node: NodeDescription, deployment: Deployment) -> None:
    store_type = node.attribute(NodeAttribute.STORE_TYPE.value)
    if store_type is None:
        return
    StoreType(store_type)  # validates the declared engine type
    config = StoreNodeConfig.from_dict(node.attribute(NodeAttribute.STORE_CFG.value) or {})
    host = deployment.network.host(node.node_id)
    server = StoreServer(host, name=config.name or f"store-{node.node_id}")
    for table in config.tables:
        server.tables.table(table)
    deployment.stores[node.node_id] = server
