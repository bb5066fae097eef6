"""stream2gym core: the high-level prototyping interface.

This package is the reproduction of the paper's primary contribution: a
high-level, declarative interface for describing a distributed stream
processing pipeline (components + configuration + network topology) and an
orchestrator that deploys it onto the emulation substrates, runs it under
configurable operational conditions (link delays, bandwidth limits, failures)
and collects monitoring data.

The workflow mirrors Figure 1 of the paper:

1. the user writes a *task description* — either a GraphML file using the
   Table I attributes or a programmatic :class:`TaskDescription`;
2. :class:`Emulation` instantiates the network, starts the event streaming
   platform, deploys stream processors / data stores / producer and consumer
   stubs, and arms the fault injector;
3. monitoring tasks log bandwidth, latency and application events, and the
   visualization module turns them into the figures reported in the paper.
"""

from repro.core.attributes import (
    ConsumerType,
    GraphAttribute,
    LinkAttribute,
    NodeAttribute,
    ProducerType,
    StoreType,
    StreamProcType,
)
from repro.core.configs import (
    BrokerNodeConfig,
    ConsumerStubConfig,
    FaultSpec,
    ProducerStubConfig,
    SPEAppConfig,
    StoreNodeConfig,
    TopicSpec,
    load_yaml_file,
)
from repro.core.emulation import Emulation, EmulationResult
from repro.core.graphml import parse_graphml, parse_graphml_string
from repro.core.task import LinkDescription, NodeDescription, TaskDescription
from repro.core.monitoring import EventLog
from repro.core.resources import HostResourceModel, ResourceReport
from repro.core.visualization import (
    DeliveryMatrix,
    cdf,
    delivery_matrix,
    latency_by_arrival,
    throughput_timeseries,
)

__all__ = [
    "Emulation",
    "EmulationResult",
    "TaskDescription",
    "NodeDescription",
    "LinkDescription",
    "parse_graphml",
    "parse_graphml_string",
    "GraphAttribute",
    "NodeAttribute",
    "LinkAttribute",
    "ProducerType",
    "ConsumerType",
    "StreamProcType",
    "StoreType",
    "TopicSpec",
    "FaultSpec",
    "ProducerStubConfig",
    "ConsumerStubConfig",
    "SPEAppConfig",
    "BrokerNodeConfig",
    "StoreNodeConfig",
    "load_yaml_file",
    "EventLog",
    "HostResourceModel",
    "ResourceReport",
    "DeliveryMatrix",
    "delivery_matrix",
    "latency_by_arrival",
    "throughput_timeseries",
    "cdf",
]
