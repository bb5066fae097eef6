"""The Emulation orchestrator: build, run and report on one emulation task.

This is stream2gym's main entry point (the equivalent of running the tool
against a GraphML task description).  The orchestrator follows the paper's
workflow: instantiate the topology, start the event streaming platform,
initialize every application component, arm the monitoring tasks and the
fault injector, run for the requested duration, and hand back a structured
result object from which the visualization module derives the figures.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.broker.cluster import ClusterConfig
from repro.broker.coordinator import CoordinationMode
from repro.core.components import (
    Deployment,
    build_cluster,
    build_fault_injector,
    build_network,
    deploy_components,
)
from repro.core.configs import PlatformOverrides
from repro.core.graphml import parse_graphml, parse_graphml_string
from repro.core.monitoring import EventLog
from repro.core.resources import HostResourceModel, ResourceReport
from repro.core.task import TaskDescription
from repro.core.visualization import summarize_distribution
from repro.network.stats import SAMPLE_INTERVAL
from repro.simulation import Simulator


@dataclass
class EmulationResult:
    """Structured output of one emulation run."""

    duration: float
    warmup: float
    messages_produced: int
    messages_consumed: int
    acked_but_lost: int
    latency_summary: Dict[str, float]
    resource_report: ResourceReport
    event_log: EventLog
    spe_metrics: Dict[str, Dict[str, float]] = field(default_factory=dict)
    extras: Dict[str, Any] = field(default_factory=dict)

    def summary(self) -> Dict[str, Any]:
        return {
            "duration": self.duration,
            "messages_produced": self.messages_produced,
            "messages_consumed": self.messages_consumed,
            "acked_but_lost": self.acked_but_lost,
            "latency": dict(self.latency_summary),
            "median_cpu": self.resource_report.median_cpu(),
            "peak_memory": self.resource_report.peak_memory(),
            "spe": {name: dict(metrics) for name, metrics in self.spe_metrics.items()},
        }


class Emulation:
    """One stream2gym emulation instance."""

    def __init__(
        self,
        task: Union[TaskDescription, str],
        seed: int = 0,
        mode: Union[str, CoordinationMode, None] = None,
        cluster_config: Optional[ClusterConfig] = None,
        datasets: Optional[Dict[str, Sequence[Any]]] = None,
        platform: Optional[PlatformOverrides] = None,
    ) -> None:
        if isinstance(task, str):
            if task.lstrip().startswith("<"):
                task = parse_graphml_string(task)
            else:
                task = parse_graphml(task)
        task.require_valid()
        self.task = task
        self.seed = seed
        self.datasets = dict(datasets or {})
        # ``mode=None`` means "what ``cluster_config`` says"; the caller's
        # object is never modified.
        self.cluster_config = cluster_config or ClusterConfig()
        if mode is not None:
            self.cluster_config = dataclasses.replace(
                self.cluster_config, mode=CoordinationMode(mode)
            )
        self.mode = self.cluster_config.mode
        self.platform = platform or PlatformOverrides()
        self.sim = Simulator(seed=seed)
        self.event_log = EventLog()
        self.deployment: Optional[Deployment] = None
        self.resource_model: Optional[HostResourceModel] = None
        self._built = False
        self._ran = False

    # -- convenience accessors -----------------------------------------------------------
    @property
    def network(self):
        self._require_built()
        return self.deployment.network

    @property
    def cluster(self):
        self._require_built()
        return self.deployment.cluster

    @property
    def producers(self) -> Dict[str, Any]:
        self._require_built()
        return self.deployment.producers

    @property
    def consumers(self) -> Dict[str, Any]:
        self._require_built()
        return self.deployment.consumers

    @property
    def spes(self) -> Dict[str, Any]:
        self._require_built()
        return self.deployment.spes

    @property
    def stores(self) -> Dict[str, Any]:
        self._require_built()
        return self.deployment.stores

    @property
    def fault_injector(self):
        self._require_built()
        return self.deployment.fault_injector

    def _require_built(self) -> None:
        if not self._built:
            raise RuntimeError("Emulation.build() must be called first")

    # -- lifecycle -------------------------------------------------------------------------
    def build(self) -> "Emulation":
        """Construct the network, platform and components (no traffic yet)."""
        if self._built:
            return self
        network = build_network(self.task, self.sim)
        cluster = build_cluster(self.task, network, self.cluster_config, self.platform)
        deployment = Deployment(network=network, cluster=cluster)
        deployment.fault_injector = build_fault_injector(self.task, network)
        self.deployment = deployment
        deploy_components(self.task, deployment, self, self.datasets, self.platform)
        self.resource_model = HostResourceModel(network)
        self.event_log.record(self.sim.now, "emulation", "built", **self.task.summary())
        self._built = True
        return self

    def run(
        self,
        duration: float,
        warmup: float = 0.0,
        settle_time: float = 5.0,
        client_start: Optional[float] = None,
    ) -> EmulationResult:
        """Run the emulation for ``duration`` simulated seconds (after ``warmup``).

        ``settle_time`` is when topics get created after the brokers register;
        ``client_start`` (default ``settle_time + 5``) is when producer,
        consumer and SPE components begin their work.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        if not self._built:
            self.build()
        if self._ran:
            raise RuntimeError("an Emulation instance can only be run once")
        self._ran = True

        deployment = self.deployment
        self.sim.process(self._monitor(warmup), name="emulation:monitor")

        if deployment.cluster is not None:
            deployment.cluster.start(settle_time=settle_time)
        start_at = client_start if client_start is not None else settle_time + 5.0

        def start_clients() -> None:
            for stub in deployment.producers.values():
                stub.start()
            for stub in deployment.consumers.values():
                stub.start()
            for context in deployment.spes.values():
                context.start()
            self.event_log.record(self.sim.now, "emulation", "clients-started")

        self.sim.call_later(start_at, start_clients)

        total = warmup + duration
        self.sim.run(until=total)
        self.event_log.record(self.sim.now, "emulation", "finished")
        if deployment.cluster is not None:
            self.event_log.merge(deployment.cluster.coordinator.event_log, "coordinator")
        return self._collect_result(duration=duration, warmup=warmup)

    def _monitor(self, warmup: float):
        """The one sampling tick: every ``SAMPLE_INTERVAL`` the port counters
        feed the bandwidth series and the resource model takes a sample
        (discarded during the warm-up, as in the paper's methodology)."""
        bandwidth = self.deployment.network.bandwidth_monitor
        while True:
            yield self.sim.timeout(SAMPLE_INTERVAL)
            bandwidth.sample(self.sim.now)
            self.resource_model.tick(warmup)

    # -- result collection --------------------------------------------------------------------
    def _collect_result(self, duration: float, warmup: float) -> EmulationResult:
        deployment = self.deployment
        produced = sum(stub.messages_produced for stub in deployment.producers.values())
        consumed = sum(stub.messages_consumed for stub in deployment.consumers.values())
        latencies: List[float] = []
        for stub in deployment.consumers.values():
            latencies.extend(stub.latencies)
        lost = 0
        if deployment.cluster is not None:
            lost = deployment.cluster.total_lost_records()
        spe_metrics = {
            node_id: {
                "batches": float(context.batches_run),
                "input_records": float(context.total_input_records()),
                "output_records": float(context.total_output_records()),
                "mean_processing_time": context.mean_processing_time(),
            }
            for node_id, context in deployment.spes.items()
        }
        return EmulationResult(
            duration=duration,
            warmup=warmup,
            messages_produced=produced,
            messages_consumed=consumed,
            acked_but_lost=lost,
            latency_summary=summarize_distribution(latencies),
            resource_report=self.resource_model.report,
            event_log=self.event_log,
            spe_metrics=spe_metrics,
        )
