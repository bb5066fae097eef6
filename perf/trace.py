"""Observed-pass instrumentation, all of it installed from outside ``src/``.

Three pieces, used only by the observed child (the timed children install
none of it):

* :class:`Tracer` — in-memory spans ``{name, layer, start, end, parent,
  trace_id}`` around every call the benchmark makes into a layer.  A span
  opened with ``profile=True`` (the ``run`` span, where the simulator's
  dispatch loop calls every other layer) additionally runs ``cProfile`` and
  folds ``tottime`` — exclusive and generator-safe — by module path into
  layers.  A layer's self time is its spans' duration minus what their
  children cover, plus its share of every profiled span.
* :class:`Probes` — a registry of the program's own objects (constructor
  wrappers on the public classes) so that opaque entry points such as
  ``run_fig6`` still expose their public counters, plus a call counter on
  ``Transport.request`` keyed by payload ``type``.
* :class:`GcProbe` — collector pauses via ``gc.callbacks``.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import pstats
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, Iterator, List, Optional

from repro.broker.broker import Broker
from repro.broker.consumer import Consumer
from repro.broker.coordinator import Coordinator
from repro.broker.producer import Producer
from repro.engine.context import StreamingContext
from repro.network.network import Network
from repro.network.transport import Transport
from repro.simulation import Simulator
from repro.store.server import StoreServer

#: Layer of each module under ``src/repro/`` (first match on the path after
#: ``repro/`` wins; a bare directory name covers every file in it).
_LAYER_OF_PATH = (
    ("broker/producer.py", "broker.producer"),
    ("broker/consumer.py", "broker.consumer"),
    ("broker/coordinator.py", "broker.coordinator"),
    ("broker/log.py", "broker.log"),
    ("broker/segment.py", "broker.log"),
    ("broker/batch.py", "broker.log"),
    ("broker/message.py", "broker.log"),
    ("broker/", "broker.broker"),
    ("simulation/", "simulation"),
    ("network/", "network"),
    ("engine/", "engine"),
    ("store/", "store"),
    ("core/", "core"),
    ("stubs/", "stubs"),
    ("apps/", "apps"),
    ("ml/", "apps"),
    ("workloads/", "workloads"),
)

#: Every layer that gets a ``<layer>.self_s`` metric.  ``bench`` is the
#: benchmark's own code (drivers, operator callbacks, checks); ``runtime.other``
#: is builtins and the standard library.
LAYERS = sorted({layer for _path, layer in _LAYER_OF_PATH}) + [
    "experiments",
    "bench",
    "runtime.other",
]

_REPRO_MARKER = os.sep + os.path.join("src", "repro") + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def self_metric(layer: str) -> str:
    """Name of a layer's exclusive-seconds metric."""
    return "runtime.other_self_s" if layer == "runtime.other" else f"{layer}.self_s"


def layer_of(filename: str) -> str:
    """Layer owning ``filename`` (a code object's ``co_filename``)."""
    at = filename.find(_REPRO_MARKER)
    if at >= 0:
        relative = filename[at + len(_REPRO_MARKER):].replace(os.sep, "/")
        for prefix, layer in _LAYER_OF_PATH:
            if relative.startswith(prefix):
                return layer
        return "experiments"  # experiments/, scenarios/, testing/, package roots
    if filename.startswith(_BENCH_DIR):
        return "bench"
    return "runtime.other"


class NullTracer:
    """The timed pass's tracer: records nothing, installs nothing."""

    def span(self, name: str, layer: str, profile: bool = False):
        return nullcontext()


class Tracer:
    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        #: Per profiled span: layer -> exclusive seconds.
        self.profiles: Dict[str, Dict[str, float]] = {}
        #: Calls of ``Process._resume`` seen by the profiler.
        self.process_resumes = 0

    @contextmanager
    def span(self, name: str, layer: str, profile: bool = False) -> Iterator[None]:
        index = len(self.spans)
        record = {
            "name": name,
            "layer": layer,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "trace_id": self.trace_id,
        }
        self.spans.append(record)
        self._stack.append(index)
        profiler = cProfile.Profile() if profile else None
        try:
            if profiler is not None:
                profiler.enable()
            yield
        finally:
            if profiler is not None:
                profiler.disable()
            record["end"] = time.perf_counter()
            self._stack.pop()
            if profiler is not None:
                self._fold_profile(name, profiler)

    def _fold_profile(self, name: str, profiler: cProfile.Profile) -> None:
        by_layer: Dict[str, float] = {}
        for (filename, _line, function), row in pstats.Stats(profiler).stats.items():
            layer = layer_of(filename)
            by_layer[layer] = by_layer.get(layer, 0.0) + row[2]
            if function == "_resume" and layer == "simulation":
                self.process_resumes += row[1]
        self.profiles[name] = by_layer

    def duration(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_seconds(self) -> Dict[str, float]:
        """Exclusive seconds per layer over the whole observed run, keyed by
        metric name."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        totals = dict.fromkeys(LAYERS, 0.0)
        for index, span in enumerate(self.spans):
            if span["name"] in self.profiles:
                for layer, seconds in self.profiles[span["name"]].items():
                    totals[layer] += seconds
            else:
                totals[span["layer"]] += span["end"] - span["start"] - covered[index]
        return {self_metric(layer): seconds for layer, seconds in totals.items()}

    def coverage(self, name: str) -> float:
        """Share of a profiled span's wall time the profile attributes."""
        return sum(self.profiles[name].values()) / self.duration(name)

    def write(self, path: str, **extra: Any) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "trace_id": self.trace_id,
                    "spans": self.spans,
                    "profiles": self.profiles,
                    **extra,
                },
                handle,
                indent=1,
            )


class GcProbe:
    """Sums collector pauses between :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.collections = 0
        self._began = 0.0

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._began = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._began
            self.collections += 1

    def start(self) -> None:
        gc.callbacks.append(self._callback)

    def stop(self) -> None:
        gc.callbacks.remove(self._callback)


class Probes:
    """Instance registry + request counter, installed by wrapping public
    constructors and ``Transport.request`` for the observed run only."""

    def __init__(self) -> None:
        self.instances: Dict[str, List[Any]] = {}
        self.requests_by_type: Counter = Counter()
        self._undo: List[tuple] = []

    def install(self) -> None:
        for cls in (
            Simulator, Network, Transport, Producer, Consumer, Broker,
            Coordinator, StreamingContext, StoreServer,
        ):
            self._register_instances(cls)
        original_request = Transport.request
        counts = self.requests_by_type

        def request(transport, dst, port, payload, *args, **kwargs):
            # Not a generator itself: the caller gets the original generator
            # back, so no frame is added to the request path.
            kind = payload.get("type") if isinstance(payload, dict) else None
            counts[kind or "untyped"] += 1
            return original_request(transport, dst, port, payload, *args, **kwargs)

        Transport.request = request
        self._undo.append((Transport, "request", original_request))

    def _register_instances(self, cls: type) -> None:
        original_init = cls.__init__
        registered = self.instances.setdefault(cls.__name__, [])

        def __init__(instance, *args, **kwargs):
            original_init(instance, *args, **kwargs)
            registered.append(instance)

        cls.__init__ = __init__
        self._undo.append((cls, "__init__", original_init))

    def uninstall(self) -> None:
        while self._undo:
            cls, attribute, original = self._undo.pop()
            setattr(cls, attribute, original)

    def of(self, class_name: str) -> List[Any]:
        return self.instances.get(class_name, [])

    def events(self) -> int:
        return sum(sim.processed_events for sim in self.of("Simulator"))

    def counts(self) -> Dict[str, float]:
        """Per-layer count metrics, read from public attributes."""
        def total(class_name: str, read) -> int:
            return sum(read(instance) for instance in self.of(class_name))

        def ratio(numerator: int, denominator: int) -> float:
            return numerator / denominator if denominator else 0.0

        logs = [log for broker in self.of("Broker") for log in broker.logs.values()]
        produce_requests = self.requests_by_type["produce"]
        fetch_requests = self.requests_by_type["fetch"]
        records_sent = total("Producer", lambda p: p.records_sent)
        records_consumed = total("Consumer", lambda c: c.records_consumed)
        return {
            "simulation.events": self.events(),
            "network.packets": total("Network", lambda n: n.total_packets_delivered()),
            "network.packets_dropped": total("Network", lambda n: n.total_packets_dropped()),
            "network.transport_requests": total("Transport", lambda t: t.requests_sent),
            "network.transport_retries": total("Transport", lambda t: t.requests_retried),
            "network.transport_failed": total("Transport", lambda t: t.requests_failed),
            "broker.producer.records_sent": records_sent,
            "broker.producer.records_failed": total("Producer", lambda p: p.records_failed),
            "broker.producer.requests": produce_requests,
            "broker.producer.records_per_request": ratio(records_sent, produce_requests),
            "broker.broker.records_appended": total("Broker", lambda b: b.records_appended),
            "broker.broker.records_served": total("Broker", lambda b: b.records_served),
            "broker.broker.produce_rejections": total("Broker", lambda b: b.produce_rejections),
            "broker.broker.duplicate_batches": total(
                "Broker", lambda b: b.metrics["duplicate_batches"]
            ),
            "broker.log.segments_sealed": sum(log.stats["segments_sealed"] for log in logs),
            "broker.log.segments_evicted": sum(log.stats["segments_evicted"] for log in logs),
            "broker.log.cold_loads": sum(log.stats["cold_loads"] for log in logs),
            "broker.coordinator.elections": total("Coordinator", lambda c: len(c.elections)),
            "broker.consumer.records_consumed": records_consumed,
            "broker.consumer.requests": fetch_requests,
            "broker.consumer.records_per_request": ratio(records_consumed, fetch_requests),
            "broker.consumer.fetch_errors": total("Consumer", lambda c: c.fetch_errors),
            "engine.batches": total("StreamingContext", lambda c: c.batches_run),
            "engine.input_records": total(
                "StreamingContext", lambda c: c.total_input_records()
            ),
            "engine.output_records": total(
                "StreamingContext", lambda c: c.total_output_records()
            ),
            "store.operations": total("StoreServer", lambda s: s.operations_served),
        }


def latency_summary(latencies_s: List[float]) -> Optional[Dict[str, float]]:
    """Nearest-rank p50/p99 in simulated milliseconds plus the sample count."""
    if not latencies_s:
        return None
    ordered = sorted(latencies_s)
    return {
        "p50_ms": ordered[len(ordered) // 2] * 1000.0,
        "p99_ms": ordered[len(ordered) * 99 // 100] * 1000.0,
        "samples": len(ordered),
    }
