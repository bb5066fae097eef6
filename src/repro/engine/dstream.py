"""DStream: a lazily-built chain of operators rooted at a source."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.engine.columns import ColumnBatch
from repro.engine.operators import (
    FilterOperator,
    FlatMapOperator,
    ForEachOperator,
    GroupByKeyOperator,
    JoinOperator,
    MapOperator,
    MapPairsOperator,
    Operator,
    ReduceByKeyOperator,
    RepartitionByKeyOperator,
    UpdateStateByKeyOperator,
    WindowOperator,
    physical_plan,
)
from repro.engine.records import StreamRecord
from repro.engine.sinks import CallbackSink, MemorySink, Sink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import StreamingContext
    from repro.engine.sources import Source


class DStream:
    """A stream of records flowing through a chain of operators.

    DStreams are built declaratively before ``StreamingContext.start()``; at
    run time the context executes each registered output stream once per
    micro-batch.  Every transformation returns a *new* DStream sharing the
    same source, mirroring Spark's immutable DStream lineage.
    """

    def __init__(
        self,
        context: "StreamingContext",
        source: "Source",
        operators: Optional[List[Operator]] = None,
        joins: Optional[Dict[JoinOperator, "DStream"]] = None,
    ) -> None:
        self.context = context
        self.source = source
        self.operators: List[Operator] = list(operators or [])
        #: The right-side stream of each join in :attr:`operators`.
        self.joins: Dict[JoinOperator, DStream] = joins or {}
        self.sinks: List[Sink] = []
        #: The steps that run the chain (see :func:`physical_plan`).
        self.plan = physical_plan(self.operators)

    # -- transformations -----------------------------------------------------------
    def _derive(self, operator: Operator) -> "DStream":
        return DStream(
            self.context,
            self.source,
            self.operators + [operator],
            joins=self.joins,
        )

    def map(self, fn: Callable[[Any], Any]) -> "DStream":
        """Transform each element's value."""
        return self._derive(MapOperator(fn))

    def flat_map(self, fn: Callable[[Any], List[Any]]) -> "DStream":
        """Expand each element into zero or more elements."""
        return self._derive(FlatMapOperator(fn))

    def filter(self, predicate: Callable[[Any], bool]) -> "DStream":
        """Keep only elements satisfying ``predicate``."""
        return self._derive(FilterOperator(predicate))

    def map_pairs(self, fn: Callable[[Any], Tuple[Any, Any]]) -> "DStream":
        """Produce (key, value) pairs for key-based operators."""
        return self._derive(MapPairsOperator(fn))

    def reduce_by_key(self, fn: Callable[[Any, Any], Any]) -> "DStream":
        """Combine values per key within each micro-batch."""
        return self._derive(ReduceByKeyOperator(fn))

    def repartition_by_key(self) -> "DStream":
        """Regroup interleaved multi-partition input by key (order-preserving)."""
        return self._derive(RepartitionByKeyOperator())

    def group_by_key(self) -> "DStream":
        """Collect the batch's values per key into lists."""
        return self._derive(GroupByKeyOperator())

    def window(self, window_duration: float, slide: Optional[float] = None) -> "DStream":
        """Sliding time window over the stream."""
        return self._derive(WindowOperator(window_duration, slide))

    def update_state_by_key(self, fn: Callable[[List[Any], Any], Any]) -> "DStream":
        """Stateful per-key aggregation across micro-batches."""
        return self._derive(UpdateStateByKeyOperator(fn))

    def join(self, other: "DStream") -> "DStream":
        """Join with another keyed stream within the current micro-batch."""
        join_operator = JoinOperator()
        return DStream(
            self.context,
            self.source,
            self.operators + [join_operator],
            joins={**self.joins, join_operator: other},
        )

    def for_each(self, fn: Callable[[StreamRecord], None]) -> "DStream":
        """Run a side effect on a row view of every element (pass-through)."""
        return self._derive(ForEachOperator(fn))

    # -- outputs ------------------------------------------------------------------------
    def to(self, sink: Sink) -> Sink:
        """Register a sink for this stream and mark it as an output stream."""
        self.sinks.append(sink)
        self.context.register_output(self)
        return sink

    def to_memory(self, name: str = "memory-sink", keep_records: bool = True) -> MemorySink:
        sink = MemorySink(name=name, keep_records=keep_records)
        self.to(sink)
        return sink

    def to_callback(self, fn: Callable[[StreamRecord, float], None]) -> CallbackSink:
        sink = CallbackSink(fn)
        self.to(sink)
        return sink

    def to_kafka(self, topic: str, producer_config=None, envelope: bool = True):
        """Publish this stream to a broker topic (requires a cluster-aware context)."""
        sink = self.context.kafka_sink(topic, producer_config=producer_config, envelope=envelope)
        self.to(sink)
        return sink

    # -- execution (called by the context) -------------------------------------------------
    @property
    def n_stages(self) -> int:
        """Declared stages: what the executor cost model charges, whatever
        the plan fuses or drops."""
        return max(1, len(self.operators))

    def source_batch(self, batches: Dict[Any, ColumnBatch]) -> ColumnBatch:
        """This micro-batch's batch of the stream's source, drained on first use."""
        cols = batches.get(self.source)
        if cols is None:
            cols = batches[self.source] = self.source.drain()
        return cols

    def execute_columns(
        self,
        cols: ColumnBatch,
        now: float,
        batches: Optional[Dict[Any, ColumnBatch]] = None,
    ) -> ColumnBatch:
        """Run the plan over one micro-batch whose source batch is ``cols``.

        ``batches`` holds what one micro-batch has computed so far: each
        drained source's batch, and each plan step's output keyed by the last
        declared operator the step runs.  Streams branched from one another
        share the operator objects of their common prefix, so with one
        ``batches`` per micro-batch (the context passes its own) a shared
        prefix runs once: its stateful operators advance once, and every
        branch and join side, a self-join included, reads the same output.
        Kernels never mutate their input, so sharing it is safe.  Without
        ``batches`` the call is a micro-batch of its own.
        """
        batches = {} if batches is None else batches
        batches.setdefault(self.source, cols)
        return self._run(now, batches)

    def _run(self, now: float, batches: Dict[Any, ColumnBatch]) -> ColumnBatch:
        plan = self.plan
        done = len(plan)
        while done and plan[done - 1][1] not in batches:
            done -= 1
        cols = batches[plan[done - 1][1]] if done else self.source_batch(batches)
        for kernel, last in plan[done:]:
            right = self.joins.get(kernel)
            if right is not None:
                kernel.set_right_batch(right._run(now, batches))
            cols = batches[last] = kernel.apply(cols, now)
        return cols

    def execute(self, batch: List[StreamRecord], now: float) -> List[StreamRecord]:
        """:meth:`execute_columns` for callers holding row views."""
        return self.execute_columns(ColumnBatch.from_records(batch), now).to_records()

    def reset_state(self) -> None:
        for operator in self.operators:
            operator.reset()
