"""DStream: a lazily-built chain of operators rooted at a source."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

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
        joined_with: Optional[Tuple["DStream", JoinOperator]] = None,
    ) -> None:
        self.context = context
        self.source = source
        self.operators: List[Operator] = list(operators or [])
        self.joined_with = joined_with
        self.sinks: List[Sink] = []

    # -- transformations -----------------------------------------------------------
    def _derive(self, operator: Operator) -> "DStream":
        return DStream(
            self.context,
            self.source,
            self.operators + [operator],
            joined_with=self.joined_with,
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
        joined = DStream(
            self.context,
            self.source,
            self.operators + [join_operator],
            joined_with=(other, join_operator),
        )
        return joined

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
        return max(1, len(self.operators))

    def execute_columns(self, cols: ColumnBatch, now: float) -> ColumnBatch:
        """Run the operator chain over one micro-batch (pure computation).

        A join's right side drains its own source and runs its own chain
        first, within the same micro-batch.
        """
        if self.joined_with is not None:
            other_stream, join_operator = self.joined_with
            join_operator.set_right_batch(
                other_stream.execute_columns(other_stream.source.drain(), now)
            )
        for operator in self.operators:
            cols = operator.apply(cols, now)
        return cols

    def execute(self, batch: List[StreamRecord], now: float) -> List[StreamRecord]:
        """:meth:`execute_columns` for callers holding row views."""
        return self.execute_columns(ColumnBatch.from_records(batch), now).to_records()

    def reset_state(self) -> None:
        for operator in self.operators:
            operator.reset()
