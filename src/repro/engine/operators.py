"""Operator implementations for the DStream DAG.

Every operator is one columnar kernel: ``apply(cols, now)`` takes the
micro-batch as a :class:`~repro.engine.columns.ColumnBatch` and returns the
transformed batch (plus, for stateful operators, an update of their private
state).  Kernels are whole-column operations — list comprehensions over raw
values, key-group folds over the key column — so an n-stage pipeline
allocates O(stages) Python objects per micro-batch, not O(records x stages).
The engine charges CPU time per processed element separately (see
:mod:`repro.engine.executor`), keeping the functional logic here
deterministic and easily unit-testable.

What a kernel must preserve (``tests/test_engine_model.py`` is the row-list
reference every kernel is judged against):

* provenance — a derived row keeps its parent's event / ingest time, a
  per-key aggregate those of the key's first row in the batch;
* order — first-seen key order for keyed output, arrival order within a key;
* size-carry — an output value that *is* its input value shares the
  parent's size state, anything else defers sizing until a sink or the batch
  accounting observes it (``ColumnBatch.derive``), so an n-stage pipeline
  sizes each record at most once, never per hop;
* its input — a kernel never mutates the columns it was handed; it returns
  them unchanged or builds a new batch (windows re-emit retained batches).

A stream does not run its declared operators one by one: it runs the
:func:`physical_plan` of them, which drops a shuffle the next operator makes
redundant and fuses ``map_pairs`` into a following ``reduce_by_key``.  Both
rewrites are exact, so the rules above hold for the plan too.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.columns import ColumnBatch
from repro.engine.records import StreamRecord


def _first_rows_by_key(cols: ColumnBatch) -> Tuple[Dict[Any, List[Any]], List[int]]:
    """Values grouped per key (first-seen key order) and each key's first row."""
    values = cols.values
    grouped: Dict[Any, List[Any]] = {}
    first_rows: List[int] = []
    for index, key in enumerate(cols.keys):
        if key in grouped:
            grouped[key].append(values[index])
        else:
            grouped[key] = [values[index]]
            first_rows.append(index)
    return grouped, first_rows


class Operator:
    """Base operator: stateless identity."""

    name = "identity"

    def apply(self, cols: ColumnBatch, now: float) -> ColumnBatch:
        return cols

    def reset(self) -> None:
        """Clear any operator state (used between experiment repetitions)."""


class MapOperator(Operator):
    """Element-wise transformation of the record value."""

    name = "map"

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn

    def apply(self, cols: ColumnBatch, now: float) -> ColumnBatch:
        fn = self.fn
        return cols.derive([fn(value) for value in cols.values])


class FlatMapOperator(Operator):
    """Expand each element into zero or more elements."""

    name = "flat_map"

    def __init__(self, fn: Callable[[Any], List[Any]]) -> None:
        self.fn = fn

    def apply(self, cols: ColumnBatch, now: float) -> ColumnBatch:
        fn = self.fn
        in_keys = cols.keys
        in_event = cols.event_times
        in_ingest = cols.ingest_times
        in_sizes = cols.sizes
        values: List[Any] = []
        keys: List[Any] = []
        event_times: List[float] = []
        ingest_times: List[float] = []
        sizes: List[Optional[int]] = []
        for index, value in enumerate(cols.values):
            expanded = fn(value)
            if not expanded:
                continue
            key = in_keys[index]
            event_time = in_event[index]
            ingest_time = in_ingest[index]
            parent_size = in_sizes[index]
            for out_value in expanded:
                values.append(out_value)
                keys.append(key)
                event_times.append(event_time)
                ingest_times.append(ingest_time)
                # Expansions re-emitting the parent payload share its observed
                # size state instead of re-estimating per expansion.
                sizes.append(parent_size if out_value is value else None)
        return ColumnBatch(values, keys, event_times, ingest_times, sizes)


class FilterOperator(Operator):
    """Keep only elements whose value satisfies the predicate."""

    name = "filter"

    def __init__(self, predicate: Callable[[Any], bool]) -> None:
        self.predicate = predicate

    def apply(self, cols: ColumnBatch, now: float) -> ColumnBatch:
        predicate = self.predicate
        keep = [index for index, value in enumerate(cols.values) if predicate(value)]
        if len(keep) == len(cols.values):
            return cols
        return cols.take(keep)


class MapPairsOperator(Operator):
    """Turn each element into a (key, value) pair; the key drives later grouping."""

    name = "map_pairs"

    def __init__(self, fn: Callable[[Any], Tuple[Any, Any]]) -> None:
        self.fn = fn

    def apply(self, cols: ColumnBatch, now: float) -> ColumnBatch:
        fn = self.fn
        in_keys = cols.keys
        keys: List[Any] = []
        values: List[Any] = []
        for index, in_value in enumerate(cols.values):
            key, value = fn(in_value)
            # A None key keeps the row's old key.
            keys.append(key if key is not None else in_keys[index])
            values.append(value)
        return cols.derive(values, keys=keys)


class RepartitionByKeyOperator(Operator):
    """Regroup the batch by record key (the in-engine shuffle stage).

    When records arrive interleaved from several topic partitions (the
    sharded ingest plane), this operator groups them so all records of one
    key are contiguous, in first-seen key order, each group in arrival order.
    Because keyed producers route a key to exactly one partition and
    partition order is FIFO, the per-key sequence after repartitioning equals
    the per-key produce order — per-key order survives sharding.

    The shuffle moves row indices, not rows: one stable bucket of indices per
    key, then a single gather over the five columns.
    """

    name = "repartition_by_key"

    def apply(self, cols: ColumnBatch, now: float) -> ColumnBatch:
        buckets: Dict[Any, List[int]] = {}
        for index, key in enumerate(cols.keys):
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [index]
            else:
                bucket.append(index)
        if len(buckets) <= 1:
            return cols
        return cols.take([index for bucket in buckets.values() for index in bucket])


class ReduceByKeyOperator(Operator):
    """Combine the values of each key within the micro-batch."""

    name = "reduce_by_key"

    def __init__(self, fn: Callable[[Any, Any], Any]) -> None:
        self.fn = fn

    def apply(self, cols: ColumnBatch, now: float) -> ColumnBatch:
        # Fold values directly while grouping: no per-key value lists.
        fn = self.fn
        values = cols.values
        accumulators: Dict[Any, Any] = {}
        first_rows: List[int] = []
        for index, key in enumerate(cols.keys):
            if key in accumulators:
                accumulators[key] = fn(accumulators[key], values[index])
            else:
                accumulators[key] = values[index]
                first_rows.append(index)
        return cols.take(first_rows).derive(
            list(accumulators.values()), keys=list(accumulators.keys())
        )


class MapSideCombineOperator(Operator):
    """``map_pairs`` then ``reduce_by_key`` as one pass (a map-side combine).

    Each pair is folded into its key's accumulator as soon as it is made, so
    no per-row pair column exists.  The output is exactly the two kernels'
    output: keys in first-seen order, each with its first row's provenance,
    and that row's size only when the accumulator *is* the first pair value
    and that *is* the input value (each kernel's identity rule in turn).
    """

    name = "map_pairs+reduce_by_key"

    def __init__(self, pair_fn: Callable[[Any], Tuple[Any, Any]],
                 reduce_fn: Callable[[Any, Any], Any]) -> None:
        self.pair_fn = pair_fn
        self.reduce_fn = reduce_fn

    def apply(self, cols: ColumnBatch, now: float) -> ColumnBatch:
        pair_fn = self.pair_fn
        reduce_fn = self.reduce_fn
        in_keys = cols.keys
        accumulators: Dict[Any, Any] = {}
        first_rows: List[int] = []
        first_values: List[Any] = []
        for index, in_value in enumerate(cols.values):
            key, value = pair_fn(in_value)
            if key is None:
                key = in_keys[index]
            if key in accumulators:
                accumulators[key] = reduce_fn(accumulators[key], value)
            else:
                accumulators[key] = value
                first_rows.append(index)
                first_values.append(value)
        firsts = cols.take(first_rows)
        values = list(accumulators.values())
        sizes = [
            size if accumulator is first and first is old else None
            for accumulator, first, old, size in zip(
                values, first_values, firsts.values, firsts.sizes
            )
        ]
        return ColumnBatch(
            values, list(accumulators.keys()), firsts.event_times, firsts.ingest_times, sizes
        )


class GroupByKeyOperator(Operator):
    """Collect all values of each key within the batch into a list."""

    name = "group_by_key"

    def apply(self, cols: ColumnBatch, now: float) -> ColumnBatch:
        grouped, first_rows = _first_rows_by_key(cols)
        return cols.take(first_rows).derive(list(grouped.values()), keys=list(grouped.keys()))


class WindowOperator(Operator):
    """Sliding window over wall-clock (simulation) time.

    Keeps every element younger than ``window_duration`` and emits the whole
    window on each batch.  A ``slide`` larger than the batch interval means
    the window is only emitted every ``slide`` seconds (empty output in
    between), matching Spark's ``window(windowDuration, slideDuration)``.
    """

    name = "window"

    def __init__(self, window_duration: float, slide: Optional[float] = None) -> None:
        if window_duration <= 0:
            raise ValueError("window_duration must be positive")
        self.window_duration = window_duration
        self.slide = slide
        #: ``(arrival, ColumnBatch)`` chunks, oldest first.  Every row of one
        #: ``apply`` call shares the same arrival time, so chunk-granular
        #: eviction is exactly per-row eviction.
        self._buffer: deque = deque()
        self._last_emit: float = float("-inf")

    def apply(self, cols: ColumnBatch, now: float) -> ColumnBatch:
        if len(cols):
            self._buffer.append((now, cols))
        cutoff = now - self.window_duration
        while self._buffer and self._buffer[0][0] < cutoff:
            self._buffer.popleft()
        if self.slide is not None and now - self._last_emit < self.slide:
            return ColumnBatch()
        self._last_emit = now
        return ColumnBatch.concat([chunk for _, chunk in self._buffer])

    def reset(self) -> None:
        self._buffer.clear()
        self._last_emit = float("-inf")


class UpdateStateByKeyOperator(Operator):
    """Stateful aggregation across batches (Spark's ``updateStateByKey``).

    ``fn(new_values, previous_state)`` returns the new state for the key; the
    operator emits one element per key whose state changed in this batch.
    """

    name = "update_state_by_key"

    def __init__(self, fn: Callable[[List[Any], Any], Any]) -> None:
        self.fn = fn
        self.state: Dict[Any, Any] = {}

    def apply(self, cols: ColumnBatch, now: float) -> ColumnBatch:
        grouped, first_rows = _first_rows_by_key(cols)
        fn = self.fn
        state = self.state
        new_states = []
        for key, key_values in grouped.items():
            new_state = fn(key_values, state.get(key))
            state[key] = new_state
            new_states.append(new_state)
        return cols.take(first_rows).derive(new_states, keys=list(grouped.keys()))

    def reset(self) -> None:
        self.state.clear()


class JoinOperator(Operator):
    """Join this stream with another stream's current batch on the record key.

    The other stream's batch is provided by the engine at execution time via
    :meth:`set_right_batch`; output values are ``(left_value, right_value)``
    tuples, one row per matching pair: left rows in order, each with its
    right matches in the right batch's order, carrying the left row's key and
    provenance.
    """

    name = "join"

    def __init__(self) -> None:
        self._right = ColumnBatch()

    def set_right_batch(self, cols: ColumnBatch) -> None:
        self._right = cols

    def apply(self, cols: ColumnBatch, now: float) -> ColumnBatch:
        right_by_key: Dict[Any, List[Any]] = {}
        for key, value in zip(self._right.keys, self._right.values):
            right_by_key.setdefault(key, []).append(value)
        left_values = cols.values
        left_rows: List[int] = []
        pairs: List[Tuple[Any, Any]] = []
        for index, key in enumerate(cols.keys):
            right_values = right_by_key.get(key)
            if right_values:
                left_value = left_values[index]
                for right_value in right_values:
                    left_rows.append(index)
                    pairs.append((left_value, right_value))
        return cols.take(left_rows).derive(pairs)

    def reset(self) -> None:
        self._right = ColumnBatch()


class ForEachOperator(Operator):
    """Side-effecting operator: call a function on every element, pass through.

    ``fn`` sees each row as a :class:`StreamRecord` view materialised for the
    call; the columns themselves pass through untouched.
    """

    name = "for_each"

    def __init__(self, fn: Callable[[StreamRecord], None]) -> None:
        self.fn = fn

    def apply(self, cols: ColumnBatch, now: float) -> ColumnBatch:
        fn = self.fn
        for record in cols.to_records():
            fn(record)
        return cols


#: Operators that group rows by key exactly as a shuffle leaves them: keys in
#: first-seen order, each key's rows in arrival order.
_KEY_GROUPING = (
    RepartitionByKeyOperator,
    ReduceByKeyOperator,
    GroupByKeyOperator,
    UpdateStateByKeyOperator,
)


def physical_plan(operators: List[Operator]) -> List[Tuple[Operator, Operator]]:
    """The steps that run a declared operator chain: each kernel paired with
    the last declared operator it runs.

    Two exact rewrites, applied to built-in operator types only (a subclass
    may override ``apply``, so it is never rewritten):

    * shuffle elision — a ``repartition_by_key`` directly followed by a
      keyed aggregation or another shuffle is dropped: the next operator
      sees the same first-seen key order, the same rows in the same order
      within each key, and the same first row per key;
    * map-side combine — a ``map_pairs`` directly followed (after elision)
      by ``reduce_by_key`` becomes one :class:`MapSideCombineOperator`.

    Neither touches a stateful operator: each is its own step, run by the
    declared object, so resetting the declared chain resets the plan.
    """
    following = operators[1:] + [None]
    plan: List[Tuple[Operator, Operator]] = []
    for operator, after in zip(operators, following):
        if type(operator) is RepartitionByKeyOperator and type(after) in _KEY_GROUPING:
            continue
        if (
            type(operator) is ReduceByKeyOperator
            and plan
            and type(plan[-1][0]) is MapPairsOperator
        ):
            plan[-1] = (MapSideCombineOperator(plan[-1][0].fn, operator.fn), operator)
        else:
            plan.append((operator, operator))
    return plan
