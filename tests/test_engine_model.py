"""Row-list reference model of the SPE operator plane (the engine's oracle).

The model is written independently of ``repro.engine.operators``: every one
of the eleven operators is a plain function over a list of rows

    (value, key, event_time, ingest_time, size-or-None)

and a chain is those functions applied in order, with window buffers and
per-key state held in one dict per stage.  It encodes, in one place, what a
kernel must preserve:

* **provenance** — a derived row keeps its parent's event / ingest time; a
  per-key aggregate keeps the times of the key's *first* row in the batch;
* **keys** — ``map_pairs`` and the keyed aggregates set the key, a ``None``
  key keeps the old one;
* **size-carry** — an output value that *is* its parent's value (identity
  rewrite) shares the parent's size state, observed or deferred; any other
  value defers sizing (``None``) until somebody observes it;
* **order** — first-seen key order for everything keyed, arrival order
  within a key for the shuffle, left order then right order for the join,
  oldest chunk first for the window.

The harness below builds the same chain through the public ``DStream`` API
and requires the engine to emit exactly the model's rows, size state
included, batch after batch.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.columns import ColumnBatch
from repro.engine.dstream import DStream
from repro.engine.records import StreamRecord
from repro.engine.sources import MemorySource

Row = Tuple[Any, Any, float, float, Optional[int]]
Stage = Tuple[Any, ...]  # (operator name, *arguments)


# -- the model ---------------------------------------------------------------------------
def carry(row: Row, value: Any, key: Any = None) -> Row:
    """A row derived from ``row``: same provenance, new payload."""
    old_value, old_key, event_time, ingest_time, size = row
    return (
        value,
        old_key if key is None else key,
        event_time,
        ingest_time,
        size if value is old_value else None,
    )


def model_map(rows: List[Row], fn) -> List[Row]:
    return [carry(row, fn(row[0])) for row in rows]


def model_flat_map(rows: List[Row], fn) -> List[Row]:
    return [carry(row, value) for row in rows for value in fn(row[0])]


def model_filter(rows: List[Row], predicate) -> List[Row]:
    return [row for row in rows if predicate(row[0])]


def model_map_pairs(rows: List[Row], fn) -> List[Row]:
    out = []
    for row in rows:
        key, value = fn(row[0])
        out.append(carry(row, value, key))
    return out


def by_key(rows: List[Row]) -> Dict[Any, List[Row]]:
    """Rows grouped by key: first-seen key order, arrival order within a key."""
    groups: Dict[Any, List[Row]] = {}
    for row in rows:
        groups.setdefault(row[1], []).append(row)
    return groups


def model_repartition_by_key(rows: List[Row]) -> List[Row]:
    return [row for group in by_key(rows).values() for row in group]


def model_reduce_by_key(rows: List[Row], fn) -> List[Row]:
    out = []
    for key, group in by_key(rows).items():
        accumulator = group[0][0]
        for row in group[1:]:
            accumulator = fn(accumulator, row[0])
        out.append(carry(group[0], accumulator, key))
    return out


def model_group_by_key(rows: List[Row]) -> List[Row]:
    return [
        carry(group[0], [row[0] for row in group], key)
        for key, group in by_key(rows).items()
    ]


def model_update_state_by_key(rows: List[Row], fn, state: Dict[Any, Any]) -> List[Row]:
    out = []
    for key, group in by_key(rows).items():
        state[key] = fn([row[0] for row in group], state.get(key))
        out.append(carry(group[0], state[key], key))
    return out


def model_window(
    rows: List[Row], now: float, state: Dict[str, Any], duration: float, slide=None
) -> List[Row]:
    buffer = state.setdefault("buffer", [])
    buffer.extend((now, row) for row in rows)
    buffer[:] = [(arrival, row) for arrival, row in buffer if arrival >= now - duration]
    if slide is not None and now - state.get("last_emit", float("-inf")) < slide:
        return []
    state["last_emit"] = now
    return [row for _, row in buffer]


def model_join(rows: List[Row], right_rows: List[Row]) -> List[Row]:
    return [
        carry(left, (left[0], right[0]))
        for left in rows
        for right in right_rows
        if right[1] == left[1]
    ]


def model_for_each(rows: List[Row], seen: List[Tuple]) -> List[Row]:
    seen.extend(row[:4] for row in rows)
    return rows


STATELESS = {
    "map": model_map,
    "flat_map": model_flat_map,
    "filter": model_filter,
    "map_pairs": model_map_pairs,
    "repartition_by_key": model_repartition_by_key,
    "reduce_by_key": model_reduce_by_key,
    "group_by_key": model_group_by_key,
}


class ModelChain:
    """A chain of stages run through the model; one state dict per stage."""

    def __init__(self, spec: Sequence[Stage], seen: Optional[List[Tuple]] = None) -> None:
        self.spec = list(spec)
        self.seen = seen if seen is not None else []
        self.states: List[Dict[str, Any]] = [{} for _ in self.spec]
        self.right = next(
            (ModelChain(stage[1]) for stage in self.spec if stage[0] == "join"), None
        )

    def run(self, rows: List[Row], now: float, right_rows: Sequence[Row] = ()) -> List[Row]:
        # The join's right side runs its own chain first, as the engine does.
        joined = self.right.run(list(right_rows), now) if self.right else []
        for (name, *args), state in zip(self.spec, self.states):
            if name == "window":
                rows = model_window(rows, now, state, *args)
            elif name == "update_state_by_key":
                rows = model_update_state_by_key(rows, args[0], state)
            elif name == "join":
                rows = model_join(rows, joined)
            elif name == "for_each":
                rows = model_for_each(rows, self.seen)
            else:
                rows = STATELESS[name](rows, *args)
        return rows


# -- the harness: the same chain on the engine -----------------------------------------------
def to_record(row: Row) -> StreamRecord:
    value, key, event_time, ingest_time, size = row
    return StreamRecord(value, key=key, event_time=event_time, ingest_time=ingest_time,
                        size=size or 0)


def to_columns(rows: Sequence[Row]) -> ColumnBatch:
    columns = [list(column) for column in zip(*rows)] or [[], [], [], [], []]
    return ColumnBatch(*columns)


def to_rows(output) -> List[Row]:
    if isinstance(output, ColumnBatch):
        return list(zip(output.values, output.keys, output.event_times,
                        output.ingest_times, [size or None for size in output.sizes]))
    return [(r.value, r.key, r.event_time, r.ingest_time, r._size) for r in output]


def build(spec: Sequence[Stage], seen: List[Tuple]):
    """The chain as a ``DStream`` on a memory source; returns (stream, right stream)."""
    stream, right = DStream(None, MemorySource()), None
    for name, *args in spec:
        if name == "join":
            right, _ = build(args[0], [])
            stream = stream.join(right)
        elif name == "for_each":
            stream = stream.for_each(
                lambda r: seen.append((r.value, r.key, r.event_time, r.ingest_time))
            )
        else:
            stream = getattr(stream, name)(*args)
    return stream, right


#: How a chain is driven: ``columns`` is ``DStream.execute_columns`` over a
#: ``ColumnBatch`` (what the context calls), ``records`` is ``DStream.execute``,
#: its adapter for callers holding ``StreamRecord`` row views.
PLANES = ("columns", "records")


def assert_matches_model(
    spec: Sequence[Stage],
    batches: Sequence[Sequence[Row]],
    right_batches: Optional[Sequence[Sequence[Row]]] = None,
    nows: Optional[Sequence[float]] = None,
) -> List[List[Row]]:
    """Run the batch stream through the model and through the engine."""
    nows = nows or [1.0 + index for index in range(len(batches))]
    right_batches = right_batches or [[] for _ in batches]
    model = ModelChain(spec)
    expected = [
        model.run(list(rows), now, right_rows)
        for rows, right_rows, now in zip(batches, right_batches, nows)
    ]
    for plane in PLANES:
        seen: List[Tuple] = []
        stream, right = build(spec, seen)
        for index, (rows, right_rows, now) in enumerate(zip(batches, right_batches, nows)):
            for row in right_rows if right is not None else ():
                right.source.push(to_record(row))
            if plane == "records":
                output = stream.execute([to_record(row) for row in rows], now)
            else:
                output = stream.execute_columns(to_columns(rows), now)
            assert to_rows(output) == expected[index], (plane, index)
        assert seen == model.seen, plane
    return expected


def rows_of(values, keys=None, sizes=None, t0: float = 1.0) -> List[Row]:
    keys = keys if keys is not None else [None] * len(values)
    sizes = sizes if sizes is not None else [None] * len(values)
    return [
        (value, key, t0 + 0.1 * index, t0 + 0.2 * index, size)
        for index, (value, key, size) in enumerate(zip(values, keys, sizes))
    ]


# -- every operator against the model -------------------------------------------------------
def _running_total(new_values, previous):
    return (previous or 0) + sum(new_values)


CASES = {
    "map": ([("map", lambda v: v * 2)], [rows_of([1, 2, 3], sizes=[8, None, 8])]),
    "map_identity_keeps_sizes": ([("map", lambda v: v)], [rows_of(["a", "b"], sizes=[64, None])]),
    "flat_map": (
        [("flat_map", lambda v: [] if v % 3 == 0 else [v] * v)],
        [rows_of([0, 1, 2, 3, 4], sizes=[9, 9, None, 9, 9]), []],
    ),
    "filter": (
        [("filter", lambda v: v % 2 == 0)],
        [rows_of(list(range(6)), sizes=[7] * 6), rows_of([1, 3, 5]), rows_of([2, 4])],
    ),
    "map_pairs": (
        [("map_pairs", lambda v: (None if v == 2 else f"k{v % 2}", v * 10))],
        [rows_of([1, 2, 3, 4], keys=["a", "b", "c", "d"], sizes=[5, 5, 5, 5])],
    ),
    "repartition_by_key": (
        [("repartition_by_key",)],
        [
            rows_of([1, 2, 3, 4, 5, 6, 7], keys=["b", "a", None, "b", "a", "b", None]),
            rows_of([8, 9], keys=["z", "z"], sizes=[3, 3]),
            [],
        ],
    ),
    "reduce_by_key": (
        [("reduce_by_key", lambda a, b: a + b)],
        [rows_of([1, 2, 3, 4, 5], keys=["x", "y", "x", None, "x"], sizes=[4, 4, 4, 4, 4])],
    ),
    "group_by_key": (
        [("group_by_key",)],
        [rows_of([1, 2, 3, 4], keys=["x", "y", "x", None], sizes=[4, 4, 4, 4])],
    ),
    "update_state_by_key": (
        [("update_state_by_key", _running_total)],
        [
            rows_of([1, 2, 3], keys=["a", "b", "a"]),
            rows_of([10, 20], keys=["b", "a"], sizes=[6, 6]),
            [],
            rows_of([0], keys=["c"], sizes=[6]),  # new state `is` the value: size shared
        ],
    ),
    "window_eviction": (
        [("window", 2.5)],
        [rows_of([1, 2], keys=["a", "b"], sizes=[5, None]), rows_of([3]), [], rows_of([4, 5])],
    ),
    "window_slide": ([("window", 10.0, 2.0)], [rows_of([i]) for i in range(5)]),
    "window_then_reduce": (
        [("window", 5.0), ("reduce_by_key", lambda a, b: a + b)],
        [rows_of([1, 2], keys=["a", "b"]), rows_of([4, 8], keys=["a", "a"])],
    ),
    "for_each": (
        [("for_each",), ("filter", lambda v: v > 1), ("for_each",)],
        [rows_of([1, 2, 3], keys=["a", None, "b"], sizes=[4, None, 4]), []],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_operator_matches_model(name):
    spec, batches = CASES[name]
    assert_matches_model(spec, batches)


def test_join_matches_model():
    """Fan-out (2 left x 3 right rows of one key), a key with no match on
    either side, and a right side that runs its own stateful chain."""
    right_spec = [("map_pairs", lambda v: (v % 3, v)), ("reduce_by_key", lambda a, b: a + b)]
    spec = [("map_pairs", lambda v: (v % 3, v)), ("join", right_spec)]
    assert_matches_model(
        [("join", [])],
        [rows_of([10, 20, 30], keys=["k", "k", "q"], sizes=[4, 4, 4]), rows_of([1], keys=["k"])],
        right_batches=[rows_of([1, 2, 3, 4], keys=["k", "r", "k", "k"], sizes=[2, 2, 2, 2]), []],
    )
    assert_matches_model(
        spec,
        [rows_of([0, 1, 2, 3]), rows_of([4, 5])],
        right_batches=[rows_of([3, 6, 7]), rows_of([2])],
    )


def test_reset_state_returns_the_chain_to_a_fresh_model():
    spec = [("window", 5.0), ("update_state_by_key", _running_total)]
    batches = [rows_of([1, 2], keys=["a", "b"]), rows_of([3], keys=["a"])]
    expected = assert_matches_model(spec, batches)
    stream, _ = build(spec, [])
    for _ in range(2):
        got = [
            to_rows(stream.execute_columns(to_columns(rows), 1.0 + index))
            for index, rows in enumerate(batches)
        ]
        assert got == expected
        stream.reset_state()


def test_the_model_itself_is_pinned():
    """Literal outputs for the rules the model exists to state, so engine and
    model cannot drift together."""
    rows = rows_of([1, 2, 3, 4], keys=["b", "a", "b", "a"], sizes=[7, 7, None, 7], t0=0.0)
    assert [row[0] for row in model_repartition_by_key(rows)] == [1, 3, 2, 4]
    assert model_reduce_by_key(rows, lambda a, b: a + b) == [
        (4, "b", 0.0, 0.0, None), (6, "a", 0.1, 0.2, None),
    ]
    # Size-carry: identity shares the parent's state, a rewrite defers.
    big = "payload"
    assert carry((big, "k", 1.0, 2.0, 64), big) == (big, "k", 1.0, 2.0, 64)
    assert carry((big, "k", 1.0, 2.0, 64), big + "!") == (big + "!", "k", 1.0, 2.0, None)
    assert model_reduce_by_key([(big, "k", 1.0, 2.0, 64)], None) == [(big, "k", 1.0, 2.0, 64)]
    # Join fan-out: one output per left x right match, left order outermost.
    left = rows_of(["l1", "l2"], keys=["k", "k"], t0=0.0)
    right = rows_of(["r1", "r2", "r3"], keys=["k", "x", "k"], t0=5.0)
    assert [row[0] for row in model_join(left, right)] == [
        ("l1", "r1"), ("l1", "r3"), ("l2", "r1"), ("l2", "r3"),
    ]
    assert {row[2:] for row in model_join(left[:1], right)} == {(0.0, 0.0, None)}
    # Window: evicts by arrival time, stays silent between slides.
    state: Dict[str, Any] = {}
    emitted = [
        [row[0] for row in model_window(rows_of([i]), float(i), state, 2.0, 2.0)]
        for i in range(5)
    ]
    assert emitted == [[0], [], [0, 1, 2], [], [2, 3, 4]]


# -- hypothesis: random chains over random batch streams -----------------------------------------
_STAGES: Dict[str, List[Stage]] = {
    "map": [("map", lambda v: v + 1)],
    "map_identity": [("map", lambda v: v)],
    "flat_map": [("flat_map", lambda v: [v] * (abs(v) % 3))],
    "flat_map_rewrite": [("flat_map", lambda v: [v, v + 100])],
    "filter": [("filter", lambda v: v % 2 == 0)],
    "map_pairs": [("map_pairs", lambda v: (v % 3, v))],
    "repartition_by_key": [("repartition_by_key",)],
    "reduce_by_key": [("reduce_by_key", lambda a, b: a + b)],
    # List- and pair-valued outputs are mapped back to ints so that any stage
    # can follow any other.
    "group_by_key": [("group_by_key",), ("map", sum)],
    "window": [("window", 2.5)],
    "window_slide": [("window", 3.5, 2.0)],
    "update_state_by_key": [("update_state_by_key", lambda vs, s: (s or 0) + len(vs))],
    "for_each": [("for_each",)],
}
_RIGHT_CHAINS: List[List[Stage]] = [
    [],
    [("reduce_by_key", lambda a, b: a + b)],
    [("map_pairs", lambda v: (v % 2, v)), ("update_state_by_key", _running_total)],
]

_row_fields = st.tuples(
    st.integers(min_value=-20, max_value=20),
    st.one_of(st.none(), st.integers(min_value=0, max_value=2)),
    st.one_of(st.none(), st.integers(min_value=1, max_value=200)),
)
_batch = st.lists(_row_fields, max_size=8)


def _as_rows(fields, now: float) -> List[Row]:
    return [
        (value, key, now - 0.5 + 0.01 * index, now - 0.25, size)
        for index, (value, key, size) in enumerate(fields)
    ]


@given(
    stage_names=st.lists(st.sampled_from(sorted(_STAGES)), min_size=1, max_size=5),
    join_at=st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
    right_chain=st.sampled_from(_RIGHT_CHAINS),
    batches=st.lists(st.tuples(_batch, _batch), min_size=1, max_size=4),
)
@settings(max_examples=300)
def test_random_chains_match_the_model(stage_names, join_at, right_chain, batches):
    spec: List[Stage] = []
    for index, name in enumerate(stage_names):
        if join_at == index:
            spec += [("join", right_chain), ("map", lambda pair: pair[0] + pair[1])]
        spec += _STAGES[name]
    nows = [1.0 + index for index in range(len(batches))]
    assert_matches_model(
        spec,
        [_as_rows(left, now) for (left, _), now in zip(batches, nows)],
        right_batches=[_as_rows(right, now) for (_, right), now in zip(batches, nows)],
        nows=nows,
    )
