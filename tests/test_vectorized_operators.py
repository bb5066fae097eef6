"""Columnar kernel edge shapes, against the engine's one path.

``tests/test_engine_model.py`` judges every kernel against a row-list
reference over random chains; this file pins the shapes that are easy to get
wrong by hand, with literal expectations:

* empty batches, all-filtered batches, flat-map fan-out (including empty
  expansions), ``None`` keys, keyed windows spanning batch boundaries;
* kernels never mutate their input: a filter that keeps everything returns
  its input unchanged, and a window's retained chunks survive whatever a
  downstream kernel does to an emitted batch;
* lazy sizes: identity expansions share the parent's observed size state,
  pinned by counting ``estimate_size`` calls;
* the physical plan: which declared chains lose their shuffle or fuse
  ``map_pairs`` into ``reduce_by_key``, and which must not.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.engine.columns import ColumnBatch
from repro.engine.dstream import DStream
from repro.engine.operators import (
    FilterOperator,
    FlatMapOperator,
    GroupByKeyOperator,
    MapOperator,
    MapPairsOperator,
    ReduceByKeyOperator,
    RepartitionByKeyOperator,
    UpdateStateByKeyOperator,
    WindowOperator,
)
from repro.engine.records import StreamRecord
from repro.engine.sources import MemorySource


def make_columns(values, keys=None, t0: float = 1.0) -> ColumnBatch:
    """Row ``i`` has event time ``t0 + i`` and ingest time ``t0 + i + 0.5``."""
    count = len(values)
    return ColumnBatch(
        values=list(values),
        keys=list(keys) if keys else [None] * count,
        event_times=[t0 + i for i in range(count)],
        ingest_times=[t0 + i + 0.5 for i in range(count)],
        sizes=[None] * count,
    )


def rows(cols: ColumnBatch) -> List[tuple]:
    """(value, key, event_time) per row — ingest time always travels with it."""
    assert [t + 0.5 for t in cols.event_times] == cols.ingest_times
    assert len(cols.sizes) == len(cols.values)
    return list(zip(cols.values, cols.keys, cols.event_times))


class TestKernelEdgeShapes:
    def test_map_keeps_keys_and_provenance(self):
        out = MapOperator(lambda v: v * 2).apply(make_columns([1, 2, 3], keys="abc"), 1.0)
        assert rows(out) == [(2, "a", 1.0), (4, "b", 2.0), (6, "c", 3.0)]

    def test_map_empty_batch(self):
        out = MapOperator(lambda v: v * 2).apply(ColumnBatch(), 1.0)
        assert len(out) == 0 and rows(out) == []

    def test_filter_partial_and_all_filtered(self):
        op = FilterOperator(lambda v: v % 2 == 0)
        assert rows(op.apply(make_columns(range(6)), 1.0)) == [
            (0, None, 1.0), (2, None, 3.0), (4, None, 5.0),
        ]
        assert rows(op.apply(make_columns([1, 3, 5]), 2.0)) == []

    def test_filter_keep_all_returns_input_unchanged(self):
        cols = make_columns([1, 2])
        assert FilterOperator(lambda v: True).apply(cols, 1.0) is cols

    def test_flat_map_fan_out_and_empty_expansion(self):
        def expand(value):
            return [] if value % 3 == 0 else [value] * value

        out = FlatMapOperator(expand).apply(make_columns([0, 1, 2, 3, 4], keys="abcde"), 1.0)
        assert rows(out) == (
            [(1, "b", 2.0)] + [(2, "c", 3.0)] * 2 + [(4, "e", 5.0)] * 4
        )

    def test_map_pairs_none_key_keeps_the_old_key(self):
        def to_pair(value):
            return (None if value == 2 else f"k{value % 2}", value * 10)

        out = MapPairsOperator(to_pair).apply(make_columns([1, 2, 3, 4], keys="abcd"), 1.0)
        assert rows(out) == [
            (10, "k1", 1.0), (20, "b", 2.0), (30, "k1", 3.0), (40, "k0", 4.0),
        ]

    def test_reduce_by_key_takes_provenance_from_each_keys_first_row(self):
        cols = make_columns([1, 2, 3, 4, 5], keys=["x", "y", "x", "y", "x"])
        out = ReduceByKeyOperator(lambda a, b: a + b).apply(cols, 1.0)
        assert rows(out) == [(9, "x", 1.0), (6, "y", 2.0)]

    def test_group_by_key_including_none_key(self):
        cols = make_columns([1, 2, 3, 4], keys=["x", "y", "x", None])
        out = GroupByKeyOperator().apply(cols, 1.0)
        assert rows(out) == [([1, 3], "x", 1.0), ([2], "y", 2.0), ([4], None, 4.0)]

    def test_update_state_by_key_across_batches(self):
        op = UpdateStateByKeyOperator(lambda new, previous: (previous or 0) + sum(new))
        first = op.apply(make_columns([1, 2, 3], keys=["a", "b", "a"]), 1.0)
        second = op.apply(make_columns([10, 20], keys=["b", "a"], t0=5.0), 2.0)
        third = op.apply(ColumnBatch(), 3.0)
        assert rows(first) == [(4, "a", 1.0), (2, "b", 2.0)]
        assert rows(second) == [(12, "b", 5.0), (24, "a", 6.0)]
        assert rows(third) == [] and op.state == {"a": 24, "b": 12}

    def test_window_spanning_batch_boundaries(self):
        """Window of 2.5 s over batches at now=1,2,3,4: early chunks evict."""
        window = WindowOperator(2.5)
        batches = [
            make_columns([1, 2], keys=["a", "b"]),
            make_columns([3], keys=["a"], t0=10.0),
            ColumnBatch(),
            make_columns([4, 5], keys=["b", "a"], t0=20.0),
        ]
        emitted = [window.apply(cols, now).values for cols, now in zip(batches, [1, 2, 3, 4])]
        assert emitted == [[1, 2], [1, 2, 3], [1, 2, 3], [3, 4, 5]]

    def test_window_with_slide_emits_empty_between_slides(self):
        window = WindowOperator(10.0, slide=2.0)
        emitted = [window.apply(make_columns([i]), float(i + 1)).values for i in range(5)]
        assert emitted == [[0], [], [0, 1, 2], [], [0, 1, 2, 3, 4]]

    def test_keyed_window_then_reduce_spans_boundaries(self):
        """The windowed rows re-reduce correctly even when the emitted window
        mixes chunks from several micro-batches."""
        window = WindowOperator(5.0)
        reduce_op = ReduceByKeyOperator(lambda a, b: a + b)
        first = reduce_op.apply(window.apply(make_columns([1, 2], keys=["a", "b"]), 1.0), 1.0)
        second = reduce_op.apply(
            window.apply(make_columns([4, 8], keys=["a", "a"], t0=7.0), 2.0), 2.0
        )
        assert rows(first) == [(1, "a", 1.0), (2, "b", 2.0)]
        assert rows(second) == [(13, "a", 1.0), (2, "b", 2.0)]

    def test_window_buffer_safe_from_downstream_mutation(self):
        """Window emissions are non-destructive concatenations: a downstream
        kernel filtering the emitted batch must not corrupt the buffered
        window chunks."""
        window = WindowOperator(10.0)
        first = window.apply(make_columns([1, 2]), 1.0)
        FilterOperator(lambda v: False).apply(first, 1.0)
        second = window.apply(make_columns([3]), 2.0)
        assert second.values == [1, 2, 3]
        assert first.values == [1, 2]


# -- lazy sizes: estimate_size runs at most once per observed entry ------------------


@pytest.fixture
def count_estimates(monkeypatch):
    from repro.network import packet

    calls = {"n": 0}
    real = packet.estimate_size

    def counting(value):
        calls["n"] += 1
        return real(value)

    import repro.engine.columns as columns_mod
    import repro.engine.records as records_mod

    monkeypatch.setattr(records_mod, "estimate_size", counting)
    monkeypatch.setattr(columns_mod, "estimate_size", counting)
    return calls


class TestFlatMapSizeSharing:
    def test_identity_expansion_shares_observed_size(self, count_estimates):
        """An ingested row (observed wire size) flat-mapped into identity
        re-emissions: observing every output's size runs estimate_size 0
        times — the expansions share the parent's observed state."""
        cols = ColumnBatch(["payload"], [None], [1.0], [1.0], [64])
        out = FlatMapOperator(lambda v: [v, v, v]).apply(cols, now=1.0)
        assert out.sizes == [64, 64, 64]
        assert out.total_bytes() == 192
        assert [record.size for record in out.to_records()] == [64, 64, 64]
        assert count_estimates["n"] == 0

    def test_unobserved_identity_expansion_estimates_once_per_parent(self, count_estimates):
        """A row with no size yet: observing the parent first, then the
        expansions, estimates exactly once in total (not once per expansion)."""
        cols = ColumnBatch.from_records([StreamRecord("payload")])
        parent_size = cols.total_bytes()
        assert parent_size > 0 and count_estimates["n"] == 1
        out = FlatMapOperator(lambda v: [v, v]).apply(cols, now=1.0)
        assert out.sizes == [parent_size, parent_size]
        assert out.total_bytes() == 2 * parent_size
        assert count_estimates["n"] == 1

    def test_rewriting_expansion_estimates_once_per_output(self, count_estimates):
        cols = ColumnBatch(["ab"], [None], [1.0], [1.0], [32])
        out = FlatMapOperator(lambda v: [v + "x", v + "y"]).apply(cols, now=1.0)
        assert out.sizes == [None, None]
        sizes = [out.size_at(index) for index in range(len(out))]
        assert count_estimates["n"] == 2
        assert all(size > 0 for size in sizes)
        # Re-reading is cached: no further estimates.
        assert [out.size_at(index) for index in range(len(out))] == sizes
        assert count_estimates["n"] == 2


# -- the physical plan ----------------------------------------------------------------


def plan_names(stream: DStream) -> List[str]:
    return [kernel.name for kernel, _ in stream.plan]


def fresh_stream() -> DStream:
    return DStream(None, MemorySource())


def replay_chain(stream: DStream) -> DStream:
    """The shape of the ``replay_spe`` benchmark chain: the sharded-ingest
    idiom, a shuffle in front of a keyed aggregation."""
    return (
        stream.map(lambda value: value % 1_000_003)
        .filter(lambda value: value % 7 != 0)
        .map_pairs(lambda value: (value % 64, (1, value)))
        .repartition_by_key()
        .reduce_by_key(lambda a, b: (a[0] + b[0], a[1] + b[1]))
        .update_state_by_key(lambda new, old: (old or 0) + len(new))
    )


class TestPhysicalPlan:
    def test_replay_chain_drops_its_shuffle_and_combines_map_side(self):
        stream = replay_chain(fresh_stream())
        assert plan_names(stream) == [
            "map", "filter", "map_pairs+reduce_by_key", "update_state_by_key",
        ]
        # The cost model still charges every declared stage.
        assert stream.n_stages == 6
        # Stateful operators are the declared objects; the combine step ends
        # at the declared reduce_by_key; the plan is cached.
        assert stream.plan[-1] == (stream.operators[-1], stream.operators[-1])
        assert stream.plan[-2][1] is stream.operators[-2]
        assert stream.plan is stream.plan

    @pytest.mark.parametrize("aggregate", ["reduce_by_key", "group_by_key",
                                           "update_state_by_key", "repartition_by_key"])
    def test_a_shuffle_before_a_key_grouping_operator_is_dropped(self, aggregate):
        args = {"reduce_by_key": (max,), "update_state_by_key": (lambda new, old: 0,)}
        stream = getattr(fresh_stream().repartition_by_key(), aggregate)(*args.get(aggregate, ()))
        assert plan_names(stream) == [aggregate]

    @pytest.mark.parametrize("between", ["for_each", "window"])
    def test_an_operator_between_shuffle_and_reduce_keeps_the_shuffle(self, between):
        args = {"for_each": (lambda record: None,), "window": (5.0,)}
        stream = getattr(fresh_stream().map_pairs(lambda v: (v, v)).repartition_by_key(),
                         between)(*args[between]).reduce_by_key(max)
        assert plan_names(stream) == ["map_pairs", "repartition_by_key", between,
                                      "reduce_by_key"]

    def test_chains_outside_the_two_rules_run_as_declared(self):
        word_count = fresh_stream().map_pairs(lambda w: (w, 1)).update_state_by_key(
            lambda new, old: (old or 0) + sum(new))
        trailing_shuffle = fresh_stream().map(abs).repartition_by_key()
        reduce_alone = fresh_stream().filter(bool).reduce_by_key(max)
        assert plan_names(word_count) == ["map_pairs", "update_state_by_key"]
        assert plan_names(trailing_shuffle) == ["map", "repartition_by_key"]
        assert plan_names(reduce_alone) == ["filter", "reduce_by_key"]

    def test_subclasses_are_never_rewritten(self):
        class CountingShuffle(RepartitionByKeyOperator):
            pass

        class CountingReduce(ReduceByKeyOperator):
            pass

        shuffled = fresh_stream()._derive(CountingShuffle()).reduce_by_key(max)
        paired = fresh_stream().map_pairs(lambda v: (v, v))._derive(CountingReduce(max))
        assert [type(kernel) for kernel, _ in shuffled.plan] == [CountingShuffle, ReduceByKeyOperator]
        assert [type(kernel) for kernel, _ in paired.plan] == [MapPairsOperator, CountingReduce]

    def test_combined_chain_matches_the_declared_kernels_one_by_one(self):
        stream = replay_chain(fresh_stream())
        cols = ColumnBatch(
            values=list(range(1, 400)),
            keys=[None] * 399,
            event_times=[float(i) for i in range(399)],
            ingest_times=[float(i) + 0.5 for i in range(399)],
            sizes=[8] * 399,
        )
        expected = cols
        for operator in stream.operators:
            expected = operator.apply(expected, 1.0)
        stream.reset_state()
        got = stream.execute_columns(cols, 1.0)
        for column in ColumnBatch.__slots__:
            assert getattr(got, column) == getattr(expected, column), column

    def test_branches_share_a_prefix_whatever_their_plans(self):
        """With one micro-batch's ``batches``, a prefix two branches declare
        runs once, although one branch drops its shuffle and the other runs it."""
        seen = []
        shuffled = (
            fresh_stream()
            .map(lambda value: seen.append(value) or value)
            .map_pairs(lambda value: (value % 2, value))
            .repartition_by_key()
        )
        summed = shuffled.reduce_by_key(lambda a, b: a + b)
        listed = shuffled.map(lambda value: -value)
        assert plan_names(summed) == ["map", "map_pairs+reduce_by_key"]
        cols = ColumnBatch([1, 2, 3, 4], [None] * 4, [0.0] * 4, [0.0] * 4, [8] * 4)
        batches = {}
        got_summed = summed.execute_columns(cols, 1.0, batches)
        got_listed = listed.execute_columns(cols, 1.0, batches)
        assert (got_summed.keys, got_summed.values) == ([1, 0], [4, 6])
        assert (got_listed.keys, got_listed.values) == ([1, 1, 0, 0], [-1, -3, -2, -4])
        assert seen == [1, 2, 3, 4]
