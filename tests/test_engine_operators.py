"""Unit tests for DStream operators and the executor cost model."""

import pytest

from repro.engine.columns import ColumnBatch
from repro.engine.executor import ExecutorConfig
from repro.engine.operators import (
    FilterOperator,
    FlatMapOperator,
    GroupByKeyOperator,
    JoinOperator,
    MapOperator,
    MapPairsOperator,
    ReduceByKeyOperator,
    UpdateStateByKeyOperator,
    WindowOperator,
)
from repro.engine.records import StreamRecord


def records(*values, key=None):
    return [StreamRecord(value=v, key=key, event_time=0.0) for v in values]


def apply(operator, batch, now):
    """One kernel call over a batch given (and returned) as row views."""
    return operator.apply(ColumnBatch.from_records(batch), now).to_records()


class TestRecords:
    def test_size_estimated(self):
        text = "hello world, stream processing at scale"
        record = StreamRecord(value=text)
        assert record.size == len(text)

    def test_with_value_preserves_provenance(self):
        record = StreamRecord(value="original", event_time=3.0, ingest_time=4.0)
        derived = record.with_value("new", key="k")
        assert derived.event_time == 3.0
        assert derived.ingest_time == 4.0
        assert derived.key == "k"
        assert derived.value == "new"

    def test_age(self):
        record = StreamRecord(value=1, event_time=10.0)
        assert record.age(12.5) == pytest.approx(2.5)


class TestStatelessOperators:
    def test_map(self):
        out = apply(MapOperator(lambda x: x * 2), records(1, 2, 3), 0)
        assert [r.value for r in out] == [2, 4, 6]

    def test_flat_map(self):
        out = apply(FlatMapOperator(lambda s: s.split()), records("a b", "c"), 0)
        assert [r.value for r in out] == ["a", "b", "c"]

    def test_flat_map_can_drop(self):
        out = apply(FlatMapOperator(lambda s: []), records("a", "b"), 0)
        assert out == []

    def test_filter(self):
        out = apply(FilterOperator(lambda x: x % 2 == 0), records(1, 2, 3, 4), 0)
        assert [r.value for r in out] == [2, 4]

    def test_map_pairs_sets_key(self):
        out = apply(MapPairsOperator(lambda word: (word, 1)), records("a", "b", "a"), 0)
        assert [(r.key, r.value) for r in out] == [("a", 1), ("b", 1), ("a", 1)]

    def test_reduce_by_key(self):
        pairs = apply(MapPairsOperator(lambda w: (w, 1)), records("a", "b", "a", "a"), 0)
        out = apply(ReduceByKeyOperator(lambda x, y: x + y), pairs, 0)
        result = {r.key: r.value for r in out}
        assert result == {"a": 3, "b": 1}

    def test_group_by_key(self):
        pairs = apply(MapPairsOperator(lambda x: (x % 2, x)), records(1, 2, 3, 4), 0)
        out = apply(GroupByKeyOperator(), pairs, 0)
        grouped = {r.key: sorted(r.value) for r in out}
        assert grouped == {0: [2, 4], 1: [1, 3]}


class TestWindowOperator:
    def test_window_retains_recent_elements(self):
        window = WindowOperator(window_duration=10.0)
        apply(window, records("a"), 0.0)
        out = apply(window, records("b"), 5.0)
        assert [r.value for r in out] == ["a", "b"]

    def test_window_expires_old_elements(self):
        window = WindowOperator(window_duration=10.0)
        apply(window, records("old"), 0.0)
        out = apply(window, records("new"), 15.0)
        assert [r.value for r in out] == ["new"]

    def test_window_slide_suppresses_intermediate_emissions(self):
        window = WindowOperator(window_duration=30.0, slide=10.0)
        first = apply(window, records("a"), 0.0)
        second = apply(window, records("b"), 5.0)
        third = apply(window, records("c"), 10.0)
        assert [r.value for r in first] == ["a"]
        assert second == []
        assert [r.value for r in third] == ["a", "b", "c"]

    def test_window_reset(self):
        window = WindowOperator(window_duration=10.0)
        apply(window, records("a"), 0.0)
        window.reset()
        out = apply(window, records("b"), 1.0)
        assert [r.value for r in out] == ["b"]

    def test_window_validation(self):
        with pytest.raises(ValueError):
            WindowOperator(window_duration=0)


class TestStatefulOperators:
    def test_update_state_by_key_accumulates(self):
        operator = UpdateStateByKeyOperator(lambda new, old: (old or 0) + sum(new))
        pairs1 = apply(MapPairsOperator(lambda w: (w, 1)), records("a", "a", "b"), 0)
        out1 = apply(operator, pairs1, 0)
        assert {r.key: r.value for r in out1} == {"a": 2, "b": 1}
        pairs2 = apply(MapPairsOperator(lambda w: (w, 1)), records("a"), 1)
        out2 = apply(operator, pairs2, 1)
        assert {r.key: r.value for r in out2} == {"a": 3}
        assert operator.state == {"a": 3, "b": 1}

    def test_update_state_reset(self):
        operator = UpdateStateByKeyOperator(lambda new, old: (old or 0) + sum(new))
        apply(operator, apply(MapPairsOperator(lambda w: (w, 1)), records("x"), 0), 0)
        operator.reset()
        assert operator.state == {}

    def test_join_matches_keys(self):
        join = JoinOperator()
        left = apply(
            MapPairsOperator(lambda x: (x["id"], x["fare"])),
            records({"id": 1, "fare": 10.0}, {"id": 2, "fare": 20.0}),
            0,
        )
        right = apply(
            MapPairsOperator(lambda x: (x["id"], x["tip"])), records({"id": 1, "tip": 2.0}), 0
        )
        join.set_right_batch(ColumnBatch.from_records(right))
        out = apply(join, left, 0)
        assert [(r.key, r.value) for r in out] == [(1, (10.0, 2.0))]

    def test_join_without_right_batch_is_empty(self):
        join = JoinOperator()
        out = apply(join, records(1, 2, key="k"), 0)
        assert out == []


class TestExecutorConfig:
    def test_job_cost_scales_with_records_and_stages(self):
        config = ExecutorConfig(job_overhead=0.1, per_record_cost=1e-3)
        small = config.job_cost(n_records=10, n_bytes=0, n_stages=1)
        large = config.job_cost(n_records=100, n_bytes=0, n_stages=2)
        assert small == pytest.approx(0.11)
        assert large == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutorConfig(parallelism=0)
        with pytest.raises(ValueError):
            ExecutorConfig(per_record_cost=-1)
