"""Unit tests for partition logs, records, topic state and the coordinator."""

import pytest

from repro.broker.log import PartitionLog
from repro.broker.message import ProducerRecord, RecordMetadata, _stable_hash
from repro.broker.topic import PartitionState, TopicConfig


class TestPartitionLog:
    def make_log(self, n=5, epoch=0):
        log = PartitionLog("t", 0)
        for i in range(n):
            log.append(
                key=f"k{i}", value=f"v{i}", size=10, timestamp=float(i),
                produced_at=float(i), leader_epoch=epoch,
            )
        return log

    def test_append_assigns_sequential_offsets(self):
        log = self.make_log(3)
        assert [r.offset for r in log.all_records()] == [0, 1, 2]
        assert log.log_end_offset == 3

    def test_read_from_offset(self):
        log = self.make_log(5)
        records = log.read(2)
        assert [r.offset for r in records] == [2, 3, 4]

    def test_read_beyond_end_returns_empty(self):
        log = self.make_log(2)
        assert log.read(5) == []

    def test_read_max_records(self):
        log = self.make_log(10)
        assert len(log.read(0, max_records=4)) == 4

    def test_committed_read_respects_high_watermark(self):
        log = self.make_log(5)
        assert log.committed_read(0) == []
        log.advance_high_watermark(3)
        assert [r.offset for r in log.committed_read(0)] == [0, 1, 2]

    def test_high_watermark_never_goes_backwards(self):
        log = self.make_log(5)
        log.advance_high_watermark(4)
        log.advance_high_watermark(2)
        assert log.high_watermark == 4

    def test_high_watermark_capped_at_log_end(self):
        log = self.make_log(3)
        log.advance_high_watermark(100)
        assert log.high_watermark == 3

    def test_truncate_discards_suffix(self):
        log = self.make_log(5)
        discarded = log.truncate_to(2)
        assert [r.offset for r in discarded] == [2, 3, 4]
        assert log.log_end_offset == 2
        assert log.truncated_records == 3

    def test_truncate_beyond_end_is_noop(self):
        log = self.make_log(3)
        assert log.truncate_to(10) == []
        assert log.log_end_offset == 3

    def test_truncate_pulls_back_high_watermark(self):
        log = self.make_log(5)
        log.advance_high_watermark(5)
        log.truncate_to(2)
        assert log.high_watermark == 2

    def test_epoch_boundaries_recorded(self):
        log = PartitionLog("t")
        log.append(key=None, value="a", size=1, timestamp=0, produced_at=0, leader_epoch=0)
        log.append(key=None, value="b", size=1, timestamp=0, produced_at=0, leader_epoch=0)
        log.append(key=None, value="c", size=1, timestamp=0, produced_at=0, leader_epoch=2)
        assert log.epoch_boundaries == [(0, 0), (2, 2)]

    def test_stale_epoch_append_rejected(self):
        log = PartitionLog("t")
        log.append(key=None, value="a", size=1, timestamp=0, produced_at=0, leader_epoch=3)
        with pytest.raises(ValueError):
            log.append(key=None, value="b", size=1, timestamp=0, produced_at=0, leader_epoch=1)

    def test_size_bytes(self):
        log = self.make_log(4)
        assert log.size_bytes == 40

    def test_record_at(self):
        log = self.make_log(3)
        assert log.record_at(1).value == "v1"
        assert log.record_at(9) is None


class TestProducerRecord:
    def test_size_estimated_when_missing(self):
        record = ProducerRecord(topic="t", value="hello world!")
        assert record.size >= 12

    def test_explicit_partition_used(self):
        record = ProducerRecord(topic="t", value="x", partition=2)
        assert record.partition_for(4) == 2

    def test_explicit_partition_out_of_range(self):
        record = ProducerRecord(topic="t", value="x", partition=9)
        with pytest.raises(ValueError):
            record.partition_for(2)

    def test_key_partitioning_is_stable(self):
        a = ProducerRecord(topic="t", value="x", key="user-1")
        b = ProducerRecord(topic="t", value="y", key="user-1")
        assert a.partition_for(8) == b.partition_for(8)

    def test_round_robin_fallback(self):
        record = ProducerRecord(topic="t", value="x")
        assert record.partition_for(4, fallback=5) == 1

    def test_stable_hash_is_deterministic(self):
        assert _stable_hash("abc") == _stable_hash("abc")
        assert _stable_hash("abc") != _stable_hash("abd")

    def test_record_metadata_commit_latency(self):
        metadata = RecordMetadata(
            topic="t", partition=0, offset=1, timestamp=12.5, produced_at=10.0
        )
        assert metadata.commit_latency == pytest.approx(2.5)


class TestTopicState:
    def test_topic_config_validation(self):
        with pytest.raises(ValueError):
            TopicConfig(name="")
        with pytest.raises(ValueError):
            TopicConfig(name="t", partitions=0)
        with pytest.raises(ValueError):
            TopicConfig(name="t", replication_factor=0)

    def test_partition_state_defaults(self):
        state = PartitionState(topic="t", partition=0, replicas=["b1", "b2"])
        assert state.leader == "b1"
        assert state.isr == ["b1", "b2"]
        assert state.preferred_leader == "b1"
        assert state.key == "t-0"

    def test_partition_state_requires_replicas(self):
        with pytest.raises(ValueError):
            PartitionState(topic="t", partition=0, replicas=[])

    def test_isr_shrink_and_expand(self):
        state = PartitionState(topic="t", partition=0, replicas=["b1", "b2", "b3"])
        state.shrink_isr("b2")
        assert state.isr == ["b1", "b3"]
        state.expand_isr("b2")
        assert set(state.isr) == {"b1", "b2", "b3"}
        state.expand_isr("b9")
        assert "b9" not in state.isr

    def test_isr_never_shrinks_to_empty(self):
        state = PartitionState(topic="t", partition=0, replicas=["b1"])
        state.shrink_isr("b1")
        assert state.isr == ["b1"]

    def test_copy_is_independent(self):
        state = PartitionState(topic="t", partition=0, replicas=["b1", "b2"])
        clone = state.copy()
        clone.shrink_isr("b2")
        assert state.isr == ["b1", "b2"]
