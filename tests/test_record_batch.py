"""RecordBatch round-trip invariants.

The batch-native record plane must be *observationally identical* to the old
per-record-dict wire format: encode -> ship -> decode yields the same
records, offsets and sizes.  These tests lock the invariants at three layers:
the batch itself, the partition log's batch append/read paths against its
per-record reference paths, and a full produce -> broker -> consume trip on
an emulated cluster.
"""

import pytest

from repro.broker.batch import BATCH_HEADER_OVERHEAD, EMPTY_BATCH, RecordBatch
from repro.broker.cluster import BrokerCluster, ClusterConfig
from repro.broker.consumer import ConsumerConfig
from repro.broker.log import PartitionLog
from repro.broker.message import ProducerRecord
from repro.broker.producer import ProducerConfig
from repro.broker.segment import LogStorageConfig
from repro.broker.topic import TopicConfig
from repro.network.link import LinkConfig
from repro.network.topology import one_big_switch
from repro.simulation import Simulator


class TestRecordBatchUnit:
    def make_batch(self, n=5):
        batch = RecordBatch("t", 0)
        for i in range(n):
            batch.append(f"k{i}", f"v{i}", 10 + i, produced_at=float(i))
        return batch

    def test_append_maintains_header_totals(self):
        batch = self.make_batch(4)
        assert len(batch) == 4
        assert batch.total_size == 10 + 11 + 12 + 13
        assert batch.total_size == sum(batch.sizes)
        assert batch.wire_size == batch.total_size + BATCH_HEADER_OVERHEAD

    def test_offsets_follow_base(self):
        batch = self.make_batch(3)
        batch.base_offset = 7
        assert batch.last_offset == 9
        assert batch.next_offset == 10
        assert [offset for offset, *_ in batch.iter_records()] == [7, 8, 9]

    def test_iter_records_round_trips_columns(self):
        batch = self.make_batch(3)
        batch.base_offset = 0
        rows = list(batch.iter_records())
        assert rows == [
            (0, "k0", "v0", 10, 0.0),
            (1, "k1", "v1", 11, 1.0),
            (2, "k2", "v2", 12, 2.0),
        ]

    def test_headers_lazily_columnized(self):
        batch = RecordBatch("t", 0)
        batch.append("a", 1, 8, 0.0)
        assert batch.headers is None  # no allocation while all empty
        batch.append("b", 2, 8, 0.0, headers={"trace": "x"})
        batch.append("c", 3, 8, 0.0)
        assert batch.headers_at(0) == {}
        assert batch.headers_at(1) == {"trace": "x"}
        assert batch.headers_at(2) == {}

    def test_tail_trims_prefix_consistently(self):
        batch = self.make_batch(5)
        batch.base_offset = 100
        tail = batch.tail(2)
        assert tail.base_offset == 102
        assert tail.values == ["v2", "v3", "v4"]
        assert tail.total_size == sum(tail.sizes) == 12 + 13 + 14
        assert batch.tail(0) is batch

    def test_empty_batch_sentinel(self):
        assert len(EMPTY_BATCH) == 0
        assert not EMPTY_BATCH
        assert EMPTY_BATCH.total_size == 0


class TestPartitionLogBatchPaths:
    def make_log_via_batches(self):
        log = PartitionLog("t", 0)
        first = RecordBatch("t", 0)
        for i in range(3):
            first.append(f"k{i}", f"v{i}", 10, produced_at=float(i))
        second = RecordBatch("t", 0)
        for i in range(3, 5):
            second.append(f"k{i}", f"v{i}", 10, produced_at=float(i))
        assert log.append_batch(first, timestamp=1.0, leader_epoch=0) == 0
        assert log.append_batch(second, timestamp=2.0, leader_epoch=0) == 3
        return log

    def test_append_batch_assigns_contiguous_offsets(self):
        log = self.make_log_via_batches()
        assert log.log_end_offset == 5
        assert [record.offset for record in log.all_records()] == [0, 1, 2, 3, 4]
        assert log.size_bytes == 50

    def test_read_batch_equals_per_record_read(self):
        log = self.make_log_via_batches()
        log.advance_high_watermark(5)
        batch = log.read_batch(1, max_records=3)
        records = log.read(1, max_records=3)
        assert batch.base_offset == 1
        assert batch.values == [record.value for record in records]
        assert batch.keys == [record.key for record in records]
        assert batch.sizes == [record.size for record in records]
        assert batch.produced_ats == [record.produced_at for record in records]
        assert batch.timestamps == [record.timestamp for record in records]
        assert batch.total_size == sum(record.size for record in records)

    def test_committed_read_batch_respects_high_watermark(self):
        log = self.make_log_via_batches()
        log.advance_high_watermark(2)
        batch = log.committed_read_batch(0)
        assert len(batch) == 2
        assert batch.values == ["v0", "v1"]
        assert len(log.committed_read_batch(2)) == 0

    def test_read_batch_with_epochs(self):
        log = PartitionLog("t", 0)
        batch_a = RecordBatch("t", 0)
        batch_a.append(None, "a", 1, 0.0)
        batch_b = RecordBatch("t", 0)
        batch_b.append(None, "b", 1, 0.0)
        log.append_batch(batch_a, timestamp=0.0, leader_epoch=0)
        log.append_batch(batch_b, timestamp=0.0, leader_epoch=2)
        wire = log.read_batch(0, with_epochs=True)
        assert wire.leader_epochs == [0, 2]
        assert log.epoch_boundaries == [(0, 0), (2, 1)]

    def test_append_wire_batch_replicates_epoch_boundaries(self):
        leader = PartitionLog("t", 0)
        batch_a = RecordBatch("t", 0)
        batch_a.append(None, "a", 1, 0.0)
        batch_b = RecordBatch("t", 0)
        batch_b.append(None, "b", 1, 0.0)
        leader.append_batch(batch_a, timestamp=0.0, leader_epoch=0)
        leader.append_batch(batch_b, timestamp=0.0, leader_epoch=2)
        follower = PartitionLog("t", 0)
        appended = follower.append_wire_batch(leader.read_batch(0, with_epochs=True))
        assert appended == 2
        assert follower.epoch_boundaries == leader.epoch_boundaries
        assert [r.value for r in follower.all_records()] == ["a", "b"]

    def test_append_wire_batch_trims_overlap(self):
        log = self.make_log_via_batches()
        follower = PartitionLog("t", 0)
        follower.append_wire_batch(log.read_batch(0, max_records=3, with_epochs=True))
        assert follower.log_end_offset == 3
        # Refetch from offset 1: the two already-present records are skipped.
        appended = follower.append_wire_batch(log.read_batch(1, with_epochs=True))
        assert appended == 2
        assert follower.log_end_offset == 5
        assert [r.value for r in follower.all_records()] == [
            r.value for r in log.all_records()
        ]
        assert follower.size_bytes == log.size_bytes

    def test_append_wire_batch_rejects_gap(self):
        follower = PartitionLog("t", 0)
        gap = RecordBatch("t", 0, base_offset=5)
        gap.append(None, "x", 1, 0.0)
        # A log with no storage policy never rolls: a gap is corruption.
        with pytest.raises(ValueError):
            follower.append_wire_batch(gap)

    def test_append_wire_batch_adopts_gap_with_a_roll(self):
        follower = PartitionLog("t", 0, storage=LogStorageConfig(segment_records=8))
        gap = RecordBatch("t", 0, base_offset=5)
        gap.append(None, "x", 1, 0.0)
        # A leader's retention/compaction gap becomes a segment boundary.
        assert follower.append_wire_batch(gap) == 1
        assert follower.log_start_offset == 5
        assert follower.log_end_offset == 6
        assert follower.record_at(5).value == "x"

    def test_truncate_after_batch_append_keeps_size_accounting(self):
        log = self.make_log_via_batches()
        discarded = log.truncate_to(2)
        assert [record.offset for record in discarded] == [2, 3, 4]
        assert log.size_bytes == 20
        assert log.log_end_offset == 2


def run_round_trip(seed, keep_payloads):
    """Seeded produce -> broker -> consume trip; returns observable state."""
    sim = Simulator(seed=seed)
    network = one_big_switch(
        sim,
        ["source", "broker", "sink"],
        default_config=LinkConfig(latency_ms=1.0, bandwidth_mbps=1000.0),
    )
    cluster = BrokerCluster(network, coordinator_host="broker", config=ClusterConfig())
    cluster.add_broker("broker")
    cluster.add_topic(TopicConfig(name="events", replication_factor=1))
    cluster.start(settle_time=1.0)
    producer = cluster.create_producer(
        "source", config=ProducerConfig(linger=0.01)
    )
    consumer = cluster.create_consumer(
        "sink",
        config=ConsumerConfig(poll_interval=0.02, keep_payloads=keep_payloads),
    )
    consumer.subscribe(["events"])
    sent = []

    def drive():
        yield sim.timeout(2.0)
        producer.start()
        consumer.start()
        for i in range(120):
            record = ProducerRecord(
                topic="events", key=i, value={"n": i, "blob": "x" * (i % 17)}
            )
            sent.append(record)
            producer.send(record)
            yield sim.timeout(0.01)

    sim.process(drive())
    sim.run(until=20.0)
    return sim, producer, consumer, sent


class TestEndToEndRoundTrip:
    def test_encode_ship_decode_is_lossless(self):
        _sim, producer, consumer, sent = run_round_trip(seed=5, keep_payloads=True)
        assert producer.records_acked == len(sent)
        assert consumer.records_consumed == len(sent)
        received = consumer.received
        # Offsets are contiguous from 0 and arrive in order.
        assert [record.offset for record in received] == list(range(len(sent)))
        # Keys, values and sizes survive the trip bit-for-bit.
        assert [record.key for record in received] == [record.key for record in sent]
        assert [record.value for record in received] == [
            record.value for record in sent
        ]
        assert [record.size for record in received] == [record.size for record in sent]
        assert consumer.bytes_consumed == sum(record.size for record in sent)
        # Delivery latency is measurable (produced_at carried through).
        assert all(record.latency > 0 for record in received)

    def test_header_fast_path_agrees_with_materialized_path(self):
        _sim, _producer, full, sent = run_round_trip(seed=5, keep_payloads=True)
        _sim2, _producer2, fast, _ = run_round_trip(seed=5, keep_payloads=False)
        # The O(1) header-accounting path and the per-record path observe the
        # same totals and final offsets for the same seeded trace.
        assert fast.records_consumed == full.records_consumed == len(sent)
        assert fast.bytes_consumed == full.bytes_consumed
        assert fast.offsets == full.offsets
        assert fast.received == []  # fast path materializes nothing
