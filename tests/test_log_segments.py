"""Segmented log storage: sealing, indexed reads, retention, compaction,
cold tier and recovery (see ``docs/log_storage.md``).

The unit tests drive :class:`PartitionLog` directly with explicit
:class:`LogStorageConfig`; the end-to-end tests stand up a real cluster with
retention enabled and exercise the consumer's ``auto_offset_reset`` policies
against genuine OffsetOutOfRange replies.
"""

import pytest

from repro.broker.batch import RecordBatch
from repro.broker.cluster import BrokerCluster, ClusterConfig
from repro.broker.consumer import ConsumerConfig
from repro.broker.log import PartitionLog
from repro.broker.message import ProducerRecord
from repro.broker.producer import ProducerConfig
from repro.broker.segment import (
    DEFAULT_SEGMENT_RECORDS,
    LogStorageConfig,
    resolve_log_storage,
)
from repro.broker.topic import TopicConfig
from repro.network.link import LinkConfig
from repro.network.topology import star_topology
from repro.simulation import Simulator


def make_segmented(n=0, segment_records=16, **storage_kwargs):
    storage = LogStorageConfig(segment_records=segment_records, **storage_kwargs)
    log = PartitionLog("t", 0, storage=storage)
    fill(log, n)
    return log


def fill(log, n, start_time=0.0, size=10, epoch=0):
    for i in range(n):
        fill_one(log, i, start_time, size, epoch)


def fill_one(log, i, start_time=0.0, size=10, epoch=0):
    log.append(
        key=f"k{i % 7}", value=f"v{i}", size=size,
        timestamp=start_time + float(i), produced_at=start_time + float(i),
        leader_epoch=epoch,
    )


class TestSealing:
    def test_head_rolls_at_segment_records(self):
        log = make_segmented(100, segment_records=16)
        assert log.stats["segments_sealed"] == 6
        assert log.segment_count == 7
        assert log.log_end_offset == 100
        assert len(log) == 100

    def test_segmented_reads_match_single_segment_log(self):
        segmented = make_segmented(100, segment_records=16)
        flat = PartitionLog("t", 0)
        fill(flat, 100)
        assert len(segmented) == len(flat)
        assert segmented.size_bytes == flat.size_bytes
        assert [r.value for r in segmented.all_records()] == [
            r.value for r in flat.all_records()
        ]
        for offset in (0, 15, 16, 17, 50, 95, 99):
            assert segmented.record_at(offset).value == flat.record_at(offset).value
        assert [r.offset for r in segmented.read(10, max_records=30)] == [
            r.offset for r in flat.read(10, max_records=30)
        ]

    def test_read_batch_serves_one_segment_per_call(self):
        log = make_segmented(100, segment_records=16)
        log.advance_high_watermark(100)
        collected = []
        offset = 0
        while offset < 100:
            batch = log.read_batch(offset, up_to=100)
            assert len(batch) > 0
            # Sealed reads stop at segment boundaries (Kafka answers fetches
            # out of one segment); the head serves whatever is left.
            assert len(batch) <= 16
            collected.extend(batch.values)
            offset = batch.next_offset
        assert collected == [f"v{i}" for i in range(100)]

    def test_append_batch_is_never_split_across_segments(self):
        log = make_segmented(0, segment_records=4)
        batch = RecordBatch("t", 0)
        for i in range(10):
            batch.append(f"k{i}", f"v{i}", 10, 0.0)
        log.append_batch(batch, timestamp=0.0, leader_epoch=0)
        # The whole batch landed in one (oversized) segment.
        assert log.stats["segments_sealed"] == 1
        assert log.sealed_segments[0].count == 10

    def test_offset_index_bisect_across_many_segments(self):
        log = make_segmented(256, segment_records=8)
        for offset in range(0, 256, 7):
            assert log.record_at(offset).value == f"v{offset}"


class TestRetention:
    def test_size_retention_drops_whole_segments_and_advances_start(self):
        log = make_segmented(100, segment_records=16, retention_bytes=500)
        assert log.log_start_offset == 0
        log.maybe_maintain(now=100.0)
        assert log.total_size_bytes <= 500
        assert log.log_start_offset > 0
        assert log.log_start_offset % 16 == 0  # whole segments only
        assert log.stats["retention_records_dropped"] == log.log_start_offset
        # The surviving suffix is intact.
        records = log.read(0)
        assert records[0].offset == log.log_start_offset
        assert records[-1].offset == 99

    def test_time_retention_uses_segment_max_timestamp(self):
        log = make_segmented(66, segment_records=16, retention_ms=20_000.0)
        # Records carry timestamps 0..65s; at now=40s the cutoff is 20s:
        # segment 0 (ts <= 15) is expired, segment 1 (max ts 31) is not.
        log.maybe_maintain(now=40.0)
        assert log.log_start_offset == 16
        # Cutoff 50s at now=70s expires segments up to max timestamp 47.
        log.maybe_maintain(now=70.0)
        assert log.log_start_offset == 48
        # The head (records 64, 65) is never deleted, however old.
        log.maybe_maintain(now=1e9)
        assert log.log_start_offset == 64
        assert log.log_end_offset == 66
        assert [r.value for r in log.all_records()] == ["v64", "v65"]

    def test_reads_below_log_start_clamp_up(self):
        log = make_segmented(100, segment_records=16, retention_bytes=500)
        log.maybe_maintain(now=100.0)
        start = log.log_start_offset
        batch = log.read_batch(0, up_to=100)
        assert batch.base_offset == start


class TestTruncation:
    def test_truncate_inside_sealed_segment(self):
        log = make_segmented(100, segment_records=16)
        log.advance_high_watermark(100)
        discarded = log.truncate_to(40)  # inside the third sealed segment
        assert [r.offset for r in discarded] == list(range(40, 100))
        assert log.log_end_offset == 40
        assert log.high_watermark == 40
        assert len(log) == 40
        assert [r.value for r in log.all_records()] == [f"v{i}" for i in range(40)]
        # The boundary segment was cut in place; appends continue at 40.
        log.append(key="k", value="new", size=10, timestamp=0.0,
                   produced_at=0.0, leader_epoch=0)
        assert log.record_at(40).value == "new"

    def test_truncate_at_segment_boundary_drops_later_segments(self):
        log = make_segmented(64, segment_records=16)
        log.truncate_to(32)
        assert log.log_end_offset == 32
        assert log.stats["segments_sealed"] == 4  # seal count is historical
        assert len(log.sealed_segments) == 2

    def test_truncate_to_zero_empties_segmented_log(self):
        log = make_segmented(50, segment_records=16)
        discarded = log.truncate_to(0)
        assert len(discarded) == 50
        assert len(log) == 0
        assert log.log_end_offset == 0


class TestCompaction:
    def build_keyed(self, n=60, segment_records=16):
        log = PartitionLog(
            "t", 0,
            storage=LogStorageConfig(
                segment_records=segment_records, cleanup_policy="compact"
            ),
        )
        fill(log, n)  # keys cycle k0..k6
        return log

    def test_compact_keeps_latest_value_per_key_at_original_offsets(self):
        log = self.build_keyed(60, segment_records=16)
        removed = log.compact()
        assert removed > 0
        assert log.stats["compaction_records_removed"] == removed
        # Expected survivors: per key, the latest record in the sealed tier
        # (offsets 0..47), plus the untouched head (offsets 48..59).
        latest = {}
        for i in range(48):
            latest[f"k{i % 7}"] = i
        expected_sealed = sorted(latest.values())
        records = log.all_records()
        assert [r.offset for r in records] == expected_sealed + list(range(48, 60))
        for record in records[: len(expected_sealed)]:
            assert record.value == f"v{record.offset}"
        # Offsets survive compaction: lookups by original offset still work.
        keep_offset = expected_sealed[0]
        assert log.record_at(keep_offset).value == f"v{keep_offset}"
        assert log.record_at(0) is None or 0 in expected_sealed
        # log start never advances on compaction.
        assert log.log_start_offset == 0

    def test_compaction_triggered_by_maintenance_policy(self):
        log = self.build_keyed(60, segment_records=16)
        log.maybe_maintain(now=100.0)
        assert log.stats["compaction_records_removed"] > 0

    def test_compact_preserves_producer_dedup_entries(self):
        log = PartitionLog(
            "t", 0,
            storage=LogStorageConfig(segment_records=8, cleanup_policy="compact"),
        )
        for sequence in range(24):
            batch = RecordBatch(
                "t", 0, producer_id=7, producer_epoch=0, base_sequence=sequence
            )
            batch.append("same-key", f"v{sequence}", 10, 0.0)
            log.append_batch(batch, timestamp=0.0, leader_epoch=0)
        log._seal_head()
        log.compact()
        # Every retained record for producer 7 must keep the dedup table
        # rebuildable: the latest sequence survives compaction.
        log._rebuild_derived()
        entry = log.producer_entry(7)
        assert entry is not None
        assert entry.last_sequence == 23
        assert log.check_producer_batch(7, 0, 23) == "duplicate"
        assert log.check_producer_batch(7, 0, 24) == "ok"

    def test_compact_preserves_markers_and_never_resurrects_aborted(self):
        log = PartitionLog(
            "t", 0,
            storage=LogStorageConfig(segment_records=4, cleanup_policy="compact"),
        )
        # Committed txn from producer 1, aborted txn from producer 2, then a
        # later committed value for one of producer 2's keys.
        batch1 = RecordBatch("t", 0, producer_id=1, producer_epoch=0, base_sequence=0)
        batch1.transactional = True
        batch1.append("a", "committed-a", 10, 0.0)
        log.append_batch(batch1, timestamp=0.0, leader_epoch=0)
        log.append_control(1, 0, "commit", timestamp=1.0, leader_epoch=0)
        batch2 = RecordBatch("t", 0, producer_id=2, producer_epoch=0, base_sequence=0)
        batch2.transactional = True
        batch2.append("b", "aborted-b", 10, 2.0)
        log.append_batch(batch2, timestamp=2.0, leader_epoch=0)
        log.append_control(2, 0, "abort", timestamp=3.0, leader_epoch=0)
        log.append(key="c", value="plain-c", size=10, timestamp=4.0,
                   produced_at=4.0, leader_epoch=0)
        log._seal_head()
        aborted_before = list(log.aborted_ranges)
        log.compact()
        assert log.aborted_ranges == aborted_before
        # Markers survive (offsets 1 and 3 were controls).
        assert log.last_markers[1][1] == "commit"
        assert log.last_markers[2][1] == "abort"
        log.advance_high_watermark(log.log_end_offset)
        skipped, _ = log.invisible_offsets(0, log.log_end_offset, "read_committed")
        visible = [
            r.value for r in log.all_records() if r.offset not in set(skipped)
        ]
        assert "aborted-b" not in visible
        assert "committed-a" in visible
        assert "plain-c" in visible

    def test_compact_never_crosses_open_transaction(self):
        log = PartitionLog(
            "t", 0,
            storage=LogStorageConfig(segment_records=4, cleanup_policy="compact"),
        )
        open_batch = RecordBatch("t", 0, producer_id=9, producer_epoch=0, base_sequence=0)
        open_batch.transactional = True
        open_batch.append("k", "open-1", 10, 0.0)
        log.append_batch(open_batch, timestamp=0.0, leader_epoch=0)
        # Later records for the same key, still no end marker.
        for i in range(8):
            log.append(key="k", value=f"later-{i}", size=10, timestamp=float(i),
                       produced_at=float(i), leader_epoch=0)
        log._seal_head()
        log.compact()
        # Everything at or past the open transaction's first offset is
        # uncleanable — nothing was removed.
        assert log.stats["compaction_records_removed"] == 0
        assert len(log) == 9


class TestColdTier:
    def test_eviction_bounds_hot_tier_while_data_stays_readable(self, tmp_path):
        log = PartitionLog(
            "t", 0,
            storage=LogStorageConfig(
                segment_records=16,
                retention_bytes=400,
                segment_dir=str(tmp_path),
            ),
        )
        fill(log, 100)
        log.maybe_maintain(now=100.0)
        # Hot tier fits the bound; nothing was deleted — the data moved cold.
        assert log.size_bytes <= 400
        assert log.total_size_bytes == 100 * 10
        assert log.log_start_offset == 0
        assert log.stats["segments_evicted"] > 0
        assert log.stats["retention_records_dropped"] == 0
        # Evicted offsets fault back in from the segment files.
        assert log.record_at(0).value == "v0"
        assert log.stats["cold_loads"] > 0
        batch = log.read_batch(0, up_to=100)
        assert batch.values[0] == "v0"
        # A consumer scanning the whole cold history never re-inflates the
        # hot tier: fault-in evicts other resident segments to stay within
        # the bound at every step of the scan.
        offset, scanned = 0, 0
        while offset < log.log_end_offset:
            chunk = log.read_batch(offset)
            scanned += len(chunk)
            offset = chunk.next_offset
            assert log.size_bytes <= 400
        assert scanned == 100

    def test_compaction_on_a_cold_tier_keeps_its_segments_resident(self, tmp_path):
        log = make_segmented(
            0, segment_records=16, cleanup_policy="compact",
            retention_bytes=100, segment_dir=str(tmp_path),
        )
        # Maintenance after every append, as a broker does: each pass evicts
        # down to the bound, so from the second seal on the compactor starts
        # from evicted segments and must hold all of them at once.
        for i in range(70):
            fill_one(log, i)
            log.maybe_maintain(now=float(i))
        assert log.stats["segments_sealed"] == 4
        assert log.stats["compaction_records_removed"] > 0
        assert log.size_bytes <= 100
        # Latest value per key (keys cycle k0..k6) over the sealed offsets
        # 0..63 survives, at its original offset and back on the cold tier,
        # plus the untouched head.
        before = log.stats["cold_loads"]
        assert log.record_at(57).value == "v57"
        assert log.stats["cold_loads"] == before + 1
        assert log.record_at(0) is None
        survivors = list(range(57, 64)) + list(range(64, 70))
        assert [r.offset for r in log.all_records()] == survivors

    def test_recovery_replays_segment_files(self, tmp_path):
        storage = LogStorageConfig(segment_records=8, segment_dir=str(tmp_path))
        log = PartitionLog("t", 0, storage=storage, file_tag="b1")
        for sequence in range(3):
            batch = RecordBatch(
                "t", 0, producer_id=5, producer_epoch=1, base_sequence=sequence * 2
            )
            batch.transactional = True
            batch.append(f"k{sequence}", f"tx-{sequence}", 10, 0.0)
            batch.append(f"k{sequence}", f"tx2-{sequence}", 10, 0.0)
            log.append_batch(batch, timestamp=float(sequence), leader_epoch=sequence)
            log.append_control(
                5, 1, "commit" if sequence != 1 else "abort",
                timestamp=float(sequence), leader_epoch=sequence,
            )
        fill(log, 10, start_time=10.0, epoch=2)
        log._seal_head()  # everything into segment files

        recovered = PartitionLog.recover("t", 0, storage, file_tag="b1")
        assert recovered.log_start_offset == log.log_start_offset
        assert recovered.log_end_offset == log.log_end_offset
        assert [(r.offset, r.value) for r in recovered.all_records()] == [
            (r.offset, r.value) for r in log.all_records()
        ]
        assert recovered.epoch_boundaries == log.epoch_boundaries
        assert recovered.aborted_ranges == log.aborted_ranges
        assert recovered.last_markers == log.last_markers
        original = log.producer_entry(5)
        replayed = recovered.producer_entry(5)
        assert replayed is not None
        assert (replayed.epoch, replayed.last_sequence) == (
            original.epoch, original.last_sequence,
        )
        # Recovered replicas re-learn the high watermark from the leader.
        assert recovered.high_watermark == 0

    def test_recovery_requires_cold_tier(self):
        with pytest.raises(ValueError):
            PartitionLog.recover("t", 0, LogStorageConfig(segment_records=8))


class TestStorageConfigResolution:
    def test_topic_overrides_merge_over_broker_default(self):
        default = LogStorageConfig(segment_records=1024, retention_bytes=1 << 20)
        merged = resolve_log_storage({"cleanup_policy": "compact"}, default)
        assert merged.segment_records == 1024
        assert merged.retention_bytes == 1 << 20
        assert merged.cleanup_policy == "compact"

    def test_topic_only_config_backfills_segment_records(self):
        merged = resolve_log_storage({"retention_bytes": 4096}, None)
        assert merged.segment_records == DEFAULT_SEGMENT_RECORDS
        assert merged.retention_bytes == 4096

    def test_no_config_resolves_to_none(self):
        assert resolve_log_storage(None, None) is None

    def test_topic_config_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            TopicConfig(name="t", cleanup_policy="shred")

    def test_cluster_config_folds_storage_knobs_into_broker(self):
        config = ClusterConfig(segment_records=64, retention_bytes=1 << 16)
        assert config.broker.log_storage is not None
        assert config.broker.log_storage.segment_records == 64
        assert ClusterConfig().broker.log_storage is None


# ---------------------------------------------------------------------------
# End-to-end: retention + auto_offset_reset through a real cluster
# ---------------------------------------------------------------------------
def run_reset_scenario(auto_offset_reset, produce=300, retention_bytes=4000):
    """Produce enough to trip size retention, then start a late consumer at
    offset 0 and let the broker's OffsetOutOfRange drive the reset policy."""
    sim = Simulator(seed=11)
    network, _sites = star_topology(
        sim, 3, link_config=LinkConfig(latency_ms=1.0, bandwidth_mbps=1000.0)
    )
    cluster = BrokerCluster(
        network,
        coordinator_host="site1",
        config=ClusterConfig(segment_records=32, retention_bytes=retention_bytes),
    )
    cluster.add_broker("site1")
    cluster.add_topic(TopicConfig(name="events"))
    cluster.start(settle_time=1.0)

    producer = cluster.create_producer(
        "site2", config=ProducerConfig(linger=0.01, request_timeout=1.0)
    )
    consumer = cluster.create_consumer(
        "site3",
        config=ConsumerConfig(
            poll_interval=0.05, auto_offset_reset=auto_offset_reset
        ),
    )
    consumer.subscribe(["events"])

    def workload():
        yield sim.timeout(2.0)
        producer.start()
        for i in range(produce):
            producer.send(
                ProducerRecord(topic="events", key=i, value="x" * 64)
            )
            yield sim.timeout(0.005)
        yield sim.timeout(2.0)
        consumer.start()  # fetches from offset 0 — long since retained away

    sim.process(workload(), name="workload")
    sim.run(until=30.0)
    log = cluster.brokers["broker-site1"].logs["events-0"]
    return cluster, consumer, log


def test_auto_offset_reset_earliest_resumes_at_log_start():
    cluster, consumer, log = run_reset_scenario("earliest")
    assert log.log_start_offset > 0  # retention really dropped segments
    assert consumer.offset_resets >= 1
    assert consumer.records_consumed > 0
    consumed_offsets = [r.offset for r in consumer.received]
    assert min(consumed_offsets) >= log.log_start_offset
    # Everything from the post-reset start was delivered in order.
    assert consumed_offsets == sorted(consumed_offsets)
    assert cluster.total_retention_records_dropped() == log.log_start_offset
    assert cluster.total_segments_sealed() > 0


def test_auto_offset_reset_latest_skips_to_log_end():
    _, consumer, log = run_reset_scenario("latest")
    assert log.log_start_offset > 0
    assert consumer.offset_resets >= 1
    # Production had finished before the consumer started: resetting to the
    # log end means nothing is ever delivered.
    assert consumer.records_consumed == 0
    assert consumer.offsets["events-0"] == log.log_end_offset


def test_auto_offset_reset_error_abandons_the_partition():
    _, consumer, log = run_reset_scenario("error")
    assert log.log_start_offset > 0
    assert consumer.records_consumed == 0
    assert consumer.fetch_errors >= 1
    assert "events-0" in consumer._dead_partitions
