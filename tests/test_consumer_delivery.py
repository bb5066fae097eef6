"""The consumer's one delivery path: a fetch reply reaches its reader once,
as the batch of its visible rows.

The broker names the rows a reader must not see (control markers always,
aborted records under ``read_committed``); the consumer drops them once
(``RecordBatch.without``), counts what is left off the batch header, builds
``ConsumerRecord`` objects only under ``keep_payloads`` and hands the batch to
``on_batch``.  Whether payloads are kept must change nothing else.
"""

import pytest

from repro.broker import BrokerCluster, ClusterConfig, ProducerConfig, ProducerRecord, TopicConfig
from repro.broker.batch import RecordBatch
from repro.broker.log import PartitionLog
from repro.broker.segment import LogStorageConfig
from repro.core.configs import ConsumerStubConfig
from repro.network.link import LinkConfig
from repro.network.topology import star_topology
from repro.simulation import Simulator
from repro.store import StoreServer
from repro.stubs.consumers import StandardConsumerStub, StoreSinkConsumerStub

#: (transaction outcome, values) in log order on the one partition.
TRANSACTIONS = [("commit", [0, 1, 2]), ("abort", [10, 11, 12]), ("commit", [20, 21])]
#: Offsets 0-2 data, 3 COMMIT, 4-6 aborted data, 7 ABORT, 8-9 data, 10 COMMIT.
COMMITTED_OFFSETS = [0, 1, 2, 8, 9]
LOG_END = 11


def run_read_committed(keep_payloads):
    sim = Simulator(seed=3)
    network, sites = star_topology(
        sim, 3, link_config=LinkConfig(latency_ms=2.0, bandwidth_mbps=100.0)
    )
    cluster = BrokerCluster(network, coordinator_host=sites[0], config=ClusterConfig())
    for site in sites:
        cluster.add_broker(site)
    cluster.add_topic(TopicConfig(name="topicA", partitions=1, replication_factor=1))
    cluster.start(settle_time=2.0)
    store = StoreServer(network.host(sites[1]))
    producer = cluster.create_producer(
        sites[0], config=ProducerConfig(transactional_id="tx", linger=0.01)
    )
    config = ConsumerStubConfig(
        topics=["topicA"],
        keep_payloads=keep_payloads,
        isolation_level="read_committed",
        store_host=sites[1],
        store_table="out",
    )
    sink = StandardConsumerStub(cluster, sites[2], config=config)
    store_sink = StoreSinkConsumerStub(cluster, sites[1], config=config)

    def workload():
        yield sim.timeout(8.0)
        producer.start()
        sink.start()
        store_sink.start()
        for outcome, values in TRANSACTIONS:
            producer.begin_transaction()
            for value in values:
                producer.send(ProducerRecord(topic="topicA", key=None, value=value, size=40))
            if outcome == "commit":
                yield from producer.commit_transaction()
            else:
                yield from producer.abort_transaction()

    sim.process(workload())
    sim.run(until=25.0)
    return cluster, sink, store


@pytest.fixture(scope="module")
def runs():
    return {keep: run_read_committed(keep) for keep in (True, False)}


def test_keeping_payloads_changes_no_count_and_no_latency(runs):
    (_, kept, _), (_, bare, _) = runs[True], runs[False]
    assert kept.consumer.records_consumed == bare.consumer.records_consumed == 5
    assert kept.consumer.bytes_consumed == bare.consumer.bytes_consumed == 5 * 40
    assert kept.messages_consumed == bare.messages_consumed == 5
    assert len(kept.latencies) == 5
    assert kept.latencies == bare.latencies
    assert [record.latency for record in kept.records] == kept.latencies
    assert bare.records == []


def test_received_records_keep_the_logs_offsets(runs):
    cluster, sink, store = runs[True]
    log = next(broker.logs["topicA-0"] for broker in cluster.brokers.values()
               if "topicA-0" in broker.logs)
    hidden = log.invisible_offsets(0, log.log_end_offset, "read_committed")
    assert hidden == [3, 4, 5, 6, 7, 10]
    assert [record.offset for record in sink.records] == COMMITTED_OFFSETS
    assert [record.value for record in sink.records] == [0, 1, 2, 20, 21]
    # A keyless row is stored under its topic and log offset, gaps and all.
    assert sorted(store.tables.table("out").rows) == sorted(
        f"topicA-{offset}" for offset in COMMITTED_OFFSETS
    )


def test_a_reply_ending_in_a_commit_marker_moves_the_position_past_it(runs):
    for cluster, sink, _ in runs.values():
        log = next(broker.logs["topicA-0"] for broker in cluster.brokers.values()
                   if "topicA-0" in broker.logs)
        assert log.log_end_offset == LOG_END
        assert (LOG_END - 1) in log.invisible_offsets(0, LOG_END, "read_committed")
        assert sink.consumer.position("topicA", 0) == LOG_END


def compacted_transactional_log():
    """One sealed, compacted segment: offset 1 (an overwritten key) is gone,
    and a committed and an aborted transaction sit in the gapped range."""
    log = PartitionLog(
        "t", 0, storage=LogStorageConfig(segment_records=8, cleanup_policy="compact")
    )

    def plain(key, value, at):
        log.append(key=key, value=value, size=10 + at, timestamp=float(at),
                   produced_at=at / 2, leader_epoch=0)

    def transactional(producer_id, key, value, at):
        batch = RecordBatch("t", 0, producer_id=producer_id, producer_epoch=0, base_sequence=0)
        batch.transactional = True
        batch.append(key, value, 10 + at, at / 2)
        log.append_batch(batch, timestamp=float(at), leader_epoch=0)

    plain("y", "y-0", 0)
    plain("x", "x-old", 1)
    transactional(1, "a", "committed-a", 2)
    log.append_control(1, 0, "commit", timestamp=3.0, leader_epoch=0)
    plain("x", "x-new", 4)
    transactional(2, "b", "aborted-b", 5)
    log.append_control(2, 0, "abort", timestamp=6.0, leader_epoch=0)
    plain("c", "plain-c", 7)
    log._seal_head()
    assert log.compact() == 1
    log.advance_high_watermark(log.log_end_offset)
    return log


@pytest.mark.parametrize(
    "isolation, offsets, values",
    [
        ("read_committed", [0, 2, 4, 7], ["y-0", "committed-a", "x-new", "plain-c"]),
        ("read_uncommitted", [0, 2, 4, 5, 7],
         ["y-0", "committed-a", "x-new", "aborted-b", "plain-c"]),
    ],
)
def test_visible_rows_of_a_compacted_range_keep_their_gapped_offsets(
    isolation, offsets, values
):
    log = compacted_transactional_log()
    reply = log.read_batch(0, up_to=log.high_watermark)
    assert reply.offsets == [0, 2, 3, 4, 5, 6, 7]
    hidden = log.invisible_offsets(reply.base_offset, reply.next_offset, isolation)
    visible = reply.without(frozenset(hidden))
    assert [visible.offset_at(row) for row in range(len(visible))] == offsets
    assert visible.values == values
    assert visible.base_offset == offsets[0]
    assert visible.last_offset == 7
    assert visible.sizes == [10 + offset for offset in offsets]
    assert visible.total_size == sum(visible.sizes)
    assert visible.produced_ats == [offset / 2 for offset in offsets]
    assert visible.timestamps == [float(offset) for offset in offsets]
    assert visible.controls is None and visible.producer_ids is None
    # Fresh columns: the reply batch is left as it was.
    assert reply.offsets == [0, 2, 3, 4, 5, 6, 7] and len(reply) == 7


def test_hiding_every_row_leaves_an_empty_batch_at_the_replys_end():
    reply = RecordBatch.from_columns("t", 0, 5, ["k"], ["v"], [9], [0.0])
    visible = reply.without(frozenset([5]))
    assert not visible
    assert visible.total_size == 0
    assert visible.next_offset == reply.next_offset == 6


@pytest.mark.parametrize(
    "hidden, offsets, contiguous",
    [
        ([13], [10, 11, 12], True),  # a trailing COMMIT marker
        ([10], [11, 12, 13], True),  # a leading marker
        ([11, 12], [10, 13], False),  # an aborted run between two kept rows
        ([], [10, 11, 12, 13], True),
    ],
)
def test_visible_rows_of_a_contiguous_reply(hidden, offsets, contiguous):
    reply = RecordBatch.from_columns(
        "t", 0, 10, [f"k{o}" for o in range(10, 14)], [f"v{o}" for o in range(10, 14)],
        [o for o in range(10, 14)], [o / 2 for o in range(10, 14)],
        timestamps=[float(o) for o in range(10, 14)],
    )
    visible = reply.without(hidden)
    assert [visible.offset_at(row) for row in range(len(visible))] == offsets
    assert (visible.offsets is None) == contiguous
    assert visible.values == [f"v{o}" for o in offsets]
    assert visible.keys == [f"k{o}" for o in offsets]
    assert visible.sizes == offsets and visible.total_size == sum(offsets)
    assert visible.produced_ats == [o / 2 for o in offsets]
    assert visible.timestamps == [float(o) for o in offsets]
    assert visible.last_offset == offsets[-1]
    assert visible.values is not reply.values and len(reply) == 4
