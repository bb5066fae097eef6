"""Break the broker plane, and the history rules must notice.

``tests/test_history_rules.py`` shows what each rule means on histories
written by hand; this file shows the rules are not blind on real runs.  Each
test breaks one mechanism a guarantee rests on (under ``monkeypatch``, so the
break ends with the test), replays arms of the chaos matrix and requires the
rule that guards the guarantee to fire — on arms where the unbroken run,
asserted in ``tests/test_chaos_exactly_once.py``, has no violation at all.
"""

import pytest

from repro.broker.broker import Broker
from repro.broker.log import PartitionLog
from repro.network.transport import Transport
from repro.testing import check_history, run_chaos

pytestmark = pytest.mark.chaos


def fired(run):
    return {violation.rule for violation in check_history(run)}


@pytest.fixture
def eager_high_watermark(monkeypatch):
    """A leader that advances its high watermark to its own log end without
    waiting for the in-sync followers: it acknowledges ``acks="all"`` produces
    and serves fetches for offsets that exist on one replica only."""

    def advance(self, key):
        if self._partition_info(key) is not None and self._is_leader(key):
            log = self.logs[key]
            log.advance_high_watermark(log.log_end_offset)
            self._complete_produce_waits(key, log.high_watermark)

    monkeypatch.setattr(Broker, "_maybe_advance_high_watermark", advance)


@pytest.mark.parametrize("seed", [11, 23])
def test_a_high_watermark_that_ignores_the_isr_loses_acked_and_delivered_records(
    eager_high_watermark, seed
):
    """Killing such a leader elects a follower that never had the tail: acked
    records are gone, and the consumers were handed offsets the elected leader
    never held."""
    run = run_chaos(seed, "broker-kill", partitions=4, group_size=4)
    assert {"acked_durable", "delivered_durable"} <= fired(run)


def test_a_partition_that_ends_without_a_leader_log_is_a_violation(eager_high_watermark):
    """mixed / seed 11 / 1 partition ends the broken run with nobody leading
    ``chaos-0``: no log can vouch for the 200 acks, which is a finding of
    ``acked_durable`` — not a loop over zero logs that passes."""
    run = run_chaos(11, "mixed")
    assert run.leader_logs == {}
    assert [v.detail for v in check_history(run) if v.rule == "acked_durable"] == [
        "chaos-0 has no leader log at the end of the run"
    ]


@pytest.mark.parametrize("partitions", [1, 4])
def test_a_dedup_table_that_accepts_everything_stores_duplicates(monkeypatch, partitions):
    """``check_producer_batch`` answering "ok" to every retry is idempotence
    switched off behind the producer's back."""
    monkeypatch.setattr(PartitionLog, "check_producer_batch", lambda self, *batch, **kw: "ok")
    run = run_chaos(11, "link-loss", partitions=partitions, group_size=partitions)
    assert "no_duplicates" in fired(run)
    assert run.cluster.total_duplicates_dropped() == 0


@pytest.mark.parametrize("profile", ["producer-kill", "coordinator-kill"])
@pytest.mark.parametrize("partitions", [1, 4])
def test_a_consumer_that_ignores_skip_offsets_sees_aborted_transactions(
    monkeypatch, profile, partitions
):
    """``skip_offsets`` is how a fetch reply names the aborted records inside
    the batch it ships; a ``read_committed`` consumer that never gets to see
    it delivers them."""
    request = Transport.request

    def request_without_skip_offsets(self, dst, port, payload, **options):
        reply = yield from request(self, dst, port, payload, **options)
        if payload.get("type") == "fetch":
            reply.pop("skip_offsets", None)
        return reply

    monkeypatch.setattr(Transport, "request", request_without_skip_offsets)
    run = run_chaos(
        23, profile, partitions=partitions, group_size=partitions, isolation="read_committed"
    )
    assert "txn_atomic" in fired(run)
