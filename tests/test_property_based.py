"""Property-based tests (hypothesis) for core data structures and invariants."""

from collections import Counter, OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.batch import RecordBatch
from repro.broker.log import PartitionLog
from repro.broker.message import ProducerRecord, _stable_hash
from repro.broker.segment import LogStorageConfig
from repro.core.configs import _size_to_bytes
from repro.core.visualization import cdf, percentile, summarize_distribution
from repro.network.link import LinkConfig
from repro.network.packet import estimate_size
from repro.simulation import Simulator
from repro.simulation.engine import duration_to_seconds
from repro.simulation.rng import SeededRandom
from repro.store import KeyValueStore, TableStore


# ---------------------------------------------------------------------------
# Simulation engine
# ---------------------------------------------------------------------------
@given(delays=st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_simulator_clock_is_monotonic_and_reaches_max_delay(delays):
    sim = Simulator()
    observed = []

    def waiter(delay):
        yield sim.timeout(delay)
        observed.append(sim.now)

    for delay in delays:
        sim.process(waiter(delay))
    sim.run()
    assert observed == sorted(observed)
    assert sim.now >= max(delays) - 1e-9


@given(seed=st.integers(min_value=0, max_value=2**31 - 1), name=st.text(min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_named_rng_streams_are_reproducible(seed, name):
    a = SeededRandom(seed).child(name)
    b = SeededRandom(seed).child(name)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


@given(rate=st.floats(min_value=0.01, max_value=1000.0))
@settings(max_examples=50, deadline=None)
def test_exponential_samples_are_positive(rate):
    rng = SeededRandom(1)
    assert all(rng.exponential(rate) >= 0 for _ in range(20))


@given(lam=st.floats(min_value=0.0, max_value=200.0))
@settings(max_examples=50, deadline=None)
def test_poisson_samples_are_non_negative_integers(lam):
    rng = SeededRandom(2)
    for _ in range(10):
        value = rng.poisson(lam)
        assert isinstance(value, int)
        assert value >= 0


# ---------------------------------------------------------------------------
# Network primitives
# ---------------------------------------------------------------------------
@given(
    size=st.integers(min_value=0, max_value=10**7),
    bandwidth=st.floats(min_value=0.1, max_value=10_000.0),
)
@settings(max_examples=100, deadline=None)
def test_serialization_delay_is_proportional_to_size(size, bandwidth):
    config = LinkConfig(latency_ms=1.0, bandwidth_mbps=bandwidth)
    delay = config.serialization_delay(size)
    assert delay >= 0
    assert delay == (size * 8) / (bandwidth * 1e6)


def _estimate_size_reference(payload, floor=16):
    """``estimate_size`` as the plain recursive walk that defines it: one call
    per key, value and item, each at a floor of 4.  The one-pass walker that
    sizes leaves inline must return exactly this."""
    if payload is None:
        return floor
    if isinstance(payload, str):
        return max(floor, len(payload.encode("utf-8")))
    if isinstance(payload, (int, float, bool)):
        return max(floor, 8)
    if isinstance(payload, dict):
        return max(
            floor,
            sum(
                _estimate_size_reference(k, 4) + _estimate_size_reference(v, 4)
                for k, v in payload.items()
            ),
        )
    if isinstance(payload, (list, tuple, set)):
        return max(floor, sum(_estimate_size_reference(item, 4) for item in payload))
    if isinstance(payload, (bytes, bytearray)):
        return max(floor, len(payload))
    return max(floor, len(repr(payload)))


_leaves = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=12) | st.text(alphabet="abcxyz", max_size=12) | st.binary(max_size=12)
)
_keys = st.text(max_size=8) | st.integers() | st.floats(allow_nan=False) | st.booleans() | st.none()
_payloads = st.recursive(
    _leaves,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=3).map(tuple)
        | st.sets(st.text(max_size=6) | st.integers(), max_size=4)
        | st.dictionaries(_keys, children, max_size=6)
    ),
    max_leaves=25,
)


#: Word-count ``counts``: many short, sometimes non-ASCII words to integers.
_word_counts = st.dictionaries(
    st.text(alphabet="abcdefghij", min_size=1, max_size=3) | st.text(min_size=1, max_size=8),
    st.integers(0, 500),
    min_size=20,
    max_size=60,
)
#: Flat-looking dicts with one nested dict value (a word-count result).
_nested_results = st.builds(
    lambda flat, key, nested: {**flat, key: nested},
    st.dictionaries(st.text(max_size=8), st.integers() | st.floats(allow_nan=False) | st.text(max_size=12), max_size=5),
    st.text(max_size=8),
    _word_counts | st.dictionaries(_keys, _payloads, max_size=4),
)
#: Dict subclasses take the ``isinstance(payload, dict)`` branch.
_dict_subclasses = (
    st.dictionaries(_keys, _payloads, max_size=6).map(OrderedDict)
    | st.dictionaries(st.text(max_size=8), st.integers(), max_size=12).map(Counter)
)


@given(
    payload=(
        _payloads
        | st.dictionaries(_keys, _leaves, max_size=8)
        | _word_counts
        | _nested_results
        | _dict_subclasses
        | st.lists(_dict_subclasses | _nested_results, max_size=3)
    ),
    floor=st.integers(0, 64),
)
@settings(max_examples=300, deadline=None)
def test_estimate_size_fast_path_equals_the_recursive_walk(payload, floor):
    assert estimate_size(payload, floor) == _estimate_size_reference(payload, floor)


# ---------------------------------------------------------------------------
# Broker log invariants
# ---------------------------------------------------------------------------
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=100),
    truncate_at=st.integers(min_value=0, max_value=120),
)
@settings(max_examples=100, deadline=None)
def test_partition_log_offsets_contiguous_and_truncation_consistent(sizes, truncate_at):
    log = PartitionLog("t")
    for index, size in enumerate(sizes):
        log.append(key=index, value=index, size=size, timestamp=0.0, produced_at=0.0, leader_epoch=0)
    offsets = [record.offset for record in log.all_records()]
    assert offsets == list(range(len(sizes)))
    log.advance_high_watermark(len(sizes))
    discarded = log.truncate_to(truncate_at)
    assert log.log_end_offset == min(truncate_at, len(sizes))
    assert len(discarded) == max(0, len(sizes) - truncate_at)
    assert log.high_watermark <= log.log_end_offset
    # Re-appending after truncation keeps offsets contiguous.
    record = log.append(key="x", value="x", size=1, timestamp=0.0, produced_at=0.0, leader_epoch=1)
    assert record.offset == log.log_end_offset - 1


# ---------------------------------------------------------------------------
# Segmented storage: compaction invariants
# ---------------------------------------------------------------------------
@given(
    appends=st.lists(
        st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=999)),
        min_size=1,
        max_size=60,
    ),
    segment_records=st.integers(min_value=1, max_value=9),
)
@settings(max_examples=100, deadline=None)
def test_compaction_keeps_exactly_the_latest_value_per_key_in_offset_order(
    appends, segment_records
):
    log = PartitionLog(
        "t", 0,
        storage=LogStorageConfig(
            segment_records=segment_records, cleanup_policy="compact"
        ),
    )
    for offset, (key, value) in enumerate(appends):
        log.append(
            key=f"k{key}", value=value, size=1, timestamp=float(offset),
            produced_at=float(offset), leader_epoch=0,
        )
    log._seal_head()  # compaction only touches the sealed tier
    log.compact()
    latest = {}
    for offset, (key, value) in enumerate(appends):
        latest[f"k{key}"] = (offset, value)
    expected = sorted(latest.values())
    assert [(r.offset, r.value) for r in log.all_records()] == expected
    # Offset-indexed lookups agree with the compacted view.
    for offset, value in expected:
        assert log.record_at(offset).value == value
    # Compaction is idempotent.
    assert log.compact() == 0


@given(
    script=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=3),  # producer id
            st.integers(min_value=0, max_value=4),  # key
            st.booleans(),  # commit (True) or abort (False)
        ),
        min_size=1,
        max_size=20,
    ),
    segment_records=st.integers(min_value=1, max_value=7),
)
@settings(max_examples=100, deadline=None)
def test_committed_read_of_compacted_log_never_resurrects_aborted_records(
    script, segment_records
):
    log = PartitionLog(
        "t", 0,
        storage=LogStorageConfig(
            segment_records=segment_records, cleanup_policy="compact"
        ),
    )
    sequences = {}
    committed_values = set()
    aborted_values = set()
    for index, (pid, key, commit) in enumerate(script):
        sequence = sequences.get(pid, 0)
        batch = RecordBatch(
            "t", 0, producer_id=pid, producer_epoch=0, base_sequence=sequence
        )
        batch.transactional = True
        value = f"p{pid}-txn{index}"
        batch.append(f"k{key}", value, 1, float(index))
        log.append_batch(batch, timestamp=float(index), leader_epoch=0)
        sequences[pid] = sequence + 1
        log.append_control(
            pid, 0, "commit" if commit else "abort",
            timestamp=float(index), leader_epoch=0,
        )
        (committed_values if commit else aborted_values).add(value)
    log._seal_head()
    log.compact()
    log.advance_high_watermark(log.log_end_offset)
    skipped = log.invisible_offsets(
        0, log.log_end_offset, "read_committed"
    )
    skipped = set(skipped)
    visible = [r.value for r in log.all_records() if r.offset not in skipped]
    assert not aborted_values.intersection(visible)
    assert set(visible).issubset(committed_values)
    # Control markers are invisible to every isolation level.
    uncommitted_skip = log.invisible_offsets(
        0, log.log_end_offset, "read_uncommitted"
    )
    for offset in uncommitted_skip:
        assert log.record_at(offset).value in ("commit", "abort")


# ---------------------------------------------------------------------------
# Producer dedup table (idempotent produce path)
# ---------------------------------------------------------------------------
def _producer_batch(pid, epoch, base_seq, values):
    batch = RecordBatch("t", 0)
    for offset, value in enumerate(values):
        batch.append(key=f"{pid}", value=value, size=1, produced_at=0.0)
    batch.producer_id = pid
    batch.producer_epoch = epoch
    batch.base_sequence = base_seq
    return batch


def _submit(log, batch):
    """The broker's produce gate, reduced to its dedup decision."""
    verdict = log.check_producer_batch(
        batch.producer_id,
        batch.producer_epoch,
        batch.base_sequence,
        count=len(batch.values),
    )
    if verdict == "ok":
        log.append_batch(batch, timestamp=0.0, leader_epoch=0)
    return verdict


def _canonical_batches(pid, batch_sizes, epoch_bumps, start=0):
    """The happy-path batch stream of one producer: consecutive sequences,
    epoch bumps resetting the sequence space (as a producer re-init does)."""
    batches = []
    epoch, sequence, value = 0, 0, start
    for size, bump in zip(batch_sizes, epoch_bumps):
        if bump:
            epoch += 1
            sequence = 0
        values = list(range(value, value + size))
        batches.append(_producer_batch(pid, epoch, sequence, values))
        sequence += size
        value += size
    return batches


@given(
    batch_sizes=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=8),
    epoch_bumps=st.lists(st.booleans(), min_size=8, max_size=8),
    retry_plan=st.lists(
        st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7)),
        max_size=12,
    ),
)
@settings(max_examples=100, deadline=None)
def test_dedup_gate_yields_happy_path_log_under_any_retry_interleaving(
    batch_sizes, epoch_bumps, retry_plan
):
    """Retries/duplicates/epoch bumps in any interleaving produce exactly the
    dedup-free happy-path log with the duplicates removed."""
    canonical = _canonical_batches(7, batch_sizes, epoch_bumps)
    happy = PartitionLog("t")
    for batch in canonical:
        assert _submit(happy, batch) == "ok"
    expected = [record.value for record in happy.all_records()]

    adversarial = PartitionLog("t")
    submitted = []
    # (after_index, which) pairs: after submitting canonical batch
    # ``after_index`` re-submit an arbitrary earlier batch — a stale
    # Transport retry, a duplicated packet, or a zombie write from before an
    # epoch bump; the gate must drop every one of them.
    retries_after = {}
    for after_index, which in retry_plan:
        retries_after.setdefault(after_index % len(canonical), []).append(which)
    for index, batch in enumerate(canonical):
        assert _submit(adversarial, batch) == "ok"
        submitted.append(batch)
        for which in retries_after.get(index, []):
            stale = submitted[which % len(submitted)]
            verdict = _submit(adversarial, stale)
            assert verdict in ("duplicate", "fenced")
    assert [record.value for record in adversarial.all_records()] == expected


@given(
    sizes_a=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=6),
    sizes_b=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=6),
    merge=st.lists(st.booleans(), min_size=12, max_size=12),
    retries=st.lists(st.integers(min_value=0, max_value=30), max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_dedup_table_isolates_producers_under_interleaving(
    sizes_a, sizes_b, merge, retries
):
    """Two producers' streams interleaved any way (with stale retries mixed
    in) keep exactly each producer's happy-path records, in arrival order."""
    stream_a = _canonical_batches(1, sizes_a, [False] * len(sizes_a))
    stream_b = _canonical_batches(2, sizes_b, [False] * len(sizes_b), start=100)
    log = PartitionLog("t")
    submitted = []
    queue_a, queue_b = list(stream_a), list(stream_b)
    retry_iter = iter(retries)
    while queue_a or queue_b:
        take_a = queue_a and (not queue_b or (merge and merge.pop(0)))
        batch = queue_a.pop(0) if take_a else queue_b.pop(0)
        assert _submit(log, batch) == "ok"
        submitted.append(batch)
        which = next(retry_iter, None)
        if which is not None:
            assert _submit(log, submitted[which % len(submitted)]) != "ok"
    values = [record.value for record in log.all_records()]
    assert [v for v in values if v < 100] == [
        v for batch in stream_a for v in batch.values
    ]
    assert [v for v in values if v >= 100] == [
        v for batch in stream_b for v in batch.values
    ]
    assert log.producer_entry(1).last_sequence == sum(sizes_a) - 1
    assert log.producer_entry(2).last_sequence == sum(sizes_b) - 1


@given(
    keys=st.lists(st.text(min_size=0, max_size=12), min_size=1, max_size=50),
    partitions=st.integers(min_value=1, max_value=32),
)
@settings(max_examples=100, deadline=None)
def test_key_partitioning_is_stable_and_in_range(keys, partitions):
    for key in keys:
        record_a = ProducerRecord(topic="t", value="v", key=key)
        record_b = ProducerRecord(topic="t", value="other", key=key)
        partition_a = record_a.partition_for(partitions)
        assert 0 <= partition_a < partitions
        assert partition_a == record_b.partition_for(partitions)


@given(values=st.lists(st.text(max_size=30), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_stable_hash_is_deterministic_across_calls(values):
    assert [_stable_hash(v) for v in values] == [_stable_hash(v) for v in values]


# ---------------------------------------------------------------------------
# Transactions (atomic visibility + state machine)
# ---------------------------------------------------------------------------
def _txn_data_batch(pid, epoch, base_seq, values):
    batch = _producer_batch(pid, epoch, base_seq, values)
    batch.transactional = True
    return batch


@given(
    script=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1),  # which producer
            st.sampled_from(["send", "commit", "abort", "bump"]),
            st.integers(min_value=1, max_value=3),  # records per send
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_read_committed_view_is_exactly_the_committed_records(script):
    """Any interleaving of two producers' begin/send/commit/abort/epoch-bump
    steps leaves a log whose read_committed view contains *exactly* the
    records of committed transactions, in log order — aborted and fenced
    writes are invisible, while read_uncommitted still sees every data
    record (atomicity is a view, not a rewrite of the log)."""
    log = PartitionLog("t")
    producers = [
        {"pid": 1, "epoch": 0, "seq": 0, "token": None},
        {"pid": 2, "epoch": 0, "seq": 0, "token": None},
    ]
    record_meta = []  # (value, token) per appended data record, log order
    value = 0
    for which, action, n in script:
        producer = producers[which]
        if action == "send":
            values = list(range(value, value + n))
            value += n
            batch = _txn_data_batch(
                producer["pid"], producer["epoch"], producer["seq"], values
            )
            log.append_batch(batch, timestamp=0.0, leader_epoch=0)
            producer["seq"] += n
            if producer["token"] is None:
                producer["token"] = {"committed": False}
            for v in values:
                record_meta.append((v, producer["token"]))
        elif action in ("commit", "abort"):
            if producer["token"] is None:
                continue  # no open transaction: the coordinator refuses this
            log.append_control(
                producer["pid"], producer["epoch"], action,
                timestamp=0.0, leader_epoch=0,
            )
            producer["token"]["committed"] = action == "commit"
            producer["token"] = None
        else:  # bump: a successor fenced this instance (abort, epoch + 1)
            log.append_control(
                producer["pid"], producer["epoch"] + 1, "abort",
                timestamp=0.0, leader_epoch=0,
            )
            producer["epoch"] += 1
            producer["seq"] = 0
            producer["token"] = None
    # The sweeper's job: every still-open transaction ends aborted.
    for producer in producers:
        if producer["token"] is not None:
            log.append_control(
                producer["pid"], producer["epoch"], "abort",
                timestamp=0.0, leader_epoch=0,
            )
            producer["token"] = None
    log.advance_high_watermark(log.log_end_offset)
    assert log.last_stable_offset == log.high_watermark  # nothing left open
    expected = [v for v, token in record_meta if token["committed"]]
    skip = log.invisible_offsets(0, log.last_stable_offset, "read_committed")
    skip_set = frozenset(skip)
    visible = [r.value for r in log.all_records() if r.offset not in skip_set]
    assert visible == expected
    # read_uncommitted hides only the markers: every data record is served.
    skip_u = log.invisible_offsets(0, log.high_watermark, "read_uncommitted")
    visible_u = [
        r.value for r in log.all_records() if r.offset not in frozenset(skip_u)
    ]
    assert visible_u == [v for v, _ in record_meta]


@given(
    targets=st.lists(
        st.sampled_from(
            ["Empty", "Ongoing", "PrepareCommit", "PrepareAbort",
             "CompleteCommit", "CompleteAbort"]
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=100, deadline=None)
def test_transaction_state_machine_rejects_every_illegal_transition(targets):
    """A random walk over transition requests: legal ones follow the KIP-98
    state diagram, illegal ones raise and leave the state untouched."""
    import pytest

    from repro.broker.coordinator import _TXN_TRANSITIONS, TransactionState
    from repro.broker.errors import InvalidTxnStateError

    txn = TransactionState("tx", producer_id=0, producer_epoch=0)
    for target in targets:
        legal = target in _TXN_TRANSITIONS[txn.state]
        before = txn.state
        if legal:
            txn.transition(target)
            assert txn.state == target
        else:
            with pytest.raises(InvalidTxnStateError):
                txn.transition(target)
            assert txn.state == before


# ---------------------------------------------------------------------------
# Stores
# ---------------------------------------------------------------------------
@given(
    operations=st.lists(
        st.tuples(st.sampled_from(["put", "delete"]), st.integers(0, 20), st.text(max_size=10)),
        max_size=100,
    )
)
@settings(max_examples=50, deadline=None)
def test_kvstore_matches_reference_dict(operations):
    store = KeyValueStore()
    reference = {}
    for operation, key, value in operations:
        if operation == "put":
            store.put(key, value)
            reference[key] = value
        else:
            store.delete(key)
            reference.pop(key, None)
    assert len(store) == len(reference)
    for key, value in reference.items():
        assert store.get(key) == value
    assert store.bytes_stored >= 0


@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["put", "mutate", "delete"]), st.integers(0, 5), st.text(max_size=10)
        ),
        max_size=60,
    )
)
@settings(max_examples=50, deadline=None)
def test_kvstore_bytes_stored_is_what_live_keys_were_charged(operations):
    """The store keeps the caller's object, so a value can change after its
    put; ``bytes_stored`` stays the sum of every live key's size at its last
    put."""
    store = KeyValueStore()
    charged = {}
    for operation, key, text in operations:
        if operation == "put":
            value = {"count": len(text), "text": text}
            store.put(key, value)
            charged[key] = estimate_size(value)
        elif operation == "mutate":
            value = store.get(key)
            if value is not None and text:
                value[text] = text * 10
            elif value is not None:
                value.clear()
        else:
            store.delete(key)
            charged.pop(key, None)
        assert store.bytes_stored == sum(charged.values())


@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["upsert", "mutate", "delete"]), st.integers(0, 5), st.text(max_size=10)
        ),
        max_size=60,
    )
)
@settings(max_examples=50, deadline=None)
def test_table_bytes_stored_is_what_live_rows_were_charged(operations):
    """Same for rows: callers hold the ``Row`` objects ``get`` returns."""
    store = TableStore()
    charged = {}
    for operation, key, text in operations:
        if operation == "upsert":
            row = store.upsert("t", key, {"text": text})
            charged[key] = estimate_size(row.columns)
        elif operation == "mutate":
            row = store.get("t", key)
            if row is not None and text:
                row.columns[text] = text * 10
            elif row is not None:
                row.columns.clear()
        else:
            store.delete("t", key)
            charged.pop(key, None)
        assert store.bytes_stored == sum(charged.values())


@given(
    rows=st.lists(
        st.tuples(st.integers(0, 50), st.floats(min_value=-100, max_value=100, allow_nan=False)),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=50, deadline=None)
def test_table_select_ordering_matches_sorted(rows):
    store = TableStore()
    for key, value in rows:
        store.upsert("t", key, {"v": value})
    selected = store.select("t", order_by="v", descending=True)
    values = [row.get("v") for row in selected]
    assert values == sorted(values, reverse=True)


# ---------------------------------------------------------------------------
# Config parsing and statistics helpers
# ---------------------------------------------------------------------------
@given(megabytes=st.integers(min_value=1, max_value=4096))
@settings(max_examples=50, deadline=None)
def test_size_parsing_roundtrip_for_megabytes(megabytes):
    assert _size_to_bytes(f"{megabytes}m", 0) == megabytes * 1024**2
    assert _size_to_bytes(f"{megabytes}MB", 0) == megabytes * 1024**2


@given(milliseconds=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50, deadline=None)
def test_duration_parsing_roundtrip_for_milliseconds(milliseconds):
    assert duration_to_seconds(f"{milliseconds}ms", 0) == milliseconds / 1000.0


@given(values=st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
@settings(max_examples=100, deadline=None)
def test_cdf_and_percentile_invariants(values):
    points = cdf(values)
    fractions = [fraction for _, fraction in points]
    assert fractions == sorted(fractions)
    assert abs(fractions[-1] - 1.0) < 1e-9
    xs = [value for value, _ in points]
    assert xs == sorted(xs)
    assert min(values) <= percentile(values, 0.5) <= max(values)
    summary = summarize_distribution(values)
    assert summary["count"] == len(values)
    assert min(values) <= summary["mean"] <= max(values)
    assert summary["max"] == max(values)
