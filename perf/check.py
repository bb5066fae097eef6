"""Reference results, computed by the benchmark itself in plain Python.

Nothing here imports from ``src/``: every function takes the generated
inputs and the program's outputs as plain lists/dicts and returns a
:class:`Verdict` — how many operations were attempted, how many failed, and
the first mismatch found (printed by the runner on a failed check).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: ``replay_spe`` application constants, shared by the operator chain in
#: ``perf/workloads.py`` and the plain fold below.
REPLAY_MODULUS = 1_000_003
REPLAY_DROP_MULTIPLES_OF = 7
REPLAY_KEYS = 64


@dataclass
class Verdict:
    attempted: int
    failed: int = 0
    first_mismatch: Optional[str] = None

    def fail(self, count: int, message: str) -> None:
        if count <= 0:
            return
        self.failed += count
        if self.first_mismatch is None:
            self.first_mismatch = message


# -- wordcount_pipeline ---------------------------------------------------------------
def count_words(document: Dict[str, Any]) -> Dict[str, Any]:
    """What SPE job 1 must publish for one document."""
    words = document["text"].replace(".", " ").split()
    counts: Dict[str, int] = {}
    for word in words:
        counts[word] = counts.get(word, 0) + 1
    return {
        "doc_id": document["doc_id"],
        "topic": document["topic"],
        "total_words": len(words),
        "distinct_words": len(counts),
        "counts": counts,
    }


def check_wordcount(
    documents: Sequence[Tuple[str, Dict[str, Any]]],
    messages: int,
    word_results: Sequence[Dict[str, Any]],
    average_results: Sequence[Tuple[str, Dict[str, Any]]],
    corrupt_reference: bool = False,
) -> Verdict:
    """``word_results``: the ``words-per-doc`` values at the sink, in arrival
    order (one partition, so send order).  ``average_results``: ``(doc topic,
    state)`` pairs from ``avg-words-per-topic``; every state is checked
    against the prefix of documents its ``count`` says it has folded."""
    verdict = Verdict(attempted=messages)
    expected = [count_words(document) for _name, document in documents]
    if corrupt_reference:
        expected[0] = dict(expected[0], total_words=expected[0]["total_words"] + 1)
    prefix_totals: Dict[str, List[int]] = {}
    for index in range(messages):
        want = expected[index % len(expected)]
        got = word_results[index] if index < len(word_results) else None
        if got != want:
            verdict.fail(1, f"document #{index}: expected {want!r}, sink got {got!r}")
        totals = prefix_totals.setdefault(want["topic"], [0])
        totals.append(totals[-1] + want["total_words"])
    verdict.fail(
        len(word_results) - messages,
        f"sink received {len(word_results)} word results for {messages} documents",
    )
    for topic, state in average_results:
        totals = prefix_totals.get(topic, [0])
        count = state.get("count", -1)
        want_state = None
        if 0 < count < len(totals):
            want_state = {
                "count": count,
                "total_words": totals[count],
                "avg_words": totals[count] / count,
            }
        if state != want_state:
            verdict.fail(
                1, f"running average of {topic!r}: expected {want_state!r}, got {state!r}"
            )
    return verdict


# -- fig6_partition -------------------------------------------------------------------
def check_fig6(
    produced: int,
    acked_but_lost: int,
    elections: int,
    produced_keys: Optional[Dict[str, set]] = None,
    acked: Optional[Sequence[Tuple[str, str, float]]] = None,
    delivered: Optional[Dict[str, Dict[str, List[str]]]] = None,
    ack_cutoff: float = 0.0,
    corrupt_reference: bool = False,
) -> Verdict:
    """``acks=all`` under KRaft must never lose an acknowledged record.

    The raw inputs (``produced_keys`` onwards) exist on the observed pass
    only — they need the client objects: ``acked`` is ``(topic, key,
    acknowledged_at)`` per acknowledged record, ``delivered`` maps consumer
    -> topic -> keys.  With them the loss count is recomputed here instead of
    trusted, and a key delivered without ever having been produced is a
    failure too.
    """
    verdict = Verdict(attempted=produced)
    expected_lost = 1 if corrupt_reference else 0
    if acked_but_lost != expected_lost:
        verdict.fail(
            max(1, acked_but_lost),
            f"{acked_but_lost} acknowledged record(s) never delivered, "
            f"expected {expected_lost}",
        )
    if elections < 1:
        verdict.fail(1, "the leader's disconnection triggered no election")
    if delivered is None:
        return verdict
    delivered_anywhere: Dict[str, set] = {}
    for consumer, topics in delivered.items():
        for topic, keys in topics.items():
            delivered_anywhere.setdefault(topic, set()).update(keys)
            phantom = [key for key in keys if key not in produced_keys.get(topic, ())]
            if phantom:
                verdict.fail(
                    len(phantom),
                    f"{consumer} received {phantom[0]!r} on {topic}, which nobody produced",
                )
    lost = [
        (topic, key)
        for topic, key, acknowledged_at in acked
        if acknowledged_at <= ack_cutoff and key not in delivered_anywhere.get(topic, ())
    ]
    if len(lost) != acked_but_lost:
        verdict.fail(
            1,
            f"run_fig6 reports {acked_but_lost} lost, the raw reports show "
            f"{len(lost)} (first: {lost[:1]!r})",
        )
    return verdict


# -- bulk_ingest ----------------------------------------------------------------------
def check_bulk(
    sizes: Sequence[int],
    records_consumed: int,
    bytes_consumed: int,
    batch_spans: Optional[Sequence[Tuple[int, int]]] = None,
    corrupt_reference: bool = False,
) -> Verdict:
    """``batch_spans`` (observed pass only) is ``(base_offset, count)`` per
    delivered batch: one partition, so they must tile ``0..n`` without gap
    or overlap."""
    verdict = Verdict(attempted=len(sizes))
    want_bytes = sum(sizes) + (1 if corrupt_reference else 0)
    verdict.fail(
        len(sizes) - records_consumed,
        f"sent {len(sizes)} records, consumed {records_consumed}",
    )
    if bytes_consumed != want_bytes:
        verdict.fail(1, f"sent {want_bytes} bytes, consumed {bytes_consumed}")
    next_offset = 0
    for base_offset, count in batch_spans or ():
        if base_offset != next_offset:
            verdict.fail(
                1, f"offset discontinuity: expected batch at {next_offset}, got {base_offset}"
            )
        next_offset = base_offset + count
    return verdict


# -- replay_spe -----------------------------------------------------------------------
def fold_replay(values: Sequence[int]) -> Dict[int, Dict[str, int]]:
    """The operator chain of ``replay_spe`` as one plain loop."""
    totals: Dict[int, Dict[str, int]] = {}
    for value in values:
        value %= REPLAY_MODULUS
        if value % REPLAY_DROP_MULTIPLES_OF == 0:
            continue
        entry = totals.setdefault(value % REPLAY_KEYS, {"count": 0, "total": 0})
        entry["count"] += 1
        entry["total"] += value
    return totals


def check_replay(
    values: Sequence[int],
    sink_totals: Dict[int, Dict[str, int]],
    corrupt_reference: bool = False,
) -> Verdict:
    verdict = Verdict(attempted=len(values))
    reference = fold_replay(values)
    if corrupt_reference:
        reference[min(reference)]["count"] += 1
    for key in sorted(set(reference) | set(sink_totals)):
        want = reference.get(key, {"count": 0, "total": 0})
        got = sink_totals.get(key, {"count": 0, "total": 0})
        if got == want:
            continue
        missing = abs(want["count"] - got["count"])
        # Same count, different sum: every record of the key is suspect.
        verdict.fail(
            missing or want["count"],
            f"key {key}: expected {want!r}, sink-side total is {got!r}",
        )
    return verdict
