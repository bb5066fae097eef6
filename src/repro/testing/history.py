"""One client-observed history of a run, and the rules it must satisfy.

A :class:`History` is a *view* over what the clients of a run already keep:
what each producer was asked to send and its delivery reports, how each
transaction ended, and what every reader was handed, in the order it was
handed — a consumer's ``received`` list, an SPE sink's results and, read once
after the run by :meth:`History.audit`, every replica log as one more reader.
Nothing is copied per record and no client carries a hook for it.

The rules are the sequential specification of a partitioned, replicated log
(the model is Jepsen's Kafka checker).  Each is a function of the history
returning its violations, so a scenario that wants one guarantee calls that
rule (Fig. 6 counts ``acked_delivered``) and a control arm calls the rule its
configuration gives up, to show that it fails.  :func:`check_history` runs
the rules the run's *own* producer and consumer configuration promises.

``offset_order``, ``no_duplicates`` and ``key_order`` speak about standalone
readers: a group member re-reads from the committed offset after a rebalance,
the documented at-least-once window.  When the producer is transactional the
last two speak about committed views only — an aborted attempt and its
committed retry legitimately store the same record twice.

Two records are the same record when :attr:`History.ident` says so — by
default ``(key, value)``, which a workload makes unique; positions ``(topic,
partition, offset)`` come from the reports and the readers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.broker.consumer import ConsumerConfig


def _position(record) -> Tuple[str, int, int]:
    return record.topic, record.partition, record.offset


def _key_and_value(record) -> tuple:
    return record.key, record.value


@dataclass
class Reader:
    """One reader and what it was handed, in order.  ``records`` is the
    reader's own list; ``position`` gives a record's ``(topic, partition,
    offset)`` and is ``None`` for a reader that keeps no positions (an SPE
    sink); ``audit`` marks a replica log read after the run, not a client."""

    name: str
    records: Sequence
    config: ConsumerConfig = field(default_factory=ConsumerConfig)
    position: Optional[Callable[[Any], Tuple[str, int, int]]] = _position
    audit: bool = False

    @classmethod
    def of(cls, consumer) -> "Reader":
        return cls(consumer.name, consumer.received, consumer.config)


@dataclass
class History:
    """What the clients of one run observed.

    ``producers`` are the run's producers in the order they ran (``name``,
    ``config``, ``reports``); ``sent`` maps a producer's name to the records
    it was asked to send, indexed by sequence — a producer without an entry
    is judged by its reports alone (topic and key).  ``txns`` holds
    ``(outcome, records)`` per finished transaction, ``outcome`` one of
    ``"commit"``, ``"abort"`` or ``"uncertain"`` (the commit raised: either
    may have happened, so nothing is required of its records).
    ``leader_logs`` maps ``(topic, partition)`` to the final leader log as
    ``{offset: record}``.  Acknowledgements after ``ack_cutoff`` are not
    judged: a reader may simply not have fetched them yet.
    """

    producers: Sequence
    readers: List[Reader]
    sent: Dict[str, list] = field(default_factory=dict)
    txns: List[Tuple[str, list]] = field(default_factory=list)
    leader_logs: Dict[Tuple[str, int], Dict[int, Any]] = field(default_factory=dict)
    ident: Callable[[Any], Any] = _key_and_value
    ack_cutoff: float = math.inf
    cluster: Any = None

    @property
    def config(self):
        """The run's ``ProducerConfig`` (its producers share one)."""
        return self.producers[0].config

    def sends(self) -> Iterator:
        """Every record a producer was asked to send, in send order."""
        for producer in self.producers:
            yield from self.sent.get(producer.name, producer.reports)

    def acks(self) -> Iterator[tuple]:
        """``(report, record sent)`` per acknowledgement up to ``ack_cutoff``."""
        for producer in self.producers:
            sent = self.sent.get(producer.name)
            for report in producer.reports:
                at = report.acknowledged_at
                if at is not None and at <= self.ack_cutoff:
                    yield report, report if sent is None else sent[report.sequence]

    def delivered(self) -> set:
        """The identity of every record some client was handed."""
        ident = self.ident
        clients = [reader for reader in self.readers if not reader.audit]
        return {ident(record) for reader in clients for record in reader.records}

    def ordered_readers(self) -> List[Reader]:
        """The readers ``no_duplicates`` and ``key_order`` speak about."""
        committed_only = bool(self.config.transactional_id)
        return [
            reader
            for reader in self.readers
            if reader.config.group is None
            and (reader.config.isolation_level == "read_committed" or not committed_only)
        ]

    def audit(self, cluster) -> None:
        """Read every replica log of ``cluster``, once, as one more reader each
        (its committed view when the producer is transactional), and keep each
        partition's final leader log for the durability rules."""
        committed = bool(self.config.transactional_id)
        config = ConsumerConfig(
            isolation_level="read_committed" if committed else "read_uncommitted"
        )
        for broker in cluster.brokers.values():
            for key, log in sorted(broker.logs.items()):
                topic, _, partition = key.rpartition("-")
                at = (topic, int(partition))
                records = log.all_records()
                if broker._is_leader(key):
                    self.leader_logs[at] = {record.offset: record for record in records}
                if committed:
                    stable = log.last_stable_offset
                    hidden = set(log.invisible_offsets(0, stable, "read_committed"))
                    records = [r for r in records if r.offset < stable and r.offset not in hidden]
                self.readers.append(
                    Reader(
                        f"{broker.name}:{key}",
                        records,
                        config,
                        position=lambda record, at=at: (*at, record.offset),
                        audit=True,
                    )
                )


class Violation(NamedTuple):
    rule: str
    detail: str
    topic: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.rule}: {self.detail}"


def rule(findings: Callable[[History], Iterator[tuple]]) -> Callable[[History], List[Violation]]:
    """A rule yields ``(detail, topic)`` per finding; calling it returns them
    as a list of :class:`Violation` under its own name (empty = it held)."""

    @functools.wraps(findings)
    def check(history: History) -> List[Violation]:
        return [Violation(findings.__name__, *found) for found in findings(history)]

    return check


def _leaderless(partitions: set) -> Iterator[tuple]:
    """A partition without a final leader log cannot vouch for anything: that
    is a violation of the durability rule asking, never a vacuous pass."""
    for topic, partition in sorted(partitions):
        yield f"{topic}-{partition} has no leader log at the end of the run", topic


@rule
def acked_durable(history):
    """Every acknowledged record is in the final leader log of its partition,
    at the acknowledged offset (anywhere in it when a duplicate ack could not
    echo the position back)."""
    ident, leaderless = history.ident, set()
    for report, record in history.acks():
        log = history.leader_logs.get((report.topic, report.partition))
        if log is None:
            leaderless.add((report.topic, report.partition))
            continue
        offsets = log if report.offset is None else (report.offset,)
        if not any(each in log and ident(log[each]) == ident(record) for each in offsets):
            where = f"{report.topic}-{report.partition}@{report.offset}"
            yield f"acked {ident(record)!r} is not at {where} of the leader log", report.topic
    yield from _leaderless(leaderless)


@rule
def delivered_durable(history):
    """Every record a reader was handed is in the final leader log at the
    offset it was handed: nobody consumed an offset the elected leader lost."""
    ident, leaderless = history.ident, set()
    for reader in history.readers:
        for record in reader.records if reader.position else ():
            topic, partition, offset = reader.position(record)
            log = history.leader_logs.get((topic, partition))
            if log is None:
                leaderless.add((topic, partition))
            elif offset not in log or ident(log[offset]) != ident(record):
                where = f"{topic}-{partition}@{offset}"
                yield (
                    f"{reader.name} was handed {ident(record)!r} at {where}, "
                    f"which the leader log does not hold",
                    topic,
                )
    yield from _leaderless(leaderless)


@rule
def acked_delivered(history):
    """The clients were handed every acknowledged record."""
    ident, delivered = history.ident, history.delivered()
    for report, record in history.acks():
        if ident(record) not in delivered:
            yield f"acked {ident(record)!r} reached no reader", report.topic


@rule
def delivered_sent(history):
    """Nothing is delivered that nobody sent."""
    ident = history.ident
    sent = {ident(record) for record in history.sends()}
    for reader in history.readers:
        for each in dict.fromkeys(map(ident, reader.records)):
            if each not in sent:
                yield (f"{reader.name} was handed {each!r}, which nobody sent",)


@rule
def offset_order(history):
    """A standalone reader sees each partition's offsets strictly increasing."""
    for reader in history.readers:
        if reader.position is None or reader.config.group is not None:
            continue
        last: Dict[tuple, int] = {}
        for record in reader.records:
            topic, partition, offset = reader.position(record)
            previous = last.get((topic, partition), -1)
            if offset <= previous:
                yield f"{reader.name}: {topic}-{partition} went {previous} -> {offset}", topic
            last[(topic, partition)] = offset


@rule
def no_duplicates(history):
    """No standalone reader is handed the same record twice."""
    ident = history.ident
    for reader in history.ordered_readers():
        seen: set = set()
        for record in reader.records:
            if ident(record) in seen:
                yield (f"{reader.name} was handed {ident(record)!r} twice",)
            seen.add(ident(record))


@rule
def key_order(history):
    """A standalone reader sees each key's records in the order they were
    sent (by producer, then sequence: producers are listed as they ran)."""
    ident = history.ident
    rank: Dict[Any, int] = {}
    for record in history.sends():
        rank.setdefault(ident(record), len(rank))
    for reader in history.ordered_readers():
        last: Dict[Any, int] = {}
        for record in reader.records:
            at = rank.get(ident(record))
            if at is None:
                continue  # delivered_sent's finding
            if at < last.get(record.key, -1):
                yield (f"{reader.name}: key {record.key!r} went back to {ident(record)!r}",)
            last[record.key] = at


@rule
def txn_atomic(history):
    """All or nothing: the clients were handed every record of a committed
    transaction and no record outside the committed (or uncertain) ones."""
    ident, delivered = history.ident, history.delivered()
    allowed: set = set()
    for number, (outcome, records) in enumerate(history.txns):
        idents = [ident(record) for record in records]
        if outcome != "abort":
            allowed.update(idents)
        missing = [each for each in idents if each not in delivered]
        if outcome == "commit" and missing:
            yield (f"torn transaction {number}: committed {missing!r} reached no reader",)
    for reader in history.readers:
        for each in () if reader.audit else dict.fromkeys(map(ident, reader.records)):
            if each not in allowed:
                yield (f"{reader.name} was handed {each!r}, which no committed transaction wrote",)


def check_history(history: History) -> List[Violation]:
    """Every rule the run's own configuration promises, as one flat list."""
    config = history.config
    rules = [delivered_sent, offset_order]
    if config.acks == "all":
        rules += [acked_durable, delivered_durable]
        if not config.transactional_id:
            # txn_atomic is its transactional form: an acknowledged record of
            # an aborted transaction must *not* be delivered.
            rules.append(acked_delivered)
    if config.idempotence:  # a transactional producer is idempotent
        rules += [no_duplicates, key_order]
    if config.transactional_id and all(
        reader.config.isolation_level == "read_committed" for reader in history.readers
    ):
        rules.append(txn_atomic)
    return [problem for check in rules for problem in check(history)]
