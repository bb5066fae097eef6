"""Data source (producer) stubs.

Each stub wraps a :class:`~repro.broker.producer.Producer` and drives it with
a particular ingestion pattern.  The patterns correspond to the stub
repository described in the paper: producing each line of a file, each file
of a directory, a constant random bitrate, or replaying timestamped items.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence, Tuple

from repro.broker.cluster import BrokerCluster
from repro.broker.message import ProducerRecord
from repro.broker.producer import Producer, ProducerConfig
from repro.core.configs import ProducerStubConfig
from repro.network.packet import estimate_size
from repro.simulation.events import Event
from repro.simulation.process import Lifecycle


class ProducerStub(Lifecycle):
    """Base class: owns the underlying producer client and common accounting."""

    def __init__(
        self,
        cluster: BrokerCluster,
        host_name: str,
        config: Optional[ProducerStubConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.host_name = host_name
        self.config = config or ProducerStubConfig()
        self.name = name or f"{type(self).__name__}-{host_name}"
        # Transactional ids must be unique per producer instance (a shared id
        # would fence sibling stubs), so a scenario-level id is suffixed with
        # the stub's own name.
        transactional_id = (
            f"{self.config.transactional_id}-{self.name}"
            if self.config.transactional_id
            else None
        )
        self.producer: Producer = cluster.create_producer(
            host_name,
            config=ProducerConfig(
                buffer_memory=self.config.buffer_memory,
                request_timeout=self.config.request_timeout,
                delivery_timeout=self.config.delivery_timeout,
                acks=self.config.acks,
                idempotence=self.config.idempotence,
                transactional_id=transactional_id,
            ),
            name=f"{self.name}-producer",
        )
        self.messages_produced = 0
        self.bytes_produced = 0
        self.transactions_committed = 0
        self._txn_pending = 0
        #: Set while a driver commits; fires when that commit has returned.
        self._committing: Optional[Event] = None

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> None:
        if not self._open():
            return
        self.producer.start()
        self.spawn(self._driver(), name=f"{self.name}:driver")

    def _driver(self):
        yield self.sim.timeout(self.config.start_delay)
        if self._committing is not None:
            # The driver this start replaced is committing; the producer
            # ends one transaction at a time.
            yield self._committing
        yield from self._run()
        if self.current():
            # A driver a restart took over leaves the open transaction to
            # the new one.
            yield from self._txn_finish()

    def _run(self):
        raise NotImplementedError
        yield  # pragma: no cover

    # -- helpers -------------------------------------------------------------------
    def _send(self, topic: str, value: Any, key: Any = None, size: Optional[int] = None):
        key_field = self.config.key_field
        if key_field is not None and isinstance(value, dict) and key_field in value:
            # Entity-stable keys (flow id, account id, ...) so keyed hash
            # partitioning keeps one entity's records on one partition.
            key = value[key_field]
        record = ProducerRecord(
            topic=topic,
            value=value,
            key=key,
            size=size if size is not None else estimate_size(value),
        )
        if self.config.transactional_id and not self.producer.in_transaction():
            self.producer.begin_transaction()
        self.messages_produced += 1
        self.bytes_produced += record.size
        future = self.producer.send(record)
        if self.config.transactional_id:
            self._txn_pending += 1
        return future

    def _txn_pulse(self):
        """Generator: commit the open transaction every ``transaction_batch``
        sends.  A no-op (no simulation events) without a transactional id, so
        non-transactional runs stay event-for-event identical."""
        if not self.config.transactional_id:
            return
        if self._txn_pending >= self.config.transaction_batch:
            yield from self._txn_commit()

    def _txn_finish(self):
        """Generator: commit whatever the driver left open when it finished."""
        if self.config.transactional_id and self.producer.in_transaction():
            yield from self._txn_commit()

    def _txn_commit(self):
        from repro.broker.errors import DeliveryFailed, ProducerFencedError

        self._txn_pending = 0
        committing = self._committing = self.sim.event()
        try:
            yield from self.producer.commit_transaction()
            self.transactions_committed += 1
        except DeliveryFailed:
            # The transaction aborted (some record failed); the stub keeps
            # producing — the next send begins a fresh transaction.
            pass
        except ProducerFencedError:
            # A successor took over this transactional id: this instance is
            # permanently dead.
            self.running = False
        finally:
            self._committing = None
            committing.succeed()


class PacedProducerStub(ProducerStub):
    """Send ``totalMessages`` records (default: one per entry, cycling past
    the end) one every ``1 / messagesPerSecond`` seconds — or every 1e-4 s,
    which still yields to the scheduler, when no rate is set.  A subclass
    says how a send's index maps to its key and value."""

    def __init__(
        self,
        cluster: BrokerCluster,
        host_name: str,
        entries: Sequence[Any],
        config: Optional[ProducerStubConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(cluster, host_name, config, name)
        self.entries = list(entries)

    def _record(self, index: int) -> Tuple[Any, Any]:
        """The ``(key, value)`` of the ``index``-th send."""
        raise NotImplementedError

    def _run(self):
        rate = self.config.messages_per_second
        pause = 1.0 / rate if rate and rate > 0 else 1e-4
        for index in range(self.config.total_messages or len(self.entries)):
            if not self.live():
                return
            key, value = self._record(index)
            self._send(self.config.topic, value, key=key)
            yield from self._txn_pulse()
            yield self.sim.timeout(pause)


class SFSTProducerStub(PacedProducerStub):
    """Single File Single Topic: produce each element of one "file" to a topic.

    The file contents are provided as a list of items (the workload generators
    in :mod:`repro.workloads` create them), keyed by their send index;
    ``totalMessages`` truncates or cycles the list, and ``messagesPerSecond``
    paces the production.
    """

    def _record(self, index: int) -> Tuple[Any, Any]:
        items = self.entries
        return index, (items[index % len(items)] if items else index)


class DirectoryProducerStub(PacedProducerStub):
    """Produce each ``(file name, contents)`` of a directory as one message
    keyed by its file name (word-count ingestion)."""

    def _record(self, index: int) -> Tuple[Any, Any]:
        return self.entries[index % len(self.entries)]


class RandomRateProducerStub(ProducerStub):
    """Produce synthetic payloads at a constant bitrate across one or more topics.

    This is the producer used in the Figure 6/9 scenarios: each site injects
    data at 30 Kbps, randomly spread over the configured topics.
    """

    def __init__(
        self,
        cluster: BrokerCluster,
        host_name: str,
        config: Optional[ProducerStubConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(cluster, host_name, config, name)
        self._rng = self.sim.rng(f"random-producer:{self.name}")
        self._sequence = 0

    def _run(self):
        size = self.config.message_size
        rate_kbps = self.config.rate_kbps or 30.0
        bytes_per_second = rate_kbps * 1000.0 / 8.0
        interval = size / bytes_per_second
        topics = self.config.all_topics
        total = self.config.total_messages
        while self.live() and (total is None or self.messages_produced < total):
            topic = topics[self._rng.randint(0, len(topics) - 1)]
            key = f"{self.host_name}:{self._sequence}"
            self._sequence += 1
            self._send(topic, {"seq": key, "host": self.host_name}, key=key, size=size)
            yield from self._txn_pulse()
            yield self.sim.timeout(self._rng.jitter(interval, 0.05))


class ReplayProducerStub(ProducerStub):
    """Replay (delay, value) items, preserving their relative timing."""

    def __init__(
        self,
        cluster: BrokerCluster,
        host_name: str,
        timeline: Iterable[Tuple[float, Any]],
        config: Optional[ProducerStubConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(cluster, host_name, config, name)
        self.timeline = sorted(timeline, key=lambda item: item[0])

    def _run(self):
        previous = 0.0
        for index, (at, value) in enumerate(self.timeline):
            if not self.live():
                return
            gap = max(0.0, at - previous)
            previous = at
            if gap > 0:
                yield self.sim.timeout(gap)
            self._send(self.config.topic, value, key=index)
            yield from self._txn_pulse()
