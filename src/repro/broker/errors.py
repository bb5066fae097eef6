"""Error types surfaced by the event streaming platform."""

from __future__ import annotations


class BrokerError(Exception):
    """Base class for broker-side errors returned to clients."""


class ProducerFencedError(BrokerError):
    """An idempotent produce carried a producer epoch older than the current
    one: a newer instance re-initialized the producer id, fencing this zombie
    (Kafka's ``PRODUCER_FENCED``).

    Note there is deliberately no exception for *duplicate* sequences: a
    duplicate retry is not a failure — the broker acknowledges it positively
    with ``duplicate: True`` in the reply, and clients surface it via
    ``DeliveryReport.duplicate`` / ``Producer.duplicate_acks``."""


class InvalidTxnStateError(BrokerError):
    """A transactional request arrived in a state that cannot accept it —
    an illegal transition of the coordinator's transaction state machine
    (e.g. ``commit_transaction`` without an ongoing transaction, or two
    concurrent ``end_txn`` calls asking for different outcomes).  Mirrors
    Kafka's ``INVALID_TXN_STATE``."""


class DeliveryFailed(Exception):
    """Producer-side: a record could not be delivered within ``delivery.timeout.ms``."""
