"""Fraud detection: SVM-based anomaly prediction over a transaction stream.

Pipeline (5 components): a transaction producer feeds the ``transactions``
topic, a broker transports them, a stream processing job scores every
transaction with a pre-trained linear SVM and publishes flagged transactions
to the ``fraud-alerts`` topic, a standard data sink consumes the alerts, and
an external store keeps the alert history.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.configs import PlatformOverrides, TopicConfig
from repro.core.emulation import Emulation, EmulationResult
from repro.core.registry import register_app
from repro.core.task import TaskDescription
from repro.ml.svm import LinearSVM
from repro.workloads.transactions import (
    generate_transactions,
    labelled_features,
    transaction_features,
)

TRANSACTIONS_TOPIC = "transactions"
ALERTS_TOPIC = "fraud-alerts"


def train_default_model(n_training: int = 1500, seed: int = 7, epochs: int = 6) -> LinearSVM:
    """Train the SVM used by the streaming job on synthetic labelled history."""
    training = generate_transactions(n_training, fraud_rate=0.25, seed=seed)
    features, labels = labelled_features(training)
    model = LinearSVM(n_features=len(features[0]), seed=seed)
    model.fit(features, labels, epochs=epochs)
    return model


def build_fraud_detection(ctx, config, emulation) -> None:
    """Score transactions with the SVM and emit alerts for predicted fraud."""
    input_topics = config.input_topics or [TRANSACTIONS_TOPIC]
    output_topic = config.output_topic or ALERTS_TOPIC
    model: Optional[LinearSVM] = config.options.get("model")
    if model is None:
        model = train_default_model()

    def score(transaction: Dict) -> Dict:
        features = transaction_features(transaction)
        decision = float(model.decision_function([features])[0])
        return {
            "tx_id": transaction["tx_id"],
            "card_id": transaction["card_id"],
            "amount": transaction["amount"],
            "score": decision,
            "predicted_fraud": decision >= 0,
            "actual_fraud": transaction.get("is_fraud"),
        }

    (
        ctx.kafka_stream(input_topics)
        .map(score)
        .filter(lambda scored: scored["predicted_fraud"])
        .to_kafka(output_topic)
    )


register_app("fraud_detection", build_fraud_detection)


def create_task(
    n_transactions: int = 400,
    transactions_per_second: float = 40.0,
    link_latency_ms: float = 5.0,
    batch_interval: float = 0.5,
) -> TaskDescription:
    """Build the fraud-detection task description (5 components).

    Transactions are keyed by ``account_id``, so on sharded topics one
    account's history stays ordered on a single partition.
    """
    task = TaskDescription(name="fraud-detection")
    task.add_node(
        "h1",
        prodType="SFST",
        prodCfg={
            "topicName": TRANSACTIONS_TOPIC,
            "filePath": "transactions",
            "totalMessages": n_transactions,
            "messagesPerSecond": transactions_per_second,
            "keyField": "account_id",
        },
    )
    task.add_node("h2", brokerCfg={"coordinator": True})
    task.add_node(
        "h3",
        streamProcType="SPARK",
        streamProcCfg={
            "app": "fraud_detection",
            "inputTopics": [TRANSACTIONS_TOPIC],
            "outputTopic": ALERTS_TOPIC,
            "batchInterval": batch_interval,
        },
    )
    task.add_node(
        "h4",
        consType="STANDARD",
        consCfg={"topics": [ALERTS_TOPIC]},
    )
    task.add_node("h5", storeType="MYSQL", storeCfg={"tables": ["alerts"]})
    task.add_switch("s1")
    for host in ("h1", "h2", "h3", "h4", "h5"):
        task.add_link(host, "s1", lat=link_latency_ms, bw=100.0)
    task.set_topics(
        [
            TopicConfig(name=TRANSACTIONS_TOPIC, preferred_leader="h2"),
            TopicConfig(name=ALERTS_TOPIC, preferred_leader="h2"),
        ]
    )
    return task


def run(
    n_transactions: int = 400,
    duration: float = 60.0,
    seed: int = 0,
    fraud_rate: float = 0.05,
    platform: Optional[PlatformOverrides] = None,
    **task_kwargs,
) -> EmulationResult:
    """Build and run the fraud-detection pipeline end to end."""
    task = create_task(n_transactions=n_transactions, **task_kwargs)
    transactions = generate_transactions(n_transactions, fraud_rate=fraud_rate, seed=seed)
    emulation = Emulation(
        task, seed=seed, datasets={"transactions": transactions}, platform=platform
    )
    result = emulation.run(duration=duration)
    sink = emulation.consumers.get("h4")
    if sink is not None:
        alerts = [record.value for record in sink.records]
        payloads = [
            alert.get("value") if isinstance(alert, dict) and "value" in alert else alert
            for alert in alerts
        ]
        true_positive = sum(1 for alert in payloads if alert.get("actual_fraud"))
        result.extras["alerts"] = len(payloads)
        result.extras["true_positive_alerts"] = true_positive
        result.extras["actual_frauds_in_stream"] = sum(
            1 for tx in transactions if tx["is_fraud"]
        )
    return result
