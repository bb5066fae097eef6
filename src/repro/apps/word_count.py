"""Word count: the paper's reference application (Figure 2).

Pipeline (5 components): a data source streams text documents into the
``raw-data`` topic; stream processing job 1 counts the distinct words of each
document and publishes per-document results to ``words-per-doc``; job 2
computes the average document length per document topic and publishes to
``avg-words-per-topic``; a standard data sink consumes the final topic.  Each
component occupies its own host behind a single switch ("one big switch").
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.configs import PlatformOverrides, TopicSpec
from repro.core.emulation import Emulation, EmulationResult
from repro.core.registry import register_app
from repro.core.task import TaskDescription
from repro.workloads.text import generate_documents

RAW_TOPIC = "raw-data"
WORDS_TOPIC = "words-per-doc"
AVERAGE_TOPIC = "avg-words-per-topic"

#: Host naming used by the canonical allocation of Figure 2b.
HOSTS = {
    "source": "h1",
    "broker": "h2",
    "spe_job1": "h3",
    "spe_job2": "h4",
    "sink": "h5",
}


def build_word_count(ctx, config, emulation) -> None:
    """SPE job 1: count the distinct words of each incoming document."""
    input_topics = config.input_topics or [RAW_TOPIC]
    output_topic = config.output_topic or WORDS_TOPIC

    def count_words(document: Dict) -> Dict:
        text = document["text"] if isinstance(document, dict) else str(document)
        words = text.replace(".", " ").split()
        distinct: Dict[str, int] = {}
        for word in words:
            distinct[word] = distinct.get(word, 0) + 1
        return {
            "doc_id": document.get("doc_id") if isinstance(document, dict) else None,
            "topic": document.get("topic", "unknown") if isinstance(document, dict) else "unknown",
            "total_words": len(words),
            "distinct_words": len(distinct),
            "counts": distinct,
        }

    stream = ctx.kafka_stream(input_topics)
    stream.map(count_words).to_kafka(output_topic)


def build_avg_doc_length(ctx, config, emulation) -> None:
    """SPE job 2: running average document length per document topic."""
    input_topics = config.input_topics or [WORDS_TOPIC]
    output_topic = config.output_topic or AVERAGE_TOPIC

    def unwrap(value):
        # Upstream KafkaSink wraps values in {"value": ..., "event_time": ...}.
        return value["value"] if isinstance(value, dict) and "value" in value else value

    def update_average(new_values, previous):
        state = previous or {"count": 0, "total_words": 0}
        for value in new_values:
            state = {
                "count": state["count"] + 1,
                "total_words": state["total_words"] + value["total_words"],
            }
        state["avg_words"] = state["total_words"] / max(1, state["count"])
        return state

    stream = ctx.kafka_stream(input_topics)
    (
        stream.map(unwrap)
        .map_pairs(lambda summary: (summary["topic"], summary))
        .update_state_by_key(update_average)
        .to_kafka(output_topic)
    )


register_app("word_count", build_word_count)
register_app("word-count", build_word_count)
register_app("avg_doc_length", build_avg_doc_length)


def create_task(
    n_documents: int = 100,
    link_latency_ms: float = 5.0,
    link_bandwidth_mbps: float = 100.0,
    per_component_latency: Optional[Dict[str, float]] = None,
    files_per_second: float = 10.0,
    batch_interval: float = 0.5,
) -> TaskDescription:
    """Build the Figure 2 word-count task description.

    ``per_component_latency`` overrides the access-link delay of individual
    components (keys: source, broker, spe_job1, spe_job2, sink) — the knob the
    Figure 5 / Figure 8 experiments sweep.  Documents are keyed by file name,
    so on sharded topics (``PlatformOverrides.partitions``) a document's
    records stay ordered on one partition.
    """
    overrides = per_component_latency or {}
    task = TaskDescription(name="word-count")
    task.add_node(
        HOSTS["source"],
        prodType="DIRECTORY",
        prodCfg={
            "topicName": RAW_TOPIC,
            "filePath": "documents",
            "totalMessages": n_documents,
            "messagesPerSecond": files_per_second,
        },
    )
    task.add_node(HOSTS["broker"], brokerCfg={"coordinator": True})
    task.add_node(
        HOSTS["spe_job1"],
        streamProcType="SPARK",
        streamProcCfg={
            "app": "word_count",
            "inputTopics": [RAW_TOPIC],
            "outputTopic": WORDS_TOPIC,
            "batchInterval": batch_interval,
        },
    )
    task.add_node(
        HOSTS["spe_job2"],
        streamProcType="SPARK",
        streamProcCfg={
            "app": "avg_doc_length",
            "inputTopics": [WORDS_TOPIC],
            "outputTopic": AVERAGE_TOPIC,
            "batchInterval": batch_interval,
        },
    )
    task.add_node(
        HOSTS["sink"],
        consType="STANDARD",
        consCfg={"topics": [WORDS_TOPIC, AVERAGE_TOPIC]},
    )
    task.add_switch("s1")
    for role, host in HOSTS.items():
        task.add_link(
            host,
            "s1",
            lat=overrides.get(role, link_latency_ms),
            bw=link_bandwidth_mbps,
        )
    task.set_topics(
        [
            TopicSpec(name=RAW_TOPIC, primary_broker=HOSTS["broker"]),
            TopicSpec(name=WORDS_TOPIC, primary_broker=HOSTS["broker"]),
            TopicSpec(name=AVERAGE_TOPIC, primary_broker=HOSTS["broker"]),
        ]
    )
    return task


def run(
    n_documents: int = 100,
    duration: float = 60.0,
    seed: int = 0,
    per_component_latency: Optional[Dict[str, float]] = None,
    platform: Optional[PlatformOverrides] = None,
    **task_kwargs,
) -> EmulationResult:
    """Build and run the word-count pipeline end to end."""
    task = create_task(
        n_documents=n_documents,
        per_component_latency=per_component_latency,
        **task_kwargs,
    )
    documents = generate_documents(n_documents, seed=seed)
    emulation = Emulation(task, seed=seed, datasets={"documents": documents}, platform=platform)
    return emulation.run(duration=duration)
