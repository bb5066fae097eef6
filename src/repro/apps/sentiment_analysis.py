"""Sentiment analysis: polarity and subjectivity of a Tweet stream.

Pipeline (3 components): a tweet producer feeds the ``tweets`` topic, a
single broker transports the unstructured messages, and a stream processing
job computes polarity/subjectivity per tweet, keeping the results in an
in-engine memory sink (the paper's smallest pipeline).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.configs import PlatformOverrides, TopicConfig
from repro.core.emulation import Emulation, EmulationResult
from repro.core.registry import register_app
from repro.core.task import TaskDescription
from repro.ml.sentiment import classify_polarity, sentiment_scores
from repro.workloads.tweets import generate_tweets

TWEETS_TOPIC = "tweets"

#: Memory sinks created per SPE node, retrievable after the run.
_SINKS: Dict[str, object] = {}


def build_sentiment_analysis(ctx, config, emulation) -> None:
    """Score each tweet's polarity and subjectivity."""
    input_topics = config.input_topics or [TWEETS_TOPIC]

    def score(tweet: Dict) -> Dict:
        text = tweet["text"] if isinstance(tweet, dict) else str(tweet)
        scores = sentiment_scores(text)
        return {
            "tweet_id": tweet.get("tweet_id") if isinstance(tweet, dict) else None,
            "polarity": scores["polarity"],
            "subjectivity": scores["subjectivity"],
            "label": classify_polarity(scores["polarity"]),
        }

    stream = ctx.kafka_stream(input_topics)
    sink = stream.map(score).to_memory(name=f"sentiment-{ctx.name}")
    _SINKS[ctx.name] = sink


register_app("sentiment_analysis", build_sentiment_analysis)


def sink_for(ctx_name: str):
    """Return the memory sink created for a given SPE context name."""
    return _SINKS.get(ctx_name)


def create_task(
    n_tweets: int = 300,
    tweets_per_second: float = 50.0,
    link_latency_ms: float = 5.0,
    batch_interval: float = 0.5,
) -> TaskDescription:
    """Build the sentiment-analysis task description (3 components)."""
    task = TaskDescription(name="sentiment-analysis")
    task.add_node(
        "h1",
        prodType="SFST",
        prodCfg={
            "topicName": TWEETS_TOPIC,
            "filePath": "tweets",
            "totalMessages": n_tweets,
            "messagesPerSecond": tweets_per_second,
        },
    )
    task.add_node("h2", brokerCfg={"coordinator": True})
    task.add_node(
        "h3",
        streamProcType="SPARK",
        streamProcCfg={
            "app": "sentiment_analysis",
            "inputTopics": [TWEETS_TOPIC],
            "batchInterval": batch_interval,
        },
    )
    task.add_switch("s1")
    for host in ("h1", "h2", "h3"):
        task.add_link(host, "s1", lat=link_latency_ms, bw=100.0)
    task.set_topics([TopicConfig(name=TWEETS_TOPIC, preferred_leader="h2")])
    return task


def run(
    n_tweets: int = 300,
    duration: float = 45.0,
    seed: int = 0,
    platform: Optional[PlatformOverrides] = None,
    **task_kwargs,
) -> EmulationResult:
    """Build and run the sentiment-analysis pipeline end to end."""
    task = create_task(n_tweets=n_tweets, **task_kwargs)
    tweets = generate_tweets(n_tweets, seed=seed)
    emulation = Emulation(task, seed=seed, datasets={"tweets": tweets}, platform=platform)
    result = emulation.run(duration=duration)
    sink = sink_for("spe-h3")
    if sink is not None:
        labels: Dict[str, int] = {}
        for value in sink.values():
            labels[value["label"]] = labels.get(value["label"], 0) + 1
        result.extras["label_counts"] = labels
        result.extras["scored_tweets"] = len(sink.results)
    return result
