"""Tests for the synthetic workload generators and the ML helpers."""

import hashlib

import pytest

from repro.ml.sentiment import classify_polarity, sentiment_scores
from repro.ml.svm import LinearSVM
from repro.workloads import (
    PORTS,
    SERVICES,
    generate_ais_messages,
    generate_documents,
    generate_frames,
    generate_rides,
    generate_transactions,
    generate_tweets,
    generate_user_traffic,
)
from repro.simulation.rng import SeededRandom
from repro.workloads.transactions import labelled_features, transaction_features

#: ``SeededRandom(seed).zipf_index(n, skew)`` × 16, keyed by ``(seed, n, skew)``.
#: Captured from the linear-scan implementation; a faster draw must return
#: exactly these indices from the same stream state.
ZIPF_DRAWS = {
    (0, 49, 1.1): [20, 13, 2, 0, 3, 2, 15, 1, 3, 5, 29, 3, 1, 13, 6, 0],
    (0, 5, 0.8): [3, 2, 1, 0, 1, 1, 3, 0, 1, 1, 4, 1, 0, 2, 2, 0],
    (0, 7, 0.6): [5, 4, 1, 0, 2, 1, 4, 1, 2, 2, 5, 2, 1, 4, 3, 0],
    (0, 3, 0.7): [2, 1, 0, 0, 1, 0, 2, 0, 0, 1, 2, 1, 0, 1, 1, 0],
    (0, 1, 1.0): [0] * 16,
    (0, 6, 0.0): [3, 3, 0, 2, 4, 3, 3, 2, 3, 2, 4, 1, 4, 1, 2, 1],
    (7, 49, 1.1): [1, 0, 7, 0, 4, 1, 0, 3, 0, 2, 0, 0, 2, 19, 0, 0],
    (7, 5, 0.8): [0, 0, 2, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 3, 0, 0],
    (7, 7, 0.6): [1, 0, 3, 0, 2, 1, 0, 2, 0, 1, 0, 0, 1, 5, 0, 0],
    (7, 3, 0.7): [0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 2, 0, 0],
    (7, 6, 0.0): [2, 1, 3, 5, 0, 0, 4, 0, 2, 4, 0, 4, 1, 0, 0, 3],
    (2024, 49, 1.1): [3, 11, 1, 26, 2, 10, 1, 0, 17, 3, 2, 11, 39, 1, 10, 3],
    (2024, 5, 0.8): [1, 2, 0, 3, 1, 2, 0, 0, 3, 1, 1, 2, 4, 0, 2, 1],
    (2024, 7, 0.6): [2, 4, 1, 5, 1, 4, 0, 0, 4, 2, 1, 4, 6, 1, 3, 2],
    (2024, 3, 0.7): [0, 1, 0, 2, 0, 1, 0, 0, 2, 1, 0, 1, 2, 0, 1, 1],
    (2024, 6, 0.0): [3, 1, 5, 4, 2, 1, 5, 3, 5, 2, 4, 1, 5, 5, 3, 2],
}

#: sha256 of ``repr(generate_documents(1500, seed=11))`` — the word-count
#: benchmark's input, byte for byte.
DOCUMENTS_1500_SEED_11 = "81450f5eb996b841c783462c6571f63dfb5dfa2604e48c1a0e23393c23b1cecf"


class TestZipfPins:
    @pytest.mark.parametrize("key", sorted(ZIPF_DRAWS), ids=str)
    def test_draw_sequence(self, key):
        seed, n, skew = key
        rng = SeededRandom(seed)
        assert [rng.zipf_index(n, skew) for _ in range(16)] == ZIPF_DRAWS[key]

    def test_interleaved_shapes_share_one_stream(self):
        shapes = [(49, 1.1), (5, 0.8), (7, 0.6), (3, 0.7), (1, 1.0), (6, 0.0)]
        rng = SeededRandom(5)
        draws = [rng.zipf_index(*shapes[i % len(shapes)]) for i in range(24)]
        assert draws == [6, 2, 4, 2, 0, 4, 0, 1, 6, 1, 0, 0, 1, 3, 1, 0, 0, 5, 0, 0, 6, 1, 0, 0]

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            SeededRandom(0).zipf_index(0, 1.0)

    def test_documents_digest(self):
        digest = hashlib.sha256(repr(generate_documents(1500, seed=11)).encode()).hexdigest()
        assert digest == DOCUMENTS_1500_SEED_11


class TestTextWorkload:
    def test_document_count_and_schema(self):
        documents = generate_documents(20, seed=1)
        assert len(documents) == 20
        name, document = documents[0]
        assert name.endswith(".txt")
        assert {"doc_id", "topic", "text"} <= set(document)
        assert len(document["text"].split()) > 3

    def test_determinism(self):
        assert generate_documents(5, seed=7) == generate_documents(5, seed=7)
        assert generate_documents(5, seed=7) != generate_documents(5, seed=8)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            generate_documents(0)


class TestRideWorkload:
    def test_schema_and_values(self):
        rides = generate_rides(50, seed=2)
        assert len(rides) == 50
        for ride in rides:
            assert ride["fare"] > 0
            assert ride["tip"] >= 0
            assert 1 <= ride["passenger_count"] <= 4
            assert ride["area"] in {"downtown", "airport", "university", "harbour", "suburbs"}

    def test_unique_ids(self):
        rides = generate_rides(100, seed=3)
        assert len({ride["ride_id"] for ride in rides}) == 100


class TestTweetWorkload:
    def test_sentiment_mix(self):
        tweets = generate_tweets(300, seed=4)
        labels = {tweet["true_sentiment"] for tweet in tweets}
        assert labels == {"positive", "negative", "neutral"}

    def test_subjective_tweets_have_markers(self):
        tweets = generate_tweets(200, seed=5)
        subjective = [t for t in tweets if t["true_subjective"]]
        assert subjective
        assert any(t["text"].startswith(("i ", "honestly", "personally", "in my")) for t in subjective)


class TestAISWorkload:
    def test_schema(self):
        messages = generate_ais_messages(100, n_ships=10, seed=6)
        assert len(messages) == 100
        for message in messages:
            assert message["destination"] in PORTS
            assert 0 <= message["heading"] < 360
            assert message["speed_knots"] >= 0

    def test_ship_count_respected(self):
        messages = generate_ais_messages(200, n_ships=10, seed=6)
        assert len({m["mmsi"] for m in messages}) == 10


class TestTransactionWorkload:
    def test_fraud_rate_approximate(self):
        transactions = generate_transactions(2000, fraud_rate=0.1, seed=7)
        rate = sum(1 for tx in transactions if tx["is_fraud"]) / len(transactions)
        assert 0.06 < rate < 0.14

    def test_features_and_labels(self):
        transactions = generate_transactions(50, seed=8)
        features, labels = labelled_features(transactions)
        assert len(features) == len(labels) == 50
        assert all(label in (1, -1) for label in labels)
        assert len(transaction_features(transactions[0])) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_transactions(0)
        with pytest.raises(ValueError):
            generate_transactions(10, fraud_rate=2.0)


class TestFramesAndTraffic:
    def test_frames_sizes(self):
        frames = generate_frames(10, seed=9)
        assert len(frames) == 10
        assert all(frame["size"] == 784 + 24 for frame in frames)
        assert all(0 <= frame["label"] <= 9 for frame in frames)

    def test_traffic_scales_with_users(self):
        small = generate_user_traffic(n_users=10, duration_s=3, seed=10)
        large = generate_user_traffic(n_users=50, duration_s=3, seed=10)
        small_packets = sum(len(slot) for slot in small)
        large_packets = sum(len(slot) for slot in large)
        assert len(small) == 3
        assert large_packets > small_packets * 3

    def test_traffic_services_valid(self):
        slots = generate_user_traffic(n_users=5, duration_s=2, seed=11)
        for slot in slots:
            for packet in slot:
                assert packet["service"] in SERVICES
                assert packet["size"] >= 64


class TestSentiment:
    def test_positive_and_negative_polarity(self):
        positive = sentiment_scores("i love this amazing great release")
        negative = sentiment_scores("terrible awful broken outage")
        neutral = sentiment_scores("the meeting is at noon")
        assert positive["polarity"] > 0
        assert negative["polarity"] < 0
        assert neutral["polarity"] == 0

    def test_subjectivity_detects_opinions(self):
        subjective = sentiment_scores("i think this is honestly wonderful")
        objective = sentiment_scores("the server restarted at noon")
        assert subjective["subjectivity"] > objective["subjectivity"]

    def test_classify_polarity(self):
        assert classify_polarity(0.5) == "positive"
        assert classify_polarity(-0.5) == "negative"
        assert classify_polarity(0.0) == "neutral"

    def test_empty_text(self):
        assert sentiment_scores("")["polarity"] == 0.0


class TestLinearSVM:
    def test_learns_separable_data(self):
        transactions = generate_transactions(1500, fraud_rate=0.3, seed=12)
        features, labels = labelled_features(transactions)
        model = LinearSVM(n_features=4, seed=0)
        model.fit(features, labels, epochs=6)
        accuracy = model.accuracy(features, labels)
        assert accuracy > 0.85

    def test_predict_shapes(self):
        model = LinearSVM(n_features=2, seed=0)
        model.fit([[0.0, 1.0], [1.0, 0.0]], [1, -1], epochs=3)
        assert model.predict_one([0.0, 1.0]) in (1, -1)
        assert len(model.predict([[0.0, 1.0], [1.0, 0.0]])) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearSVM(n_features=0)
        model = LinearSVM(n_features=2)
        with pytest.raises(ValueError):
            model.fit([[1.0]], [1])
        with pytest.raises(ValueError):
            model.fit([[1.0, 2.0]], [3])
