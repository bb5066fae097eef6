"""What a kept record costs: one object per distinct value, not per record.

The word-count sink keeps every ``words-per-doc`` result, a consumer that
keeps its records keeps every ``ConsumerRecord``, and a producer keeps its
settled batches for the delivery reports.  These fences pin the shapes that
keep those cheap: interned ``counts`` keys, slotted records and packed
sequence numbers.  ``count_words`` is also checked against the plain loop it
replaced, kept here as the reference.
"""

import pickle
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.word_count import count_words
from repro.broker.consumer import ConsumerRecord
from repro.broker.message import ProducerRecord
from repro.broker.producer import Producer
from repro.network.topology import one_big_switch
from repro.simulation import Simulator
from repro.workloads.text import VOCABULARY, generate_documents


def reference_count_words(document):
    """The counting loop ``count_words`` replaced."""
    text = document["text"] if isinstance(document, dict) else str(document)
    words = text.replace(".", " ").split()
    distinct = {}
    for word in words:
        distinct[word] = distinct.get(word, 0) + 1
    return {
        "doc_id": document.get("doc_id") if isinstance(document, dict) else None,
        "topic": document.get("topic", "unknown") if isinstance(document, dict) else "unknown",
        "total_words": len(words),
        "distinct_words": len(distinct),
        "counts": distinct,
    }


_WORD = st.text(
    alphabet=st.sampled_from("abcxyzABC019_-'éßøñ日本語ﬁΩ"), min_size=1, max_size=6
)
_SEPARATOR = st.sampled_from([" ", ".", ". ", "  ", "..", "\n", "\t", " . "])


@st.composite
def texts(draw):
    """Words from a small pool, so repeats are common, joined by spaces and
    dots; the empty text included."""
    pool = draw(st.lists(_WORD, min_size=1, max_size=5))
    picks = draw(st.lists(st.sampled_from(pool), max_size=30))
    text = ""
    for word in picks:
        text += word + draw(_SEPARATOR)
    return text[: draw(st.integers(0, len(text)))] if picks else ""


_DOCUMENTS = st.one_of(
    st.builds(
        lambda text, doc_id, topic: {
            "text": text,
            **({"doc_id": doc_id} if doc_id else {}),
            **({"topic": topic} if topic else {}),
        },
        texts(),
        st.one_of(st.none(), st.just("doc-00001")),
        st.one_of(st.none(), st.sampled_from(["systems", "ml"])),
    ),
    texts(),
    st.integers(),
    st.lists(st.integers(), max_size=3),
)


@settings(max_examples=300)
@given(document=_DOCUMENTS)
def test_count_words_matches_the_reference_loop(document):
    result = count_words(document)
    expected = reference_count_words(document)
    assert result == expected
    assert type(result["counts"]) is dict
    assert list(result["counts"]) == list(expected["counts"])


def test_counts_share_one_string_per_word():
    results = [count_words(document) for _name, document in generate_documents(200, seed=11)]
    keys = {id(word) for result in results for word in result["counts"]}
    assert len(keys) <= len(VOCABULARY)


def test_consumer_record_is_slotted():
    record = ConsumerRecord("t", 0, 7, "k", {"v": [1, 2]}, 42, 1.0, 1.5, 2.25)
    assert not hasattr(record, "__dict__")
    assert pickle.loads(pickle.dumps(record)) == record
    assert record == ConsumerRecord("t", 0, 7, "k", {"v": [1, 2]}, 42, 1.0, 1.5, 2.25)
    assert record != ConsumerRecord("t", 0, 8, "k", {"v": [1, 2]}, 42, 1.0, 1.5, 2.25)
    assert record.latency == 0.75


def test_producer_batch_packs_its_sequence_numbers():
    sim = Simulator(seed=1)
    network = one_big_switch(sim, ["source", "broker"])
    producer = Producer(network.host("source"), ["broker"])
    producer.metadata = {
        "version": 1,
        "brokers": {},
        "partitions": {"t-0": {"topic": "t", "partition": 0, "leader": None}},
    }
    for _ in range(3):
        producer.send(ProducerRecord("t", value=b"x" * 10, size=10))
    (batch,) = producer._accumulator["t-0"]
    assert type(batch.seqs) is array and batch.seqs.typecode == "q"
    assert list(batch.seqs) == [0, 1, 2]
    assert batch.row_of(2) == 2
