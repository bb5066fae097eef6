"""Tests for Table I attributes, YAML configs, task descriptions and GraphML parsing."""

import dataclasses

import pytest

from repro.broker.cluster import ClusterConfig
from repro.broker.consumer import ConsumerConfig
from repro.broker.producer import ProducerConfig
from repro.broker.topic import TopicConfig
from repro.core import Emulation
from repro.core.attributes import (
    validate_link_attributes,
    validate_node_attributes,
)
from repro.core.configs import (
    ConsumerStubConfig,
    ProducerStubConfig,
    SPEAppConfig,
    _size_to_bytes,
    parse_faults_config,
    parse_topics_config,
)
from repro.core.graphml import parse_graphml_string, to_graphml
from repro.core.task import TaskDescription
from repro.engine.context import StreamingConfig
from repro.engine.executor import ExecutorConfig
from repro.network.faults import Fault
from repro.simulation.engine import duration_to_seconds


class TestAttributeValidation:
    def test_unknown_node_attribute_flagged(self):
        problems = validate_node_attributes({"bogusAttr": 1})
        assert any("unknown node attribute" in problem for problem in problems)

    def test_valid_node_attributes_pass(self):
        problems = validate_node_attributes(
            {"prodType": "SFST", "prodCfg": {}, "cpuPercentage": 50}
        )
        assert problems == []

    def test_bad_producer_type_flagged(self):
        problems = validate_node_attributes({"prodType": "NOT_A_TYPE"})
        assert any("producer type" in problem for problem in problems)

    def test_bad_cpu_percentage_flagged(self):
        assert validate_node_attributes({"cpuPercentage": 150})
        assert validate_node_attributes({"cpuPercentage": "many"})

    def test_link_attribute_validation(self):
        assert validate_link_attributes({"lat": 10, "bw": 100, "loss": 1}) == []
        assert validate_link_attributes({"lat": -1})
        assert validate_link_attributes({"loss": 200})
        assert validate_link_attributes({"weird": 1})


class TestConfigParsing:
    def test_size_parsing(self):
        assert _size_to_bytes("32m", 0) == 32 * 1024**2
        assert _size_to_bytes("16MB", 0) == 16 * 1024**2
        assert _size_to_bytes("1g", 0) == 1024**3
        assert _size_to_bytes(4096, 0) == 4096
        assert _size_to_bytes(None, 7) == 7

    def test_duration_parsing(self):
        assert duration_to_seconds("2000ms", 0) == pytest.approx(2.0)
        assert duration_to_seconds("1.5s", 0) == pytest.approx(1.5)
        assert duration_to_seconds(3, 0) == 3.0
        assert duration_to_seconds(None, 9.0) == 9.0

    def test_producer_stub_config_from_paper_example(self):
        # Figure 3a of the paper.
        config = ProducerStubConfig.from_dict(
            {
                "filePath": "test-data.csv",
                "topicName": "raw-data",
                "totalMessages": 1000,
                "requestTimeout": "2000ms",
                "bufferMemory": "32m",
            }
        )
        assert config.topic == "raw-data"
        assert config.total_messages == 1000
        assert config.request_timeout == pytest.approx(2.0)
        assert config.buffer_memory == 32 * 1024**2

    def test_spe_config_from_paper_example(self):
        # Figure 3b of the paper.
        config = SPEAppConfig.from_dict(
            {"app": "word-count.py", "executorMemory": "1g", "eventLog": True}
        )
        assert config.app == "word_count"
        assert config.executor_memory == 1024**3
        assert config.event_log is True

    def test_consumer_config_single_topic_string(self):
        config = ConsumerStubConfig.from_dict({"topicName": "alerts"})
        assert config.topics == ["alerts"]

    def test_topic_spec_parsing(self):
        topics = parse_topics_config(
            {"topics": [{"name": "tA", "replicas": 3, "primaryBroker": "h2"}]}
        )
        assert topics[0].name == "tA"
        assert topics[0].replication_factor == 3
        assert topics[0].preferred_leader == "h2"

    def test_fault_spec_parsing(self):
        faults = parse_faults_config(
            [{"type": "node_disconnect", "nodes": "h3", "start": "30s", "duration": 120}]
        )
        assert faults[0].kind == "node_disconnect"
        assert faults[0].targets == ["h3"]
        assert faults[0].start == pytest.approx(30.0)
        assert faults[0].duration == pytest.approx(120.0)

    def test_empty_configs(self):
        assert parse_topics_config(None) == []
        assert parse_faults_config(None) == []
        assert ProducerStubConfig.from_dict({}).topic == "raw-data"



class TestTopicCfg:
    """A ``topicCfg`` entry: what the task description writes, the keys it
    reads, and the topic the deployed cluster gets."""

    #: What ``set_topics`` writes for a default topic and for one with a
    #: primary broker and every storage knob, key order included.
    WRITTEN = [
        [("name", "a"), ("partitions", 1), ("replicas", 1), ("primaryBroker", None)],
        [
            ("name", "b"), ("partitions", 2), ("replicas", 2), ("primaryBroker", "h2"),
            ("segmentRecords", 64), ("retentionBytes", 4096), ("retentionMs", 1500.0),
            ("cleanupPolicy", "compact"),
        ],
    ]

    @staticmethod
    def _task():
        task = TaskDescription("topics")
        task.add_node("h1", brokerCfg={"name": "kafka-1", "coordinator": True})
        task.add_node("h2", brokerCfg={"name": "kafka-2"})
        task.add_switch("s1")
        task.add_link("h1", "s1")
        task.add_link("h2", "s1")
        task.graph_attributes["topicCfg"] = {
            "topics": [{"name": "a"}, dict(TestTopicCfg.WRITTEN[1])]
        }
        return task

    def test_set_topics_writes_the_literal_document(self):
        task = self._task()
        task.set_topics(task.topics)
        document = task.graph_attributes["topicCfg"]
        assert list(document) == ["topics"]
        assert [list(entry.items()) for entry in document["topics"]] == self.WRITTEN

    def test_aliases_parse_to_the_same_topic(self):
        aliased = {
            "topicName": "b",
            "partitions": "2",
            "replicationFactor": 2,
            "primary_broker": "h2",
            "segment_records": "64",
            "retention_bytes": 4096,
            "retention_ms": 1500,
            "cleanup_policy": "compact",
        }
        assert parse_topics_config([aliased]) == parse_topics_config(
            [dict(self.WRITTEN[1])]
        )

    def test_the_cluster_gets_the_leader_as_a_broker_name(self):
        task = self._task()
        task.graph_attributes["topicCfg"]["topics"].append(
            {"name": "c", "primaryBroker": "kafka-1"}
        )
        emulation = Emulation(task, seed=1).build()
        assert emulation.cluster.topics == {
            "a": TopicConfig(name="a"),
            "b": TopicConfig(
                name="b",
                partitions=2,
                replication_factor=2,
                preferred_leader="kafka-2",
                retention_bytes=4096,
                retention_ms=1500.0,
                segment_records=64,
                cleanup_policy="compact",
            ),
            # A broker name passes through unchanged.
            "c": TopicConfig(name="c", preferred_leader="kafka-1"),
        }

#: Every setting of the platform's config dataclasses.  A value no caller
#: changes is a module constant next to its reader instead, so adding a field
#: here is a stated change.
CONFIG_SURFACE = {
    ProducerConfig: [
        "buffer_memory", "batch_size", "linger", "request_timeout", "delivery_timeout",
        "acks", "max_batch_records", "idempotence", "transactional_id",
        "transaction_timeout",
    ],
    ConsumerConfig: [
        "poll_interval", "max_records_per_fetch", "cpu_per_record", "keep_payloads",
        "group", "assignor", "isolation_level", "auto_offset_reset",
    ],
    ClusterConfig: [
        "mode", "session_timeout", "preferred_election_interval", "transaction_timeout",
        "segment_records", "retention_bytes", "retention_ms", "cleanup_policy",
        "log_dir",
    ],
    ExecutorConfig: ["parallelism", "job_overhead", "per_record_cost", "executor_memory"],
    StreamingConfig: ["batch_interval", "executor", "max_batches"],
}


@pytest.mark.parametrize("config", list(CONFIG_SURFACE), ids=lambda config: config.__name__)
def test_config_surface_is_pinned(config):
    assert [field.name for field in dataclasses.fields(config)] == CONFIG_SURFACE[config]


class TestTaskDescription:
    def _small_task(self):
        task = TaskDescription("t")
        task.add_node("h1", prodType="SFST", prodCfg={"topicName": "a"})
        task.add_node("h2", brokerCfg={})
        task.add_node("h3", consType="STANDARD", consCfg={"topics": ["a"]})
        task.add_switch("s1")
        for host in ("h1", "h2", "h3"):
            task.add_link(host, "s1", lat=5.0, bw=100.0)
        task.set_topics([TopicConfig(name="a")])
        return task

    def test_component_count(self):
        task = self._small_task()
        assert task.component_count() == 3
        assert len(task.hosts()) == 3
        assert len(task.switches()) == 1

    def test_valid_task_passes_validation(self):
        assert self._small_task().validate() == []

    def test_duplicate_node_rejected(self):
        task = TaskDescription()
        task.add_node("h1")
        with pytest.raises(ValueError):
            task.add_node("h1")

    def test_link_to_unknown_node_detected(self):
        task = self._small_task()
        task.add_link("h1", "ghost")
        assert any("unknown node" in problem for problem in task.validate())

    def test_topics_without_brokers_detected(self):
        task = TaskDescription()
        task.add_node("h1", prodType="SFST")
        task.set_topics([TopicConfig(name="x")])
        problems = task.validate()
        assert any("no node hosts a broker" in problem for problem in problems)

    def test_replication_exceeding_brokers_detected(self):
        task = self._small_task()
        task.set_topics([TopicConfig(name="a", replication_factor=5)])
        assert any("replicas" in problem for problem in task.validate())

    @pytest.mark.parametrize(
        "entry, problem",
        [
            ({"name": "a", "partitions": 0}, "partitions must be positive"),
            ({"name": "a", "retentionMs": -1}, "retention_ms must be positive"),
            ({"name": "a", "cleanupPolicy": "shred"}, "unknown cleanup_policy 'shred'"),
        ],
    )
    def test_bad_topic_entry_is_reported(self, entry, problem):
        task = self._small_task()
        task.graph_attributes["topicCfg"] = {"topics": [entry]}
        assert any(found.startswith(problem) for found in task.validate())
        with pytest.raises(ValueError, match="invalid task description"):
            task.require_valid()

    def test_require_valid_raises(self):
        task = self._small_task()
        task.add_link("h1", "ghost")
        with pytest.raises(ValueError):
            task.require_valid()

    def test_faults_roundtrip(self):
        task = self._small_task()
        task.set_faults([Fault(kind="node_disconnect", targets=["h2"], start=10, duration=5)])
        assert task.faults[0].targets == ["h2"]
        assert task.faults[0].duration == 5

    @pytest.mark.parametrize(
        "fault",
        [
            Fault("link_down", ["h1", "s1"], start=5.0, duration=10.0),
            Fault("node_disconnect", ["h1", "h2"], start=0.0),
            Fault("transient_loss", ["h2", "s1"], start=1.5, duration=3.0, loss_percent=40.0),
            Fault("leader_failover", ["topicA-0"], start=2.0, duration=4.0),
        ],
        ids=lambda fault: fault.kind,
    )
    def test_every_fault_kind_roundtrips_through_fault_cfg(self, fault):
        task = self._small_task()
        task.set_faults([fault])
        assert task.faults == [fault]

    def test_summary(self):
        summary = self._small_task().summary()
        assert summary["hosts"] == 3
        assert summary["components"] == 3
        assert summary["topics"] == ["a"]


class TestGraphML:
    PAPER_STYLE_DOC = """<?xml version="1.0" encoding="UTF-8"?>
    <graphml xmlns="http://graphml.graphdrawing.org/xmlns">
      <graph edgedefault="undirected">
        <data key="topicCfg">{topics: [{name: raw-data, replicas: 1, primaryBroker: h2}]}</data>
        <node id="h1">
          <data key="prodType">SFST</data>
          <data key="prodCfg">{topicName: raw-data, totalMessages: 50}</data>
        </node>
        <node id="h2">
          <data key="brokerCfg">{coordinator: true}</data>
        </node>
        <node id="h3">
          <data key="streamProcType">SPARK</data>
          <data key="streamProcCfg">{app: word_count, inputTopics: [raw-data]}</data>
        </node>
        <node id="h5">
          <data key="consType">STANDARD</data>
          <data key="consCfg">{topics: [raw-data]}</data>
        </node>
        <node id="s1"/>
        <edge source="s1" target="h1">
          <data key="st">1</data>
          <data key="dt">1</data>
          <data key="lat">50</data>
        </edge>
        <edge source="s1" target="h2"><data key="lat">5</data></edge>
        <edge source="s1" target="h3"><data key="lat">5</data></edge>
        <edge source="s1" target="h5"><data key="lat">5</data></edge>
      </graph>
    </graphml>
    """

    def test_parse_paper_style_document(self):
        task = parse_graphml_string(self.PAPER_STYLE_DOC)
        assert set(task.nodes) == {"h1", "h2", "h3", "h5", "s1"}
        assert task.nodes["s1"].is_switch
        assert task.nodes["h1"].attribute("prodType") == "SFST"
        assert task.nodes["h1"].attribute("prodCfg")["totalMessages"] == 50
        assert task.topics[0].name == "raw-data"
        assert len(task.links) == 4
        first_link = task.links[0]
        assert first_link.latency_ms == 50.0
        assert first_link.source_port == 1

    def test_parse_rejects_documents_without_graph(self):
        with pytest.raises(ValueError):
            parse_graphml_string("<graphml></graphml>")

    def test_roundtrip_through_graphml_text(self):
        original = parse_graphml_string(self.PAPER_STYLE_DOC)
        text = to_graphml(original)
        parsed = parse_graphml_string(text)
        assert set(parsed.nodes) == set(original.nodes)
        assert len(parsed.links) == len(original.links)
        assert parsed.topics[0].name == original.topics[0].name

    def test_validation_of_parsed_document(self):
        task = parse_graphml_string(self.PAPER_STYLE_DOC)
        assert task.validate() == []
