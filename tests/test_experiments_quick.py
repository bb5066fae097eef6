"""Quick (scaled-down) checks of every experiment harness.

The benchmark harness runs the experiments at representative scale; these
tests run tiny configurations so the full test suite stays fast while still
exercising every experiment code path and its shape checks.
"""

import math

import pytest

from repro.broker.coordinator import CoordinationMode
from repro.experiments.fig5_link_delay import Fig5Config, run_fig5
from repro.experiments.fig6_partition import TOPIC_A, Fig6Config, run_fig6
from repro.experiments.fig7a_video_analytics import Fig7aConfig, run_fig7a
from repro.experiments.fig7b_traffic_monitoring import Fig7bConfig, run_fig7b
from repro.experiments.fig8_accuracy import Fig8Config, run_fig8
from repro.experiments.fig9_resources import Fig9Config, check_shape, run_fig9
from repro.experiments.table2_applications import Table2Config, run_table2

MB = 1024 * 1024


class TestFig5:
    def test_latency_increases_with_broker_delay(self):
        config = Fig5Config(
            link_delays_ms=[25, 150],
            components=["broker"],
            n_documents=12,
            duration=35.0,
        )
        result = run_fig5(config)
        series = result.series("broker")
        assert len(series) == 2
        assert not any(math.isnan(v) for v in series)
        assert series[1] > series[0]
        assert result.samples["broker"][150] > 0
        assert len(result.rows()) == 2


class TestFig6:
    def test_partition_scenario_zookeeper_loss(self):
        config = Fig6Config(
            n_sites=4,
            duration=150.0,
            disconnect_start=50.0,
            disconnect_duration=35.0,
            mode=CoordinationMode.ZOOKEEPER,
            acks=1,
            seed=3,
        )
        result = run_fig6(config)
        assert result.messages_produced > 100
        assert result.messages_consumed > result.messages_produced  # fan-out to all sites
        assert result.acked_but_lost > 0
        assert result.loss_only_on_topic_a()
        assert result.election_times(), "expected a leader election"
        assert TOPIC_A in result.latency_spike_topics(threshold=5.0)
        assert result.delivery.n_messages > 0
        assert result.delivery.lost_anywhere()
        assert any(result.throughput.values())

    def test_partition_scenario_kraft_no_silent_loss(self):
        config = Fig6Config(
            n_sites=4,
            duration=150.0,
            disconnect_start=50.0,
            disconnect_duration=35.0,
            mode=CoordinationMode.KRAFT,
            acks="all",
            seed=3,
        )
        result = run_fig6(config)
        assert result.acked_but_lost == 0


class TestFig7a:
    def test_throughput_grows_with_consumers_below_core_count(self):
        config = Fig7aConfig(consumer_counts=[1, 4], n_frames=2000)
        result = run_fig7a(config)
        assert result.throughput[4] > result.throughput[1] * 2
        assert all(rate > 0 for rate in result.per_consumer[4])


class TestFig7b:
    def test_runtime_grows_with_users(self):
        config = Fig7bConfig(user_counts=[20, 80], slots=6)
        result = run_fig7b(config)
        assert result.normalized[20] == pytest.approx(1.0)
        assert result.normalized[80] > 1.1
        assert result.input_records[80] > result.input_records[20]


class TestFig8:
    def test_profiles_agree(self):
        config = Fig8Config(
            link_delays_ms=[50], components=["broker"], n_documents=10, duration=35.0
        )
        result = run_fig8(config)
        assert result.max_relative_error() < 0.2
        rows = result.rows()
        assert len(rows) == 1
        assert rows[0]["stream2gym_s"] > 0


class TestFig9:
    def test_resource_scaling(self):
        config = Fig9Config(
            site_counts=[2, 4],
            buffer_sizes=[16 * MB, 32 * MB],
            duration=25.0,
            warmup=10.0,
        )
        result = run_fig9(config)
        medians = result.median_cpu_series(32 * MB)
        peaks_small = result.peak_memory_series(16 * MB)
        peaks_large = result.peak_memory_series(32 * MB)
        assert medians[4] > medians[2]
        assert peaks_large[4] > peaks_large[2]
        assert peaks_large[4] > peaks_small[4]
        assert result.reports[(4, 32 * MB)].fraction_below(60.0) > 0.8
        # Judged on its own grid: the 10-site point of the default config
        # is not in this result.
        assert isinstance(check_shape(config, result), list)


class TestTable2:
    def test_component_counts_without_running(self):
        result = run_table2(Table2Config(run_pipelines=False))
        by_name = {row.application: row for row in result.rows}
        assert by_name["word_count"].components == 5
        assert by_name["sentiment_analysis"].components == 3
        assert by_name["maritime_monitoring"].components == 4
        assert all(row.loc > 30 for row in result.rows)
