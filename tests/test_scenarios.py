"""Tests of the declarative scenario API (repro.scenarios).

Covers the contracts the subsystem promises:

* every registered scenario builds a quick-tier config and decomposes into
  picklable points;
* a scenario round-trips through pickle and executes in a subprocess with
  the identical result;
* parallel sweep execution is bitwise-identical to sequential for the same
  seeds;
* the legacy ``run_fig*`` entry points delegate to the scenario machinery
  (same results, ``workers`` supported);
* the CLI can list and run every registered scenario at quick scale.

Multi-process tests are marked ``sweep`` so hosts that cannot fork worker
pools can deselect them (``-m "not sweep"``); everything else runs
in-process.
"""

from __future__ import annotations

import dataclasses
import io
import pickle
from concurrent.futures import ProcessPoolExecutor
from contextlib import redirect_stdout

import pytest

from repro.scenarios import (
    PointSpec,
    ScenarioParams,
    ScenarioRunner,
    Sweep,
    config_fingerprint,
    derive_seed,
    execute_points,
    get,
    names,
    run,
    run_point,
)
from repro.scenarios.cli import main as cli_main

#: Scenarios light enough to execute end-to-end in the quick test tier.
FAST_SCENARIOS = ["fig7b", "table2", "quickstart", "graphml-task"]


class TestRegistry:
    def test_all_expected_scenarios_registered(self):
        registered = names()
        for name in [
            "fig5",
            "fig6",
            "fig7a",
            "fig7b",
            "fig8",
            "fig9",
            "table2",
            "quickstart",
            "failure-injection",
            "fraud-pipeline",
            "geo-latency",
            "graphml-task",
        ]:
            assert name in registered

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get("no-such-scenario")

    def test_every_scenario_builds_all_tiers_and_points(self):
        for name in names():
            scenario = get(name)
            for scale in scenario.scales():
                config = scenario.build_config(ScenarioParams(scale=scale))
                points = scenario.points(config)
                assert points, f"{name}@{scale} produced no points"
                for point in points:
                    assert callable(point.fn)
                    # Module-level function: picklable for pool workers.
                    assert pickle.loads(pickle.dumps(point)).fn is point.fn

    def test_unknown_scale_and_field_raise(self):
        scenario = get("fig7b")
        with pytest.raises(ValueError, match="no scale"):
            scenario.build_config(ScenarioParams(scale="galactic"))
        with pytest.raises(ValueError, match="no field"):
            scenario.build_config(ScenarioParams(overrides={"warp_factor": 9}))

    def test_seed_and_overrides_applied(self):
        scenario = get("fig7b")
        config = scenario.build_config(
            ScenarioParams(scale="quick", seed=99, overrides={"slots": 4})
        )
        assert config.seed == 99
        assert config.slots == 4
        assert config.user_counts == [20, 60]  # quick tier preserved

    def test_scalar_override_onto_list_field_wraps(self):
        scenario = get("fig7b")
        config = scenario.build_config(
            ScenarioParams(scale="quick", overrides={"user_counts": 40})
        )
        assert config.user_counts == [40]

    def test_fig6_mode_and_acks_overrides_reach_the_points(self):
        """The comparison honors the configured primary mode/acks instead of
        silently rebuilding both arms from hardcoded values."""
        from repro.broker.coordinator import CoordinationMode

        scenario = get("fig6")
        config = scenario.build_config(
            ScenarioParams(
                scale="quick",
                overrides={"mode": CoordinationMode.KRAFT, "acks": "all"},
            )
        )
        points = scenario.points(config)
        assert [p.label for p in points] == ["kraft", "zookeeper"]
        assert points[0].kwargs["config"].acks == "all"
        assert points[1].kwargs["config"].acks == 1  # paper setting, other arm
        # Default config keeps the historical ZooKeeper-first comparison.
        default_points = scenario.points(scenario.build_config(ScenarioParams()))
        assert [p.label for p in default_points] == ["zookeeper", "kraft"]


class TestFingerprintAndSeeds:
    def test_fingerprint_stable_and_sensitive(self):
        scenario = get("fig7b")
        one = scenario.build_config(ScenarioParams(scale="quick"))
        two = scenario.build_config(ScenarioParams(scale="quick"))
        assert scenario.fingerprint(one) == scenario.fingerprint(two)
        two.seed = two.seed + 1
        assert scenario.fingerprint(one) != scenario.fingerprint(two)

    def test_fingerprint_covers_nested_values(self):
        @dataclasses.dataclass
        class Cfg:
            values: list
            table: dict

        a = config_fingerprint("x", Cfg([1, 2], {"k": 1}))
        b = config_fingerprint("x", Cfg([1, 2], {"k": 2}))
        assert a != b

    def test_derive_seed_deterministic(self):
        assert derive_seed(42, "point", 3) == derive_seed(42, "point", 3)
        assert derive_seed(42, "point", 3) != derive_seed(42, "point", 4)
        assert derive_seed(41, "point", 3) != derive_seed(42, "point", 3)


class TestRunner:
    def test_run_result_shape(self):
        result = run("fig7b", params=ScenarioParams(scale="quick"))
        assert result.scenario == "fig7b"
        assert result.scale == "quick"
        assert result.seed == 11
        assert result.n_points == 2
        assert result.point_labels == ["users=20", "users=60"]
        assert result.problems == []
        assert result.metrics["normalized_20u"] == 1.0
        summary = result.summary()
        assert summary["metrics"] == result.metrics
        import json

        json.dumps(summary)  # JSON-safe

    def test_legacy_entry_point_delegates(self):
        from repro.experiments.fig7b_traffic_monitoring import Fig7bConfig, run_fig7b

        config = Fig7bConfig(user_counts=[20, 60], slots=10)
        legacy = run_fig7b(config)
        scenario = run("fig7b", params=ScenarioParams(scale="quick"))
        assert legacy == scenario.result

    def test_run_kwargs_front_door(self):
        result = run("fig7b", scale="quick", seed=11)
        assert result.seed == 11
        with pytest.raises(TypeError, match="not both"):
            run("fig7b", params=ScenarioParams(), scale="quick")


@pytest.mark.sweep
class TestSubprocessExecution:
    def test_point_round_trips_through_subprocess(self):
        """build -> pickle -> run in a worker process == run in-process."""
        scenario = get("fig7b")
        config = scenario.build_config(ScenarioParams(scale="quick"))
        point = scenario.points(config)[0]
        local = run_point(pickle.loads(pickle.dumps(point)))
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(run_point, point).result()
        assert remote == local

    def test_parallel_run_equals_sequential(self):
        sequential = run("fig7b", params=ScenarioParams(scale="quick"), workers=1)
        parallel = run("fig7b", params=ScenarioParams(scale="quick"), workers=2)
        assert parallel.result == sequential.result
        assert parallel.metrics == sequential.metrics
        assert parallel.fingerprint == sequential.fingerprint

    def test_parallel_sweep_bitwise_equals_sequential(self):
        def sweep_outcomes(workers: int):
            outcome = (
                Sweep("fig7b", params=ScenarioParams(scale="quick", overrides={"slots": 6}))
                .over("user_counts", [20, 40, 60])
                .run(workers=workers)
            )
            return outcome.values(), [r.result for r in outcome.results()]

        seq_values, seq_results = sweep_outcomes(1)
        par_values, par_results = sweep_outcomes(3)
        assert par_values == seq_values
        assert par_results == seq_results  # bitwise: dataclass float equality


class TestSweep:
    def test_sweep_requires_axis(self):
        with pytest.raises(ValueError, match="no axes"):
            Sweep("fig7b").run()
        with pytest.raises(ValueError, match="sweep_axis"):
            Sweep("table2").over(None, [1, 2])

    def test_mistyped_axis_field_raises(self):
        with pytest.raises(ValueError, match="no field"):
            Sweep("fig7b").over("user_count", [20, 40]).configs()  # typo

    def test_default_axis_and_scalar_wrapping(self):
        sweep = Sweep("fig7b", params=ScenarioParams(scale="quick")).over(None, [20, 40])
        combos = sweep.configs()
        assert [config.user_counts for _, config in combos] == [[20], [40]]
        assert [combo for combo, _ in combos] == [(20,), (40,)]

    def test_sweep_metrics_rows(self):
        outcome = (
            Sweep("fig7b", params=ScenarioParams(scale="quick", overrides={"slots": 4}))
            .over("user_counts", [20, 40])
            .run()
        )
        rows = outcome.metrics_rows()
        assert [row["user_counts"] for row in rows] == [20, 40]
        assert all("mean_runtime_20u_s" in rows[0] for _ in [0])
        # Per-run wall clock is the shared batch's wall (runs interleave in
        # one pool), never a meaningless zero.
        assert all(r.wall_seconds == outcome.wall_seconds for r in outcome.results())
        assert outcome.wall_seconds > 0
        import json

        json.dumps(outcome.summary())


class TestCli:
    def test_list_names_every_scenario(self):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(["list"])
        assert code == 0
        output = buffer.getvalue()
        for name in names():
            assert name in output

    @pytest.mark.parametrize("name", FAST_SCENARIOS)
    def test_run_fast_scenarios_at_quick_scale(self, name):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(["run", name, "--scale", "quick"])
        assert code == 0
        assert f"scenario {name}" in buffer.getvalue()

    def test_every_registered_scenario_runs_at_quick_scale_smoke(self):
        """Smoke: the heavy scenarios at least build config + points via the
        CLI machinery; the fast ones run fully in the parametrized test."""
        for name in names():
            scenario = get(name)
            config = scenario.build_config(ScenarioParams(scale="quick"))
            assert scenario.points(config)

    def test_set_scalar_and_comma_list_on_list_fields(self):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(
                ["run", "fig7b", "--scale", "quick", "--set", "user_counts=20",
                 "--set", "slots=4", "--json"]
            )
        assert code == 0
        import json

        payload = json.loads(buffer.getvalue())
        assert payload["n_points"] == 1  # scalar wrapped into [20]
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(
                ["run", "fig5", "--scale", "quick", "--set", "components=broker",
                 "--set", "link_delays_ms=25", "--set", "n_documents=6",
                 "--set", "duration=25.0", "--json"]
            )
        assert code == 0
        payload = json.loads(buffer.getvalue())
        assert payload["points"] == ["broker@25ms"]

    def test_parse_override_comma_spellings_agree(self):
        from repro.scenarios.cli import _parse_override

        assert _parse_override("user_counts=20,40") == ("user_counts", [20, 40])
        assert _parse_override("components=producer,broker") == (
            "components",
            ["producer", "broker"],
        )
        assert _parse_override("slots=4") == ("slots", 4)

    def test_run_with_set_and_json(self):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(
                ["run", "fig7b", "--scale", "quick", "--set", "slots=4", "--json"]
            )
        assert code == 0
        import json

        payload = json.loads(buffer.getvalue())
        assert payload["scenario"] == "fig7b"
        assert payload["n_points"] == 2

    def test_run_sweep_cli(self):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(
                ["run", "fig7b", "--scale", "quick", "--set", "slots=4", "--sweep", "20,40"]
            )
        assert code == 0
        assert "sweep fig7b" in buffer.getvalue()

    def test_unknown_scenario_and_scale_fail_cleanly(self):
        assert cli_main(["run", "no-such-scenario"]) == 2
        assert cli_main(["run", "fig7b", "--scale", "galactic"]) == 2

    def test_quickstart_with_four_partitions_passes_check(self):
        """The whole catalog accepts ``--set partitions=N``; the quickstart
        pipeline runs sharded end-to-end and passes its checks."""
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(["run", "quickstart", "--set", "partitions=4", "--check"])
        assert code == 0
        assert "scenario quickstart" in buffer.getvalue()

    def test_quickstart_with_idempotence_passes_check(self):
        """The whole catalog accepts ``--set idempotence=true``: the pipeline
        runs on the exactly-once produce path and delivers identically."""
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(
                ["run", "quickstart", "--scale", "quick",
                 "--set", "idempotence=true", "--check"]
            )
        assert code == 0
        assert "scenario quickstart" in buffer.getvalue()

    def test_partitions_sweep_axis_works_for_fig7b(self):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(
                ["run", "fig7b", "--scale", "quick", "--set", "slots=4",
                 "--set", "user_counts=20", "--sweep", "partitions=1,2", "--json"]
            )
        assert code == 0
        import json

        payload = json.loads(buffer.getvalue())
        assert [run_["values"] for run_ in payload["runs"]] == [[1], [2]]

    def test_reps_flag_reports_mean_and_ci(self):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(
                ["run", "fig7b", "--scale", "quick", "--set", "slots=4",
                 "--set", "user_counts=20", "--reps", "2", "--json"]
            )
        assert code == 0
        import json

        payload = json.loads(buffer.getvalue())
        (entry,) = payload["runs"]
        assert entry["metrics"]["repetitions"] == 2
        assert "mean_runtime_20u_s_mean" in entry["metrics"]
        assert "mean_runtime_20u_s_ci95" in entry["metrics"]


class TestSweepRepetitions:
    """Per-point seed studies: N derived-seed reps per configuration."""

    def _sweep(self):
        return (
            Sweep("fig7b", params=ScenarioParams(scale="quick", overrides={"slots": 4}))
            .over("user_counts", [20])
            .repetitions(3)
        )

    def test_rep_seeds_derived_and_deterministic(self):
        result = self._sweep().run().results()[0]
        base_seed = result.seed
        assert result.metrics["repetitions"] == 3
        assert result.metrics["rep_seeds"] == [
            base_seed,
            derive_seed(base_seed, "rep", 1),
            derive_seed(base_seed, "rep", 2),
        ]
        again = self._sweep().run().results()[0]
        assert again.metrics == result.metrics

    def test_mean_and_ci_aggregate_numeric_metrics(self):
        result = self._sweep().run().results()[0]
        metrics = result.metrics
        assert "mean_runtime_20u_s_mean" in metrics
        assert metrics["mean_runtime_20u_s_ci95"] >= 0.0
        # Rep 0 runs the base seed, so the primary value is a plain-run value.
        plain = (
            Sweep("fig7b", params=ScenarioParams(scale="quick", overrides={"slots": 4}))
            .over("user_counts", [20])
            .run()
            .results()[0]
        )
        assert metrics["mean_runtime_20u_s"] == plain.metrics["mean_runtime_20u_s"]

    def test_repetitions_one_is_a_plain_sweep(self):
        base = self._sweep()
        base._repetitions = 1
        result = base.run().results()[0]
        assert "repetitions" not in result.metrics

    def test_zero_axis_repetition_study_allowed(self):
        outcome = (
            Sweep("fig7b", params=ScenarioParams(scale="quick", overrides={"slots": 4}))
            .repetitions(2)
            .run()
        )
        assert len(outcome.runs) == 1
        assert outcome.results()[0].metrics["repetitions"] == 2

    def test_invalid_repetitions_rejected(self):
        with pytest.raises(ValueError, match="repetitions"):
            Sweep("fig7b").repetitions(0)


class TestExecutePoints:
    def test_sequential_order_preserved(self):
        points = [
            PointSpec(fn=_echo, kwargs={"value": index}, index=index)
            for index in range(5)
        ]
        assert execute_points(points, workers=1) == [0, 1, 2, 3, 4]

    @pytest.mark.sweep
    def test_pool_order_preserved(self):
        points = [
            PointSpec(fn=_echo, kwargs={"value": index}, index=index)
            for index in range(5)
        ]
        assert execute_points(points, workers=3) == [0, 1, 2, 3, 4]


def _echo(value: int) -> int:
    return value


def test_set_vectorized_is_rejected_as_an_unknown_field():
    """The SPE has one execution plane: no scenario config carries the old
    ``vectorized`` knob, so ``--set vectorized=false`` is an unknown field."""
    for name in names():
        with pytest.raises(ValueError, match="no field 'vectorized'"):
            get(name).build_config(
                ScenarioParams(scale="quick", overrides={"vectorized": False})
            )


class TestOneKnobDeclaration:
    """The eight platform knobs are declared once, as
    ``repro.core.configs.PlatformOverrides``; every scenario config carries
    it as its one ``platform`` field and ``--set`` / ``--sweep`` resolve the
    knob names through it."""

    KNOBS = {
        "partitions", "idempotence", "transactional_id", "isolation_level",
        "segment_records", "retention_bytes", "retention_ms", "cleanup_policy",
    }

    def test_the_declaration_has_exactly_the_eight_knobs(self):
        from repro.core.configs import PlatformOverrides

        assert {f.name for f in dataclasses.fields(PlatformOverrides)} == self.KNOBS

    def test_every_config_has_one_platform_field_and_no_knob(self):
        from repro.core.configs import PlatformOverrides

        for name in names():
            config = get(name).build_config()
            fields = [f.name for f in dataclasses.fields(config)]
            assert fields.count("platform") == 1, name
            assert isinstance(config.platform, PlatformOverrides), name
            assert not self.KNOBS & set(fields), (name, self.KNOBS & set(fields))

    def test_every_knob_is_settable_by_its_bare_name(self):
        values = {
            "partitions": 4, "idempotence": True, "transactional_id": "tx1",
            "isolation_level": "read_committed", "segment_records": 64,
            "retention_bytes": 4096, "retention_ms": 5000.0, "cleanup_policy": "compact",
        }
        assert set(values) == self.KNOBS
        for name in names():
            config = get(name).build_config(ScenarioParams(overrides=values))
            assert dataclasses.asdict(config.platform) == values, name
            # Each build gets its own declaration object.
            assert get(name).build_config().platform.partitions == 1

    def test_sweeping_a_knob_resolves_through_platform(self):
        combos = Sweep("fig7b").over("partitions", [1, 2]).configs()
        assert [config.platform.partitions for _combo, config in combos] == [1, 2]

    def test_unknown_names_raise_with_the_known_field_list(self):
        for name in names():
            with pytest.raises(ValueError, match="no field 'vectorised'") as raised:
                get(name).build_config(ScenarioParams(overrides={"vectorised": 1}))
            message = str(raised.value)
            assert "known fields:" in message
            # Own fields and platform knobs are both listed.
            assert "platform" in message and "segment_records" in message

    def test_cli_set_of_a_storage_knob_on_quickstart(self):
        """``--set segment_records=64`` was rejected by every scenario but
        fig6, whose config alone declared the storage knobs."""
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(["run", "quickstart", "--set", "segment_records=64", "--check"])
        assert code == 0
        assert "scenario quickstart" in buffer.getvalue()

    def test_cli_set_parses_lowercase_booleans(self):
        from repro.scenarios.cli import _parse_override

        assert _parse_override("idempotence=true") == ("idempotence", True)
        assert _parse_override("idempotence=false") == ("idempotence", False)

    def test_app_task_builders_no_longer_take_the_knobs(self):
        import inspect

        from repro.experiments.table2_applications import _APPLICATIONS

        for name, (module, *_rest) in _APPLICATIONS.items():
            for function in (module.create_task, module.run):
                parameters = set(inspect.signature(function).parameters)
                assert not self.KNOBS & parameters, (name, function.__name__)
            assert "platform" in inspect.signature(module.run).parameters, name
