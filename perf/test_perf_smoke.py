"""Tier-1 smoke test of the benchmark itself (``--size smoke``).

What it pins: the names and units the runner prints are exactly the ones
``BENCHMARK.json`` declares; the observed pass is deterministic for a seed;
a falsified reference makes the run fail; ``compare`` applies the bounds.
It asserts nothing about speed.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from perf import compare, runner

pytestmark = pytest.mark.bench

SPEC = runner.load_spec()
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
METRIC_LINE = re.compile(r"^metric (\S+) (\S+) (\S+) (\S+) n=")


def perf_run(*arguments):
    return subprocess.run(
        [sys.executable, "-m", "perf", "run", "--size", "smoke", "--repeats", "1", *arguments],
        cwd=runner.ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "a.json"
    completed = perf_run("--out", str(out))
    assert completed.returncode == 0, completed.stdout
    return completed.stdout, json.loads(out.read_text())


def test_every_declared_metric_is_printed_once_with_its_unit(smoke_run):
    stdout, _results = smoke_run
    declared = {
        metric["name"]: metric["unit"]
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]
    }
    printed = [match.groups() for match in map(METRIC_LINE.match, stdout.splitlines()) if match]
    assert sorted((workload, name) for workload, name, _value, _unit in printed) == sorted(
        (workload, name) for workload in WORKLOADS for name in declared
    )
    for _workload, name, value, unit in printed:
        assert unit == declared[name]
        float(value)
    for workload in WORKLOADS:
        assert re.search(rf"^check {workload} attempted=\d+ failed=0$", stdout, re.M)


def test_observed_pass_is_deterministic_for_a_seed(smoke_run, tmp_path):
    _stdout, first = smoke_run
    out = tmp_path / "b.json"
    assert perf_run("--out", str(out)).returncode == 0
    second = json.loads(out.read_text())
    exact = {"events_per_record", "sim_latency_p50_ms", "sim_latency_p99_ms"} | {
        metric["name"] for metric in SPEC["per_layer"]
        if metric["unit"] in ("count", "records")
    }
    for workload in WORKLOADS:
        a, b = first["workloads"][workload], second["workloads"][workload]
        assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
        for section in ("end_to_end", "per_layer"):
            for name in exact & set(a[section]):
                assert a[section][name]["value"] == b[section][name]["value"], (workload, name)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_falsified_reference_fails_the_run(workload):
    completed = perf_run("--workload", workload, "--trace", "0", "--corrupt-reference")
    assert completed.returncode != 0
    assert f"FAILED {workload}: " in completed.stdout
    assert json.loads(completed.stdout.splitlines()[-1])["correct"] is False


def test_compare_applies_the_bound():
    def sample(value, low=None, high=None):
        return {"value": value, "min": low or value, "max": high or value}

    assert compare.verdict(sample(10.0), sample(10.5), "lower", 0.10) == "unchanged"
    assert compare.verdict(sample(10.0), sample(11.5), "lower", 0.10) == "regressed"
    assert compare.verdict(sample(10.0), sample(8.5), "lower", 0.10) == "improved"
    assert compare.verdict(sample(10.0), sample(11.5), "higher", 0.10) == "improved"
    assert compare.verdict(sample(10.0, 9.0, 10.5), sample(10.0), "lower", 0.10) == "unresolved"


def test_benchmark_json_stays_within_the_contract():
    assert SPEC["paths"] == ["perf"] and os.path.isdir(os.path.join(runner.ROOT, "perf"))
    assert 2 <= len(WORKLOADS) <= 8 and 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])
