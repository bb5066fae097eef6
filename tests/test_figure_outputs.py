"""The catalog's outputs, pinned: every registered scenario's
``RunResult.metrics`` at ``--scale quick`` on its default seed, plus three
runs with platform knobs set and the two example aliases of fig6 / fig5 at
their own (``--scale default``) size — at quick scale the shared tiers make
them the figure itself.

This is the fence a refactor of how scenarios are *built* is held against
(the "oracle before deletion" pattern of ``tests/test_log_model.py`` and
``tests/test_engine_model.py``, applied to the catalog): the simulator is
seeded, so a construction-order slip — a renamed stub (the name seeds its RNG
child stream), producers and consumers deployed in another order, a client
started a second late — moves these digests.  Together with
``GOLDEN_TRACE_SEED42``, the fig7b golden, ``FIG6_SMOKE_*`` and
``DEPOSED_LEADER_SEEDS`` it defines "same".

A digest moves only with an intentional behaviour change: re-capture that
scenario alone, in its own commit, and say which field moved and why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.scenarios import ScenarioParams, ScenarioRunner, names


def metrics_digest(metrics) -> str:
    # Table II's lines-of-user-code column counts source lines of the app
    # modules; it is reported (CHANGES.md), not an output of a simulation.
    pinned = {key: value for key, value in metrics.items() if not key.endswith("_loc")}
    canonical = json.dumps(pinned, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: ``(scenario, overrides) -> sha256`` of the quick-tier metrics.  An
#: override named ``scale`` picks the tier instead of a config field.
#: Re-captured when fetches began to park at the leader (PR 24) — every digest
#: that moved, moved in a latency or in a count that follows from one:
#: fig5 / geo-latency ``latency_max_*`` and ``impact_*`` fall (no replica or
#: poll tick inside the path), quickstart / graphml-task ``mean_latency_s``
#: 0.093 / 0.074 -> 0.044 / 0.042, fraud-pipeline ``mean_alert_latency_s``
#: 0.067 -> 0.041, fig6 / failure-injection ``*_consumed`` by < 1 % (what was
#: in flight at the cut and at the end) and ``zookeeper_acked_but_lost`` 195 ->
#: 193 / 47 -> 45, fig9 ``median_cpu_*`` by 0.01-0.04 points (fewer empty
#: fetches), fig8 ``max_relative_error`` 0.0073 -> 0.0107.  fig7a, fig7b and
#: table2 did not move.
PINNED = {
    ("fig5", ()): "2951bf4097e43f0995a1b44f114290e93937b81a9f00f8b0c3831040b08535bf",
    ("fig6", ()): "2dbabee031e3badeba5df64b207d4ba7d7692410490db8a737249f0bbf271766",
    ("fig7a", ()): "302101e117d3a9c6d928a8391675fa8f1b27424338bcd75a43e1db4cf3dac79a",
    ("fig7b", ()): "65b48fb4951b2623b638657f6cdfb71d14af38141157be48aaa94c81db68b097",
    ("fig8", ()): "18671c5eb384bde2400a709326ae2215947e387691cd0bf2dd1a2f36ed9afa15",
    ("fig9", ()): "30f0a315ebeb7ecf63baf75c490107678165e234c00915b0a5ebb395e4cd2a0d",
    ("table2", ()): "44c6c9725b019ada9b832b28f0901b9d8e912c649d4f9971ddbf6fe315654712",
    ("quickstart", ()): "e49adb961e84e45a737497fe84e8c9f4200cc7fc1cf4b416b260bce7aec15480",
    ("graphml-task", ()): "a710abab682720da8ad02305c46cc2caea43f195a6ffaf996ea8ef7860c00b64",
    ("failure-injection", ()): "2dbabee031e3badeba5df64b207d4ba7d7692410490db8a737249f0bbf271766",
    ("geo-latency", ()): "2951bf4097e43f0995a1b44f114290e93937b81a9f00f8b0c3831040b08535bf",
    ("fraud-pipeline", ()): "ebe97c66257ddfce43cd4ba323669e8ceda7bb53d2bb5cfd3b696d63c8868efc",
    ("fig6", (("partitions", 3), ("idempotence", True))): "6796ed75a55172cafe9f38fc671135117414d50dc2d599164ec672c3f0e07570",
    ("fig9", (("partitions", 3), ("idempotence", True))): "92639ab622e0818b923d2c8b32626e048745872ae0492b3bbe17034e082504ad",
    (
        "quickstart",
        (("transactional_id", "tx1"), ("isolation_level", "read_committed")),
    ): "e49adb961e84e45a737497fe84e8c9f4200cc7fc1cf4b416b260bce7aec15480",
    ("failure-injection", (("scale", "default"),)): "ebf16d702d617a39af31412d5a50234bf0c10faee079ec4f606dc793d1bff155",
    ("geo-latency", (("scale", "default"),)): "1e9460fe605a6c056d38959a7f8e7c7b7e1d320e3778c41ecd83304cf27d63b7",
}


def test_every_registered_scenario_is_pinned():
    assert {name for name, _overrides in PINNED} == set(names())


@pytest.mark.parametrize(
    "scenario, overrides",
    list(PINNED),
    ids=[
        name + "".join(f"-{field}={value}" for field, value in overrides)
        for name, overrides in PINNED
    ],
)
def test_quick_tier_metrics_are_byte_identical(scenario, overrides):
    fields = dict(overrides)
    params = ScenarioParams(scale=fields.pop("scale", "quick"), overrides=fields)
    result = ScenarioRunner(scenario).run(params)
    assert metrics_digest(result.metrics) == PINNED[(scenario, overrides)], result.metrics
