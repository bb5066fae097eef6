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
PINNED = {
    ("fig5", ()): "fc93f7b23c0233f1a6050f7349a6454ac243eb88dc7c353533efa571078d09ec",
    ("fig6", ()): "d2a0a49e726ab67271d027f828c8bcdefc2bac314226d1066294ee42b6f78a0c",
    ("fig7a", ()): "302101e117d3a9c6d928a8391675fa8f1b27424338bcd75a43e1db4cf3dac79a",
    ("fig7b", ()): "65b48fb4951b2623b638657f6cdfb71d14af38141157be48aaa94c81db68b097",
    ("fig8", ()): "8effda343f01988bcb4392aff351f4c721e258884354329a7ffcb997e5e91824",
    ("fig9", ()): "2764db4e4934b58dca3dbf0ed5195a63591b0254123555fcd6f00193c8768914",
    ("table2", ()): "44c6c9725b019ada9b832b28f0901b9d8e912c649d4f9971ddbf6fe315654712",
    ("quickstart", ()): "a8987b889b9d862d8a20f9985ba3448163f01148f1c2d308b6a7c0273eada06b",
    ("graphml-task", ()): "3497256f2255dbe7a2a7e515ead841174e1c5724bebae7723318bfe96e412269",
    ("failure-injection", ()): "d2a0a49e726ab67271d027f828c8bcdefc2bac314226d1066294ee42b6f78a0c",
    ("geo-latency", ()): "fc93f7b23c0233f1a6050f7349a6454ac243eb88dc7c353533efa571078d09ec",
    ("fraud-pipeline", ()): "285f450fad3a632b60a8798a2f507633a409e53ab0cf3db93807c115836b50f0",
    ("fig6", (("partitions", 3), ("idempotence", True))): "511f54091773deaa94c882e041bcbde2e0de157556d0e9ced150baeea2cd3a24",
    ("fig9", (("partitions", 3), ("idempotence", True))): "c1a48e2a1109e568dcba7ddc7e19fdd18b6e1aee53ed9c26657b9d4e872192dd",
    (
        "quickstart",
        (("transactional_id", "tx1"), ("isolation_level", "read_committed")),
    ): "17fbda4493a0f2eb11da5a5155f8e0e221a2944c557dfb2ee4abca37a49a0c5a",
    ("failure-injection", (("scale", "default"),)): "1d2847a0b82b4ab1aafc58986aa6602436736bf7ae2ae059f7f17b656df3d509",
    ("geo-latency", (("scale", "default"),)): "b3de87f5a380c3b1e39ea8d1a4d6c2742687f103f5f7f9cda0e33dab4ef154dc",
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
