"""Declarative scenario specifications.

A :class:`Scenario` is the declarative description of one reproducible
simulation study: how to build its configuration (a plain dataclass
composing topology, links, broker/topic settings, workload, pipeline, fault
schedule and seed), which independent points a configured run is made of,
how to combine the point outcomes back into the study's result object, and
how to summarize that result as a flat metrics dict.

Every scenario has one point shape: a module-level point function ``run``
and a ``grid(config)`` naming its points in canonical order as ``{label:
kwargs}``.  A point is ``run(config=config, **kwargs)`` — picklable
keyword arguments for a module-level function — so a ``ProcessPoolExecutor``
worker can execute it unchanged, and the combine step is a cheap reduce in
the parent.

Determinism contract
--------------------
All randomness of a point must flow from its configuration (typically a
``seed`` field).  A point may not read global mutable state, the wall clock
or its execution order.  Under that contract, running the points of a
scenario (or of a sweep) sequentially, across processes, or in any order
produces bitwise-identical results — which the test suite asserts.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


#: Scale tier applied when :class:`ScenarioParams` does not name one.
DEFAULT_SCALE = "quick"

#: Tier name that means "the config dataclass defaults, untouched".
MODULE_DEFAULTS_SCALE = "default"


@dataclass
class ScenarioParams:
    """Uniform run parameters shared by every scenario.

    This replaces the per-module quick-vs-paper constants: every scenario
    declares its scale tiers as field overrides on its config dataclass, and
    callers pick a tier here instead of hand-editing figures' config fields.

    * ``scale`` — ``"quick"`` (tiny, CI-suitable), ``"paper"`` (the paper's
      full settings) or ``"default"`` (the config dataclass defaults, which
      each experiment module keeps at its historical values).
    * ``seed`` — overrides the scenario's seed field when not ``None``.
    * ``overrides`` — explicit config-field overrides applied last.
    """

    scale: str = DEFAULT_SCALE
    seed: Optional[int] = None
    overrides: Dict[str, Any] = field(default_factory=dict)


@dataclass
class RunResult:
    """Uniform result of one scenario run.

    ``metrics`` is a flat, JSON-safe summary; ``result`` is the scenario's
    native result object (a figure result dataclass, a dict of them, ...).
    ``fingerprint`` hashes the scenario name plus the full configuration, so
    two runs with equal fingerprints executed the same simulation inputs.
    """

    scenario: str
    scale: str
    seed: Any
    fingerprint: str
    metrics: Dict[str, Any]
    wall_seconds: float
    workers: int
    n_points: int
    point_labels: List[str] = field(default_factory=list)
    problems: Optional[List[str]] = None
    result: Any = None

    def summary(self) -> Dict[str, Any]:
        """JSON-safe view (drops the native ``result`` object)."""
        return {
            "scenario": self.scenario,
            "scale": self.scale,
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "wall_seconds": round(self.wall_seconds, 4),
            "workers": self.workers,
            "n_points": self.n_points,
            "points": list(self.point_labels),
            "metrics": dict(self.metrics),
            "problems": list(self.problems) if self.problems is not None else None,
        }


@dataclass
class Scenario:
    """Declarative description of one runnable study.

    Parameters
    ----------
    name:
        Registry key (``python -m repro run <name>``).
    title:
        One-line human description shown by ``python -m repro list``.
    config_factory:
        Zero-argument callable returning the scenario's config dataclass at
        its module defaults (the historical per-module constants).
    run:
        The module-level point function; one point is one call.
    grid:
        ``grid(config) -> {label: kwargs}`` — the independent points, in
        canonical order.  ``run`` also receives ``config=config`` unless the
        point's kwargs bring their own config.
    combine:
        ``combine(config, runs) -> result`` — reduce the ``(kwargs,
        outcome)`` pairs, in canonical order, into the scenario's native
        result object.
    metrics:
        ``metrics(result) -> dict`` — flat JSON-safe summary for
        :class:`RunResult`; optional.
    tiers:
        Scale-tier field overrides, e.g. ``{"quick": {...}, "paper": {...}}``.
        ``"default"`` is implicit and applies no overrides.
    sweep_axis:
        The config field a bare ``--sweep value,value`` targets (the
        scenario's natural axis, e.g. ``user_counts`` for fig7b).
    check:
        ``check(config, result) -> List[str]`` — qualitative paper-shape
        violations; informational at quick scale.
    seed_field:
        Name of the config field that :class:`ScenarioParams.seed` overrides.
    """

    name: str
    title: str
    config_factory: Callable[[], Any]
    run: Callable[..., Any]
    grid: Callable[[Any], Dict[str, Dict[str, Any]]]
    combine: Callable[[Any, List[Tuple[Dict[str, Any], Any]]], Any]
    metrics: Optional[Callable[[Any], Dict[str, Any]]] = None
    tiers: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    sweep_axis: Optional[str] = None
    check: Optional[Callable[[Any, Any], List[str]]] = None
    seed_field: str = "seed"

    def points(self, config: Any) -> Dict[str, Dict[str, Any]]:
        """``{label: kwargs}`` of the calls to ``run`` that make up ``config``'s run."""
        return {
            label: {"config": config, **kwargs}
            for label, kwargs in self.grid(config).items()
        }

    def scales(self) -> List[str]:
        """Tier names this scenario accepts."""
        names = [MODULE_DEFAULTS_SCALE]
        names.extend(sorted(self.tiers))
        return names

    def build_config(self, params: Optional[ScenarioParams] = None) -> Any:
        """Materialize the config dataclass for ``params``.

        Order: config defaults -> scale-tier overrides -> explicit field
        overrides -> seed override.  Unknown scales and unknown fields raise
        immediately (a mistyped CLI flag must not silently run the default).
        """
        params = params or ScenarioParams()
        config = self.config_factory()
        scale = params.scale or MODULE_DEFAULTS_SCALE
        if scale != MODULE_DEFAULTS_SCALE:
            if scale not in self.tiers:
                raise ValueError(
                    f"scenario {self.name!r} has no scale {scale!r}; "
                    f"available: {', '.join(self.scales())}"
                )
            for name, value in self.tiers[scale].items():
                _set_config_field(config, name, value)
        for name, value in params.overrides.items():
            _set_config_field(config, name, value)
        if params.seed is not None:
            _set_config_field(config, self.seed_field, params.seed)
        return config

    def config_seed(self, config: Any) -> Any:
        return getattr(config, self.seed_field, None)

    def fingerprint(self, config: Any) -> str:
        """Stable digest of (scenario, full configuration)."""
        return config_fingerprint(self.name, config)


def _field_names(config: Any) -> set:
    if not dataclasses.is_dataclass(config):
        return set()
    return {f.name for f in dataclasses.fields(config)}


def _set_config_field(config: Any, name: str, value: Any) -> None:
    if dataclasses.is_dataclass(config):
        # Catalog-wide platform knobs are declared once, on the config's
        # ``platform`` field (``repro.core.configs.PlatformOverrides``);
        # their names resolve through it, so ``--set partitions=4`` keeps
        # its spelling.
        platform = getattr(config, "platform", None)
        own, shared = _field_names(config), _field_names(platform)
        if name not in own | shared:
            raise ValueError(
                f"{type(config).__name__} has no field {name!r}; "
                f"known fields: {', '.join(sorted(own | shared))}"
            )
        if name not in own:
            config = platform
    elif not hasattr(config, name):
        raise ValueError(f"{type(config).__name__} has no field {name!r}")
    # A scalar assigned to a list-valued field means "that one value":
    # sweeping/overriding fig7b's user_counts with 40 runs [40], instead of
    # handing scenario code an unexpected bare int.
    current = getattr(config, name, None)
    if isinstance(current, list) and not isinstance(value, (list, tuple)):
        value = [value]
    setattr(config, name, value)


def config_fingerprint(scenario_name: str, config: Any) -> str:
    """Digest the scenario name plus every config field, recursively."""
    digest = hashlib.sha1()
    digest.update(scenario_name.encode("utf-8"))
    digest.update(b"|")
    digest.update(_canonical(config).encode("utf-8"))
    return digest.hexdigest()[:16]


def _canonical(value: Any) -> str:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ", ".join(
            f"{f.name}={_canonical(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({fields})"
    if isinstance(value, dict):
        items = ", ".join(
            f"{_canonical(key)}: {_canonical(value[key])}" for key in sorted(value, key=repr)
        )
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_canonical(item) for item in value) + "]"
    return repr(value)


def derive_seed(base: Any, *components: Any) -> int:
    """Deterministic per-point seed: hash ``base`` with the point identity.

    Scenarios whose points must *not* share the base seed (e.g. independent
    repetitions) derive each point's seed from the base plus stable point
    coordinates; the result depends only on the inputs, never on execution
    order or process placement.
    """
    digest = hashlib.sha1(repr((base,) + components).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")
