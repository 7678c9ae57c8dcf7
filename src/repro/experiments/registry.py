"""The scenario registry: every runnable scenario under one name.

A *scenario* here is anything that can be built from a flat dict of
typed parameters and exposes ``run()`` returning either a
:class:`~repro.core.byterobust.RunReport` or a plain JSON-safe dict
(the "analytic" scenarios — standby sizing and friends — take the
second route).  Builders register themselves with
:func:`register_scenario`, declaring a :class:`ParamSpec` per tunable
so the sweep layer and the CLI can expand grids, coerce command-line
strings, and reject typos before any simulation starts.

Naming convention: lowercase, dash-separated, most-generic word first
(``dense``, ``dense-small``, ``degraded-network``).  Variants of a base
scenario share its prefix so ``list-scenarios`` groups naturally.

The built-in scenarios live in :mod:`repro.workloads.scenarios` and
register at import time; :func:`ensure_builtin_scenarios` performs that
import lazily so this module stays dependency-free (worker processes
import it first).
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _to_int(value: Any) -> int:
    """``int`` that refuses to truncate: ``7.0`` is 7, ``7.9`` is an
    error."""
    if isinstance(value, str):
        return int(value)
    out = int(value)
    if out != value:
        raise ValueError(f"{value!r} is not integral")
    return out


def _to_bool(value: Any) -> bool:
    """One of the ``_BOOL_WORDS`` (any case), or a bool / 0 / 1; a
    typo such as ``flase`` is an error, not ``False``."""
    if isinstance(value, str):
        word = value.strip().lower()
        if word not in _BOOL_WORDS:
            raise ValueError(f"{value!r} is not a boolean word")
        return _BOOL_WORDS[word]
    if value in (0, 1):
        return bool(value)
    raise ValueError(f"{value!r} is not a boolean")


#: Declared type -> coercer for CLI strings and already-typed values.
_COERCERS: Dict[str, Callable[[Any], Any]] = {
    "int": _to_int,
    "float": float,
    "str": lambda value: value,
    "bool": _to_bool,
}


class ScenarioError(ValueError):
    """Unknown scenario, unknown parameter, or bad parameter value."""


def _suggest(name: str, candidates: Sequence[str]) -> str:
    """A "did you mean ...?" fragment for typo'd registry lookups."""
    close = difflib.get_close_matches(name, list(candidates), n=3,
                                      cutoff=0.5)
    if not close:
        return ""
    return f" — did you mean {' or '.join(repr(c) for c in close)}?"


@dataclass(frozen=True)
class ParamSpec:
    """One tunable of a registered scenario."""

    name: str
    type: str = "float"            # int | float | str | bool
    default: Any = None
    help: str = ""

    def __post_init__(self) -> None:
        if self.type not in _COERCERS:
            raise ScenarioError(
                f"param {self.name!r}: unsupported type {self.type!r} "
                f"(one of {sorted(_COERCERS)})")

    def coerce(self, value: Any) -> Any:
        """Turn a CLI string (or an already-typed value) into the
        declared type."""
        try:
            return _COERCERS[self.type](value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(
                f"param {self.name!r}: cannot coerce {value!r} "
                f"to {self.type}") from exc


@dataclass
class ScenarioSpec:
    """A named scenario: builder + typed parameter schema."""

    name: str
    builder: Callable[..., Any]
    params: Dict[str, ParamSpec]
    description: str = ""
    tags: Sequence[str] = ()

    def defaults(self) -> Dict[str, Any]:
        return {p.name: p.default for p in self.params.values()}

    def resolve(self, overrides: Optional[Dict[str, Any]] = None
                ) -> Dict[str, Any]:
        """Defaults + overrides, all coerced; rejects unknown names."""
        resolved = self.defaults()
        for key, value in (overrides or {}).items():
            if key not in self.params:
                raise ScenarioError(
                    f"scenario {self.name!r} has no parameter {key!r}"
                    f"{_suggest(key, sorted(self.params))} "
                    f"(available: {', '.join(sorted(self.params))})")
            resolved[key] = self.params[key].coerce(value)
        return resolved

    def build(self, **overrides: Any) -> Any:
        """Instantiate the scenario with coerced parameters."""
        return self.builder(**self.resolve(overrides))


_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(name: str, params: Sequence[ParamSpec],
                      description: str = "",
                      tags: Sequence[str] = ()
                      ) -> Callable[[Callable[..., Any]],
                                    Callable[..., Any]]:
    """Decorator: register ``builder`` under ``name``.

    ``params`` is the scenario's only schema: :meth:`ScenarioSpec.build`
    passes every declared parameter by keyword, so the builder takes
    each one without a default.  One builder may serve several names
    (apply the returned decorator to it directly, or to a
    ``functools.partial`` fixing undeclared extras).
    """
    def deco(builder: Callable[..., Any]) -> Callable[..., Any]:
        if name in _REGISTRY:
            raise ScenarioError(f"scenario {name!r} already registered")
        _REGISTRY[name] = ScenarioSpec(
            name=name, builder=builder,
            params={p.name: p for p in params},
            description=description or (builder.__doc__ or "").strip()
            .split("\n")[0],
            tags=tuple(tags))
        return builder
    return deco


def ensure_builtin_scenarios() -> None:
    """Import the built-in scenario modules (idempotent)."""
    import repro.workloads.scenarios  # noqa: F401  (registers on import)
    import repro.workloads.paper  # noqa: F401  (figure/table scenarios)
    import repro.workloads.fleet  # noqa: F401  (fleet-churn scenarios)


def get_scenario(name: str) -> ScenarioSpec:
    ensure_builtin_scenarios()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r}{_suggest(name, _REGISTRY)} "
            f"(available: {', '.join(list_scenarios())})") from None


def list_scenarios() -> List[str]:
    ensure_builtin_scenarios()
    return sorted(_REGISTRY)


def iter_scenarios() -> List[ScenarioSpec]:
    ensure_builtin_scenarios()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]
