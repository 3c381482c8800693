"""Declarative synopsis construction: specs and the kind registry.

A :class:`SynopsisSpec` is a (kind, parameters) pair that fully
describes how to build a synopsis — the single source every
construction site (CLI, experiment config, shard groups, benchmarks)
goes through, instead of re-spelling parameter lists.  The registry
maps a kind name to its implementing class lazily (module path strings,
resolved and cached on first use) so this module stays import-cycle
free.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import ConfigurationError

#: kind -> "module.path:ClassName"; resolved lazily on first use.
_BUILTIN_KINDS: dict[str, str] = {
    "count-min": "repro.sketches.count_min:CountMinSketch",
    "count-sketch": "repro.sketches.count_sketch:CountSketch",
    "fcm": "repro.sketches.fcm:FrequencyAwareCountMin",
    "holistic-udaf": "repro.sketches.holistic_udaf:HolisticUDAF",
    "space-saving": "repro.counters.space_saving:SpaceSaving",
    "misra-gries": "repro.counters.misra_gries:MisraGries",
    "asketch": "repro.core.asketch:ASketch",
    "sharded-asketch": "repro.runtime.sharding:ShardedASketch",
    "shard-supervisor": "repro.runtime.reliability:ShardSupervisor",
}

#: kind -> class, filled by :func:`resolve_kind` as kinds are imported.
_RESOLVED: dict[str, type] = {}


@dataclass(frozen=True)
class SynopsisSpec:
    """A declarative recipe for building one synopsis.

    Attributes
    ----------
    kind:
        Registry name of the synopsis type (see :func:`registered_kinds`).
    params:
        Keyword arguments for the type's constructor.
    """

    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def with_params(self, **updates: Any) -> "SynopsisSpec":
        """A copy with some parameters overridden (e.g. a per-run seed)."""
        return replace(self, params={**self.params, **updates})


def registered_kinds() -> list[str]:
    """All known kind names, sorted."""
    return sorted(_BUILTIN_KINDS)


def resolve_kind(kind: str) -> type:
    """The class implementing a kind (lazy import for builtins)."""
    if kind in _RESOLVED:
        return _RESOLVED[kind]
    try:
        target = _BUILTIN_KINDS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown synopsis kind {kind!r}; known kinds: "
            f"{', '.join(registered_kinds())}"
        ) from None
    module_name, _, class_name = target.partition(":")
    cls = getattr(importlib.import_module(module_name), class_name)
    _RESOLVED[kind] = cls
    return cls


def build_synopsis(spec: SynopsisSpec) -> Any:
    """Construct a synopsis from its spec via the registry."""
    cls = resolve_kind(spec.kind)
    try:
        return cls(**dict(spec.params))
    except TypeError as exc:
        raise ConfigurationError(
            f"invalid parameters for synopsis kind {spec.kind!r}: {exc}"
        ) from exc
