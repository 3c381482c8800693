"""Pluggable compute backends for the batch-path hot loops.

The paper's throughput rests on three inner loops: the SIMD filter
membership probe (Algorithm 3, §6.1), the Count-Min hash+scatter/gather,
and the per-distinct-key exchange check of Algorithm 1.  This package
compiles all three behind the existing batch API — callers
(:class:`~repro.core.asketch.ASketch`, the filters, Count-Min) dispatch
through :func:`active_backend` and never change their signatures.

Three backends register here (see :mod:`repro.kernels._backends`):

* ``numpy`` — vectorised reference, the **default**;
* ``python`` — portable loop bodies, the semantics reference the numba
  leg compiles;
* ``numba`` — optional ``njit``-compiled kernels.  Requesting it
  without numba installed *falls back* to ``numpy``, emits a
  ``RuntimeWarning`` and raises the ``kernels_backend_fallback`` metric
  instead of crashing.

Selection, in precedence order: :func:`set_backend` (the CLI's
``--backend`` flag calls this), the ``REPRO_BACKEND`` environment
variable, else the default.  Selection is process-global;
:class:`~repro.runtime.parallel.ParallelIngestRuntime` forks its
workers, so each inherits the parent's active backend and the whole
fleet computes identically.  All backends produce bit-identical states
and estimates — enforced by ``tests/kernels`` and the hypothesis
equivalence suite.
"""

from __future__ import annotations

import importlib.util
import os
import warnings
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.errors import ConfigurationError
from repro.kernels._backends import (
    KernelBackend,
    NumbaBackend,
    NumpyBackend,
    PythonBackend,
)

__all__ = [
    "DEFAULT_BACKEND",
    "KernelBackend",
    "active_backend",
    "available_backends",
    "backend_fallback_reason",
    "reset_backend",
    "set_backend",
    "stamp_backend",
    "use_backend",
]

#: Environment variable consulted when no explicit selection was made.
ENV_VAR = "REPRO_BACKEND"

#: The reference backend every estimate is defined against.
DEFAULT_BACKEND = "numpy"

_FACTORIES: dict[str, Callable[[], KernelBackend]] = {
    "python": PythonBackend,
    "numpy": NumpyBackend,
    "numba": NumbaBackend,
}

_active: KernelBackend | None = None
_fallback_reason: str | None = None
_cache: dict[str, KernelBackend] = {}


def available_backends() -> list[str]:
    """Backend names usable in this process, sorted.

    ``numba`` is listed only when the package is importable; ``python``
    and ``numpy`` are always available.
    """
    names = ["numpy", "python"]
    if importlib.util.find_spec("numba") is not None:
        names.append("numba")
    return sorted(names)


def _instantiate(name: str) -> KernelBackend:
    if name not in _cache:
        _cache[name] = _FACTORIES[name]()
    return _cache[name]


def set_backend(name: str) -> KernelBackend:
    """Select the process-global kernel backend by name.

    Unknown names raise :class:`~repro.errors.ConfigurationError`.
    Requesting ``numba`` in an environment without numba falls back to
    ``numpy`` with a ``RuntimeWarning`` (and
    :func:`backend_fallback_reason` set) so a pinned-config deployment
    degrades instead of dying.  Returns the backend actually activated.
    """
    global _active, _fallback_reason
    if name not in _FACTORIES:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; choose from "
            f"{sorted(_FACTORIES)}"
        )
    try:
        backend = _instantiate(name)
        _fallback_reason = None
    except ImportError as exc:
        reason = (
            f"kernel backend {name!r} unavailable ({exc}); "
            f"falling back to {DEFAULT_BACKEND!r}"
        )
        warnings.warn(reason, RuntimeWarning, stacklevel=2)
        backend = _instantiate(DEFAULT_BACKEND)
        _fallback_reason = reason
    _active = backend
    return backend


def active_backend() -> KernelBackend:
    """The currently selected backend, resolving ``REPRO_BACKEND`` once.

    First call without a prior :func:`set_backend` reads the
    environment variable (empty/unset means :data:`DEFAULT_BACKEND`);
    the resolution then sticks until :func:`set_backend` or
    :func:`reset_backend`.
    """
    global _active
    if _active is None:
        set_backend(os.environ.get(ENV_VAR, "") or DEFAULT_BACKEND)
        assert _active is not None
    return _active


def reset_backend() -> None:
    """Forget the current selection; the next call re-reads the env."""
    global _active, _fallback_reason
    _active = None
    _fallback_reason = None


def backend_fallback_reason() -> str | None:
    """Why the last selection fell back (None when it did not)."""
    return _fallback_reason


@contextmanager
def use_backend(name: str) -> Iterator[KernelBackend]:
    """Context manager: run a block under a specific backend.

    Restores the previous selection (including "unresolved") on exit;
    used by the equivalence tests and the ablation benches.
    """
    global _active, _fallback_reason
    previous = _active
    previous_reason = _fallback_reason
    try:
        yield set_backend(name)
    finally:
        _active = previous
        _fallback_reason = previous_reason


def stamp_backend(registry) -> None:
    """Record the active backend into a metrics registry.

    Sets ``kernels_backend_info{backend=<name>} = 1`` and the
    ``kernels_backend_fallback`` gauge (1 when the selection fell back,
    e.g. numba requested without numba installed) — the warning metric
    deployments alert on when a fleet silently loses its compiled leg.
    """
    backend = active_backend()
    registry.gauge("kernels_backend_info", backend=backend.name).set(1.0)
    registry.gauge("kernels_backend_fallback").set(
        1.0 if _fallback_reason is not None else 0.0
    )
