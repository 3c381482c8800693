"""The unified mergeable-synopsis protocol: state, merge, spec.

See :mod:`repro.synopses.protocol` for the structural interface and
:mod:`repro.synopses.spec` for declarative construction.  DESIGN.md §8
documents the semantics (what merge means per synopsis family, what the
state capture guarantees).
"""

from repro.synopses.protocol import (
    Synopsis,
    SynopsisState,
    synopsis_state_of,
)
from repro.synopses.spec import (
    SynopsisSpec,
    build_synopsis,
    registered_kinds,
    resolve_kind,
)

__all__ = [
    "Synopsis",
    "SynopsisSpec",
    "SynopsisState",
    "build_synopsis",
    "registered_kinds",
    "resolve_kind",
    "synopsis_state_of",
]
