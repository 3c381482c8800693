"""ASketch: the augmented sketch of the paper (Algorithms 1 and 2).

An :class:`ASketch` is a small filter in front of a sketch.  Each incoming
tuple ``(k, u)`` first probes the filter:

1. hit — ``u`` is aggregated into the item's ``new_count`` (exact, cheap);
2. miss with a free slot — the item starts being monitored with
   ``new_count = u``, ``old_count = 0``;
3. miss on a full filter — the sketch is updated with ``(k, u)``; if the
   resulting estimate exceeds the smallest ``new_count`` in the filter, at
   most one *exchange* runs: ``k`` enters the filter carrying
   ``new_count = old_count = estimate`` (nothing is removed from the
   sketch — removing an over-estimate would break the one-sided
   guarantee, Example 1 of the paper), and the evicted minimum item's
   resident mass ``new_count - old_count`` is hashed into the sketch.

Queries (Algorithm 2) return the filter's ``new_count`` on a hit and the
sketch estimate otherwise; for insert-only streams the result is always an
over-estimate of the true count, with *exact* counts for items that never
left the filter.

Space accounting follows §4 exactly: for a total budget ``S`` and a filter
of ``s_f`` bytes, the underlying sketch keeps its ``w`` rows but its row
width shrinks to ``h' = h - s_f / w`` (equivalently, the sketch gets
``S - s_f`` bytes), so ASketch and the baselines always compare at equal
total space.

Deletions (negative updates, Appendix A) are supported under the strict
turnstile model via :meth:`~repro.core.staged.StagedSynopsis.remove`.

Since the staged-synopsis refactor, the whole mechanism — ingest,
batching, exchanges, queries, merging, persistence, re-tuning — lives in
:class:`~repro.core.staged.StagedSynopsis`; this class only assembles
the paper's default stages from a space budget (and keeps the paper's
constructor and kind name), so it stays bit-identical to the
pre-refactor monolith while any other front/back pairing reuses the
same core.
"""

from __future__ import annotations

from repro.core.filters import make_filter
from repro.core.staged import StagedSynopsis
from repro.errors import ConfigurationError
from repro.sketches.base import FrequencySketch
from repro.sketches.count_min import CountMinSketch
from repro.sketches.count_sketch import CountSketch
from repro.sketches.fcm import FrequencyAwareCountMin
from repro.synopses.protocol import SynopsisState


def _default_sketch(
    backend: str,
    sketch_bytes: int,
    num_hashes: int,
    seed: int,
) -> FrequencySketch:
    """Build the sketch for the part of the budget the filter leaves."""
    if backend == "count-min":
        return CountMinSketch(
            num_hashes=num_hashes, total_bytes=sketch_bytes, seed=seed
        )
    if backend == "fcm":
        # ASketch-FCM (paper §7.2.1): the filter already separates the
        # heavy items, so the backend runs the paper's "modified" FCM
        # without the (redundant) MG classifier.
        return FrequencyAwareCountMin(
            num_hashes=num_hashes,
            total_bytes=sketch_bytes,
            use_mg_counter=False,
            seed=seed,
        )
    if backend == "count-sketch":
        return CountSketch(
            num_hashes=num_hashes, total_bytes=sketch_bytes, seed=seed
        )
    raise ConfigurationError(
        f"unknown sketch backend {backend!r}; choose from "
        "'count-min', 'fcm', 'count-sketch'"
    )


class ASketch(StagedSynopsis):
    """Augmented sketch: filter + sketch with the exchange protocol.

    Parameters
    ----------
    total_bytes:
        Total synopsis budget shared by filter and sketch (ignored when an
        explicit ``sketch`` is supplied).
    filter_items:
        Filter capacity in items (``|F|``; the paper's default is 32).
    filter_kind:
        One of ``"vector"``, ``"strict-heap"``, ``"relaxed-heap"``
        (default, as in all of §7), ``"stream-summary"``.
    sketch:
        An already-built sketch to augment; mutually exclusive with
        ``total_bytes``.
    sketch_backend:
        ``"count-min"`` (default), ``"fcm"`` (ASketch-FCM) or
        ``"count-sketch"``.
    num_hashes:
        ``w`` for the underlying sketch (kept equal to the plain sketch's
        so the ``e^-w`` error probability matches, §4).
    max_exchanges_per_update:
        The paper fixes this to 1 ("we always restrict ourselves to at
        most one exchange"); larger values enable the cascading-exchange
        ablation and are *not* recommended (they add error).
    seed:
        Hash seeding for the underlying sketch.
    """

    SYNOPSIS_KIND = "asketch"

    def __init__(
        self,
        total_bytes: int | None = None,
        filter_items: int = 32,
        filter_kind: str = "relaxed-heap",
        *,
        sketch: FrequencySketch | None = None,
        sketch_backend: str = "count-min",
        num_hashes: int = 8,
        max_exchanges_per_update: int = 1,
        seed: int = 0,
    ) -> None:
        if (total_bytes is None) == (sketch is None):
            raise ConfigurationError(
                "specify exactly one of total_bytes or sketch"
            )
        front = make_filter(filter_kind, filter_items)
        if sketch is None:
            assert total_bytes is not None
            sketch_bytes = total_bytes - front.size_bytes
            if sketch_bytes <= 0:
                raise ConfigurationError(
                    f"filter of {front.size_bytes} bytes exceeds the "
                    f"total budget of {total_bytes} bytes"
                )
            sketch = _default_sketch(
                sketch_backend, sketch_bytes, num_hashes, seed
            )
        super().__init__(
            front,
            sketch,
            max_exchanges_per_update=max_exchanges_per_update,
            filter_kind=filter_kind,
        )

    @classmethod
    def from_state(cls, state: SynopsisState) -> "ASketch":
        asketch = cls(
            sketch=cls._sketch_from_state(state),
            filter_items=state.params["filter_items"],
            filter_kind=state.params["filter_kind"],
            max_exchanges_per_update=state.params["max_exchanges_per_update"],
        )
        asketch._restore_state(state)
        return asketch
