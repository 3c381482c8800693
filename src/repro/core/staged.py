"""The staged-synopsis core: front stage, back stage and the exchange step.

The paper's entire contribution is a *composition*: a small exact filter
(the front stage) in front of a lossy frequency sketch (the back stage),
glued together by the exchange protocol of Algorithms 1 and 2.  This
module holds that composition, with its ingest, batching, kernel
dispatch, merging, persistence plumbing and observability:

* :class:`StagedSynopsis` — the composition.  Owns the two stages, the
  operation record, the mass/selectivity bookkeeping, scalar and
  vectorised ingest (Algorithm 1), queries (Algorithm 2), top-k and
  heavy hitters, deletions (Appendix A), and merging with the pristine
  identity fast paths.
* The exchange step (Algorithm 1 lines 9-17,
  :meth:`StagedSynopsis._run_exchanges`): at most
  ``max_exchanges_per_update`` exchanges per miss (the paper fixes one),
  and eviction hashes the victim's resident mass back into the sketch.

:class:`~repro.core.asketch.ASketch` is the :class:`StagedSynopsis`
subclass that builds the paper's default stages from a space budget;
``tests/staged/test_equivalence.py`` pins its estimates, op counts and
state digests to a committed golden file.
"""

from __future__ import annotations

import operator
import time

import numpy as np

from repro.core.filters import Filter
from repro.errors import (
    ConfigurationError,
    NegativeCountError,
    StreamFormatError,
)
from repro.hardware.costs import OpCounters
from repro.hashing.families import count_dtype_problem, int64_keys
from repro.kernels import active_backend
from repro.obs.registry import MetricsRegistry, current_registry
from repro.obs.trace import current_tracer, trace_point
from repro.sketches.base import FrequencySketch
from repro.synopses.protocol import (
    SynopsisState,
    pack_nested,
    prefix_arrays,
    synopsis_state_of,
    unpack_nested,
)


class StagedSynopsis:
    """A two-stage synopsis: exact front stage + lossy back stage.

    Parameters
    ----------
    front:
        The exact front stage — any :class:`~repro.core.filters.Filter`.
    back:
        The lossy back stage — any
        :class:`~repro.sketches.base.FrequencySketch`.
    max_exchanges_per_update:
        Exchange budget per missed tuple.  The paper always restricts
        itself to one; larger values enable the cascading-exchange
        ablation and add error.
    filter_kind:
        The registry name of ``front``'s kind, recorded in
        :meth:`state`; inferred from ``front``'s class when omitted.
    """

    def __init__(
        self,
        front: Filter,
        back: FrequencySketch,
        *,
        max_exchanges_per_update: int = 1,
        filter_kind: str | None = None,
    ) -> None:
        if not isinstance(back, FrequencySketch):
            raise ConfigurationError(
                "the back stage must be a FrequencySketch, got "
                f"{type(back).__name__}"
            )
        if max_exchanges_per_update < 1:
            raise ConfigurationError(
                "max_exchanges_per_update must be >= 1, got "
                f"{max_exchanges_per_update}"
            )
        self.ops = OpCounters()
        self._filter: Filter = front
        self.filter_kind = (
            filter_kind if filter_kind is not None else _kind_of(front)
        )
        self._sketch = back
        #: Exchange budget per missed tuple (the paper fixes this to 1).
        self.max_exchanges_per_update = int(max_exchanges_per_update)
        #: Aggregate count mass processed so far (``N`` in the paper).
        self.total_mass = 0
        #: Count mass that overflowed to the sketch (``N2``); the achieved
        #: filter selectivity is ``overflow_mass / total_mass`` (Fig. 17).
        self.overflow_mass = 0
        #: Number of tuples forwarded to the sketch (pipeline messaging).
        self.miss_events = 0

    # -- introspection ----------------------------------------------------

    @property
    def filter(self) -> Filter:
        """The filter stage (read access for tests and metrics)."""
        return self._filter

    @property
    def sketch(self) -> FrequencySketch:
        """The underlying sketch stage."""
        return self._sketch

    @property
    def size_bytes(self) -> int:
        """Total logical synopsis size (filter + sketch)."""
        return self._filter.size_bytes + self._sketch.size_bytes

    @property
    def exchange_count(self) -> int:
        """Exchanges executed so far (Figure 9's metric)."""
        return self.ops.exchanges

    @property
    def achieved_selectivity(self) -> float:
        """Measured ``N2 / N`` (Figure 17's "achieved" series)."""
        if self.total_mass == 0:
            return 0.0
        return self.overflow_mass / self.total_mass

    # -- Algorithm 1: stream processing -----------------------------------

    def update(self, key: int, amount: int = 1) -> int:
        """Insert ``(key, amount)``; returns the post-update estimate.

        A key that is not an int64 integer raises
        :class:`ConfigurationError` before any state changes, here and
        in :meth:`process`, :meth:`query` and :meth:`remove`; so does
        an ``amount`` that is not one, here and in :meth:`process` and
        :meth:`remove`."""
        key = _int64_key(key)
        estimate = self._process(key, _int64_count(amount))
        if estimate is not None:
            return estimate
        counts = self._filter.get_counts(key)
        assert counts is not None
        return counts[0]

    def process(self, key: int, amount: int = 1) -> None:
        """Insert ``(key, amount)`` without computing a return estimate.

        The streaming hot path: identical state transitions to
        :meth:`update`, minus the extra filter probe a hit-path return
        value would need.
        """
        self._process(_int64_key(key), _int64_count(amount))

    def _process(self, key: int, amount: int) -> int | None:
        """Shared Algorithm 1 body.

        Returns the sketch estimate when the item went to the sketch (or
        entered the filter through an exchange), or None when the item
        lives in the filter and the caller can read its ``new_count``.
        """
        if amount < 0:
            raise NegativeCountError(
                "use remove() for deletions (negative updates)"
            )
        self.ops.items += 1
        self.total_mass += amount
        filter_ = self._filter
        if filter_.add_if_present(key, amount):  # lines 2-3
            return None
        if not filter_.is_full:  # lines 4-6
            if self.overflow_mass:
                # A free slot coexisting with sketch mass (the filter
                # grew, or a merge rebuilt it under capacity): the key
                # may already have history in the back stage, so it
                # enters exchange-style — new = old = estimate — plus
                # the exactly-known arrival, keeping one-sidedness.
                prior = max(0, self._sketch.estimate(key))
                filter_.insert(key, prior + amount, prior)
            else:
                filter_.insert(key, amount, 0)
            return None
        # Lines 7-17: overflow to the sketch, then the exchange step
        # (the paper's: at most one exchange; more under the cascading
        # ablation).
        self.miss_events += 1
        self.overflow_mass += amount
        estimate = self._sketch.update(key, amount)
        return self._run_exchanges(key, estimate)

    def _run_exchanges(self, key: int, current_estimate: int) -> int:
        """Algorithm 1's exchange step for one missed ``key`` whose
        post-update back-stage estimate is ``current_estimate``; returns
        the key's resulting estimate (its filter ``new_count`` if
        exchanged in).

        At most :attr:`max_exchanges_per_update` exchanges run.  An
        exchanged key enters the filter carrying ``new_count = old_count
        = estimate`` — nothing is removed from the sketch, preserving
        the one-sided guarantee — and the evicted minimum's resident
        mass ``new_count - old_count`` is hashed back into the sketch.
        """
        filter_ = self._filter
        budget = self.max_exchanges_per_update
        current_key = key
        result = current_estimate
        exchanges_done = 0
        while (
            exchanges_done < budget
            and current_estimate > filter_.min_new_count()
        ):
            evicted = filter_.replace_min(
                current_key, current_estimate, current_estimate
            )
            self.ops.exchanges += 1
            exchanges_done += 1
            if current_tracer() is not None:
                trace_point(
                    "exchange",
                    key=int(current_key),
                    evicted=int(evicted.key),
                    estimate=int(current_estimate),
                    items_seen=int(self.ops.items),
                )
            if current_key == key:
                # The incoming item now lives in the filter; its estimate
                # is its new_count there.
                result = current_estimate
            delta = evicted.resident_count
            if delta > 0:
                # Only the exactly-known resident mass is hashed back
                # (line 12); the old_count part is already in the sketch.
                current_estimate = self._sketch.update(evicted.key, delta)
            elif exchanges_done < budget:
                current_estimate = self._sketch.estimate(evicted.key)
            else:
                break
            current_key = evicted.key
        return result

    def process_stream(self, keys: np.ndarray) -> None:
        """Process an array of unit-count keys in order.

        With a metrics registry installed (:mod:`repro.obs`), the
        call's filter hit/miss/exchange deltas and latency are recorded
        once per call — state transitions and estimates are identical
        either way.
        """
        keys = _key_vector(keys).tolist()
        registry = current_registry()
        if registry is None:
            process = self._process
            for key in keys:
                process(key, 1)
            return
        before = (self.ops.items, self.miss_events, self.ops.exchanges)
        start = time.perf_counter()
        process = self._process
        for key in keys:
            process(key, 1)
        self._record_ingest_metrics(
            registry, before, time.perf_counter() - start
        )

    def _record_ingest_metrics(
        self,
        registry: MetricsRegistry,
        before: tuple[int, int, int],
        elapsed: float,
    ) -> None:
        """Record one ingest call's deltas into the installed registry.

        ``before`` is the (items, miss_events, exchanges) snapshot taken
        at call entry.  Hits and misses partition the ingested items
        (``hits + misses == items``), mirroring Algorithm 1: a tuple is
        either absorbed by the filter or overflows to the sketch.
        """
        items = self.ops.items - before[0]
        misses = self.miss_events - before[1]
        exchanges = self.ops.exchanges - before[2]
        registry.counter("asketch_items_total").inc(items)
        registry.counter("asketch_filter_hits_total").inc(items - misses)
        registry.counter("asketch_filter_misses_total").inc(misses)
        registry.counter("asketch_exchanges_total").inc(exchanges)
        registry.histogram("asketch_chunk_seconds").observe(elapsed)

    def process_batch(
        self, keys: np.ndarray, counts: np.ndarray | None = None
    ) -> None:
        """Vectorised Algorithm 1 over a chunk of (key, count) tuples.

        Semantically a chunk-granularity reordering of the scalar path:

        1. the chunk is pre-aggregated to one (key, total) pair per
           distinct key (first-appearance order) by one sort;
        2. the filter absorbs every monitored key's chunk total in one
           bulk probe (:meth:`Filter.add_many_if_present`), and free
           slots are filled with new keys in first-appearance order —
           identical to the scalar path, which inserts a key's first
           occurrence and aggregates the rest as hits;
        3. every remaining missed key's total goes to the sketch in a
           single weighted batch update, which returns each key's
           post-chunk sketch estimate;
        4. the exchange check runs once per distinct missed key, in
           first-appearance order, against that estimate (the scalar
           loop shared by both paths).

        With single-tuple chunks this is *exactly* the scalar path.  For
        larger chunks the only deviation is exchange timing: a key the
        scalar path would exchange into the filter mid-chunk keeps
        overflowing to the sketch until the chunk ends, and exchange
        decisions see post-chunk estimates and post-chunk filter minima.
        Every decision still compares a one-sided over-estimate against
        the filter minimum, so the one-sided error guarantee and the
        ``new_count``/``old_count`` bookkeeping are preserved (exchanged
        keys enter with ``new_count = old_count = estimate``, evicted
        resident mass is hashed back) — estimates may simply differ from
        the scalar path's by the mass a chunk reorders, bounded by the
        chunk size.

        ``keys`` must be one-dimensional; ``counts`` defaults to
        all-ones (a unit-count stream chunk); negative counts must go
        through :meth:`remove`.  Invalid input raises before any state
        changes.

        With a metrics registry installed (:mod:`repro.obs`), each
        chunk records its filter hit/miss/exchange deltas and one
        latency observation; counters and estimates are bit-identical
        with or without a registry.
        """
        registry = current_registry()
        if registry is None:
            self._process_batch(keys, counts)
            return
        before = (self.ops.items, self.miss_events, self.ops.exchanges)
        start = time.perf_counter()
        try:
            self._process_batch(keys, counts)
        finally:
            self._record_ingest_metrics(
                registry, before, time.perf_counter() - start
            )

    def _process_batch(
        self, keys: np.ndarray, counts: np.ndarray | None
    ) -> None:
        """The uninstrumented :meth:`process_batch` body."""
        keys = _key_vector(keys)
        counts = _count_vector(keys, counts)
        n_items = keys.shape[0]
        if n_items == 0:
            return
        self.ops.items += n_items

        # (1) pre-aggregate: one (key, chunk total) pair per distinct key.
        # One sort groups equal keys into runs with chunk positions
        # ascending inside each run, so a run's first position is the
        # key's first appearance, and a run's length is its occurrence
        # count (and its total, for unit counts).
        perm, sorted_keys = _sort_with_positions(keys)
        run_start = np.empty(n_items, dtype=bool)
        run_start[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=run_start[1:])
        starts = np.flatnonzero(run_start)
        occurrences = np.diff(starts, append=n_items)
        if counts is None:
            self.total_mass += n_items
            totals = occurrences
        else:
            self.total_mass += int(counts.sum())
            totals = np.add.reduceat(counts[perm], starts)
        order = np.argsort(perm[starts])
        uniq = sorted_keys[starts[order]]
        totals = totals[order]

        # (2) one bulk probe; monitored keys aggregate in place.
        filter_ = self._filter
        hit_mask = filter_.add_many_if_present(uniq, totals)
        miss_positions = np.flatnonzero(~hit_mask)

        # (2b) free slots take new keys in first-appearance order.
        filled = 0
        while filled < miss_positions.shape[0] and not filter_.is_full:
            position = int(miss_positions[filled])
            key = int(uniq[position])
            total = int(totals[position])
            if self.overflow_mass:
                # Same rule as the scalar path: after a resize/merge the
                # back stage may hold mass for this key, so free-slot
                # entry carries its estimate as exchange-style history.
                prior = max(0, int(self._sketch.estimate(key)))
                filter_.insert(key, prior + total, prior)
            else:
                filter_.insert(key, total, 0)
            filled += 1
        sketch_positions = miss_positions[filled:]

        # Every occurrence of an overflowing key is a miss event.
        self.miss_events += int(occurrences[order[sketch_positions]].sum())
        if sketch_positions.shape[0] == 0:
            return

        # (3) all missed mass enters the sketch in one weighted batch,
        # which returns every key's post-chunk estimate (the batch twin
        # of the scalar update's return value).
        sketch_keys = uniq[sketch_positions]
        sketch_totals = totals[sketch_positions]
        self.overflow_mass += int(sketch_totals.sum())
        estimates = self._sketch.update_batch_weighted(
            sketch_keys, sketch_totals
        )

        # (4) the exchange check, once per distinct missed key in
        # first-appearance order (order-stable at chunk granularity),
        # driven by those estimates.  The filter minimum is
        # non-decreasing across exchanges (evicted entries are the
        # minimum, inserted ones carry estimates above it), so keys whose
        # estimate does not beat the minimum at step entry can never
        # exchange: the kernel pre-check drops them before the Python
        # loop, and their elided min reads are charged in bulk to keep
        # the operation record identical to the scalar loop.
        threshold = filter_.peek_min_new_count()
        candidates = active_backend().exchange_candidates(
            estimates, threshold
        )
        filter_.charge_min_queries(sketch_keys.shape[0] - candidates.shape[0])
        for position in candidates.tolist():
            self._run_exchanges(
                int(sketch_keys[position]), int(estimates[position])
            )

    # -- Algorithm 2: query processing ----------------------------------

    def query(self, key: int) -> int:
        """Frequency estimate: filter ``new_count``, else sketch estimate."""
        key = _int64_key(key)
        self.ops.items += 1
        new_count = self._filter.get_new_count(key)
        if new_count is not None:
            return new_count
        return self._sketch.estimate(key)

    #: Sketch-interface alias so metrics treat the synopsis uniformly.
    estimate = query

    def query_batch(self, keys) -> np.ndarray:
        """Point-query every key in order (vectorised Algorithm 2).

        One bulk filter probe answers the monitored keys, gathering
        their ``new_count``s at the probed slots; the misses go to the
        sketch in a single :meth:`FrequencySketch.estimate_batch` call.
        Answers come back as one int64 array, identical to per-key
        :meth:`query`, and the operation record is charged once for the
        whole batch (``n`` items, ``n`` filter probes, one batched
        sketch read per miss) instead of re-entering :meth:`query` per
        key.  ``keys`` must be one-dimensional.
        """
        if not isinstance(keys, np.ndarray):
            keys = list(keys)
        keys = _key_vector(keys)
        n_items = keys.shape[0]
        if n_items == 0:
            return np.zeros(0, dtype=np.int64)
        self.ops.items += n_items
        hit_mask, answers = self._filter.lookup_many(keys)
        miss_mask = ~hit_mask
        if miss_mask.any():
            answers[miss_mask] = self._sketch.estimate_batch(keys[miss_mask])
        return answers

    estimate_batch = query_batch

    # -- top-k (§7.2.2) --------------------------------------------------

    def top_k(self, k: int | None = None) -> list[tuple[int, int]]:
        """Top-k frequent items, directly from the filter.

        ``k`` defaults to the filter capacity — the paper's top-k query
        supports ``k`` up to ``|F|`` for strict (insert-only) streams.
        """
        if k is None:
            k = self._filter.capacity
        if k > self._filter.capacity:
            raise ConfigurationError(
                f"top-k limited to the filter capacity "
                f"{self._filter.capacity}, got k={k}"
            )
        return self._filter.top_k(k)

    # -- merging -----------------------------------------------------------

    def _is_pristine(self) -> bool:
        """True when this synopsis is indistinguishable from freshly built.

        No mass, no misses, no op counts, an empty filter, and an
        all-zero sketch table — the precondition for :meth:`merge`'s
        bit-exact identity fast paths.
        """
        if (
            self.total_mass != 0
            or self.overflow_mass != 0
            or self.miss_events != 0
            or self.ops != OpCounters()
        ):
            return False
        if next(iter(self._filter.entries()), None) is not None:
            return False
        return all(
            not array.any()
            for array in self._sketch.state().arrays.values()
        )

    def _adopt(self, other: "StagedSynopsis") -> None:
        """Take over ``other``'s state wholesale (pristine-self merge).

        ``other`` is consumed, per the :meth:`merge` contract — its
        filter and sketch become this instance's by reference.
        """
        self._filter = other._filter
        self.filter_kind = other.filter_kind
        self._sketch = other._sketch
        self.max_exchanges_per_update = other.max_exchanges_per_update
        self.total_mass = other.total_mass
        self.overflow_mass = other.overflow_mass
        self.miss_events = other.miss_events
        self.ops = other.ops

    def merge(self, other: "StagedSynopsis") -> None:
        """Absorb another staged synopsis over the same sketch geometry.

        Merging is two linear steps, each preserving the one-sided
        guarantee:

        1. the underlying sketches are added cell-wise (they must share
           dimensions and hash seeds — the natural setup for SPMD
           kernels that want one combined synopsis);
        2. every item monitored by the other filter re-enters this
           synopsis through the ordinary update path carrying exactly
           its *resident* mass (``new_count - old_count``) — the only
           part of its count not already inside the merged sketch.

        A filter answer is ``new_count``, which only covers the stream
        its own synopsis saw — after a sketch merge, the merged sketch
        can hold additional mass for a filter-resident key (its
        occurrences on the *other* stream), which a stale ``new_count``
        would miss.  Merging therefore flushes and rebuilds:

        1. both filters hash their exact resident masses
           (``new_count - old_count``) into their own sketches, making
           each sketch a complete one-sided summary of its stream;
        2. the sketches are added cell-wise, so the merged estimate is
           one-sided for *every* key over both streams;
        3. the filter is rebuilt over the union of both filters' keys
           with ``new_count = old_count = merged estimate`` — exactly
           the state an exchange would produce — keeping the highest
           estimates when the union exceeds the capacity.

        Heavy hitters re-absorb one round of sketch noise (as they do on
        any exchange); subsequent hits are again counted exactly.  The
        other synopsis's sketch is mutated by step 1 and the instance
        should be discarded.

        **Identity fast paths.**  Merging with a *pristine* synopsis (one
        whose state is indistinguishable from freshly constructed: no
        filter entries, zero masses, all-zero sketch cells) is an
        identity: a pristine ``other`` leaves ``self`` untouched, and a
        pristine ``self`` adopts ``other``'s state wholesale.  Both
        directions are bit-exact — no flush, no filter rebuild — which
        is what lets a disjoint decomposition (each key owned by exactly
        one side, as in shard-per-worker parallel ingest) recombine into
        a result bit-identical to a single sequential ingest.
        """
        self_sketch = self._sketch
        merge_op = getattr(self_sketch, "merge", None)
        if merge_op is None:
            raise ConfigurationError(
                f"{type(self_sketch).__name__} does not support merging"
            )
        if not self_sketch.is_mergeable_with(other.sketch):
            raise ConfigurationError(
                "sketches must share dimensions and hash seeds to merge"
            )
        if other._is_pristine():
            return
        if self._is_pristine():
            self._adopt(other)
            return
        for side in (self, other):
            for entry in side.filter.entries():
                if entry.resident_count > 0:
                    side.sketch.update(entry.key, entry.resident_count)
                    side.overflow_mass += entry.resident_count
        merge_op(other.sketch)

        filter_ = self._filter
        candidates = {entry.key for entry in filter_.entries()}
        candidates.update(entry.key for entry in other.filter.entries())
        estimates = {key: self_sketch.estimate(key) for key in candidates}
        for entry in filter_.entries():
            filter_.set_counts(
                entry.key, estimates[entry.key], estimates[entry.key]
            )
        for key, estimate in sorted(
            estimates.items(), key=lambda pair: pair[1], reverse=True
        ):
            if filter_.get_counts(key) is not None:
                continue
            if not filter_.is_full:
                filter_.insert(key, estimate, estimate)
            elif estimate > filter_.min_new_count():
                filter_.replace_min(key, estimate, estimate)
                self.ops.exchanges += 1
        self.total_mass += other.total_mass
        self.overflow_mass += other.overflow_mass

    def heavy_hitters(self, threshold: int) -> list[tuple[int, int]]:
        """Filter residents whose estimate reaches ``threshold``.

        The heavy-hitter query the paper's applications (load balancing,
        DDoS detection) run on top of frequency estimation: items with
        frequency at least ``threshold``.  Any item that frequent is in
        the filter once the stream is warm (it overtakes the minimum),
        so the filter contents are the candidate set; answers are
        (key, estimate) pairs sorted by estimate, descending.
        """
        if threshold < 1:
            raise ConfigurationError(
                f"threshold must be >= 1, got {threshold}"
            )
        found = [
            (entry.key, entry.new_count)
            for entry in self._filter.entries()
            if entry.new_count >= threshold
        ]
        found.sort(key=lambda pair: pair[1], reverse=True)
        return found

    # -- deletions (Appendix A) -------------------------------------------

    def remove(self, key: int, amount: int = 1) -> None:
        """Negative-count update of magnitude ``amount`` (strict model).

        Follows Appendix A: a filter-resident item first consumes its
        exactly-known resident mass (``new_count - old_count``); only the
        spill beyond it touches the sketch.  No exchange is initiated on
        the deletion path.

        A deletion larger than the key's estimate — the filter's
        ``new_count`` for a resident key, else the back stage's estimate
        of the part that must leave it — raises
        :class:`NegativeCountError` before anything changes.
        """
        amount = _int64_count(amount)
        if amount < 0:
            raise NegativeCountError("remove() expects a positive amount")
        key = _int64_key(key)
        counts = self._filter.get_counts(key)
        if counts is None:
            spill = amount
        else:
            new_count, old_count = counts
            if new_count - amount < 0:
                raise NegativeCountError(
                    f"removing {amount} from key {key} whose estimate is "
                    f"{new_count}"
                )
            spill = max(0, amount - (new_count - old_count))
        if spill:
            estimate = self._sketch.estimate(key)
            if estimate < spill:
                raise NegativeCountError(
                    f"removing {spill} from key {key} whose back-stage "
                    f"estimate is {estimate}"
                )
            self._sketch.update(key, -spill)
        self.ops.items += 1
        self.total_mass -= amount
        if counts is not None:
            self._filter.set_counts(key, new_count - amount, old_count - spill)

    # -- synopsis protocol -------------------------------------------------

    SYNOPSIS_KIND = "staged"

    def state(self) -> SynopsisState:
        """Filter entries, aggregate masses, and the nested backend state.

        Works for *any* filter kind (the filter contributes its entries)
        and any backend that implements the synopsis state protocol —
        backends without it raise a typed
        :class:`~repro.errors.StreamFormatError`.
        """
        sketch_state = synopsis_state_of(self._sketch)
        keys, new_counts, old_counts = self._filter.state_entries()
        arrays = {
            "filter_keys": keys,
            "filter_new": new_counts,
            "filter_old": old_counts,
        }
        arrays.update(prefix_arrays("sketch", sketch_state.arrays))
        return SynopsisState(
            kind=self.SYNOPSIS_KIND,
            params={
                "filter_items": self._filter.capacity,
                "filter_kind": self.filter_kind,
                "max_exchanges_per_update": self.max_exchanges_per_update,
            },
            arrays=arrays,
            extra={
                "total_mass": self.total_mass,
                "overflow_mass": self.overflow_mass,
                "miss_events": self.miss_events,
                "exchanges": self.ops.exchanges,
                "sketch": pack_nested(sketch_state),
            },
        )

    def _restore_state(self, state: SynopsisState) -> None:
        """Shared :meth:`from_state` tail: filter entries and tallies."""
        self._filter.restore_entries(
            state.arrays["filter_keys"],
            state.arrays["filter_new"],
            state.arrays["filter_old"],
        )
        self.total_mass = int(state.extra["total_mass"])
        self.overflow_mass = int(state.extra["overflow_mass"])
        self.miss_events = int(state.extra["miss_events"])
        self.ops.exchanges = int(state.extra["exchanges"])

    @staticmethod
    def _sketch_from_state(state: SynopsisState) -> FrequencySketch:
        """Rebuild the nested back stage recorded by :meth:`state`; a
        back-stage kind that is not registered raises
        :class:`StreamFormatError`, as an unknown top-level kind does in
        :func:`~repro.persistence.load_synopsis`."""
        from repro.synopses.spec import resolve_kind

        sketch_state = unpack_nested(
            state.extra["sketch"], state.arrays, "sketch"
        )
        try:
            cls = resolve_kind(sketch_state.kind)
        except ConfigurationError as exc:
            raise StreamFormatError(
                f"archive names unknown synopsis kind {sketch_state.kind!r}"
            ) from exc
        return cls.from_state(sketch_state)

    # -- operation accounting ---------------------------------------------

    def combined_ops(self) -> OpCounters:
        """Driver + filter + sketch operations, merged."""
        merged = self.ops.snapshot()
        merged.merge(self._filter.ops)
        merged.merge(self._sketch.ops)
        return merged

    def stage_ops(self) -> tuple[OpCounters, OpCounters]:
        """(filter-core, sketch-core) operation split for the pipeline model.

        The filter core carries the per-item loop and all filter work; the
        sketch core carries hashing, cell traffic and exchange bookkeeping.
        """
        stage0 = self._filter.ops.snapshot()
        stage0.items = self.ops.items
        stage1 = self._sketch.ops.snapshot()
        stage1.exchanges = self.ops.exchanges
        return stage0, stage1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}"
            f"(filter={self.filter_kind}x{self._filter.capacity}, "
            f"sketch={self._sketch!r}, bytes={self.size_bytes})"
        )


_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def _key_vector(keys) -> np.ndarray:
    """``keys`` as a one-dimensional int64 array, else a typed error:
    :class:`ConfigurationError` for a shape that is not 1-D or keys
    that break :func:`~repro.hashing.families.key_dtype_problem`'s
    rule."""
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ConfigurationError(
            f"keys must be one-dimensional, got shape {keys.shape}"
        )
    return int64_keys(keys)


def _int64_key(key) -> int:
    """A scalar key as a Python int in the int64 range, else
    :class:`ConfigurationError`."""
    try:
        value = operator.index(key)
    except TypeError:
        raise ConfigurationError(f"keys must be integers, got {key!r}") from None
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise ConfigurationError(f"key {value} is outside the int64 range")
    return value


def _int64_count(amount) -> int:
    """A scalar count as a Python int in the int64 range, else
    :class:`ConfigurationError`: the scalar form of
    :func:`~repro.hashing.families.count_dtype_problem`'s rule.  The
    sign is the callers' own check."""
    try:
        value = operator.index(amount)
    except TypeError:
        raise ConfigurationError(
            f"counts must be integers, got {amount!r}"
        ) from None
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise ConfigurationError(
            f"counts must be integers in the int64 range, got {value}"
        )
    return value


def _count_vector(keys: np.ndarray, counts) -> np.ndarray | None:
    """``counts`` for the key vector ``keys`` as an int64 array (None
    stays None, meaning all-ones), else a typed error: counts that break
    :func:`~repro.hashing.families.count_dtype_problem`'s rule (a cast
    would truncate floats, parse strings or wrap large uint64 values)
    or of a shape that is not ``keys``' raise
    :class:`ConfigurationError`, a negative count
    :class:`NegativeCountError` (deletions go through ``remove()``)."""
    if counts is None:
        return None
    counts = np.asarray(counts)
    problem = count_dtype_problem(counts)
    if problem is not None:
        raise ConfigurationError(problem)
    counts = counts.astype(np.int64, copy=False)
    if counts.shape != keys.shape:
        raise ConfigurationError(
            "keys and counts must have matching shapes, got "
            f"{keys.shape} and {counts.shape}"
        )
    if counts.size and int(counts.min()) < 0:
        raise NegativeCountError(
            "use remove() for deletions (negative updates)"
        )
    return counts


def _sort_with_positions(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable sort of a non-empty key vector: ``(perm, keys[perm])``.

    Equal keys keep their chunk positions ascending.  When the key span
    leaves room, each key is packed with its position into one int64
    word, ``((key - low) << bits) | position``, and the words are
    sorted by value, which is several times faster than an argsort.
    ``bits`` holds every position below ``n``; the packed word stays
    below ``2**63`` exactly when ``max - low < 2**(63 - bits)``.  Chunks
    spanning more fall back to a stable argsort.
    """
    n_items = keys.shape[0]
    bits = max(1, (n_items - 1).bit_length())
    low = int(keys.min())
    if int(keys.max()) - low < 1 << (63 - bits):
        words = np.subtract(keys, low)
        np.left_shift(words, bits, out=words)
        np.bitwise_or(words, np.arange(n_items, dtype=np.int64), out=words)
        words.sort()
        perm = np.bitwise_and(words, (1 << bits) - 1)
        np.right_shift(words, bits, out=words)
        np.add(words, low, out=words)
        return perm, words
    perm = np.argsort(keys, kind="stable")
    return perm, keys[perm]


def _kind_of(front: Filter) -> str:
    """Reverse-map a filter instance to its registry kind name."""
    from repro.core.filters.factory import FILTER_KINDS

    for kind, filter_cls in FILTER_KINDS.items():
        if type(front) is filter_cls:
            return kind
    return "custom"
