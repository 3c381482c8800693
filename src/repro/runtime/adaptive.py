"""Online filter re-tuning from live observability metrics.

The paper sizes the ASketch filter *statically* (tens of slots, §7) for
a stationary heavy-hitter set.  When the heavy hitters rotate — a flash
crowd, a DDoS ramp, a topic change — the fixed filter keeps monitoring
yesterday's keys, its hit-rate collapses, and every tuple pays the
sketch path until enough exchanges churn the filter back.  ROADMAP
item 4 closes that loop: watch the live metrics the :mod:`repro.obs`
registry already collects and re-tune the filter while the stream runs.

:class:`AdaptiveController` is a periodic consumer (plug it into
:meth:`StreamEngine.every <repro.runtime.engine.StreamEngine.every>`,
or call it directly between chunks).  Each firing closes an observation
window and reads three signals:

* **filter hit-rate** — from the ``asketch_filter_hits_total`` /
  ``asketch_filter_misses_total`` counter deltas when a registry is
  installed, falling back to the synopsis's own mass tallies
  (``1 - Δoverflow_mass / Δtotal_mass``) so the controller also works
  without observability configured;
* **exchange rate** — exchanges per ingested item in the window, a
  churn signal: heavy exchange traffic means the filter is too small
  for the current head of the distribution even if the hit-rate has
  not fully collapsed yet;
* **shard skew** — the ``shard_skew`` gauge (sharded groups), recorded
  on every decision for the operator.

A window whose hit-rate falls below ``target_hit_rate`` (or whose
exchange rate exceeds ``grow_exchange_rate``) grows the filter by
``grow_factor``; a near-perfect window (``shrink_above``) shrinks it
back.  Resizes go through :meth:`StagedSynopsis.resize_filter
<repro.core.staged.StagedSynopsis.resize_filter>` — one-sided-safe by
construction — applied to every shard of a sharded group.  Every
decision (including holds) emits an ``adaptive_decision`` trace point;
every resize also emits the stage-level ``filter_resize`` point, bumps
``adaptive_resizes_total`` and refreshes the ``adaptive_filter_items``
/ ``adaptive_filter_hit_rate`` gauges.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.staged import StagedSynopsis
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry, current_registry
from repro.obs.trace import current_tracer, trace_point


class AdaptiveController:
    """Re-tune a staged synopsis's filter from windowed live metrics.

    Parameters
    ----------
    synopsis:
        A :class:`~repro.core.staged.StagedSynopsis` (ASketch included)
        or a sharded group exposing ``shards`` of them.
    target_hit_rate:
        Grow when a window's filter hit-rate drops below this
        (default 0.7 — a healthy Zipf head keeps the filter far above).
    grow_factor / shrink_factor:
        Multiplicative resize steps (default 2.0 / 0.5).
    min_filter_items / max_filter_items:
        Clamp bounds for the per-synopsis filter capacity.
    grow_exchange_rate:
        Also grow when exchanges-per-item in the window exceeds this
        churn threshold (default 0.02).
    shrink_above:
        Shrink when the windowed hit-rate exceeds this and the filter
        is above ``min_filter_items`` (default 0.995); set to a value
        > 1 to disable shrinking.
    min_window_items:
        Windows with fewer ingested items are ignored (no decision) —
        rates over a handful of tuples are noise.
    cooldown_windows:
        Number of observation windows to sit out after a resize while
        the rebuilt filter warms up (default 1).
    registry:
        Metrics registry to read/write; defaults to the installed one
        at each firing.
    """

    def __init__(
        self,
        synopsis,
        *,
        target_hit_rate: float = 0.7,
        grow_factor: float = 2.0,
        shrink_factor: float = 0.5,
        min_filter_items: int = 8,
        max_filter_items: int = 4096,
        grow_exchange_rate: float = 0.02,
        shrink_above: float = 0.995,
        min_window_items: int = 256,
        cooldown_windows: int = 1,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if not 0.0 < target_hit_rate <= 1.0:
            raise ConfigurationError(
                f"target_hit_rate must be in (0, 1], got {target_hit_rate}"
            )
        if grow_factor <= 1.0:
            raise ConfigurationError(
                f"grow_factor must be > 1, got {grow_factor}"
            )
        if not 0.0 < shrink_factor < 1.0:
            raise ConfigurationError(
                f"shrink_factor must be in (0, 1), got {shrink_factor}"
            )
        if min_filter_items < 1 or max_filter_items < min_filter_items:
            raise ConfigurationError(
                "need 1 <= min_filter_items <= max_filter_items, got "
                f"{min_filter_items}..{max_filter_items}"
            )
        self.synopsis = synopsis
        self.target_hit_rate = float(target_hit_rate)
        self.grow_factor = float(grow_factor)
        self.shrink_factor = float(shrink_factor)
        self.min_filter_items = int(min_filter_items)
        self.max_filter_items = int(max_filter_items)
        self.grow_exchange_rate = float(grow_exchange_rate)
        self.shrink_above = float(shrink_above)
        self.min_window_items = int(min_window_items)
        self.cooldown_windows = int(cooldown_windows)
        self._registry = registry
        self._cooldown = 0
        self._last = self._read_signals()
        #: (position, action, hit_rate, filter_items) per decision window.
        self.decisions: list[tuple[int, str, float, int]] = []

    # -- targets -----------------------------------------------------------

    def _targets(self) -> Sequence[StagedSynopsis]:
        """The staged synopses whose filters this controller re-tunes."""
        shards = getattr(self.synopsis, "shards", None)
        if shards is not None:
            members = list(shards)
        else:
            members = [self.synopsis]
        for member in members:
            if not isinstance(member, StagedSynopsis):
                raise ConfigurationError(
                    f"{type(member).__name__} has no resizable filter "
                    "stage; the adaptive controller needs StagedSynopsis "
                    "targets"
                )
        return members

    @property
    def filter_items(self) -> int:
        """Current per-synopsis filter capacity (first target's)."""
        return self._targets()[0].filter.capacity

    @property
    def resize_count(self) -> int:
        """Resizes applied so far."""
        return sum(
            1 for _, action, _, _ in self.decisions if action != "hold"
        )

    # -- signal reading ----------------------------------------------------

    def _read_signals(self) -> dict[str, float]:
        """Cumulative (not windowed) hit/miss/exchange/item tallies.

        Prefers the installed registry's counters — the signals named by
        the observability layer — and falls back to the synopsis's own
        mass bookkeeping so the controller works without a registry.
        ``items``/``hits``/``misses`` are mass-weighted in the fallback;
        both are valid hit-rate bases and each is used consistently
        against its own previous snapshot.
        """
        registry = self._registry or current_registry()
        if registry is not None and registry.get("asketch_items_total"):
            return {
                "items": registry.value("asketch_items_total"),
                "misses": registry.value("asketch_filter_misses_total"),
                "exchanges": registry.value("asketch_exchanges_total"),
                "skew": registry.value("shard_skew"),
            }
        targets = self._targets()
        return {
            "items": float(sum(t.total_mass for t in targets)),
            "misses": float(sum(t.overflow_mass for t in targets)),
            "exchanges": float(sum(t.exchange_count for t in targets)),
            "skew": 0.0,
        }

    # -- the decision loop -------------------------------------------------

    def __call__(self, position: int = 0) -> str:
        """Close one observation window and maybe resize.

        ``position`` is the tuples-so-far argument
        :meth:`StreamEngine.every` passes; returns the action taken
        (``"grow"``, ``"shrink"`` or ``"hold"``).
        """
        now = self._read_signals()
        window_items = now["items"] - self._last["items"]
        window_misses = now["misses"] - self._last["misses"]
        window_exchanges = now["exchanges"] - self._last["exchanges"]
        self._last = now
        if window_items < self.min_window_items:
            return "hold"
        hit_rate = 1.0 - window_misses / window_items
        exchange_rate = window_exchanges / window_items
        capacity = self.filter_items

        action = "hold"
        new_items = capacity
        if self._cooldown > 0:
            self._cooldown -= 1
        elif capacity < self.max_filter_items and (
            hit_rate < self.target_hit_rate
            or exchange_rate > self.grow_exchange_rate
        ):
            action = "grow"
            new_items = min(
                self.max_filter_items,
                max(capacity + 1, math.ceil(capacity * self.grow_factor)),
            )
        elif (
            hit_rate > self.shrink_above
            and capacity > self.min_filter_items
        ):
            action = "shrink"
            new_items = max(
                self.min_filter_items,
                min(capacity - 1, math.floor(capacity * self.shrink_factor)),
            )

        spilled = 0
        if action != "hold":
            for target in self._targets():
                spilled += target.resize_filter(new_items)
            self._cooldown = self.cooldown_windows
        self.decisions.append((int(position), action, hit_rate, new_items))

        registry = self._registry or current_registry()
        if registry is not None:
            registry.gauge("adaptive_filter_items").set(new_items)
            registry.gauge("adaptive_filter_hit_rate").set(hit_rate)
            if action != "hold":
                registry.counter("adaptive_resizes_total").inc()
        if current_tracer() is not None:
            trace_point(
                "adaptive_decision",
                action=action,
                hit_rate=round(hit_rate, 6),
                exchange_rate=round(exchange_rate, 6),
                shard_skew=round(now["skew"], 6),
                window_items=int(window_items),
                filter_items=int(new_items),
                spilled=int(spilled),
                position=int(position),
            )
        return action


class ReshardController:
    """Rebalance shard ownership across parallel workers from live skew.

    The parallel-runtime analogue of :class:`AdaptiveController`: where
    that controller re-tunes the *filter* when the hit-rate signal
    degrades, this one re-tunes the *shard→worker assignment* when the
    routed-load signal degrades.  It watches the same per-shard routing
    tallies that feed the ``shard_skew`` gauge, and when one worker's
    observed window load exceeds ``skew_threshold`` times the balanced
    share, it proposes moving that worker's best-fitting shard to the
    least-loaded worker via
    :meth:`~repro.runtime.parallel.ParallelIngestRuntime.reshard` —
    whose quiesce/install/commit protocol keeps the move exact and
    crash-consistent.

    Duck-typed against the runtime (``shard_item_counts``,
    ``shards_of``, ``workers``, ``reshard``) so this
    module never imports :mod:`repro.runtime.parallel`.

    Parameters
    ----------
    runtime:
        The :class:`~repro.runtime.parallel.ParallelIngestRuntime`
        being driven (must be mid-``run``: the controller is invoked by
        the runtime itself between chunks when ``auto_reshard=True``).
    skew_threshold:
        Minimum ratio of the hottest worker's window load over the
        balanced per-worker share before a move is proposed (> 1.0;
        default 1.5).
    min_window_items:
        Observation windows with fewer routed items are ignored — skew
        over a handful of tuples is noise (default 2048).
    cooldown_windows:
        Windows to sit out after a migration while the new assignment's
        load signal stabilises (default 2).
    max_moves:
        Shards moved per firing window (default 1 — small reversible
        steps, like the filter controller's single resize per window).
    """

    def __init__(
        self,
        runtime,
        *,
        skew_threshold: float = 1.5,
        min_window_items: int = 2048,
        cooldown_windows: int = 2,
        max_moves: int = 1,
    ) -> None:
        if skew_threshold <= 1.0:
            raise ConfigurationError(
                f"skew_threshold must exceed 1.0, got {skew_threshold}"
            )
        if min_window_items < 1:
            raise ConfigurationError(
                f"min_window_items must be >= 1, got {min_window_items}"
            )
        if max_moves < 1:
            raise ConfigurationError(
                f"max_moves must be >= 1, got {max_moves}"
            )
        self.runtime = runtime
        self.skew_threshold = float(skew_threshold)
        self.min_window_items = int(min_window_items)
        self.cooldown_windows = int(cooldown_windows)
        self.max_moves = int(max_moves)
        self._cooldown = 0
        self._last = runtime.shard_item_counts()
        #: (position, action, skew, moved, plan) per decision window.
        self.decisions: list[tuple[int, str, float, int, dict]] = []

    @property
    def migration_count(self) -> int:
        """Shards moved by this controller so far."""
        return sum(moved for _, _, _, moved, _ in self.decisions)

    def observe(self, position: int = 0) -> str:
        """Close one observation window and maybe move shards.

        Called by the runtime after every chunk; returns the action
        taken (``"reshard"`` or ``"hold"``).
        """
        counts = self.runtime.shard_item_counts()
        window = counts - self._last
        if int(window.sum()) < self.min_window_items:
            return "hold"
        self._last = counts
        if self._cooldown > 0:
            self._cooldown -= 1
            return "hold"
        plan, skew = self._propose(window)
        action = "hold"
        moved = 0
        if plan:
            moved = self.runtime.reshard(plan)
            if moved:
                action = "reshard"
                self._cooldown = self.cooldown_windows
        self.decisions.append(
            (int(position), action, float(skew), int(moved), dict(plan))
        )
        if current_tracer() is not None:
            trace_point(
                "reshard_decision",
                action=action,
                skew=round(float(skew), 6),
                moved=int(moved),
                plan={str(k): int(v) for k, v in plan.items()},
                window_items=int(window.sum()),
                position=int(position),
            )
        return action

    def _propose(self, window) -> tuple[dict[int, int], float]:
        """Pick up to ``max_moves`` shard moves from hot to cold workers.

        Load is the window's routed items summed per worker under the
        *current* assignment; the proposal moves the hottest worker's
        shard whose transfer lands that worker closest to the balanced
        share, onto the least-loaded worker.  Every worker can give and
        receive: an inlined worker's shards are exact in the parent.
        """
        runtime = self.runtime
        workers = range(runtime.workers)
        if len(workers) < 2:
            return {}, 0.0
        owned = {w: runtime.shards_of(w) for w in workers}
        load = {
            w: int(sum(window[s] for s in owned[w])) for w in workers
        }
        total = sum(load.values())
        if total <= 0:
            return {}, 0.0
        balanced = total / len(workers)
        plan: dict[int, int] = {}
        skew = max(load.values()) / balanced if balanced else 0.0
        for _ in range(self.max_moves):
            hot = max(load, key=lambda w: load[w])
            cold = min(load, key=lambda w: load[w])
            if hot == cold or load[hot] <= balanced * self.skew_threshold:
                break
            if len(owned[hot]) < 2:
                break  # never strip a worker of its last shard
            movable = [s for s in owned[hot] if s not in plan]
            if not movable:
                break
            # the shard whose departure lands the hot worker nearest
            # the balanced share (never the whole load: keep >= 1 shard)
            shard = min(
                movable,
                key=lambda s: abs(load[hot] - int(window[s]) - balanced),
            )
            plan[shard] = cold
            load[hot] -= int(window[shard])
            load[cold] += int(window[shard])
            owned[hot] = [s for s in owned[hot] if s != shard]
            owned[cold] = [*owned[cold], shard]
        return plan, skew
