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

