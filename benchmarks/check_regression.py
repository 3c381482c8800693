"""CI perf-regression gate over the ``BENCH_core_ops`` trajectory.

Compares a freshly recorded trajectory document (see
``record_trajectory.py``) against a committed baseline and fails when
any shared bench's throughput dropped by more than the tolerance::

    python benchmarks/check_regression.py \
        --baseline BENCH_core_ops.tiny.json --current bench-current.json

Rules of engagement:

* Only bench ids present in **both** documents are compared — adding a
  bench never fails the gate, silently *dropping* one does, unless the
  baseline row is marked ``optional: true`` (environment-dependent
  benches like the numba leg, which legitimately vanish on runners
  without the dependency).
* Multi-worker benches (``workers > 1``) are skipped when the two
  documents were recorded on machines with different ``cpu_count``:
  a 2-worker number from a 4-cpu box and one from a 1-cpu box measure
  different things, and comparing them would make the gate flap with
  runner hardware.  They are also skipped when either run was
  oversubscribed — flagged explicitly via ``oversubscribed: true`` in
  the row, or inferred from ``workers > cpu_count`` for older
  documents — such a number is dominated by process start-up overhead and
  swings wildly run to run.
* The tolerance is a fraction of baseline throughput (default 0.25:
  fail when current < 75% of baseline).  ``REPRO_PERF_GATE_TOLERANCE``
  overrides it without a workflow edit, for riding out a known-noisy
  runner generation.

Exit codes: 0 clean, 1 regression beyond tolerance, 2 usage/schema
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SCHEMA = "repro-bench-trajectory/v1"
DEFAULT_TOLERANCE = 0.25


def _load(path: str) -> dict:
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}") from exc
    if document.get("schema") != SCHEMA:
        print(
            f"error: {path} has schema {document.get('schema')!r}, "
            f"expected {SCHEMA!r}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if not isinstance(document.get("benches"), dict):
        print(f"error: {path} has no 'benches' mapping", file=sys.stderr)
        raise SystemExit(2)
    return document


def _tolerance(cli_value: float | None) -> float:
    env = os.environ.get("REPRO_PERF_GATE_TOLERANCE", "")
    if env:
        try:
            return float(env)
        except ValueError:
            print(
                f"error: REPRO_PERF_GATE_TOLERANCE={env!r} is not a float",
                file=sys.stderr,
            )
            raise SystemExit(2) from None
    return DEFAULT_TOLERANCE if cli_value is None else cli_value


def compare(
    baseline: dict, current: dict, tolerance: float
) -> tuple[list[str], list[str]]:
    """Return (report lines, regression lines) for the two documents."""
    lines: list[str] = []
    regressions: list[str] = []
    base_benches = baseline["benches"]
    cur_benches = current["benches"]
    shared = sorted(set(base_benches) & set(cur_benches))
    if not shared:
        print("error: no bench ids in common", file=sys.stderr)
        raise SystemExit(2)

    for bench_id in shared:
        base = base_benches[bench_id]
        cur = cur_benches[bench_id]
        base_rate = float(base.get("items_per_s", 0.0))
        cur_rate = float(cur.get("items_per_s", 0.0))
        workers = int(cur.get("workers", base.get("workers", 1)))
        if workers > 1 and base.get("cpu_count") != cur.get("cpu_count"):
            lines.append(
                f"  {bench_id:20s} SKIP (cpu_count "
                f"{base.get('cpu_count')} -> {cur.get('cpu_count')}, "
                f"{workers} workers)"
            )
            continue
        oversubscribed = any(
            bool(doc.get("oversubscribed"))
            or (workers > 1 and workers > int(doc.get("cpu_count") or 0))
            for doc in (base, cur)
        )
        if oversubscribed:
            lines.append(
                f"  {bench_id:20s} SKIP ({workers} workers oversubscribed "
                f"on {cur.get('cpu_count')} cpus)"
            )
            continue
        if base_rate <= 0:
            lines.append(f"  {bench_id:20s} SKIP (no baseline rate)")
            continue
        ratio = cur_rate / base_rate
        verdict = "ok" if ratio >= 1.0 - tolerance else "REGRESSED"
        lines.append(
            f"  {bench_id:20s} {base_rate:>12,.0f} -> {cur_rate:>12,.0f} "
            f"items/s  ({ratio:6.1%}) {verdict}"
        )
        if verdict == "REGRESSED":
            regressions.append(
                f"{bench_id}: {cur_rate:,.0f} items/s is "
                f"{1.0 - ratio:.1%} below baseline {base_rate:,.0f} "
                f"(tolerance {tolerance:.0%})"
            )

    dropped = sorted(set(base_benches) - set(cur_benches))
    for bench_id in dropped:
        if base_benches[bench_id].get("optional"):
            # Environment-dependent benches (e.g. the numba leg) vanish
            # legitimately when the current runner lacks the dependency.
            lines.append(
                f"  {bench_id:20s} SKIP (optional bench absent from "
                "current run)"
            )
            continue
        regressions.append(
            f"{bench_id}: present in baseline but missing from current run"
        )
        lines.append(f"  {bench_id:20s} MISSING from current run")
    return lines, regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help=(
            "max fractional throughput drop before failing "
            f"(default {DEFAULT_TOLERANCE}; REPRO_PERF_GATE_TOLERANCE "
            "overrides)"
        ),
    )
    args = parser.parse_args(argv)
    tolerance = _tolerance(args.tolerance)
    if not 0.0 < tolerance < 1.0:
        print(
            f"error: tolerance {tolerance} outside (0, 1)", file=sys.stderr
        )
        return 2

    baseline = _load(args.baseline)
    current = _load(args.current)
    print(
        f"perf gate: {args.current} vs {args.baseline} "
        f"(tolerance {tolerance:.0%})"
    )
    lines, regressions = compare(baseline, current, tolerance)
    print("\n".join(lines))
    if regressions:
        print("\nperf gate FAILED:", file=sys.stderr)
        for regression in regressions:
            print(f"  {regression}", file=sys.stderr)
        return 1
    print("perf gate clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
