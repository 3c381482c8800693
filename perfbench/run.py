"""End-to-end and per-layer benchmark of the ASketch reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload skewed-ingest --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` makes a
separate traced run and prints every per-layer metric instead (see
``perfbench/layers.py``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries the run context (commit, CPUs,
kernel backend, versions, checkpoint filesystem, seed) and the tail
percentile with its chunk count.  Both are also written, with the spans
of a traced run, under ``.perfbench_out/`` in the repository root.

The program is imported from ``src/`` of the same checkout, so the
benchmark exits non-zero without a result when that source is absent.
This module's top level stays import-light: the fleet's spawned workers
re-import it as their ``__main__``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def _git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    try:
        return (root / ".git" / name).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        packed = (root / ".git" / "packed-refs").read_text(encoding="utf-8")
    except OSError:
        return "unknown"
    for line in packed.splitlines():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def _filesystem_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (Linux mountinfo)."""
    target = str(path.resolve())
    best, best_type = "", "unknown"
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return best_type
    for line in lines:
        left, _, right = line.partition(" - ")
        fields = left.split()
        if len(fields) < 5 or not right:
            continue
        mount = fields[4]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, best_type = mount, right.split()[0]
    return best_type


def run_context(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy as np
    from repro.kernels import active_backend

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": _git_sha(ROOT),
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "kernel_backend": active_backend().name,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "checkpoint_fs": _filesystem_type(OUT_DIR),
    }


def _stop_resource_tracker() -> None:
    """Stop (and reap) the multiprocessing resource tracker, the one
    helper process spawn-based rings leave running until exit."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))

    from perfbench.workloads import WORKLOADS, run

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    try:
        result = run(workload, args.seed, args.seconds, bool(args.trace),
                     OUT_DIR)
    finally:
        _stop_resource_tracker()

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if result.recorders:
        spans_path = OUT_DIR / f"{stem}-spans.jsonl"
        spans_path.unlink(missing_ok=True)
        for label, recorder in result.recorders:
            recorder.write_jsonl(spans_path, label)
    context = run_context(workload.name, args.seed, args.seconds,
                          bool(args.trace))
    info = {"context": context, "details": result.details,
            "violations": result.gate.violations}
    summary = {
        "correct": result.gate.correct,
        "attempted": result.gate.attempted,
        "failed": result.gate.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({**info, **summary}, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(info))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
