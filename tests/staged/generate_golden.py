"""Regenerate ``golden_asketch.json`` from the current ``ASketch``.

Run from the repo root::

    PYTHONPATH=src python tests/staged/generate_golden.py

The committed golden file was produced at commit ``0b71a63`` — the last
commit before the staged-synopsis refactor — so the equivalence suite
pins the refactored ``ASketch`` to the exact pre-refactor behaviour.
Only regenerate it for an *intentional* behaviour change, and say so in
the commit message.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from _harness import (  # noqa: E402
    GOLDEN_PATH,
    FILTER_KINDS,
    PATHS,
    KERNELS,
    SKETCH_BACKENDS,
    run_scenario,
    scenario_id,
)


def main() -> int:
    scenarios = {}
    for kind in FILTER_KINDS:
        for backend in SKETCH_BACKENDS:
            for path in PATHS:
                sid = scenario_id(kind, backend, path)
                scenarios[sid] = run_scenario(kind, backend, path)
                print(sid, scenarios[sid]["state_digest"][:12])
    document = {
        "schema": "repro-staged-golden/v1",
        "kernel_backends": [KERNELS],
        "scenarios": scenarios,
    }
    GOLDEN_PATH.write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"{len(scenarios)} scenarios written to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
