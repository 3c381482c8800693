"""Smoke checks over the example scripts.

Importing each example compiles it and executes its module level (cheap:
all work happens under ``main()``); the quickstart is additionally run
end to end since it is the first thing a new user executes.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
ALL_EXAMPLES = sorted(path.stem for path in EXAMPLES_DIR.glob("*.py"))


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(spec.name, None)
    return module


class TestExamples:
    def test_expected_example_set(self):
        assert ALL_EXAMPLES == [
            "checkpoint_and_merge",
            "clickstream_topk",
            "network_heavy_hitters",
            "nlp_cooccurrence",
            "parallel_pipeline",
            "quickstart",
        ]

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_importable_with_main(self, name):
        module = load_example(name)
        assert callable(module.main)

    def test_quickstart_runs_end_to_end(self, capsys):
        module = load_example("quickstart")
        module.main()
        out = capsys.readouterr().out
        assert "top-5 true heavy hitters" in out
        assert "filter selectivity" in out
