"""Shared benchmark configuration and result persistence.

Every ``bench_<artefact>.py`` file times the regeneration of one of the
paper's tables or figures (plus targeted micro-benchmarks of the hot
paths involved) and writes the reproduced rows to
``benchmarks/results/<artefact>.txt`` so the numbers survive the run.
The scale is deliberately small — the full-size reproduction is driven
through ``repro-asketch run <id>`` — but every shape assertion from the
paper is still checked here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import ExperimentConfig, format_result
from repro.experiments.result import ExperimentResult

RESULTS_DIR = Path(__file__).parent / "results"

#: Small scale for sweep benches (13 skew points x several methods).
SWEEP_CONFIG = ExperimentConfig(scale=0.05, runs=2, seed=0)
#: Slightly larger scale for single-point benches.
POINT_CONFIG = ExperimentConfig(scale=0.15, runs=2, seed=0)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def persist(results_dir):
    """Write an ExperimentResult to benchmarks/results/<id>.txt."""

    def _write(result: ExperimentResult) -> ExperimentResult:
        path = results_dir / f"{result.experiment_id}.txt"
        path.write_text(format_result(result) + "\n", encoding="utf-8")
        return result

    return _write
