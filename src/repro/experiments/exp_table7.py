"""Table 7 (Appendix B.1): average accumulative error of the 10 worst items.

The complement of Figure 16: instead of the average tail error, look at
the ten items with the *highest absolute* error (true minus estimated)
under each synopsis and average those.  The paper finds Count-Min and
ASketch essentially tied at every skew (e.g. 8013 vs 8088 at skew 0.8 on
the 32M stream) — ASketch does not concentrate error in a few victims.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import build_method, sweep_stream
from repro.experiments.config import ExperimentConfig
from repro.experiments.result import ExperimentResult

TOP_ERRORS = 10


def run(config: ExperimentConfig) -> ExperimentResult:
    skews = [round(s, 2) for s in np.arange(0.8, 1.81, 0.2)]
    rows = []
    for skew in skews:
        stream = sweep_stream(config, skew)
        pairs = stream.exact.items()
        keys = np.fromiter((key for key, _ in pairs), dtype=np.int64)
        truths = np.fromiter((count for _, count in pairs), dtype=np.int64)

        count_min = build_method("count-min", config)
        count_min.process_stream(stream.keys)
        cms_top = _mean_top_error(count_min, keys, truths)

        asketch = build_method("asketch", config)
        asketch.process_stream(stream.keys)
        asketch_top = _mean_top_error(asketch, keys, truths)
        rows.append(
            {
                "skew": skew,
                "Count-Min avg top-10 error": cms_top,
                "ASketch avg top-10 error": asketch_top,
            }
        )
    return ExperimentResult(
        experiment_id="table7",
        title=(
            f"Average accumulative error over the {TOP_ERRORS} "
            "highest-error items"
        ),
        columns=list(rows[0].keys()),
        rows=rows,
        notes=[
            "Expected shape: the two columns are nearly equal at every "
            "skew, both shrinking as skew grows (paper: 8013 vs 8088 at "
            "0.8 down to 156 vs 122 at 1.8 on the 32M stream).",
        ],
    )


def _mean_top_error(method, keys: np.ndarray, truths: np.ndarray) -> float:
    estimates = method.estimate_batch(keys)
    errors = np.abs(estimates - truths)
    worst = np.sort(errors)[-TOP_ERRORS:]
    return float(worst.mean())
