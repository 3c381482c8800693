"""Tests for the misclassification detector (Table 3 / Figure 6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.asketch import ASketch
from repro.counters.exact import ExactCounter
from repro.errors import ConfigurationError
from repro.metrics.misclassification import find_misclassified
from repro.sketches.count_min import CountMinSketch


class FixedEstimator:
    """Test double returning preset estimates."""

    def __init__(self, estimates: dict[int, int]) -> None:
        self._estimates = estimates

    def estimate_batch(self, keys) -> np.ndarray:
        return np.array(
            [self._estimates.get(int(k), 0) for k in keys], dtype=np.int64
        )


def build_exact(counts: dict[int, int]) -> ExactCounter:
    exact = ExactCounter()
    for key, count in counts.items():
        exact.update(key, count)
    return exact


class TestDetection:
    def test_detects_inflated_light_item(self):
        counts = {k: 1000 - k for k in range(50)}  # heavy ranks 0..49
        counts[999] = 2  # light item
        exact = build_exact(counts)
        estimator = FixedEstimator({**counts, 999: 5000})
        found = find_misclassified(estimator, exact, heavy_k=10)
        assert [m.key for m in found] == [999]
        assert found[0].relative_error > 1000

    def test_accurate_estimator_clean(self):
        counts = {k: 1000 - k for k in range(50)}
        counts[999] = 2
        exact = build_exact(counts)
        estimator = FixedEstimator(counts)
        assert find_misclassified(estimator, exact, heavy_k=10) == []

    def test_heavy_item_overestimate_not_misclassification(self):
        """Only *light* items crossing the heavy threshold count."""
        counts = {k: 1000 - k for k in range(50)}
        exact = build_exact(counts)
        estimates = dict(counts)
        estimates[25] = 10_000  # a genuinely mid-heavy item inflated
        estimator = FixedEstimator(estimates)
        assert find_misclassified(estimator, exact, heavy_k=10) == []

    def test_parameters_validated(self):
        exact = build_exact({1: 5})
        estimator = FixedEstimator({1: 5})
        with pytest.raises(ConfigurationError):
            find_misclassified(estimator, exact, heavy_k=0)
        with pytest.raises(ConfigurationError):
            find_misclassified(estimator, exact, tail_fraction=2.0)
        with pytest.raises(ConfigurationError):
            find_misclassified(estimator, exact, heavy_k=5)  # < 5 items


class TestOnRealSynopses:
    def test_small_cms_misclassifies_asketch_does_not(self, skewed_stream):
        """The paper's Table 3 contrast on a scaled stream."""
        budget = 4 * 1024  # deliberately tiny to force collisions
        count_min = CountMinSketch(8, total_bytes=budget, seed=1)
        count_min.update_batch(skewed_stream.keys)
        cms_bad = find_misclassified(count_min, skewed_stream.exact)
        asketch = ASketch(total_bytes=budget, filter_items=32, seed=1)
        asketch.process_stream(skewed_stream.keys)
        asketch_bad = find_misclassified(asketch, skewed_stream.exact)
        assert len(asketch_bad) <= len(cms_bad)
        assert len(asketch_bad) == 0
