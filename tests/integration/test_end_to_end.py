"""End-to-end integration tests across the whole stack."""

from __future__ import annotations

import pytest

from repro.core.asketch import ASketch
from repro.metrics.error import observed_error_percent
from repro.queries.workload import frequency_weighted_queries
from repro.sketches.count_min import CountMinSketch
from repro.streams.ip_trace import ip_trace_stream
from repro.streams.kosarak import kosarak_stream
from repro.streams.zipf import zipf_stream


class TestHeadlineClaims:
    """The paper's abstract-level claims on a scaled workload."""

    @pytest.fixture(scope="class")
    def setting(self):
        stream = zipf_stream(150_000, 37_500, 1.5, seed=21)
        queries = frequency_weighted_queries(stream, 10_000, seed=22)
        truths = [stream.exact.count_of(int(k)) for k in queries]
        return stream, queries, truths

    def test_asketch_more_accurate_than_count_min(self, setting):
        stream, queries, truths = setting
        budget = 128 * 1024
        count_min = CountMinSketch(8, total_bytes=budget, seed=1)
        count_min.update_batch(stream.keys)
        asketch = ASketch(total_bytes=budget, filter_items=32, seed=1)
        asketch.process_stream(stream.keys)
        cms_error = observed_error_percent(
            count_min.estimate_batch(queries), truths
        )
        asketch_error = observed_error_percent(
            asketch.query_batch(queries), truths
        )
        assert asketch_error < cms_error

    def test_heavy_hitter_estimates_exact(self, setting):
        """Filter residents are counted exactly once warm (the paper's
        IP-trace anecdote: ASketch reports the max item exactly)."""
        stream, _, _ = setting
        asketch = ASketch(total_bytes=128 * 1024, filter_items=32, seed=1)
        asketch.process_stream(stream.keys)
        matches = 0
        for key, true in stream.true_top_k(5):
            if asketch.query(key) == true:
                matches += 1
        assert matches >= 4

    def test_same_space_budget(self, setting):
        budget = 128 * 1024
        asketch = ASketch(total_bytes=budget, filter_items=32)
        count_min = CountMinSketch(8, total_bytes=budget)
        assert asketch.size_bytes <= count_min.size_bytes
        assert asketch.size_bytes >= count_min.size_bytes - 8 * 4


class TestBackendGenerality:
    """Figure 8's claim: the filter helps any underlying sketch."""

    @pytest.mark.parametrize("backend", ["count-min", "fcm"])
    def test_filter_reduces_error(self, backend, skewed_stream):
        from repro.sketches.fcm import FrequencyAwareCountMin

        budget = 32 * 1024
        if backend == "count-min":
            bare = CountMinSketch(8, total_bytes=budget, seed=5)
        else:
            bare = FrequencyAwareCountMin(
                8, total_bytes=budget, use_mg_counter=False, seed=5
            )
        for key in skewed_stream.keys.tolist():
            bare.update(key)
        augmented = ASketch(
            total_bytes=budget, filter_items=32,
            sketch_backend=backend, seed=5,
        )
        augmented.process_stream(skewed_stream.keys)
        queries = frequency_weighted_queries(skewed_stream, 5000, seed=6)
        truths = [skewed_stream.exact.count_of(int(k)) for k in queries]
        bare_error = observed_error_percent(
            bare.estimate_batch(queries), truths
        )
        augmented_error = observed_error_percent(
            augmented.query_batch(queries), truths
        )
        assert augmented_error <= bare_error


class TestRealDataSurrogates:
    def test_ip_trace_flow(self):
        stream = ip_trace_stream(stream_size=80_000, n_distinct=2_500, seed=1)
        asketch = ASketch(total_bytes=64 * 1024, filter_items=32, seed=2)
        asketch.process_stream(stream.keys)
        top = asketch.top_k(10)
        truth = {key for key, _ in stream.true_top_k(10)}
        assert len({key for key, _ in top} & truth) >= 7

    def test_kosarak_flow(self):
        stream = kosarak_stream(stream_size=80_000, seed=3)
        asketch = ASketch(total_bytes=64 * 1024, filter_items=32, seed=4)
        asketch.process_stream(stream.keys)
        for key, true in stream.true_top_k(3):
            estimate = asketch.query(key)
            assert estimate >= true
            assert estimate <= true * 1.05 + 10


class TestChunkedIngestion:
    def test_chunked_equals_whole(self, skewed_stream):
        whole = ASketch(total_bytes=64 * 1024, filter_items=16, seed=7)
        whole.process_stream(skewed_stream.keys)
        chunked = ASketch(total_bytes=64 * 1024, filter_items=16, seed=7)
        for chunk in skewed_stream.chunks(4096):
            chunked.process_stream(chunk)
        probe = skewed_stream.keys[:200]
        assert (
            whole.query_batch(probe).tolist() == chunked.query_batch(probe).tolist()
        )
        assert whole.exchange_count == chunked.exchange_count


class TestScaleStability:
    def test_error_ratio_stable_across_scales(self):
        """The ASketch/CMS error ratio ordering survives rescaling —
        the justification for DESIGN.md substitution 6."""
        ratios = []
        for size, distinct in [(40_000, 10_000), (160_000, 40_000)]:
            stream = zipf_stream(size, distinct, 1.4, seed=9)
            queries = frequency_weighted_queries(stream, 5000, seed=10)
            truths = [stream.exact.count_of(int(k)) for k in queries]
            count_min = CountMinSketch(8, total_bytes=64 * 1024, seed=3)
            count_min.update_batch(stream.keys)
            asketch = ASketch(total_bytes=64 * 1024, filter_items=32, seed=3)
            asketch.process_stream(stream.keys)
            cms_error = observed_error_percent(
                count_min.estimate_batch(queries), truths
            )
            asketch_error = observed_error_percent(
                asketch.query_batch(queries), truths
            )
            ratios.append((cms_error + 1e-12) / (asketch_error + 1e-12))
        for ratio in ratios:
            assert ratio >= 1.0
