"""Core ASketch tests: Algorithm 1/2 semantics and the paper's Example 2."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.asketch import ASketch
from repro.errors import ConfigurationError, NegativeCountError
from repro.hardware.costs import OpCounters
from repro.sketches.base import FrequencySketch
from repro.sketches.count_min import CountMinSketch


class DictSketch(FrequencySketch):
    """Deterministic stand-in sketch: exact counts, no collisions.

    Lets the exchange logic be tested without hash randomness.
    """

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.update_log: list[tuple[int, int]] = []
        self.ops = OpCounters()

    @property
    def size_bytes(self) -> int:
        return 1024

    def update(self, key: int, amount: int = 1) -> int:
        self.counts[key] = self.counts.get(key, 0) + amount
        self.update_log.append((key, amount))
        return self.counts[key]

    def estimate(self, key: int) -> int:
        return self.counts.get(key, 0)


def make_asketch(filter_items=2, **kwargs) -> tuple[ASketch, DictSketch]:
    sketch = DictSketch()
    asketch = ASketch(
        sketch=sketch, filter_items=filter_items,
        filter_kind=kwargs.pop("filter_kind", "relaxed-heap"), **kwargs
    )
    return asketch, sketch


class TestConstruction:
    def test_exactly_one_of_bytes_or_sketch(self):
        with pytest.raises(ConfigurationError):
            ASketch()
        with pytest.raises(ConfigurationError):
            ASketch(total_bytes=1024, sketch=DictSketch())

    def test_filter_space_carved_from_budget(self):
        asketch = ASketch(total_bytes=128 * 1024, filter_items=32)
        plain = CountMinSketch(8, total_bytes=128 * 1024)
        assert asketch.sketch.row_width < plain.row_width
        assert asketch.size_bytes <= 128 * 1024
        # h' = h - s_f / w exactly (12-byte slots, 4-byte cells, w=8).
        expected_width = plain.row_width - (32 * 12) // (8 * 4)
        assert asketch.sketch.row_width == expected_width

    def test_filter_exceeding_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            ASketch(total_bytes=400, filter_items=64)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            ASketch(total_bytes=64 * 1024, sketch_backend="bloom")

    def test_zero_exchanges_rejected(self):
        with pytest.raises(ConfigurationError):
            ASketch(total_bytes=64 * 1024, max_exchanges_per_update=0)

    @pytest.mark.parametrize(
        "backend", ["count-min", "fcm", "count-sketch"]
    )
    def test_all_backends_construct(self, backend):
        asketch = ASketch(total_bytes=64 * 1024, sketch_backend=backend)
        asketch.update(1)
        assert asketch.query(1) == 1


class TestAlgorithm1:
    def test_filter_absorbs_until_full(self):
        asketch, sketch = make_asketch(filter_items=2)
        asketch.update(1)
        asketch.update(2)
        asketch.update(1)
        assert sketch.update_log == []  # nothing reached the sketch
        assert asketch.query(1) == 2
        assert asketch.query(2) == 1

    def test_overflow_goes_to_sketch(self):
        asketch, sketch = make_asketch(filter_items=2)
        for key in [1, 2]:
            for _ in range(5):
                asketch.update(key)
        asketch.update(3)  # filter full; 3 -> sketch (count 1 < min 5)
        assert sketch.update_log == [(3, 1)]
        assert asketch.exchange_count == 0

    def test_exchange_on_overtake(self):
        asketch, sketch = make_asketch(filter_items=2)
        asketch.update(1)   # filter: 1 -> (1, 0)
        asketch.update(2)   # filter: 2 -> (1, 0)
        asketch.update(3)   # sketch: 3 -> 1; 1 > min? not strictly
        assert asketch.exchange_count == 0
        asketch.update(3)   # sketch: 3 -> 2 > min 1 -> exchange
        assert asketch.exchange_count == 1
        # 3 now monitored with new == old == 2 (no exact mass yet).
        assert asketch.filter.get_counts(3) == (2, 2)
        # The evicted item had new == 1, old == 0 -> 1 hashed to sketch.
        assert (1, 1) in sketch.update_log or (2, 1) in sketch.update_log

    def test_evicted_zero_delta_not_rehashed(self):
        asketch, sketch = make_asketch(filter_items=1)
        asketch.update(1)          # filter: (1, 0)
        asketch.update(2)          # sketch: 2 -> 1, no exchange (1 == min)
        asketch.update(2)          # sketch: 2 -> 2 > 1 -> exchange
        assert asketch.filter.get_counts(2) == (2, 2)
        log_before = list(sketch.update_log)
        # evicted key 1 had delta 1 > 0, so it was hashed once.
        assert log_before.count((1, 1)) == 1
        asketch.update(1)          # sketch: 1 -> 2; 2 == min 2, no exchange
        asketch.update(1)          # sketch: 1 -> 3 > 2 -> exchange back
        assert asketch.filter.get_counts(1) == (3, 3)
        # Key 2's delta was 0 (new == old == 2): nothing hashed on evict.
        assert (2, 0) not in sketch.update_log
        assert sum(amount for key, amount in sketch.update_log if key == 2) == 2

    def test_at_most_one_exchange_per_update(self):
        asketch, _ = make_asketch(filter_items=2)
        keys = np.array([1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5])
        before_each = []
        for key in keys.tolist():
            start = asketch.exchange_count
            asketch.update(key)
            before_each.append(asketch.exchange_count - start)
        assert max(before_each) <= 1

    def test_update_returns_estimate(self):
        asketch, _ = make_asketch(filter_items=2)
        assert asketch.update(1) == 1
        assert asketch.update(1) == 2
        asketch.update(2)
        assert asketch.update(3) == 1  # went to sketch

    def test_weighted_updates(self):
        asketch, _ = make_asketch(filter_items=2)
        asketch.update(1, 10)
        assert asketch.query(1) == 10
        assert asketch.total_mass == 10

    def test_negative_amount_rejected_in_update(self):
        asketch, _ = make_asketch()
        with pytest.raises(NegativeCountError):
            asketch.update(1, -1)


class TestPaperExample2:
    """The worked example of Figure 4, transposed onto the DictSketch.

    Filter holds A=(new 8, old 2) and B=(new 10, old 1); C arrives with
    count 1 but the sketch already holds 8 for C, so the update estimates
    C at 9 > min(8) and triggers the exchange: C enters the filter with
    new = old = 9, nothing is removed from the sketch, and A's resident
    mass 8 - 2 = 6 is hashed into the sketch.
    """

    def test_example2_exchange(self):
        asketch, sketch = make_asketch(filter_items=2)
        # Arrange the initial state directly.
        asketch.filter.insert(ord("A"), 8, 2)
        asketch.filter.insert(ord("B"), 10, 1)
        sketch.counts[ord("C")] = 8
        sketch.counts[ord("A")] = 2  # A's old_count lives in the sketch

        asketch.update(ord("C"), 1)

        # C was moved into the filter with new == old == 9.
        assert asketch.filter.get_counts(ord("C")) == (9, 9)
        # B is untouched.
        assert asketch.filter.get_counts(ord("B")) == (10, 1)
        # A left; only its resident mass 6 was hashed into the sketch.
        assert asketch.filter.get_counts(ord("A")) is None
        assert sketch.counts[ord("A")] == 8  # 2 + 6
        # No second exchange despite A's sketch count 8 < B's 10... the
        # paper stops after one exchange even though A(8) < min(9, 10).
        assert asketch.exchange_count == 1


class TestAlgorithm2:
    def test_query_prefers_filter(self):
        asketch, sketch = make_asketch(filter_items=2)
        asketch.update(1)
        sketch.counts[1] = 999  # stale sketch value must be ignored
        assert asketch.query(1) == 1

    def test_query_falls_back_to_sketch(self):
        asketch, sketch = make_asketch(filter_items=1)
        asketch.update(1)
        sketch.counts[42] = 7
        assert asketch.query(42) == 7

    def test_query_batch_matches_scalar(self, skewed_stream):
        asketch = ASketch(total_bytes=64 * 1024, filter_items=16, seed=3)
        asketch.process_stream(skewed_stream.keys[:20000])
        probe = skewed_stream.keys[:50]
        assert asketch.query_batch(probe).tolist() == [
            asketch.query(int(k)) for k in probe
        ]


class TestSelectivityAndStats:
    def test_selectivity_zero_when_filter_holds_all(self):
        asketch, _ = make_asketch(filter_items=8)
        for key in [1, 2, 3] * 10:
            asketch.update(key)
        assert asketch.achieved_selectivity == 0.0
        assert asketch.miss_events == 0

    def test_selectivity_counts_overflow_mass_only(self):
        asketch, _ = make_asketch(filter_items=1)
        asketch.update(1)  # filter
        asketch.update(2)  # sketch (mass 1)
        asketch.update(1)  # filter hit
        assert asketch.total_mass == 3
        assert asketch.overflow_mass == 1
        assert asketch.achieved_selectivity == pytest.approx(1 / 3)

    def test_stage_ops_split(self, skewed_stream):
        asketch = ASketch(total_bytes=64 * 1024, filter_items=16, seed=1)
        asketch.process_stream(skewed_stream.keys[:10000])
        stage0, stage1 = asketch.stage_ops()
        assert stage0.items == 10000
        assert stage0.filter_probes >= 10000
        assert stage0.hash_evals == 0
        assert stage1.hash_evals > 0
        assert stage1.exchanges == asketch.exchange_count

    def test_combined_ops_merges_all(self):
        asketch = ASketch(total_bytes=64 * 1024, filter_items=8)
        asketch.process_stream(np.arange(1000, dtype=np.int64))
        combined = asketch.combined_ops()
        assert combined.items == 1000
        assert combined.filter_probes >= 1000
        assert combined.hash_evals > 0


class TestTopK:
    def test_top_k_defaults_to_filter_capacity(self, skewed_stream):
        asketch = ASketch(total_bytes=128 * 1024, filter_items=32, seed=2)
        asketch.process_stream(skewed_stream.keys)
        assert len(asketch.top_k()) == 32

    def test_top_k_beyond_capacity_rejected(self):
        asketch = ASketch(total_bytes=64 * 1024, filter_items=8)
        with pytest.raises(ConfigurationError):
            asketch.top_k(9)

    def test_top_k_recovers_true_heavy_hitters(self, skewed_stream):
        asketch = ASketch(total_bytes=128 * 1024, filter_items=32, seed=2)
        asketch.process_stream(skewed_stream.keys)
        reported = {key for key, _ in asketch.top_k(10)}
        truth = {key for key, _ in skewed_stream.exact.top_k(10)}
        assert len(reported & truth) >= 9  # paper: precision 1.0 at skew 1.5

    def test_top_k_counts_descending(self, skewed_stream):
        asketch = ASketch(total_bytes=128 * 1024, filter_items=32, seed=2)
        asketch.process_stream(skewed_stream.keys)
        counts = [count for _, count in asketch.top_k(32)]
        assert counts == sorted(counts, reverse=True)


class TestOneSidedGuarantee:
    @pytest.mark.parametrize(
        "filter_kind",
        ["vector", "strict-heap", "relaxed-heap", "stream-summary"],
    )
    def test_never_underestimates(self, skewed_stream, filter_kind):
        asketch = ASketch(
            total_bytes=32 * 1024,
            filter_items=16,
            filter_kind=filter_kind,
            seed=4,
        )
        asketch.process_stream(skewed_stream.keys[:30000])
        exact = skewed_stream.prefix(30000).exact
        for key, true in exact.items():
            assert asketch.query(key) >= true, (filter_kind, key)

    def test_filter_residents_have_exact_resident_mass(self, skewed_stream):
        """new_count - old_count equals the hits received while resident —
        by construction; verified against a replayed trace."""
        asketch = ASketch(total_bytes=64 * 1024, filter_items=8, seed=5)
        asketch.process_stream(skewed_stream.keys[:5000])
        exact = skewed_stream.prefix(5000).exact
        for entry in asketch.filter.entries():
            assert entry.new_count >= exact.count_of(entry.key)


class TestMultiExchangeAblation:
    def test_cascading_exchanges_allowed_when_enabled(self):
        asketch, _ = make_asketch(filter_items=2, max_exchanges_per_update=4)
        # Prime the sketch so multiple filter items can be overtaken.
        keys = [1, 2] + [3] * 5 + [4] * 5 + [5] * 5
        for key in keys:
            asketch.update(key)
        assert asketch.exchange_count >= 1

    def test_single_exchange_is_default(self):
        asketch, _ = make_asketch()
        assert asketch.max_exchanges_per_update == 1
