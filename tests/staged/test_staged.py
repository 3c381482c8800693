"""The staged-synopsis composition layer: stages, policies, resizing."""

import numpy as np
import pytest

from repro.core.asketch import ASketch
from repro.core.filters import make_filter
from repro.core.staged import ClassicExchange, ExchangePolicy, StagedSynopsis
from repro.errors import ConfigurationError
from repro.obs.trace import RecordingTraceSink, install_tracer, uninstall_tracer
from repro.sketches.count_min import CountMinSketch
from repro.streams.zipf import zipf_stream

STREAM = zipf_stream(20_000, 4_000, 1.3, seed=23)


def _true_counts():
    keys, counts = np.unique(STREAM.keys, return_counts=True)
    return dict(zip(keys.tolist(), counts.tolist()))


class TestComposition:
    def test_direct_composition_matches_asketch(self):
        """Hand-assembled stages behave exactly like the ASketch facade."""
        staged = StagedSynopsis(
            make_filter("relaxed-heap", 16),
            CountMinSketch(num_hashes=8, total_bytes=8 * 1024, seed=3),
            ClassicExchange(1),
        )
        asketch = ASketch(
            sketch=CountMinSketch(num_hashes=8, total_bytes=8 * 1024, seed=3),
            filter_items=16,
        )
        staged.process_stream(STREAM.keys)
        asketch.process_stream(STREAM.keys)
        probes = STREAM.keys[:500]
        assert staged.query_batch(probes) == asketch.query_batch(probes)
        assert staged.exchange_count == asketch.exchange_count
        assert staged.combined_ops() == asketch.combined_ops()

    def test_filter_kind_inferred_from_front_stage(self):
        staged = StagedSynopsis(
            make_filter("vector", 8),
            CountMinSketch(num_hashes=4, total_bytes=4 * 1024),
        )
        assert staged.filter_kind == "vector"

    def test_default_policy_is_one_exchange(self):
        staged = StagedSynopsis(
            make_filter("relaxed-heap", 8),
            CountMinSketch(num_hashes=4, total_bytes=4 * 1024),
        )
        assert isinstance(staged.exchange_policy, ClassicExchange)
        assert staged.max_exchanges_per_update == 1

    def test_policy_knob_visible_through_property(self):
        staged = StagedSynopsis(
            make_filter("relaxed-heap", 8),
            CountMinSketch(num_hashes=4, total_bytes=4 * 1024),
            ClassicExchange(3),
        )
        assert staged.max_exchanges_per_update == 3
        staged.max_exchanges_per_update = 2
        assert staged.exchange_policy.max_exchanges_per_update == 2

    def test_classic_exchange_validates_budget(self):
        with pytest.raises(ConfigurationError):
            ClassicExchange(0)

    def test_back_stage_must_be_a_frequency_sketch(self):
        """A back stage without the FrequencySketch contract (here the
        hierarchical sketch, whose update returns nothing) is refused at
        construction, not at its first overflow."""
        from repro.sketches.hierarchical import HierarchicalCountMin

        with pytest.raises(ConfigurationError, match="FrequencySketch"):
            StagedSynopsis(
                make_filter("relaxed-heap", 4),
                HierarchicalCountMin(10, total_bytes=16 * 1024),
            )
        with pytest.raises(ConfigurationError, match="FrequencySketch"):
            ASketch(
                sketch=HierarchicalCountMin(10, total_bytes=16 * 1024),
                filter_items=4,
            )

    def test_asketch_is_a_staged_synopsis(self):
        assert issubclass(ASketch, StagedSynopsis)

    def test_custom_policy_can_disable_exchanges(self):
        class NeverExchange(ExchangePolicy):
            def run_exchanges(self, staged, key, current_estimate):
                return current_estimate

            def batch_candidates(self, staged, estimates, threshold):
                staged.filter.charge_min_queries(estimates.shape[0])
                return np.empty(0, dtype=np.int64)

        staged = StagedSynopsis(
            make_filter("relaxed-heap", 8),
            CountMinSketch(num_hashes=4, total_bytes=4 * 1024),
            NeverExchange(),
        )
        staged.process_stream(STREAM.keys)
        assert staged.exchange_count == 0
        # Still one-sided: filterless heavy keys fall through to CM.
        true = _true_counts()
        for key in list(true)[:200]:
            assert staged.query(key) >= true[key]


class TestResizeFilter:
    def _warm(self, items=32):
        staged = ASketch(
            total_bytes=16 * 1024, filter_items=items, seed=5
        )
        staged.process_stream(STREAM.keys)
        return staged

    def test_grow_keeps_entries_and_adds_slots(self):
        staged = self._warm(16)
        before = dict(staged.top_k())
        spilled = staged.resize_filter(64)
        assert spilled == 0
        assert staged.filter.capacity == 64
        assert dict(staged.top_k(16)) == before

    def test_shrink_spills_and_stays_one_sided(self):
        staged = self._warm(64)
        mass_before = staged.total_mass
        spilled = staged.resize_filter(8)
        assert spilled > 0
        assert staged.filter.capacity == 8
        assert staged.total_mass == mass_before
        true = _true_counts()
        for key, count in list(true.items())[:300]:
            assert staged.query(key) >= count

    def test_shrink_keeps_largest_entries(self):
        staged = self._warm(64)
        top8 = [key for key, _ in staged.top_k(8)]
        staged.resize_filter(8)
        kept = {key for key, _ in staged.top_k(8)}
        assert kept == set(top8)

    def test_same_size_is_a_noop(self):
        staged = self._warm(16)
        digest_before = staged.state()
        assert staged.resize_filter(16) == 0
        assert staged.state().equals(digest_before)

    def test_ops_record_survives_resize(self):
        staged = self._warm(16)
        probes_before = staged.combined_ops().filter_probes
        staged.resize_filter(32)
        assert staged.combined_ops().filter_probes >= probes_before
        staged.process_stream(STREAM.keys[:1000])
        assert staged.combined_ops().filter_probes > probes_before

    def test_resize_emits_trace_point(self):
        sink = RecordingTraceSink()
        install_tracer(sink)
        try:
            staged = self._warm(16)
            staged.resize_filter(32)
        finally:
            uninstall_tracer()
        resizes = [e for e in sink.events if e.name == "filter_resize"]
        assert len(resizes) == 1
        assert resizes[0].attrs["old_items"] == 16
        assert resizes[0].attrs["new_items"] == 32

    def test_invalid_size_rejected(self):
        staged = self._warm(16)
        with pytest.raises(ConfigurationError):
            staged.resize_filter(0)

    def test_resized_synopsis_still_checkpoints(self):
        staged = self._warm(16)
        staged.resize_filter(24)
        restored = ASketch.from_state(staged.state())
        assert restored.state().equals(staged.state())
        probes = STREAM.keys[:200]
        assert restored.query_batch(probes) == staged.query_batch(probes)
