"""The staged-synopsis composition layer: stages and the exchange step."""

import pytest

from repro.core.asketch import ASketch
from repro.core.filters import make_filter
from repro.core.staged import StagedSynopsis
from repro.errors import ConfigurationError
from repro.sketches.count_min import CountMinSketch
from repro.streams.zipf import zipf_stream

STREAM = zipf_stream(20_000, 4_000, 1.3, seed=23)


class TestComposition:
    def test_direct_composition_matches_asketch(self):
        """Hand-assembled stages behave exactly like the ASketch facade."""
        staged = StagedSynopsis(
            make_filter("relaxed-heap", 16),
            CountMinSketch(num_hashes=8, total_bytes=8 * 1024, seed=3),
            max_exchanges_per_update=1,
        )
        asketch = ASketch(
            sketch=CountMinSketch(num_hashes=8, total_bytes=8 * 1024, seed=3),
            filter_items=16,
        )
        staged.process_stream(STREAM.keys)
        asketch.process_stream(STREAM.keys)
        probes = STREAM.keys[:500]
        assert (
            staged.query_batch(probes).tolist() == asketch.query_batch(probes).tolist()
        )
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
        assert staged.max_exchanges_per_update == 1
        assert staged.state().params["max_exchanges_per_update"] == 1

    def test_policy_knob_visible_through_property(self):
        staged = StagedSynopsis(
            make_filter("relaxed-heap", 8),
            CountMinSketch(num_hashes=4, total_bytes=4 * 1024),
            max_exchanges_per_update=3,
        )
        assert staged.max_exchanges_per_update == 3
        staged.max_exchanges_per_update = 2
        assert staged.state().params["max_exchanges_per_update"] == 2

    def test_exchange_budget_is_validated(self):
        with pytest.raises(ConfigurationError, match="must be >= 1"):
            StagedSynopsis(
                make_filter("relaxed-heap", 8),
                CountMinSketch(num_hashes=4, total_bytes=4 * 1024),
                max_exchanges_per_update=0,
            )

    def test_back_stage_must_be_a_frequency_sketch(self):
        """A back stage without the FrequencySketch contract (here the
        exact counter, which has ``update`` and ``estimate`` but none of
        the batch forms) is refused at construction, not at its first
        overflow."""
        from repro.counters.exact import ExactCounter

        with pytest.raises(ConfigurationError, match="FrequencySketch"):
            StagedSynopsis(make_filter("relaxed-heap", 4), ExactCounter())
        with pytest.raises(ConfigurationError, match="FrequencySketch"):
            ASketch(sketch=ExactCounter(), filter_items=4)

    def test_asketch_is_a_staged_synopsis(self):
        assert issubclass(ASketch, StagedSynopsis)
