"""Property-based tests for the hardware models."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cache import SetAssociativeCache
from repro.hardware.costs import CostModel, OpCounters
from repro.hardware.pipeline import PipelineSimulator

op_records = st.builds(
    OpCounters,
    items=st.integers(min_value=1, max_value=10_000),
    filter_probes=st.integers(min_value=0, max_value=10_000),
    filter_probe_blocks=st.integers(min_value=0, max_value=20_000),
    hash_evals=st.integers(min_value=0, max_value=80_000),
    sketch_cell_writes=st.integers(min_value=0, max_value=80_000),
    exchanges=st.integers(min_value=0, max_value=1_000),
)


class TestCostModelProperties:
    @given(ops=op_records, extra=st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_more_work_never_faster(self, ops, extra):
        model = CostModel()
        heavier = ops.snapshot()
        heavier.hash_evals += extra
        assert model.cycles(heavier, 65536) > model.cycles(ops, 65536)

    @given(ops=op_records)
    @settings(max_examples=60, deadline=None)
    def test_cycles_nonnegative_and_scale_with_items(self, ops):
        model = CostModel()
        assert model.cycles(ops, 65536) >= ops.items * model.cycles_per_item

    @given(ops=op_records)
    @settings(max_examples=40, deadline=None)
    def test_bigger_synopsis_never_faster(self, ops):
        model = CostModel()
        small = model.cycles(ops, 16 * 1024)
        large = model.cycles(ops, 16 * 1024 * 1024)
        assert large >= small


class TestPipelineProperties:
    # Realistic splits: the filter core carries loop + probe work, the
    # sketch core carries hash + cell work (as ASketch.stage_ops emits).
    stage0s = st.builds(
        OpCounters,
        items=st.integers(min_value=1, max_value=5_000),
        filter_probes=st.integers(min_value=0, max_value=10_000),
        filter_probe_blocks=st.integers(min_value=0, max_value=10_000),
        min_scans=st.integers(min_value=0, max_value=10_000),
        heap_fixup_levels=st.integers(min_value=0, max_value=5_000),
    )
    stage1s = st.builds(
        OpCounters,
        hash_evals=st.integers(min_value=0, max_value=40_000),
        sketch_cell_writes=st.integers(min_value=0, max_value=40_000),
        exchanges=st.integers(min_value=0, max_value=1_000),
    )
    @given(stage0=stage0s, stage1=stage1s,
           forwarded=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=60, deadline=None)
    def test_speedup_bounded_by_two_stages(self, stage0, stage1, forwarded):
        """A two-stage pipeline can at most double sequential throughput."""
        simulator = PipelineSimulator()
        result = simulator.run(
            stage0, stage1, stage0.items, forwarded, 0, 128 * 1024
        )
        assert result.speedup <= 2.0 + 1e-9

    @given(stage0=stage0s, stage1=stage1s)
    @settings(max_examples=60, deadline=None)
    def test_pipeline_at_least_slowest_stage(self, stage0, stage1):
        """Pipelining never beats the slowest stage run alone."""
        simulator = PipelineSimulator()
        result = simulator.run(
            stage0, stage1, stage0.items, 0, 0, 128 * 1024
        )
        assert result.throughput_items_per_ms <= (
            simulator.cost_model.clock_hz
            / max(result.stage0_cycles_per_item,
                  result.stage1_cycles_per_item)
            / 1000.0
        ) * (1 + 1e-9)


class TestCacheAgainstReference:
    @given(
        addresses=st.lists(
            st.integers(min_value=0, max_value=4095),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_fully_associative_case_matches_reference_lru(self, addresses):
        """With one set, the simulator must agree with a textbook LRU."""
        ways = 4
        line = 64
        cache = SetAssociativeCache(
            ways * line, line_bytes=line, ways=ways
        )
        assert cache.n_sets == 1
        reference: list[int] = []  # most-recent first
        expected_hits = 0
        for address in addresses:
            tag = address // line
            if tag in reference:
                expected_hits += 1
                reference.remove(tag)
            reference.insert(0, tag)
            del reference[ways:]
        cache.access_many(np.array(addresses))
        assert cache.stats.hits == expected_hits
