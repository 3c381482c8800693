"""Tests for declarative synopsis specs and the kind registry."""

from __future__ import annotations

import pytest

from repro.core.asketch import ASketch
from repro.counters.misra_gries import MisraGries
from repro.counters.space_saving import SpaceSaving
from repro.errors import ConfigurationError
from repro.experiments.common import METHOD_LABELS, build_method
from repro.experiments.config import ExperimentConfig
from repro.sketches.count_min import CountMinSketch
from repro.synopses import (
    SynopsisSpec,
    build_synopsis,
    registered_kinds,
    resolve_kind,
)


class TestRegistry:
    def test_all_builtin_kinds_resolve(self):
        for kind in registered_kinds():
            cls = resolve_kind(kind)
            assert cls.SYNOPSIS_KIND == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown synopsis kind"):
            resolve_kind("bloom-filter")


class TestSpec:
    def test_build_count_min(self):
        spec = SynopsisSpec(
            "count-min", {"num_hashes": 4, "row_width": 64, "seed": 3}
        )
        sketch = build_synopsis(spec)
        assert isinstance(sketch, CountMinSketch)
        assert (sketch.num_hashes, sketch.row_width, sketch.seed) == (4, 64, 3)

    def test_invalid_params_raise_configuration_error(self):
        spec = SynopsisSpec("count-min", {"rows": 4})
        with pytest.raises(ConfigurationError, match="invalid parameters"):
            build_synopsis(spec)

    def test_with_params_overrides(self):
        base = SynopsisSpec("count-min", {"row_width": 64, "seed": 0})
        derived = base.with_params(seed=7)
        assert derived.params["seed"] == 7
        assert base.params["seed"] == 0  # the original is untouched


class TestExperimentSpecs:
    def test_every_method_id_builds_through_spec(self):
        config = ExperimentConfig(synopsis_bytes=16 * 1024, filter_items=8)
        for method in METHOD_LABELS:
            synopsis = build_synopsis(config.spec_for(method, seed=1))
            assert synopsis.size_bytes <= config.synopsis_bytes

    def test_build_method_matches_direct_construction(self):
        config = ExperimentConfig(synopsis_bytes=32 * 1024, filter_items=16)
        asketch = build_method("asketch", config, seed=5)
        assert isinstance(asketch, ASketch)
        direct = ASketch(
            total_bytes=32 * 1024, filter_items=16, num_hashes=8, seed=5
        )
        assert asketch.size_bytes == direct.size_bytes
        assert asketch.sketch.is_mergeable_with(direct.sketch)

    def test_space_saving_modes(self):
        config = ExperimentConfig(synopsis_bytes=16 * 1024)
        for method, mode in [
            ("space-saving-min", "min"),
            ("space-saving-zero", "zero"),
        ]:
            summary = build_method(method, config)
            assert isinstance(summary, SpaceSaving)
            assert summary.estimate_mode == mode

    def test_unknown_method_rejected(self):
        config = ExperimentConfig()
        with pytest.raises(ConfigurationError, match="unknown method"):
            config.spec_for("bloom-filter")


class TestProtocolConformance:
    def test_registered_kinds_satisfy_protocol_members(self):
        """Every registered class exposes the full synopsis interface."""
        for kind in registered_kinds():
            cls = resolve_kind(kind)
            for member in (
                "update",
                "estimate",
                "state",
                "from_state",
                "merge",
            ):
                assert callable(getattr(cls, member)), f"{kind}.{member}"
            assert isinstance(
                getattr(cls, "size_bytes"), property
            ), f"{kind}.size_bytes"

    def test_runtime_checkable_structural_match(self):
        from repro.synopses import Synopsis

        assert isinstance(MisraGries(4), Synopsis)
        assert isinstance(CountMinSketch(4, row_width=16), Synopsis)
        assert not isinstance(object(), Synopsis)
