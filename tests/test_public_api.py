"""Meta-tests over the public API surface."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro


class TestAllExports:
    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_all_sorted(self):
        assert repro.__all__ == sorted(repro.__all__)

    def test_no_duplicate_exports(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.core",
            "repro.counters",
            "repro.hardware",
            "repro.hashing",
            "repro.kernels",
            "repro.metrics",
            "repro.obs",
            "repro.runtime",
            "repro.simd",
            "repro.sketches",
            "repro.streams",
            "repro.synopses",
        ],
    )
    def test_subpackage_all_consistent(self, module_name):
        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name}"


class TestParallelSurface:
    """The multiprocess runtime is a first-class public API."""

    @pytest.mark.parametrize(
        "name", ["ChunkRing", "ParallelIngestRuntime"]
    )
    def test_exported_at_top_level_and_runtime(self, name):
        runtime = importlib.import_module("repro.runtime")
        assert name in repro.__all__
        assert name in runtime.__all__
        assert getattr(repro, name) is getattr(runtime, name)


class TestDocstrings:
    def _public_members(self):
        for name in repro.__all__:
            member = getattr(repro, name)
            if inspect.isclass(member) or inspect.isfunction(member):
                yield name, member

    def test_every_public_item_documented(self):
        undocumented = [
            name
            for name, member in self._public_members()
            if not (member.__doc__ or "").strip()
        ]
        assert undocumented == []

    def test_every_public_class_method_documented(self):
        """Every public method/property resolves documentation, either
        its own or inherited from the documented base (MRO lookup, as
        ``help()`` shows it)."""
        undocumented = []
        for name, member in self._public_members():
            if not inspect.isclass(member):
                continue
            for method_name, method in vars(member).items():
                if method_name.startswith("_"):
                    continue
                if not (
                    isinstance(method, property)
                    or inspect.isfunction(method)
                ):
                    continue
                resolved = inspect.getdoc(getattr(member, method_name))
                if not (resolved or "").strip():
                    undocumented.append(f"{name}.{method_name}")
        assert undocumented == []


class TestModuleDocstrings:
    def test_every_module_has_a_docstring(self):
        missing = []
        for info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            module = importlib.import_module(info.name)
            if not (module.__doc__ or "").strip():
                missing.append(info.name)
        assert missing == []
