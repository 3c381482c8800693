"""Experiment configuration: sizes, scale factor, shared parameters.

The paper's settings (§7.1): synopsis 16KB-128KB (most experiments at
128KB), ``w = 8`` hash rows, Relaxed-Heap filter of 32 items (~0.4KB),
synthetic streams of 32M tuples over 8M distinct items (4:1 ratio).

The default configuration keeps every *structural* parameter (synopsis
bytes, ``w``, filter size) at the paper's values and scales only the
stream: 400K tuples over 100K distinct items, the same 4:1 ratio.  The
``scale`` knob multiplies stream lengths (and the distinct domain) for
heavier or lighter runs; sweep experiments additionally halve the stream
to keep the full suite tractable in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.synopses.spec import SynopsisSpec


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiment modules."""

    #: Multiplies every stream length (and the distinct domain with it).
    scale: float = 1.0
    #: Base synthetic stream length at scale 1.0.
    base_stream_size: int = 400_000
    #: Base distinct-domain size at scale 1.0 (the paper's 4:1 ratio).
    base_distinct: int = 100_000
    #: Total synopsis budget (paper default 128KB).
    synopsis_bytes: int = 128 * 1024
    #: Number of sketch rows ``w`` (paper fixes 8).
    num_hashes: int = 8
    #: ASketch filter capacity in items (paper default 32, ~0.4KB).
    filter_items: int = 32
    #: ASketch filter implementation (paper's default comparator).
    filter_kind: str = "relaxed-heap"
    #: Queries per accuracy/throughput measurement.
    n_queries: int = 20_000
    #: Independent repetitions for the max-over-runs statistics (the
    #: paper uses 100; scaled runs default lower).
    runs: int = 5
    #: Master seed; per-run seeds derive deterministically from it.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ConfigurationError(f"scale must be > 0, got {self.scale}")
        if self.runs < 1:
            raise ConfigurationError(f"runs must be >= 1, got {self.runs}")

    @property
    def stream_size(self) -> int:
        """Scaled synthetic stream length."""
        return max(1, int(self.base_stream_size * self.scale))

    @property
    def distinct(self) -> int:
        """Scaled distinct-domain size."""
        return max(1, int(self.base_distinct * self.scale))

    @property
    def sweep_stream_size(self) -> int:
        """Stream length used by multi-point sweep experiments."""
        return max(1, self.stream_size // 2)

    @property
    def sweep_distinct(self) -> int:
        """Distinct-domain size used by sweep experiments."""
        return max(1, self.distinct // 2)

    @property
    def queries(self) -> int:
        """Scaled query-set size."""
        return max(1, min(self.n_queries, int(self.n_queries * self.scale)))

    def with_scale(self, scale: float) -> "ExperimentConfig":
        """A copy at a different scale (benchmarks use small scales)."""
        return replace(self, scale=scale)

    # -- spec-driven construction ------------------------------------------

    def spec_for(self, method: str, seed: int = 0) -> SynopsisSpec:
        """The synopsis spec for one of the paper's comparison methods.

        Method ids are the keys of
        :data:`repro.experiments.common.METHOD_LABELS`; the returned spec
        carries this config's structural parameters (synopsis budget,
        ``w``, filter sizing) so every construction site — experiments,
        CLI, benchmarks — builds the same object through
        :func:`repro.synopses.spec.build_synopsis`.
        """
        total_bytes = self.synopsis_bytes
        if method == "count-min":
            return SynopsisSpec(
                "count-min",
                {
                    "num_hashes": self.num_hashes,
                    "total_bytes": total_bytes,
                    "seed": seed,
                },
            )
        if method == "fcm":
            return SynopsisSpec(
                "fcm",
                {
                    "num_hashes": self.num_hashes,
                    "total_bytes": total_bytes,
                    "mg_capacity": self.filter_items,
                    "seed": seed,
                },
            )
        if method == "holistic-udaf":
            return SynopsisSpec(
                "holistic-udaf",
                {
                    "table_items": self.filter_items,
                    "total_bytes": total_bytes,
                    "num_hashes": self.num_hashes,
                    "seed": seed,
                },
            )
        if method in ("asketch", "asketch-fcm"):
            params = {
                "total_bytes": total_bytes,
                "filter_items": self.filter_items,
                "filter_kind": self.filter_kind,
                "num_hashes": self.num_hashes,
                "seed": seed,
            }
            if method == "asketch-fcm":
                params["sketch_backend"] = "fcm"
            return SynopsisSpec("asketch", params)
        if method in ("space-saving-min", "space-saving-zero"):
            return SynopsisSpec(
                "space-saving",
                {
                    "total_bytes": total_bytes,
                    "estimate_mode": method.rsplit("-", 1)[1],
                },
            )
        raise ConfigurationError(f"unknown method {method!r}")
