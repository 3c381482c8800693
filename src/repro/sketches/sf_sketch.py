"""SF-sketch: a fat update stage feeding a slim query stage.

Yang et al., "SF-sketch: A Fast, Accurate, and Memory Efficient Data
Structure to Store Frequencies of Data Items" (arXiv:1701.04148) observe
that a sketch kept *locally* (where updates happen) can afford to be
large, while the copy *shipped* to remote queriers must be small.  The
SF ("slim-fat") sketch therefore maintains two Count-Min tables:

* the **fat** stage — a wide table absorbing every update normally; its
  estimates are relatively accurate because collisions are rare;
* the **slim** stage — the small table actually answering queries (and
  the only part counted as the shipped synopsis).  On an update of
  ``(k, u)`` each slim cell of ``k`` is raised only as far as evidence
  requires::

      cell' = min(cell + u, max(cell, n))

  where ``n`` is ``k``'s *post-update fat estimate*.  A slim cell
  therefore never grows beyond the fat stage's (already one-sided)
  estimate of the largest key hashing into it, instead of accumulating
  the full collision mass a plain Count-Min cell would.

One-sidedness (insert-only streams) holds by induction: both branches
of the ``min`` dominate the updated key's true count (``cell + u`` by
the inductive hypothesis, ``max(cell, n) >= n >= f_k`` by Count-Min's
guarantee), and neither branch can shrink a cell, so other keys'
estimates never drop below their counts.  The repo's hypothesis
merge/guarantee property suites exercise exactly this.

Within the staged architecture (:mod:`repro.core.staged`) this is a
second *back-stage* family: ``ASketch(sketch=SFSketch(...))`` composes
the paper's exact filter with a slim/fat backend, and the registered
``"sf-sketch"`` kind makes it reachable from specs, the CLI, the
experiment harness and checkpoint/restore.
"""

from __future__ import annotations

from repro.errors import ConfigurationError, NegativeCountError
from repro.sketches.base import FrequencySketch
from repro.sketches.count_min import CountMinSketch
from repro.synopses.protocol import SynopsisState

#: Seed offset separating the fat stage's hash family from the slim's.
_FAT_SEED_OFFSET = 1_000_081


class SFSketch(FrequencySketch):
    """Slim-fat Count-Min pair with conditional slim updates.

    Parameters
    ----------
    num_hashes:
        ``w`` for the slim (query) stage.
    row_width:
        Slim row width ``h``; mutually exclusive with ``total_bytes``.
    total_bytes:
        Byte budget of the *slim* stage — the shipped synopsis, and the
        number :attr:`size_bytes` reports, so equal-space comparisons
        against other sketches compare what a querier actually holds.
        The fat stage is local scratch on top (see
        :attr:`total_memory_bytes`).
    fat_ratio:
        The fat stage's row width as a multiple of the slim's
        (default 8, in the paper's recommended regime).
    fat_hashes:
        ``w`` for the fat stage; defaults to ``num_hashes``.
    seed:
        Hash seeding; the fat stage derives a disjoint family.
    """

    def __init__(
        self,
        num_hashes: int = 8,
        row_width: int | None = None,
        *,
        total_bytes: int | None = None,
        fat_ratio: int = 8,
        fat_hashes: int | None = None,
        seed: int = 0,
        hash_family: str = "carter-wegman",
    ) -> None:
        if fat_ratio < 1:
            raise ConfigurationError(
                f"fat_ratio must be >= 1, got {fat_ratio}"
            )
        self._slim = CountMinSketch(
            num_hashes=num_hashes,
            row_width=row_width,
            total_bytes=total_bytes,
            seed=seed,
            hash_family=hash_family,
        )
        self.fat_ratio = int(fat_ratio)
        self.fat_hashes = int(
            fat_hashes if fat_hashes is not None else num_hashes
        )
        self._fat = CountMinSketch(
            num_hashes=self.fat_hashes,
            row_width=self._slim.row_width * self.fat_ratio,
            seed=seed + _FAT_SEED_OFFSET,
            hash_family=hash_family,
        )
        self.seed = int(seed)
        self.hash_family_name = hash_family
        # One shared operation record: the staged core (and the cost
        # model) read a single ``ops`` per back stage.
        self.ops = self._slim.ops
        self._fat.ops = self.ops

    # -- introspection -----------------------------------------------------

    @property
    def num_hashes(self) -> int:
        """Hash rows in the slim (query) stage."""
        return self._slim.num_hashes

    @property
    def row_width(self) -> int:
        """Slots per row in the slim (query) stage."""
        return self._slim.row_width

    @property
    def slim(self) -> CountMinSketch:
        """The slim (query) stage — the shipped synopsis."""
        return self._slim

    @property
    def fat(self) -> CountMinSketch:
        """The fat (update) stage — local scratch."""
        return self._fat

    @property
    def size_bytes(self) -> int:
        """Size of the shipped (slim) synopsis, per the SF-sketch model."""
        return self._slim.size_bytes

    @property
    def total_memory_bytes(self) -> int:
        """Local footprint: slim plus the fat update stage."""
        return self._slim.size_bytes + self._fat.size_bytes

    # -- updates -----------------------------------------------------------

    def update(self, key: int, amount: int = 1) -> int:
        """Fat update, then the conditional slim raise; returns the new
        slim estimate (the query stage's answer)."""
        if amount < 0:
            raise NegativeCountError(
                "SF-sketch supports insert-only streams; the conditional "
                "slim update cannot honour deletions"
            )
        fat_estimate = self._fat.update(key, amount)
        slim = self._slim
        table = slim._table
        ops = self.ops
        ops.hash_evals += slim.num_hashes
        ops.sketch_cell_reads += slim.num_hashes
        ops.sketch_cell_writes += slim.num_hashes
        estimate: int | None = None
        for row, col in enumerate(slim.hash_columns(key)):
            cell = int(table[row, col])
            raised = min(cell + amount, max(cell, fat_estimate))
            table[row, col] = raised
            if estimate is None or raised < estimate:
                estimate = raised
        assert estimate is not None
        return estimate

    # Batch updates keep the inherited per-key loop: every slim raise
    # depends on the cells the previous update left behind (like
    # conservative Count-Min, the conditional update cannot be
    # scatter-added).

    # -- queries -----------------------------------------------------------

    def estimate(self, key: int) -> int:
        """The slim stage answers queries (that is the point of SF)."""
        return self._slim.estimate(key)

    def estimate_batch(self, keys) -> list[int]:
        return self._slim.estimate_batch(keys)

    def total_count(self) -> int:
        """Aggregate count ``N`` absorbed so far (fat stage row sum)."""
        return self._fat.total_count()

    # -- merging -----------------------------------------------------------

    def is_mergeable_with(self, other: "SFSketch") -> bool:
        """Both stages must share geometry and hash families."""
        if not isinstance(other, SFSketch):
            return False
        return self._slim.is_mergeable_with(
            other._slim
        ) and self._fat.is_mergeable_with(other._fat)

    def merge(self, other: "SFSketch") -> None:
        """Cell-wise add both stages.

        The fat stages are plain linear Count-Min tables, so their sum
        summarises the concatenated stream exactly as Count-Min does.
        Slim cells are summed too: each input cell over-estimates its
        keys on its own stream, so the sum over-estimates them on the
        union — one-sided, at the cost of re-admitting the collision
        slack a fresh conditional pass would have avoided (the price of
        merging shipped copies without replaying updates).
        """
        if not self.is_mergeable_with(other):
            raise ConfigurationError(
                "sketches must share dimensions and hash seeds to merge"
            )
        self._fat.merge(other._fat)
        self._slim.merge(other._slim)

    # -- synopsis protocol --------------------------------------------------

    SYNOPSIS_KIND = "sf-sketch"

    def state(self) -> SynopsisState:
        """Portable snapshot: both stages' tables plus the geometry."""
        return SynopsisState(
            kind=self.SYNOPSIS_KIND,
            params={
                "num_hashes": self._slim.num_hashes,
                "row_width": self._slim.row_width,
                "fat_ratio": self.fat_ratio,
                "fat_hashes": self.fat_hashes,
                "seed": self.seed,
                "hash_family": self.hash_family_name,
            },
            arrays={
                "slim_table": self._slim._table.copy(),
                "fat_table": self._fat._table.copy(),
            },
        )

    @classmethod
    def from_state(cls, state: SynopsisState) -> "SFSketch":
        sketch = cls(**state.params)
        sketch._slim._table[:] = state.arrays["slim_table"]
        sketch._fat._table[:] = state.arrays["fat_table"]
        return sketch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SFSketch(w={self._slim.num_hashes}, h={self._slim.row_width}, "
            f"fat=x{self.fat_ratio}, bytes={self.size_bytes})"
        )
