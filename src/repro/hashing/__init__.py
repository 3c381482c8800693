"""Hash families used by all sketch data structures.

The paper's sketches require *pairwise independent* hash functions mapping
item keys onto ``[0, h)``.  This package provides:

* :class:`~repro.hashing.families.CarterWegmanHash` — the classical
  ``((a*x + b) mod p) mod h`` construction over the Mersenne prime
  ``p = 2**61 - 1`` (pairwise independent, the textbook choice for
  Count-Min).
* :class:`~repro.hashing.families.TabulationHash` — simple tabulation
  (3-independent, strong in practice).
* :class:`~repro.hashing.families.SignHash` — ±1 valued pairwise-independent
  hash used by Count Sketch.
* :class:`~repro.hashing.families.HashFamily` — the protocol all of the
  above implement, including vectorised batch evaluation over NumPy arrays.
"""

from repro.hashing.families import (
    MERSENNE_PRIME_61,
    CarterWegmanHash,
    HashFamily,
    SignHash,
    TabulationHash,
    make_hash_family,
)

__all__ = [
    "MERSENNE_PRIME_61",
    "CarterWegmanHash",
    "HashFamily",
    "SignHash",
    "TabulationHash",
    "make_hash_family",
]
