"""Filter-id search kernels: faithful SIMD transcription, NumPy, scalar.

Three interchangeable implementations of "find the index of ``item`` in a
small int32 id array, or -1":

* :func:`simd_find_index` — Algorithm 3 from the paper, transcribed
  literally onto the emulated SSE2 intrinsics.  Slow in Python, but it is
  the reference semantics and what the hardware cost model prices.
* :func:`numpy_find_index` — vectorised scan; identical results, used by
  the Vector/heap filters at runtime.
* :func:`scalar_find_index` — plain Python loop; the non-SIMD baseline the
  SIMD ablation benchmark compares against.
"""

from __future__ import annotations

import numpy as np

from repro.simd.register import (
    M128,
    builtin_ctz,
    mm_cmpeq_epi32,
    mm_movemask_epi8,
    mm_packs_epi32,
    mm_set1_epi32,
)

#: Number of 32-bit ids scanned per SIMD probe block (four XMM compares).
ITEMS_PER_BLOCK = 16


def simd_probe_blocks(n_items: int) -> int:
    """Number of 16-item SIMD blocks needed to scan ``n_items`` ids.

    The hardware cost model charges one block cost per probe block; this is
    the ``ceil(n/16)`` loop-trip count of the real kernel.
    """
    return (max(n_items, 0) + ITEMS_PER_BLOCK - 1) // ITEMS_PER_BLOCK


def _load_block(filter_ids: np.ndarray, start: int) -> list[M128]:
    """Load a 16-id block as four XMM registers, zero-padding the tail."""
    block = np.zeros(ITEMS_PER_BLOCK, dtype=np.int32)
    end = min(start + ITEMS_PER_BLOCK, filter_ids.shape[0])
    block[: end - start] = filter_ids[start:end]
    return [
        M128.from_int32_lanes(block[offset : offset + 4])
        for offset in range(0, ITEMS_PER_BLOCK, 4)
    ]


def simd_find_index(filter_ids: np.ndarray, item: int) -> int:
    """Algorithm 3: SSE2 linear search over the filter id array.

    Processes 16 ids per iteration using four ``_mm_cmpeq_epi32``, three
    ``_mm_packs_epi32``, one ``_mm_movemask_epi8`` and ``__builtin_ctz`` —
    the exact instruction sequence of the paper's kernel, generalised to
    arrays longer than 16 by the outer block loop.

    The tail block is zero-padded; a match in the padding lies at or past
    ``len(filter_ids)`` and is discarded, so any ``item``, 0 included, is
    found exactly where it is stored.

    Returns the index of ``item`` in ``filter_ids`` or -1 if absent.
    """
    filter_ids = np.ascontiguousarray(filter_ids, dtype=np.int32)
    s_item = mm_set1_epi32(item)
    for start in range(0, filter_ids.shape[0], ITEMS_PER_BLOCK):
        f0, f1, f2, f3 = _load_block(filter_ids, start)
        f_comp = mm_cmpeq_epi32(s_item, f0)
        s_comp = mm_cmpeq_epi32(s_item, f1)
        t_comp = mm_cmpeq_epi32(s_item, f2)
        r_comp = mm_cmpeq_epi32(s_item, f3)
        f_comp = mm_packs_epi32(f_comp, s_comp)
        t_comp = mm_packs_epi32(t_comp, r_comp)
        f_comp = _packs_epi16(f_comp, t_comp)
        found = mm_movemask_epi8(f_comp)
        if found:
            index = start + builtin_ctz(found)
            if index < filter_ids.shape[0]:
                return index
    return -1


def _packs_epi16(a: M128, b: M128) -> M128:
    """``_mm_packs_epi16``: pack 8+8 int16 lanes into 16 int8 with saturation.

    The paper's listing writes the final narrowing step as a third
    ``_mm_packs_epi32`` call; on hardware the operands at that point hold
    16-bit masks, so the semantically executed operation is the epi16 pack.
    We implement the epi16 semantics (the published code compiles because
    both intrinsics take ``__m128i``).
    """
    merged = np.concatenate([a.as_int16_lanes(), b.as_int16_lanes()])
    saturated = np.clip(merged, -128, 127).astype(np.int8)
    return M128(saturated.view(np.uint8).copy())


def numpy_find_index(filter_ids: np.ndarray, item: int) -> int:
    """Vectorised equivalent of :func:`simd_find_index` (fast path)."""
    hits = np.nonzero(filter_ids == item)[0]
    if hits.size:
        return int(hits[0])
    return -1


def scalar_find_index(filter_ids: np.ndarray, item: int) -> int:
    """Plain-loop equivalent, the scalar baseline for the SIMD ablation."""
    for index, candidate in enumerate(filter_ids.tolist()):
        if candidate == item:
            return index
    return -1
