"""Region / bounding-box arithmetic for block-indexed containers.

All queries against the v2 block store reduce to the same few integer
operations: normalise a cell-space bounding box against a level shape, turn
it into a half-open range of unit-block coordinates, select the index entries
whose blocks intersect that range, and compute the destination/source slice
pairs used to paste each decoded block into the query output.  Keeping that
arithmetic here (pure functions over plain tuples and arrays) keeps the
format reader small and makes the intersection logic unit-testable without
any file I/O.

A *bbox* is a tuple of per-axis ``(lo, hi)`` pairs in cell coordinates,
half-open like Python slices; a *block range* is the same structure in
unit-block coordinates.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "BBox",
    "normalize_bbox",
    "bbox_to_block_range",
    "blocks_in_range",
    "block_cell_slices",
    "paste_slices",
    "paste_slices_batch",
    "bounds_to_slices",
    "coalesce_ranges",
]

BBox = Tuple[Tuple[int, int], ...]


def normalize_bbox(bbox: Sequence[Sequence[int]], shape: Sequence[int]) -> BBox:
    """Validate and clamp a cell-space bounding box against ``shape``.

    Accepts any sequence of ``(lo, hi)`` pairs (one per axis, half-open);
    returns a canonical tuple-of-tuples.  Raises ``ValueError`` for the wrong
    number of axes or an empty axis; a non-empty axis that lies *entirely*
    outside ``[0, n)`` gets its own diagnostic (rather than the confusing
    "empty after clamping" one), shared by every read surface that clamps —
    ``Store.read_roi``, ``ContainerReader.read_roi`` and the read daemon.
    """
    shape = tuple(int(s) for s in shape)
    if len(bbox) != len(shape):
        raise ValueError(f"bbox has {len(bbox)} axes but the level is {len(shape)}-dimensional")
    out = []
    for axis, (pair, n) in enumerate(zip(bbox, shape)):
        lo, hi = (int(pair[0]), int(pair[1]))
        if lo < hi and (hi <= 0 or lo >= n):
            raise ValueError(
                f"bbox axis {axis} ({lo}, {hi}) lies entirely outside the domain [0, {n})"
            )
        lo = max(0, lo)
        hi = min(n, hi)
        if lo >= hi:
            raise ValueError(
                f"bbox axis {axis} is empty after clamping to [0, {n}): ({pair[0]}, {pair[1]})"
            )
        out.append((lo, hi))
    return tuple(out)


def _extents(unit_size, ndim: int) -> Tuple[int, ...]:
    """A block's per-axis extents: ``unit_size`` is one for every axis or one
    per axis (a block shaped like a whole domain)."""
    if isinstance(unit_size, (int, np.integer)):
        return (int(unit_size),) * ndim
    return tuple(unit_size)


def bbox_to_block_range(bbox: BBox, unit_size) -> BBox:
    """Half-open unit-block coordinate range covering a cell-space bbox.

    ``unit_size`` is the block extent on every axis, or one extent per axis.
    """
    return tuple(
        (lo // e, -(-hi // e)) for (lo, hi), e in zip(bbox, _extents(unit_size, len(bbox)))
    )


def blocks_in_range(coords: np.ndarray, block_range: BBox) -> np.ndarray:
    """Boolean mask over ``coords`` (n, ndim) selecting blocks inside a range."""
    coords = np.asarray(coords)
    keep = np.ones(coords.shape[0], dtype=bool)
    for axis, (lo, hi) in enumerate(block_range):
        keep &= (coords[:, axis] >= lo) & (coords[:, axis] < hi)
    return keep


def block_cell_slices(coord: Sequence[int], unit_size: int) -> Tuple[slice, ...]:
    """Cell-space slices covered by the unit block at ``coord``."""
    u = int(unit_size)
    return tuple(slice(int(c) * u, (int(c) + 1) * u) for c in coord)


def paste_slices(
    coord: Sequence[int], unit_size, bbox: BBox
) -> Tuple[Tuple[slice, ...], Tuple[slice, ...]]:
    """Destination (bbox-relative) and source (block-relative) paste slices.

    For a block at ``coord`` intersecting ``bbox``, returns the slice pair
    such that ``out[dst] = block[src]`` copies exactly the overlapping cells
    into an output array shaped like the bbox.  ``unit_size`` is the block
    extent on every axis, or one extent per axis.
    """
    dst, src = [], []
    for c, u, (lo, hi) in zip(coord, _extents(unit_size, len(bbox)), bbox):
        start = int(c) * u
        a = max(start, lo)
        b = min(start + u, hi)
        dst.append(slice(a - lo, b - lo))
        src.append(slice(a - start, b - start))
    return tuple(dst), tuple(src)


def paste_slices_batch(
    coords: np.ndarray, unit_size: int, bbox: BBox
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised :func:`paste_slices` over every block at once.

    For ``coords`` of shape ``(n, ndim)`` returns ``(dst, src, full)``:
    ``dst``/``src`` are ``(n, ndim, 2)`` int64 bound arrays (``[..., 0]`` the
    start, ``[..., 1]`` the stop of each axis slice) and ``full`` is a
    boolean mask marking blocks whose source window covers the whole unit
    block — the blocks a decoder may write straight into the destination.
    One NumPy call per bound instead of a Python loop per block.
    """
    coords = np.asarray(coords, dtype=np.int64)
    n = coords.shape[0]
    ndim = len(bbox)
    coords = coords.reshape(n, ndim)
    u = np.int64(int(unit_size))
    lo = np.fromiter((b[0] for b in bbox), dtype=np.int64, count=ndim)
    hi = np.fromiter((b[1] for b in bbox), dtype=np.int64, count=ndim)
    start = coords * u
    a = np.maximum(start, lo)
    b = np.minimum(start + u, hi)
    dst = np.stack([a - lo, b - lo], axis=-1)
    src = np.stack([a - start, b - start], axis=-1)
    if ndim:
        full = np.logical_and.reduce(
            (src[:, :, 0] == 0) & (src[:, :, 1] == u), axis=1
        )
    else:
        full = np.ones(n, dtype=bool)
    return dst, src, full


def bounds_to_slices(bounds: np.ndarray) -> Tuple[slice, ...]:
    """One ``(ndim, 2)`` bound row (from :func:`paste_slices_batch`) as slices."""
    return tuple(slice(int(lo), int(hi)) for lo, hi in bounds)


def coalesce_ranges(
    offsets: np.ndarray, lengths: np.ndarray, max_gap: int = 0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge ``(offset, length)`` byte ranges into covering fetch ranges.

    Ranges closer than ``max_gap`` bytes (or overlapping) are merged so a
    reader can serve many blocks with one contiguous fetch each.  Returns
    ``(fetch_lo, fetch_hi, which)``: the merged half-open ranges sorted by
    offset, plus for every *input* range the index of the merged range that
    contains it, so ``offsets[i]``'s payload lives at
    ``fetch[which[i]][offsets[i] - fetch_lo[which[i]] : ... + lengths[i]]``.
    Fully vectorised — one ``argsort`` plus a handful of NumPy calls,
    regardless of how many ranges are requested.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    n = offsets.shape[0]
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    gap = np.int64(max(0, int(max_gap)))
    order = np.argsort(offsets, kind="stable")
    o = offsets[order]
    ends = o + lengths[order]
    # A new fetch range starts wherever the next offset lies beyond the
    # furthest end seen so far (plus the merge gap).
    reach = np.maximum.accumulate(ends)
    starts_new = np.empty(n, dtype=bool)
    starts_new[0] = True
    starts_new[1:] = o[1:] > reach[:-1] + gap
    group = np.cumsum(starts_new) - 1
    first = np.flatnonzero(starts_new)
    fetch_lo = o[first]
    fetch_hi = np.maximum.reduceat(ends, first)
    which = np.empty(n, dtype=np.int64)
    which[order] = group
    return fetch_lo, fetch_hi, which
