"""Deterministic isosurface extraction.

Isosurfaces are extracted as the set of grid cells crossed by the isovalue
plus the edge-crossing point cloud (linear interpolation along every grid edge
whose endpoints straddle the isovalue).  This is the information marching
cubes triangulates; for quantitative comparison of original vs decompressed
isosurfaces (Figs. 14 and 16) the crossing cells and points are sufficient and
fully vectorise in NumPy.

Fields may be eager ndarrays or lazy :class:`repro.array.LazyArray`
views: isosurface extraction is a global stencil, so a view is materialised
once up front (``numpy.asarray``), but callers restricting the search to an
ROI should slice the view first — ``cell_crossings(arr[lo:hi, ...], c)``
decodes only that region's blocks.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["cell_crossings", "isosurface_cell_count", "extract_isosurface_points"]


def cell_crossings(field: np.ndarray, isovalue: float) -> np.ndarray:
    """Boolean array marking grid cells crossed by the isosurface.

    A cell (the dual cube spanned by ``2^d`` neighbouring vertices) is crossed
    when its corner values are not all on the same side of the isovalue.
    The output shape is ``field.shape - 1`` along every axis.
    """
    data = np.asarray(field, dtype=np.float64)
    if data.ndim not in (2, 3):
        raise ValueError("cell_crossings expects a 2-D or 3-D field")
    above = data > isovalue

    # Reduce "all corners above" / "all corners below" over each axis in turn.
    all_above = above
    all_below = ~above
    for axis in range(data.ndim):
        lo = [slice(None)] * data.ndim
        hi = [slice(None)] * data.ndim
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        all_above = all_above[tuple(lo)] & all_above[tuple(hi)]
        all_below = all_below[tuple(lo)] & all_below[tuple(hi)]
    return ~(all_above | all_below)


def isosurface_cell_count(field: np.ndarray, isovalue: float) -> int:
    """Number of cells crossed by the isosurface (a size proxy for the surface)."""
    return int(cell_crossings(field, isovalue).sum())


def extract_isosurface_points(field: np.ndarray, isovalue: float) -> np.ndarray:
    """Edge-crossing points of the isosurface as an ``(n_points, ndim)`` array.

    For every grid edge whose endpoint values straddle the isovalue the
    crossing position is computed by linear interpolation.  The union over the
    three edge directions is the vertex set marching cubes would use.
    """
    data = np.asarray(field, dtype=np.float64)
    if data.ndim not in (2, 3):
        raise ValueError("extract_isosurface_points expects a 2-D or 3-D field")
    points = []
    for axis in range(data.ndim):
        lo = [slice(None)] * data.ndim
        hi = [slice(None)] * data.ndim
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        a = data[tuple(lo)]
        b = data[tuple(hi)]
        crossed = (a - isovalue) * (b - isovalue) < 0
        if not crossed.any():
            continue
        idx = np.argwhere(crossed).astype(np.float64)
        a_vals = a[crossed]
        b_vals = b[crossed]
        t = (isovalue - a_vals) / (b_vals - a_vals)
        coords = idx.copy()
        coords[:, axis] += t
        points.append(coords)
        # Exact hits on grid vertices (a == isovalue) are counted once.
        exact = a == isovalue
        if exact.any():
            points.append(np.argwhere(exact).astype(np.float64))
    if not points:
        return np.zeros((0, data.ndim), dtype=np.float64)
    return np.concatenate(points, axis=0)
