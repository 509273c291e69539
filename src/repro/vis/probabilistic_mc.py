"""Probabilistic marching cubes for compression-induced uncertainty (Fig. 14).

Following Pöthkow et al. and Athawale et al., per-voxel uncertainty is modelled
as an independent normal distribution; the probability that a grid cell is
crossed by the isosurface is

    P(cross) = 1 - P(all corners > c) - P(all corners < c)
             = 1 - prod_i (1 - Phi_i) - prod_i Phi_i,

with ``Phi_i`` the CDF of corner ``i`` evaluated at the isovalue ``c``.  The
closed form is fully vectorised; a Monte-Carlo estimator is provided for
validation (and for future non-parametric models).

``mean_field`` (and ``decompressed`` in :func:`feature_recovery`) may be a
lazy :class:`repro.array.LazyArray` view — e.g. ``store[field, step]``
or its ROI slice — which is materialised once via ``numpy.asarray``; slice
the view before passing it to keep the decode footprint to the region under
study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np
from scipy.special import ndtr

from repro.utils.rng import default_rng
from repro.vis.isosurface import cell_crossings

__all__ = [
    "crossing_probability",
    "crossing_probability_monte_carlo",
    "feature_recovery",
    "FeatureRecovery",
]


def _corner_products(prob_below: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Products of P(below) and P(above) over the 2^d corners of every cell."""
    prob_above = 1.0 - prob_below
    all_below = prob_below
    all_above = prob_above
    ndim = prob_below.ndim
    for axis in range(ndim):
        lo = [slice(None)] * ndim
        hi = [slice(None)] * ndim
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        all_below = all_below[tuple(lo)] * all_below[tuple(hi)]
        all_above = all_above[tuple(lo)] * all_above[tuple(hi)]
    return all_below, all_above


def crossing_probability(
    mean_field: np.ndarray,
    std_field: Union[np.ndarray, float],
    isovalue: float,
) -> np.ndarray:
    """Per-cell probability that the isosurface crosses the cell.

    Parameters
    ----------
    mean_field:
        Mean of the per-voxel normal model (for compressed data: the
        decompressed values, optionally bias-corrected by the sampled mean
        error).
    std_field:
        Per-voxel standard deviation (scalar or array), e.g. the
        isovalue-conditioned compression-error spread estimated by
        :class:`repro.core.uncertainty.CompressionUncertaintyModel`.
    isovalue:
        Isovalue of interest.

    Returns
    -------
    numpy.ndarray
        Probability array of shape ``mean_field.shape - 1`` per axis.
    """
    mu = np.asarray(mean_field, dtype=np.float64)
    if mu.ndim not in (2, 3):
        raise ValueError("crossing_probability expects a 2-D or 3-D field")
    sigma = np.broadcast_to(np.asarray(std_field, dtype=np.float64), mu.shape)
    if (sigma < 0).any():
        raise ValueError("standard deviations must be non-negative")

    # P(value < isovalue) per voxel; degenerate sigma=0 falls back to a step.
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (isovalue - mu) / sigma
    prob_below = np.where(sigma > 0, ndtr(z), (mu < isovalue).astype(np.float64))

    all_below, all_above = _corner_products(prob_below)
    prob_cross = 1.0 - all_below - all_above
    return np.clip(prob_cross, 0.0, 1.0)


def crossing_probability_monte_carlo(
    mean_field: np.ndarray,
    std_field: Union[np.ndarray, float],
    isovalue: float,
    n_samples: int = 64,
    seed: Union[int, str, None] = "pmc-monte-carlo",
) -> np.ndarray:
    """Monte-Carlo estimate of :func:`crossing_probability` (used for validation)."""
    mu = np.asarray(mean_field, dtype=np.float64)
    sigma = np.broadcast_to(np.asarray(std_field, dtype=np.float64), mu.shape)
    rng = default_rng(seed)
    counts = np.zeros(tuple(s - 1 for s in mu.shape), dtype=np.int64)
    for _ in range(int(n_samples)):
        sample = mu + sigma * rng.standard_normal(mu.shape)
        counts += cell_crossings(sample, isovalue)
    return counts / float(n_samples)


@dataclass
class FeatureRecovery:
    """Outcome of the Fig. 14 analysis.

    ``missing_cells`` are cells crossed by the original isosurface but not by
    the decompressed one (features pruned by compression); ``recovered_cells``
    are the missing cells whose probabilistic crossing probability exceeds the
    threshold, i.e. features the uncertainty visualization makes visible again.
    """

    isovalue: float
    probability_threshold: float
    original_cells: int
    decompressed_cells: int
    missing_cells: int
    recovered_cells: int
    spurious_cells: int

    @property
    def recovery_rate(self) -> float:
        """Fraction of compression-pruned isosurface cells flagged by the uncertainty map."""
        if self.missing_cells == 0:
            return 1.0
        return self.recovered_cells / self.missing_cells


def feature_recovery(
    original: np.ndarray,
    decompressed: np.ndarray,
    std_field: Union[np.ndarray, float],
    isovalue: float,
    probability_threshold: float = 0.05,
) -> FeatureRecovery:
    """Quantify how much lost isosurface the uncertainty visualization recovers.

    This is the quantitative counterpart of Fig. 14: the cyan/green boxes mark
    isosurface pieces missing from the decompressed rendering, and the red
    probability cloud recovers their potential presence.
    """
    orig_cross = cell_crossings(original, isovalue)
    deco_cross = cell_crossings(decompressed, isovalue)
    prob = crossing_probability(decompressed, std_field, isovalue)

    missing = orig_cross & ~deco_cross
    recovered = missing & (prob >= probability_threshold)
    spurious = deco_cross & ~orig_cross
    return FeatureRecovery(
        isovalue=float(isovalue),
        probability_threshold=float(probability_threshold),
        original_cells=int(orig_cross.sum()),
        decompressed_cells=int(deco_cross.sum()),
        missing_cells=int(missing.sum()),
        recovered_cells=int(recovered.sum()),
        spurious_cells=int(spurious.sum()),
    )
