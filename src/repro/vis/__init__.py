"""Visualization-oriented utilities: slicing, isosurfaces and uncertainty.

The paper's figures are rendered with VTK-m / ParaView, which are not
available offline; this subpackage provides the quantitative equivalents the
benchmarks compare instead: 2-D slice extraction (for SSIM of "visualizations"),
isosurface extraction as edge-crossing point clouds, and the probabilistic
marching cubes cell-crossing probabilities used for the uncertainty study
(Fig. 14).

All helpers consume lazy :class:`repro.array.LazyArray` views as well
as ndarrays; :func:`extract_slice` indexes views in place so a slice decodes
only the blocks its plane crosses.
"""

from repro.vis.isosurface import (
    cell_crossings,
    extract_isosurface_points,
    isosurface_cell_count,
)
from repro.vis.probabilistic_mc import (
    crossing_probability,
    crossing_probability_monte_carlo,
    feature_recovery,
)
from repro.vis.slicing import extract_slice, normalize_for_display, render_slice_rgb

__all__ = [
    "cell_crossings",
    "extract_isosurface_points",
    "isosurface_cell_count",
    "crossing_probability",
    "crossing_probability_monte_carlo",
    "feature_recovery",
    "extract_slice",
    "normalize_for_display",
    "render_slice_rgb",
]
