"""2-D slice extraction and simple rasterisation.

The paper compares "visualizations" (2-D slices and iso-surface renderings) of
original vs decompressed data with SSIM/PSNR.  Rendering engines are not
available offline, so the slice itself (optionally mapped through a warm/cool
colormap to an RGB image array) is used as the visualization surrogate — the
SSIM of the slice tracks the SSIM of the rendered image very closely because
the colormap is monotonic.

Every helper accepts a lazy :class:`repro.array.LazyArray` view — local or
served — in place of an ndarray; :func:`extract_slice` in particular indexes
the view directly, so slicing a stored timestep decodes (and, over a socket or
HTTP, ships) only the one plane of blocks the slice crosses — the
slice-viewer access pattern the block store exists for.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["extract_slice", "normalize_for_display", "render_slice_rgb", "zoom_region"]


def extract_slice(volume, axis: int = 2, position: float | int = 0.5) -> np.ndarray:
    """Extract a 2-D slice from a 3-D volume (eager array or lazy view).

    ``position`` is either an integer index or a float fraction in [0, 1]
    along ``axis``.  A lazy view is indexed in place, decoding only the blocks
    the slice plane intersects.
    """
    # Imported lazily: repro.array sits above the store (which reaches repro.vis
    # through repro.core), so a module-level import would be circular.
    from repro.array import LazyArray

    lazy = isinstance(volume, LazyArray)
    vol = volume if lazy else np.asarray(volume, dtype=np.float64)
    if vol.ndim != 3:
        raise ValueError("extract_slice expects a 3-D volume")
    axis = int(axis) % 3
    n = vol.shape[axis]
    if isinstance(position, float) and 0.0 <= position <= 1.0:
        index = int(round(position * (n - 1)))
    else:
        index = int(position)
    if not 0 <= index < n:
        raise IndexError(f"slice index {index} out of range for axis {axis} with size {n}")
    if lazy:
        selector = [slice(None)] * 3
        selector[axis] = index
        return vol[tuple(selector)]
    return np.take(vol, index, axis=axis)


def normalize_for_display(
    image: np.ndarray,
    vmin: float | None = None,
    vmax: float | None = None,
    log_scale: bool = False,
) -> np.ndarray:
    """Map values to [0, 1] for display (optionally on a log scale).

    When comparing original and decompressed slices the caller should pass the
    original's vmin/vmax for both so the normalisation does not hide errors.
    """
    img = np.asarray(image, dtype=np.float64)
    if log_scale:
        img = np.log10(np.clip(img, 1e-12, None))
    lo = float(img.min()) if vmin is None else float(vmin)
    hi = float(img.max()) if vmax is None else float(vmax)
    if log_scale and vmin is not None:
        lo = np.log10(max(vmin, 1e-12))
    if log_scale and vmax is not None:
        hi = np.log10(max(vmax, 1e-12))
    if hi <= lo:
        return np.zeros_like(img)
    return np.clip((img - lo) / (hi - lo), 0.0, 1.0)


# A compact warm/cool colormap (blue -> white -> red), evaluated by linear
# interpolation; "warmer colors indicate higher values" as in Fig. 5.
_COOLWARM_STOPS = np.array(
    [
        [0.23, 0.30, 0.75],
        [0.55, 0.69, 0.99],
        [0.87, 0.87, 0.87],
        [0.96, 0.60, 0.49],
        [0.71, 0.02, 0.15],
    ]
)


def render_slice_rgb(image: np.ndarray, vmin: float | None = None, vmax: float | None = None) -> np.ndarray:
    """Map a 2-D scalar slice to an RGB array in [0, 1] with a warm/cool colormap."""
    norm = normalize_for_display(image, vmin=vmin, vmax=vmax)
    positions = np.linspace(0.0, 1.0, _COOLWARM_STOPS.shape[0])
    rgb = np.empty(norm.shape + (3,), dtype=np.float64)
    for channel in range(3):
        rgb[..., channel] = np.interp(norm, positions, _COOLWARM_STOPS[:, channel])
    return rgb


def zoom_region(image: np.ndarray, zoom: float = 1.5, centre: Tuple[float, float] = (0.5, 0.5)) -> np.ndarray:
    """Crop the central ``1/zoom`` fraction of a 2-D image (the paper's "1.5x zoom in")."""
    img = np.asarray(image)
    if img.ndim < 2:
        raise ValueError("zoom_region expects a 2-D image")
    if zoom < 1.0:
        raise ValueError("zoom must be >= 1")
    out_slices = []
    for axis in range(2):
        n = img.shape[axis]
        span = int(round(n / zoom))
        span = max(1, min(n, span))
        centre_idx = int(round(centre[axis] * (n - 1)))
        start = int(np.clip(centre_idx - span // 2, 0, n - span))
        out_slices.append(slice(start, start + span))
    return img[tuple(out_slices)]
