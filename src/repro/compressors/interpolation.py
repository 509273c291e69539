"""Level-by-level separable interpolation prediction (the SZ3 core).

SZ3 predicts the whole array with a multi-level interpolation scheme: anchor
points on the coarsest grid are stored exactly, then each level halves the
grid spacing and predicts the newly introduced points by interpolating along
one axis at a time from already-reconstructed points.  Points whose upper
neighbour falls outside the array can only be *extrapolated* from the lower
neighbour — the inaccuracy the paper's padding strategy (SZ3MR, §III-A)
removes.

The module exposes an :class:`InterpolationPlan` describing the exact
traversal (anchor slices plus an ordered list of steps); compression and
decompression iterate the same plan so the quantization-code stream needs no
positional metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

import numpy as np

__all__ = [
    "InterpolationStep",
    "InterpolationPlan",
    "max_interpolation_level",
    "build_plan",
    "predict_step",
    "count_extrapolated_points",
]

#: Supported interpolation kernels.
INTERPOLATION_MODES = ("linear", "cubic")


@dataclass(frozen=True)
class InterpolationStep:
    """One (level, axis) sub-step of the interpolation traversal.

    ``target`` selects (as a tuple of slices) the points predicted in this
    step; the same slices are valid on the original and the reconstructed
    array because the traversal is defined purely by the array shape.
    ``size`` is how many points that is — the length of the step's segment
    of the quantization-code stream.
    """

    level: int
    axis: int
    target: Tuple[slice, ...]
    size: int


@dataclass(frozen=True)
class InterpolationPlan:
    """Full traversal: anchor slices, ordered steps, the level count and the
    length of the whole quantization-code stream (every non-anchor point)."""

    shape: Tuple[int, ...]
    max_level: int
    anchor: Tuple[slice, ...]
    steps: Tuple[InterpolationStep, ...]
    n_codes: int

    @property
    def anchor_stride(self) -> int:
        return 1 << self.max_level

    def n_targets(self, step: InterpolationStep) -> int:
        """Number of points predicted by ``step`` (needed by the decoder)."""
        return step.size


def _slice_len(sl: slice, n: int) -> int:
    start = sl.start or 0
    step = sl.step or 1
    stop = n if sl.stop is None else min(sl.stop, n)
    if start >= stop:
        return 0
    return (stop - start + step - 1) // step


def max_interpolation_level(shape: Tuple[int, ...]) -> int:
    """Number of interpolation levels for a given shape.

    Defined so the anchor stride ``2^max_level`` reaches the last index of the
    longest axis when that axis has ``2^n + 1`` points — the layout produced
    by the paper's padding strategy, in which case no anchor extrapolation is
    needed at all.
    """
    m = max(int(s) for s in shape)
    if m <= 1:
        return 0
    return max(1, int(math.ceil(math.log2(max(m - 1, 1)))))


@lru_cache(maxsize=256)
def build_plan(shape: Tuple[int, ...]) -> InterpolationPlan:
    """The deterministic interpolation traversal for ``shape``.

    Memoised: a plan depends on nothing but the shape and is immutable, so
    the thousands of equal-shaped unit blocks of a level share one.
    """
    shape = tuple(int(s) for s in shape)
    if any(s <= 0 for s in shape):
        raise ValueError(f"invalid shape {shape}")
    ndim = len(shape)
    max_level = max_interpolation_level(shape)
    anchor_stride = 1 << max_level
    anchor = tuple(slice(0, None, anchor_stride) for _ in range(ndim))

    steps: List[InterpolationStep] = []
    for level in range(max_level, 0, -1):
        s = 1 << (level - 1)
        for axis in range(ndim):
            target = []
            for d in range(ndim):
                if d < axis:
                    target.append(slice(0, None, s))
                elif d == axis:
                    target.append(slice(s, None, 2 * s))
                else:
                    target.append(slice(0, None, 2 * s))
            size = math.prod(_slice_len(sl, n) for sl, n in zip(target, shape))
            # Skip degenerate steps with no targets (very anisotropic shapes).
            if size:
                steps.append(
                    InterpolationStep(level=level, axis=axis, target=tuple(target), size=size)
                )
    return InterpolationPlan(
        shape=shape,
        max_level=max_level,
        anchor=anchor,
        steps=tuple(steps),
        n_codes=sum(step.size for step in steps),
    )


def predict_step(
    recon: np.ndarray, step: InterpolationStep, mode: str = "cubic"
) -> np.ndarray:
    """Predict the target points of ``step`` from already-reconstructed points.

    ``recon`` is one array of the plan's shape or a stack of them — any
    leading axes are carried through, so ``(N, *shape)`` predicts N arrays in
    one call.  Returns an array with the shape of ``recon[..., *step.target]``.
    Interior points are interpolated (linearly or with the 4-point cubic
    kernel); the trailing points without an upper neighbour are extrapolated
    from the lower neighbour (constant extrapolation), reproducing original
    SZ3 behaviour.
    """
    if mode not in INTERPOLATION_MODES:
        raise ValueError(f"mode must be one of {INTERPOLATION_MODES}, got {mode!r}")
    s = 1 << (step.level - 1)
    target = step.target
    trailing = (slice(None),) * (len(target) - 1 - step.axis)
    axis = -1 - len(trailing)  # the step's axis, counted from the end

    def along(start: int, stop: int) -> Tuple:
        return (Ellipsis, slice(start, stop)) + trailing

    # Coarse-grid neighbours along the axis: positions 0, 2s, 4s, ...
    coarse = target[: step.axis] + (slice(0, None, 2 * s),) + target[step.axis + 1 :]
    co = recon[(Ellipsis,) + coarse].astype(np.float64, copy=False)
    n_c = co.shape[axis]
    n_t = _slice_len(target[step.axis], recon.shape[axis])
    shape = list(co.shape)
    shape[axis] = n_t
    pred = np.empty(shape, dtype=np.float64)
    if n_t == 0:
        return pred

    # Linear interpolation wherever the upper neighbour exists.
    n_lin = min(n_t, n_c - 1)
    if n_lin > 0:
        pred[along(0, n_lin)] = 0.5 * (co[along(0, n_lin)] + co[along(1, n_lin + 1)])
    # Constant extrapolation from the lower neighbour for the remainder.
    if n_lin < n_t:
        pred[along(n_lin, n_t)] = co[along(n_lin, n_t)]

    # Cubic refinement on interior targets with two neighbours on each side.
    if mode == "cubic" and n_c >= 4:
        m0 = 1
        m1 = min(n_t, n_c - 2)
        if m1 > m0:
            pred[along(m0, m1)] = (
                -co[along(m0 - 1, m1 - 1)]
                + 9.0 * co[along(m0, m1)]
                + 9.0 * co[along(m0 + 1, m1 + 1)]
                - co[along(m0 + 2, m1 + 2)]
            ) / 16.0

    return pred


def count_extrapolated_points(shape: Tuple[int, ...]) -> int:
    """Number of points predicted by extrapolation rather than interpolation.

    This quantifies the sub-optimal predictions discussed around Figures 7
    and 8 of the paper: a ``2^n``-sized axis forces extrapolation at every
    level, whereas a padded ``2^n + 1`` axis needs none.
    """
    plan = build_plan(shape)
    total = 0
    for step in plan.steps:
        axis = step.axis
        s = 1 << (step.level - 1)
        n_t = _slice_len(step.target[axis], shape[axis])
        coarse_len = _slice_len(slice(0, None, 2 * s), shape[axis])
        n_extrap_per_line = max(0, n_t - (coarse_len - 1))
        other = 1
        for d, (sl, n) in enumerate(zip(step.target, shape)):
            if d != axis:
                other *= _slice_len(sl, n)
        total += n_extrap_per_line * other
    return total
