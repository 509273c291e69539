"""``ErrorBound`` — one spec type for every error-bound convention.

The paper (like the SZ/ZFP ecosystem it builds on) quotes error bounds in
four interchangeable conventions: absolute, value-range relative, point-wise
relative and a target PSNR.  A bare ``error_bound: float`` conflates the
first two and cannot express the rest, so :class:`ErrorBound` is the single
serializable spec that all entry points accept; each layer resolves it
against the data it is about to compress with :meth:`ErrorBound.resolve`.

This module deliberately depends on nothing but NumPy so it can be imported
from :mod:`repro.compressors.base` without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Union

import numpy as np

__all__ = ["ErrorBound", "ERROR_BOUND_MODES"]

#: Supported bound conventions, in the order the paper introduces them.
ERROR_BOUND_MODES = ("abs", "rel", "ptw_rel", "psnr")

#: Uniform-quantizer error model: a reconstruction whose point-wise error is
#: uniform on [-e, e] has MSE = e^2 / 3; inverting the PSNR definition
#: (20 log10(range) - 10 log10(MSE)) under that model maps a PSNR target to
#: an absolute bound.  sqrt(3) is that model's constant.
_PSNR_MODEL_FACTOR = float(np.sqrt(3.0))


@dataclass(frozen=True)
class ErrorBound:
    """A declarative error-bound specification.

    Attributes
    ----------
    mode:
        One of ``"abs"`` (absolute point-wise bound), ``"rel"`` (fraction of
        the data's value range), ``"ptw_rel"`` (fraction of the data's peak
        magnitude — the uniform-bound surrogate for point-wise relative
        compression) or ``"psnr"`` (target PSNR in dB, converted through a
        uniform-error model).
    value:
        The bound itself: an absolute error, a fraction, or a dB target.
    """

    mode: str
    value: float

    def __post_init__(self) -> None:
        if self.mode not in ERROR_BOUND_MODES:
            raise ValueError(
                f"unknown error-bound mode {self.mode!r}; expected one of {ERROR_BOUND_MODES}"
            )
        object.__setattr__(self, "value", float(self.value))
        if not np.isfinite(self.value) or self.value <= 0:
            raise ValueError(f"error-bound value must be finite and positive, got {self.value}")

    # -- constructors --------------------------------------------------------
    @classmethod
    def abs(cls, value: float) -> "ErrorBound":
        """Absolute point-wise bound (what the codecs consume natively)."""
        return cls("abs", value)

    @classmethod
    def rel(cls, value: float) -> "ErrorBound":
        """Value-range-relative bound: ``value * (max - min)`` of the data."""
        return cls("rel", value)

    @classmethod
    def ptw_rel(cls, value: float) -> "ErrorBound":
        """Point-wise-relative bound, resolved as ``value * max(|data|)``."""
        return cls("ptw_rel", value)

    @classmethod
    def psnr(cls, value: float) -> "ErrorBound":
        """Target PSNR in dB; higher targets resolve to tighter bounds."""
        return cls("psnr", value)

    @classmethod
    def coerce(
        cls, bound: Union["ErrorBound", Mapping[str, Any], float]
    ) -> "ErrorBound":
        """Normalise any accepted bound form into an :class:`ErrorBound`.

        Floats become ``abs``; mappings go through :meth:`from_dict`;
        ``ErrorBound`` instances pass through unchanged.
        """
        if isinstance(bound, ErrorBound):
            return bound
        if isinstance(bound, Mapping):
            return cls.from_dict(bound)
        return cls.abs(bound)

    # -- resolution ----------------------------------------------------------
    @property
    def needs_statistics(self) -> bool:
        """Whether resolving this spec requires scanning the data at all."""
        return self.mode != "abs"

    def resolve(self, data: np.ndarray) -> float:
        """Convert the spec to the absolute bound for ``data``.

        Degenerate data (zero value range / all-zero field) falls back to
        treating ``value`` as absolute so the bound stays strictly positive.
        """
        if self.mode == "abs":
            return self.value
        arr = np.asarray(data)
        if self.mode == "ptw_rel":
            peak = float(np.abs(arr).max()) if arr.size else 0.0
            value_range = 0.0  # unused by this mode
        else:
            peak = 0.0
            value_range = float(arr.max() - arr.min()) if arr.size else 0.0
        return self.resolve_range(value_range, peak)

    def resolve_range(self, value_range: float, peak: float) -> float:
        """Like :meth:`resolve`, from precomputed statistics.

        Used when the data spans several arrays (a multi-resolution
        hierarchy) whose global range/peak the caller aggregates once.
        ``value_range`` is ignored by ``abs``/``ptw_rel`` and ``peak`` by the
        other modes.
        """
        if self.mode == "abs":
            return self.value
        if self.mode == "rel":
            return self.value * value_range if value_range > 0 else self.value
        if self.mode == "ptw_rel":
            return self.value * peak if peak > 0 else self.value
        if value_range <= 0:
            return np.finfo(np.float64).tiny
        return value_range * (10.0 ** (-self.value / 20.0)) * _PSNR_MODEL_FACTOR

    # -- serialisation -------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (inverted by :meth:`from_dict`)."""
        return {"mode": self.mode, "value": self.value}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ErrorBound":
        """Rebuild a spec from :meth:`to_dict` output."""
        unknown = set(data) - {"mode", "value"}
        if unknown:
            raise ValueError(f"unknown ErrorBound keys: {sorted(unknown)}")
        try:
            return cls(str(data["mode"]), float(data["value"]))
        except KeyError as exc:
            raise ValueError(f"ErrorBound dict is missing key {exc.args[0]!r}") from exc

    def describe(self) -> str:
        """Short human-readable form, e.g. ``rel:0.01`` or ``psnr:60dB``."""
        if self.mode == "psnr":
            return f"psnr:{self.value:g}dB"
        return f"{self.mode}:{self.value:g}"
