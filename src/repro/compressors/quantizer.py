"""Error-controlled linear quantization.

All three compressors reduce prediction residuals to integer codes with the
classic SZ linear quantizer: a residual ``r`` becomes ``q = round(r / (2*eb))``
and is reconstructed as ``q * 2 * eb``, which guarantees
``|r - q*2*eb| <= eb``.  Residuals whose code would overflow the configured
code range are flagged *unpredictable* and stored exactly.

The quantizer is stateless and fully vectorised; the code stream and the
exact-value stream are returned separately so callers can entropy-code them
independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["LinearQuantizer", "QuantizedResiduals", "DEFAULT_CODE_RADIUS"]

#: Default half-width of the quantization code range.  Matches the spirit of
#: SZ's 2^15 quantization bins; residuals needing a larger code are stored
#: exactly instead.
DEFAULT_CODE_RADIUS = 32768


@dataclass(frozen=True)
class QuantizedResiduals:
    """Output of :meth:`LinearQuantizer.quantize`.

    Attributes
    ----------
    codes:
        Integer codes, same length as the input residuals.  Unpredictable
        entries carry the sentinel code ``radius`` (outside the normal range
        ``[-radius+1, radius-1]``).
    exact_values:
        Original values of the unpredictable entries, in input order.
    reconstructed:
        Error-bounded reconstruction of the inputs (predictions + dequantized
        residuals, with exact values substituted for unpredictable entries).
    """

    codes: np.ndarray
    exact_values: np.ndarray
    reconstructed: np.ndarray


class LinearQuantizer:
    """Uniform scalar quantizer with an unpredictable-value escape hatch."""

    def __init__(self, radius: int = DEFAULT_CODE_RADIUS):
        if radius < 2:
            raise ValueError("code radius must be at least 2")
        self.radius = int(radius)

    @property
    def sentinel(self) -> int:
        """Code used to mark unpredictable (exactly stored) values."""
        return self.radius

    def quantize(
        self, values: np.ndarray, predictions: np.ndarray, error_bound: float
    ) -> QuantizedResiduals:
        """Quantize ``values - predictions`` under an absolute error bound.

        ``values`` and ``predictions`` must have the same shape; the outputs
        are flattened in C order.
        """
        if error_bound <= 0:
            raise ValueError("error_bound must be positive")
        values = np.asarray(values, dtype=np.float64).ravel()
        predictions = np.asarray(predictions, dtype=np.float64).ravel()
        if values.shape != predictions.shape:
            raise ValueError("values and predictions must have the same size")

        step = 2.0 * float(error_bound)
        residual = values - predictions
        # A quotient beyond int64 (a bound ~2^63 times smaller than the
        # residual) casts to garbage; the drift check below escapes it.
        with np.errstate(invalid="ignore"):
            codes = np.rint(residual / step).astype(np.int64)
        recon = predictions + codes * step

        # Escape values whose code overflows the range or whose reconstruction
        # drifted past the bound due to floating-point rounding.
        overflow = np.abs(codes) >= self.radius
        drift = np.abs(recon - values) > error_bound
        unpred = overflow | drift

        codes = np.where(unpred, self.sentinel, codes)
        exact_values = values[unpred].copy()
        recon = np.where(unpred, values, recon)
        return QuantizedResiduals(codes=codes, exact_values=exact_values, reconstructed=recon)

    def dequantize(
        self,
        codes: np.ndarray,
        predictions: np.ndarray,
        error_bound: float,
        exact_values: np.ndarray,
    ) -> Tuple[np.ndarray, int]:
        """Reconstruct values from codes and predictions.

        Returns the reconstruction and the number of exact values consumed, so
        callers interleaving several quantized segments can advance their
        exact-value cursor.
        """
        if error_bound <= 0:
            raise ValueError("error_bound must be positive")
        codes = np.asarray(codes, dtype=np.int64).ravel()
        predictions = np.asarray(predictions, dtype=np.float64).ravel()
        if codes.shape != predictions.shape:
            raise ValueError("codes and predictions must have the same size")
        step = 2.0 * float(error_bound)
        recon = predictions + codes * step
        unpred = codes == self.sentinel
        n_exact = int(unpred.sum())
        if n_exact:
            exact_values = np.asarray(exact_values, dtype=np.float64).ravel()
            if exact_values.size < n_exact:
                raise ValueError(
                    f"need {n_exact} exact values but only {exact_values.size} available"
                )
            recon[unpred] = exact_values[:n_exact]
        return recon, n_exact
