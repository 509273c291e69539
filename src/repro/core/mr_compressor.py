"""Multi-resolution compression engine.

This is the machinery every curve of Figures 15-18 shares: take one
resolution level of a multi-resolution dataset, cut its occupied region into
unit blocks (:mod:`repro.core.partition`), arrange the blocks into one or more
dense arrays (linear / stack / adjacency merge), optionally pad the small
dimensions (:mod:`repro.core.padding`), and hand the result to an
error-bounded compressor (optionally with adaptive per-level error bounds for
SZ3).  The same object also decompresses and reassembles the level, so
baselines (AMRIC, TAC, original SZ3) and the paper's SZ3MR are just different
constructor arguments — see :mod:`repro.core.sz3mr` and
:mod:`repro.baselines`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.amr.grid import AMRHierarchy
from repro.api.error_bound import ErrorBound
from repro.compressors import SZ2Compressor, SZ3Compressor, ZFPCompressor
from repro.compressors.base import CompressedArray, Compressor
from repro.compressors.errors import CompressionError
from repro.core.adaptive_eb import DEFAULT_ALPHA, DEFAULT_BETA, adaptive_level_error_bounds
from repro.core.padding import PadInfo, pad_small_dimensions, should_pad, unpad
from repro.core.partition import (
    ARRANGEMENTS,
    Arrangement,
    UnitBlockSet,
    adjacency_merge,
    extract_unit_blocks,
    linear_merge,
    scatter_unit_blocks,
    split_merged,
    stack_merge,
)

__all__ = [
    "MultiResolutionCompressor",
    "CompressedLevel",
    "CompressedHierarchy",
    "PreparedLevel",
]

_COMPRESSOR_CHOICES = ("sz3", "sz2", "zfp")

#: Block size AMRIC found optimal when running SZ2 on multi-resolution data.
_SZ2_MULTIRES_BLOCK = 4


@dataclass
class PreparedLevel:
    """Pre-processed (but not yet encoded) level: merged arrays + bookkeeping.

    Splitting preparation (unit-block extraction, arrangement, padding — the
    "collecting data to the compression buffer" cost of Table IV) from
    encoding (compression proper) lets the in-situ pipeline time the two
    stages separately, mirroring the paper's output-time breakdown.
    """

    level_index: int
    merged: List[np.ndarray]
    arrangement: Arrangement
    pad_info: Optional[PadInfo]
    coords: np.ndarray
    level_shape: Tuple[int, ...]
    unit_size: int
    n_blocks: int

    @property
    def nbytes_original(self) -> int:
        ndim = len(self.level_shape)
        return self.n_blocks * (self.unit_size**ndim) * 8


@dataclass
class CompressedLevel:
    """Compressed representation of one resolution level."""

    level: int
    payloads: List[CompressedArray]
    arrangement: Arrangement
    pad_info: Optional[PadInfo]
    coords_payload: bytes
    level_shape: Tuple[int, ...]
    unit_size: int
    nbytes_original: int

    @property
    def nbytes_compressed(self) -> int:
        return sum(p.nbytes_compressed for p in self.payloads) + len(self.coords_payload)

    @property
    def compression_ratio(self) -> float:
        return self.nbytes_original / max(1, self.nbytes_compressed)


@dataclass
class CompressedHierarchy:
    """Compressed representation of a whole multi-resolution hierarchy."""

    levels: List[CompressedLevel]
    error_bound: float
    metadata: Dict = field(default_factory=dict)

    @property
    def nbytes_original(self) -> int:
        return sum(l.nbytes_original for l in self.levels)

    @property
    def nbytes_compressed(self) -> int:
        return sum(l.nbytes_compressed for l in self.levels)

    @property
    def compression_ratio(self) -> float:
        return self.nbytes_original / max(1, self.nbytes_compressed)


class MultiResolutionCompressor:
    """Compress multi-resolution (AMR / adaptive) data level by level.

    Parameters
    ----------
    compressor:
        ``"sz3"`` (global interpolation), ``"sz2"`` (block prediction, 4^3
        blocks as AMRIC recommends for multi-resolution data) or ``"zfp"``.
    arrangement:
        Unit-block arrangement: ``"linear"`` (baseline / ours), ``"stack"``
        (AMRIC) or ``"adjacency"`` (TAC-like, per-segment compression).
    padding:
        ``True`` / ``False`` or ``"auto"`` (paper rule: pad only when the unit
        block size exceeds 4).  Padding only applies to the linear arrangement.
    padding_mode:
        Pad-layer extrapolation: ``"constant"``, ``"linear"`` (paper default)
        or ``"quadratic"``.
    adaptive_eb:
        Use the per-interpolation-level error bound schedule (SZ3 only).
    unit_size:
        Unit block edge length used to partition each level (16 by default,
        the value quoted in §IV-B).
    """

    def __init__(
        self,
        compressor: str = "sz3",
        arrangement: str = "linear",
        padding: Union[bool, str] = "auto",
        padding_mode: str = "linear",
        pad_threshold: int = 4,
        adaptive_eb: bool = False,
        alpha: float = DEFAULT_ALPHA,
        beta: float = DEFAULT_BETA,
        unit_size: int = 16,
        compressor_options: Optional[Dict] = None,
    ) -> None:
        if compressor not in _COMPRESSOR_CHOICES:
            raise ValueError(f"compressor must be one of {_COMPRESSOR_CHOICES}")
        if arrangement not in ARRANGEMENTS:
            raise ValueError(f"arrangement must be one of {ARRANGEMENTS}")
        if padding not in (True, False, "auto"):
            raise ValueError("padding must be True, False or 'auto'")
        self.compressor_kind = compressor
        self.arrangement = arrangement
        self.padding = padding
        self.padding_mode = padding_mode
        self.pad_threshold = int(pad_threshold)
        self.adaptive_eb = bool(adaptive_eb)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.unit_size = int(unit_size)
        self.compressor_options = dict(compressor_options or {})
        self._codec = self._build_codec()

    # -- codec construction ---------------------------------------------------
    def _build_codec(self) -> Compressor:
        options = dict(self.compressor_options)
        if self.compressor_kind == "sz3":
            if self.adaptive_eb:
                options.setdefault(
                    "level_error_bounds", adaptive_level_error_bounds(self.alpha, self.beta)
                )
            self._codec_options = options
            return SZ3Compressor(**options)
        if self.compressor_kind == "sz2":
            options.setdefault("block_size", _SZ2_MULTIRES_BLOCK)
            self._codec_options = options
            return SZ2Compressor(**options)
        self._codec_options = options
        return ZFPCompressor(**options)

    @property
    def codec(self) -> Compressor:
        """The underlying single-array compressor."""
        return self._codec

    def codec_spec(self) -> Tuple[str, Dict]:
        """Registry name and resolved constructor options of the codec.

        The pair is plain data, so :class:`repro.store.engine.CodecEngine`
        can rebuild an identical codec with ``get_compressor(kind,
        **options)`` without holding this object.
        """
        return self.compressor_kind, dict(self._codec_options)

    def _padding_enabled(self, unit_size: int) -> bool:
        if self.arrangement != "linear" or self.compressor_kind != "sz3":
            return False
        if self.padding == "auto":
            return should_pad(unit_size, self.pad_threshold)
        return bool(self.padding)

    # -- level API --------------------------------------------------------------
    def prepare_level(
        self,
        level_data: np.ndarray,
        mask: Optional[np.ndarray],
        level_index: int = 0,
        unit_size: Optional[int] = None,
    ) -> PreparedLevel:
        """Pre-process one level: unit blocks -> arrangement -> (padding).

        This is the "collect data to the compression buffer" stage whose cost
        Table IV reports separately from compression + writing.
        """
        u = unit_size if unit_size is not None else self.unit_size
        if mask is not None and not mask.any():
            raise CompressionError(
                f"level {level_index} owns no cell (the snapshot is fully refined, or "
                "not refined at all); the merged v1 container cannot hold an empty "
                "level — Store.append stores it as a level of zero blocks"
            )
        block_set = extract_unit_blocks(level_data, mask=mask, unit_size=u)
        u = block_set.unit_size

        if self.arrangement == "linear":
            merged, arrangement = linear_merge(block_set)
            merged_list = [merged]
        elif self.arrangement == "stack":
            merged, arrangement = stack_merge(block_set)
            merged_list = [merged]
        else:
            merged_list, arrangement = adjacency_merge(block_set)

        pad_info: Optional[PadInfo] = None
        if self._padding_enabled(u):
            padded, pad_info = pad_small_dimensions(merged_list[0], mode=self.padding_mode)
            merged_list = [padded]
        return PreparedLevel(
            level_index=int(level_index),
            merged=list(merged_list),
            arrangement=arrangement,
            pad_info=pad_info,
            coords=block_set.coords,
            level_shape=block_set.level_shape,
            unit_size=u,
            n_blocks=block_set.n_blocks,
        )

    # -- per-block API (the substrate of the repro.store v2 container) ----------
    def prepare_unit_blocks(
        self,
        level_data: np.ndarray,
        mask: Optional[np.ndarray],
        unit_size: Optional[int] = None,
    ) -> UnitBlockSet:
        """Cut one level into Morton-ordered unit blocks without merging them.

        Unlike :meth:`prepare_level` the blocks are kept separate, so the
        block store can index each and reconstruct only the blocks a query
        touches (it still entropy-codes them a stack at a time).
        """
        u = unit_size if unit_size is not None else self.unit_size
        return extract_unit_blocks(level_data, mask=mask, unit_size=u)

    def encode_unit_blocks(
        self, block_set: UnitBlockSet, error_bound: float
    ) -> List[CompressedArray]:
        """Encode every unit block into its own standalone payload.

        One :meth:`~repro.compressors.base.Compressor.compress_batch` call:
        the blocks share a shape, so a codec with a batched kernel predicts
        and quantises them together.
        """
        return self._codec.compress_batch(block_set.blocks, float(error_bound))

    def decode_unit_block(self, compressed: CompressedArray) -> np.ndarray:
        """Decode one standalone unit-block payload back to its array."""
        return self._codec.decompress(compressed)

    def encode_prepared(self, prepared: PreparedLevel, error_bound: float) -> CompressedLevel:
        """Encode a prepared level with the underlying error-bounded compressor."""
        payloads = [self._codec.compress(arr, error_bound) for arr in prepared.merged]
        coords_payload = zlib.compress(prepared.coords.astype("<i4").tobytes(), 6)
        return CompressedLevel(
            level=prepared.level_index,
            payloads=payloads,
            arrangement=prepared.arrangement,
            pad_info=prepared.pad_info,
            coords_payload=coords_payload,
            level_shape=prepared.level_shape,
            unit_size=prepared.unit_size,
            nbytes_original=prepared.nbytes_original,
        )

    def compress_level(
        self,
        level_data: np.ndarray,
        mask: Optional[np.ndarray],
        error_bound: Union[float, ErrorBound, Mapping],
        level_index: int = 0,
        unit_size: Optional[int] = None,
    ) -> CompressedLevel:
        """Compress one resolution level.

        An :class:`~repro.api.error_bound.ErrorBound` spec is resolved
        against this level's data; a bare float is an absolute bound.
        """
        if isinstance(error_bound, (ErrorBound, Mapping)):
            error_bound = ErrorBound.coerce(error_bound).resolve(level_data)
        prepared = self.prepare_level(
            level_data, mask, level_index=level_index, unit_size=unit_size
        )
        return self.encode_prepared(prepared, error_bound)

    def decompress_level(self, compressed: CompressedLevel) -> np.ndarray:
        """Reconstruct the (full-domain) level array from a compressed level.

        Cells outside the occupied unit blocks are zero.
        """
        decompressed = [self._codec.decompress(p) for p in compressed.payloads]
        if compressed.pad_info is not None:
            decompressed = [unpad(decompressed[0], compressed.pad_info)]
        if compressed.arrangement.kind == "adjacency":
            blocks = split_merged(decompressed, compressed.arrangement)
        else:
            blocks = split_merged(decompressed[0], compressed.arrangement)

        coords = np.frombuffer(
            zlib.decompress(compressed.coords_payload), dtype="<i4"
        ).reshape(-1, len(compressed.level_shape)).astype(np.int64)
        block_set = UnitBlockSet(
            blocks=blocks,
            coords=coords,
            unit_size=compressed.unit_size,
            level_shape=compressed.level_shape,
        )
        return scatter_unit_blocks(block_set)

    # -- hierarchy API -----------------------------------------------------------
    @staticmethod
    def resolve_hierarchy_bound(
        hierarchy: AMRHierarchy, error_bound: Union[ErrorBound, Mapping]
    ) -> float:
        """Resolve an :class:`ErrorBound` spec against a whole hierarchy.

        Relative modes use the global value range / peak magnitude across
        all levels, so the same spec means the same absolute bound no matter
        how the field was partitioned.
        """
        spec = ErrorBound.coerce(error_bound)
        if not spec.needs_statistics:
            return spec.value
        if spec.mode == "ptw_rel":
            value_range = 0.0
            peak = max(float(np.abs(lvl.data).max()) for lvl in hierarchy.levels)
        else:
            lo = min(float(lvl.data.min()) for lvl in hierarchy.levels)
            hi = max(float(lvl.data.max()) for lvl in hierarchy.levels)
            value_range, peak = hi - lo, 0.0
        return float(spec.resolve_range(value_range, peak))

    def compress_hierarchy(
        self,
        hierarchy: AMRHierarchy,
        error_bound: Union[float, Sequence[float], ErrorBound, Mapping],
        unit_size: Optional[int] = None,
    ) -> CompressedHierarchy:
        """Compress every level of a hierarchy.

        ``error_bound`` is a single absolute bound applied to every level, a
        sequence with one bound per level (fine to coarse), or an
        :class:`~repro.api.error_bound.ErrorBound` spec resolved against the
        hierarchy's global statistics.
        """
        if isinstance(error_bound, (ErrorBound, Mapping)):
            error_bound = self.resolve_hierarchy_bound(hierarchy, error_bound)
        if np.isscalar(error_bound):
            bounds = [float(error_bound)] * hierarchy.n_levels
        else:
            bounds = [float(e) for e in error_bound]
            if len(bounds) != hierarchy.n_levels:
                raise ValueError("need one error bound per level")
        levels = []
        for lvl, eb in zip(hierarchy.levels, bounds):
            levels.append(
                self.compress_level(
                    lvl.data, lvl.mask, eb, level_index=lvl.level, unit_size=unit_size
                )
            )
        return CompressedHierarchy(
            levels=levels,
            error_bound=bounds[0],
            metadata={
                "compressor": self.compressor_kind,
                "arrangement": self.arrangement,
                "adaptive_eb": self.adaptive_eb,
                "unit_size": unit_size or self.unit_size,
                "level_error_bounds": bounds,
            },
        )

    def decompress_hierarchy(
        self, compressed: CompressedHierarchy, template: AMRHierarchy
    ) -> AMRHierarchy:
        """Rebuild a hierarchy from compressed levels.

        ``template`` supplies the ownership masks (the compressed stream keeps
        only the occupied-block coordinates); values outside the occupied
        blocks are zero and are never owned.
        """
        if len(compressed.levels) != template.n_levels:
            raise ValueError("compressed hierarchy and template have different level counts")
        new_data = [self.decompress_level(lvl) for lvl in compressed.levels]
        return template.copy_with_data(new_data)

    # -- convenience --------------------------------------------------------------
    def roundtrip_hierarchy(
        self,
        hierarchy: AMRHierarchy,
        error_bound: Union[float, Sequence[float], ErrorBound, Mapping],
        unit_size: Optional[int] = None,
    ) -> Tuple[CompressedHierarchy, AMRHierarchy]:
        """Compress and immediately decompress a hierarchy."""
        compressed = self.compress_hierarchy(hierarchy, error_bound, unit_size=unit_size)
        return compressed, self.decompress_hierarchy(compressed, hierarchy)

    def describe(self) -> str:
        """Short human-readable configuration string (used by benchmark tables)."""
        bits = [self.compressor_kind, self.arrangement]
        if self._padding_enabled(self.unit_size):
            bits.append(f"pad:{self.padding_mode}")
        if self.adaptive_eb and self.compressor_kind == "sz3":
            bits.append(f"adaptive-eb(a={self.alpha},b={self.beta})")
        return "+".join(bits)
