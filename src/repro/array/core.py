"""``LazyArray``: the lazy, NumPy-style read surface, written once.

Opening a view costs two small reads (header + index) or one ``describe``
round trip; data moves only when the view is indexed.  :class:`LazyArray`
owns every member of that surface — ``shape``/``dtype``/``ndim``/``size``,
``len()``, ``levels``/``level_index``/``level(k)``, ``n_blocks``, indexing,
``read_roi``, ``numpy.asarray`` and the ``stats`` accounting — and asks a
subclass for exactly two things:

* the **level geometry**, handed to the constructor as
  ``{level: (shape, n_blocks)}`` (read off a container index, or off the one
  ``describe`` reply — :func:`describe_geometry`);
* ``_read(kind, selector) -> (ndarray, accounting)``, where ``kind`` is
  ``"index"`` (a raw index expression) or ``"bbox"`` (a bbox already clamped
  to the level) and ``accounting`` reports ``blocks_touched`` /
  ``blocks_decoded`` / ``cache_hits`` for that one read.

:class:`CompressedArray` is the local family: its ``_read`` compiles the
index expression (:mod:`repro.array.indexing`) into the same bbox/block
arithmetic every store query uses (:mod:`repro.store.query`), decodes **only
the intersecting blocks** — the misses of one read as one codec batch — and
pastes them into the result, consulting a bounded
:class:`~repro.array.cache.BlockCache` so revisited blocks decode once.  The
served families (:mod:`repro.serve`, :mod:`repro.gateway`) ship the selector
instead, and the daemon at the far end hands it to a :class:`CompressedArray`.

The local view is source-agnostic: a :class:`ContainerSource` serves ``.rps2``
block containers (and, via :class:`repro.store.Store`, whole stores), while a
:class:`SingleBlockSource` wraps one compressed blob or an already-decoded
ndarray as a single whole-domain block, so facade reconstructions share the
indexing surface.  Not to be confused with
:class:`repro.compressors.base.CompressedArray`, the *payload* container this
view decodes from.

Block sources implement a small duck-typed protocol::

    geometry             -> {level: (cell-space shape, occupied block count)}
    unit_size(level)     -> unit block edge length of one level
    intersecting(level, block_range) -> (handles, coords) of occupied blocks
    decode(level, handles)           -> list of decoded block arrays
    decode_into(level, handles, outs, srcs) -> decode straight into views
    token                -> hashable namespace for cache keys
    stats                -> dict of decode counters
"""

from __future__ import annotations

import time
from copy import copy as _clone
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.array.cache import BlockCache
from repro.array.indexing import compile_index
from repro.obs import REGISTRY
from repro.obs import span as obs_span
from repro.store.query import (
    BBox,
    bbox_to_block_range,
    bounds_to_slices,
    normalize_bbox,
    paste_slices_batch,
)

#: Where a read's blocks came from: served from the block cache or decoded.
_READ_BLOCKS = REGISTRY.counter(
    "repro_read_blocks_total",
    "Blocks consumed by lazy-view reads, by how they were obtained.",
    labelnames=("outcome",),
)
_READ_SECONDS = REGISTRY.histogram(
    "repro_read_seconds",
    "End-to-end bbox read latency (plan + decode + paste).",
)
_BLOCKS_HIT = _READ_BLOCKS.labels(outcome="hit")
_BLOCKS_DECODED = _READ_BLOCKS.labels(outcome="decoded")

__all__ = [
    "LazyArray",
    "CompressedArray",
    "ContainerSource",
    "SingleBlockSource",
    "as_lazy_array",
    "describe_geometry",
    "open_array",
]


#: ``{level: (cell-space shape, occupied block count)}`` — all a view knows
#: about its data before the first read.
Geometry = Mapping[int, Tuple[Tuple[int, ...], int]]


class ContainerSource:
    """Block source over a :class:`~repro.store.format.ContainerReader`.

    Decoding goes through the reader, so its ``stats`` accounting applies to
    lazy reads exactly as to the classic query methods.
    """

    def __init__(self, reader) -> None:
        self.reader = reader
        self.token = str(reader.path)

    @property
    def geometry(self) -> Geometry:
        return {
            info.level: (tuple(info.level_shape), info.n_blocks)
            for info in self.reader.levels
        }

    def unit_size(self, level: int) -> int:
        return self.reader.level_info(level).unit_size

    def intersecting(
        self, level: int, block_range: Optional[BBox] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        info = self.reader.level_info(level)
        positions = self.reader.index.select(info.level, info.ndim, block_range)
        coords = self.reader.index.coords[positions, : info.ndim]
        return positions, coords

    def decode(self, level: int, handles: Sequence[int]) -> List[np.ndarray]:
        return self.reader.decode_entries(handles)

    def decode_into(
        self,
        level: int,
        handles: Sequence[int],
        outs: Sequence[np.ndarray],
        srcs: Optional[Sequence] = None,
    ) -> None:
        self.reader.decode_entries_into(handles, outs, srcs)

    @property
    def stats(self) -> Dict[str, int]:
        return self.reader.stats


class SingleBlockSource:
    """A whole reconstruction served as one block.

    Wraps either a :class:`repro.compressors.base.CompressedArray` blob
    (decoded lazily, once) or an already-decoded ndarray, presenting both as a
    single-level, single-block domain so facade reconstructions answer the
    same indexing surface as block containers.  The "unit size" is the longest
    axis: the paste arithmetic only ever reads the overlap, so a non-cubic
    whole-domain block is handled like any partially-overlapping unit block.
    """

    def __init__(self, shape: Sequence[int], compressed=None, decoded=None) -> None:
        if (compressed is None) == (decoded is None):
            raise ValueError("pass exactly one of compressed= or decoded=")
        self._shape = tuple(int(s) for s in shape)
        self._compressed = compressed
        self._decoded = None if decoded is None else np.asarray(decoded, dtype=np.float64)
        self.token = f"single:{id(self)}"
        self.stats: Dict[str, int] = {"blocks_decoded": 0, "payload_bytes_read": 0}

    @classmethod
    def from_compressed(cls, compressed) -> "SingleBlockSource":
        return cls(compressed.shape, compressed=compressed)

    @classmethod
    def from_ndarray(cls, data: np.ndarray) -> "SingleBlockSource":
        return cls(np.asarray(data).shape, decoded=data)

    @property
    def geometry(self) -> Geometry:
        return {0: (self._shape, 1)}

    def unit_size(self, level: int) -> int:
        return max(1, *self._shape) if self._shape else 1

    def intersecting(
        self, level: int, block_range: Optional[BBox] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        coords = np.zeros((1, len(self._shape)), dtype=np.int64)
        return np.zeros(1, dtype=np.int64), coords

    def decode(self, level: int, handles: Sequence[int]) -> List[np.ndarray]:
        if self._decoded is None:
            from repro.compressors import get_compressor

            self.stats["blocks_decoded"] += 1
            self.stats["payload_bytes_read"] += int(self._compressed.nbytes_compressed)
            self._decoded = np.asarray(
                get_compressor(self._compressed.codec).decompress(self._compressed),
                dtype=np.float64,
            )
        return [self._decoded]

    def decode_into(
        self,
        level: int,
        handles: Sequence[int],
        outs: Sequence[np.ndarray],
        srcs: Optional[Sequence] = None,
    ) -> None:
        block = self.decode(level, handles)[0]
        for i, out in enumerate(outs):
            src = None if srcs is None else srcs[i]
            np.copyto(out, block if src is None else block[src])


class _PasteWindows:
    """Lazy sequence of destination views ``out[dst_i]``.

    A many-small-blocks read plans thousands of paste windows; materialising
    every view (plus its slice tuple) up front would hold them all alive for
    the whole decode and show up as a near-array-sized tracemalloc peak.
    Each access builds its window on demand, so at most one chunk's worth
    exists at a time.
    """

    __slots__ = ("_out", "_bounds")

    def __init__(self, out: np.ndarray, bounds: np.ndarray) -> None:
        self._out = out
        self._bounds = bounds

    def __len__(self) -> int:
        return len(self._bounds)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _PasteWindows(self._out, self._bounds[i])
        sl = bounds_to_slices(self._bounds[i])
        # A 0-d domain has an empty slice tuple, and out[()] would be a
        # scalar, not a writable view.
        return self._out[sl] if sl else self._out[...]


class _PasteSources:
    """Lazy sequence of source windows: ``None`` for fully-covered blocks
    (decode straight into the destination), a slice tuple for edge blocks."""

    __slots__ = ("_bounds", "_full")

    def __init__(self, bounds: np.ndarray, full: np.ndarray) -> None:
        self._bounds = bounds
        self._full = full

    def __len__(self) -> int:
        return len(self._bounds)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _PasteSources(self._bounds[i], self._full[i])
        return None if self._full[i] else bounds_to_slices(self._bounds[i])


def describe_geometry(described: Mapping[str, Any]) -> Geometry:
    """The level geometry carried by a daemon's container ``describe`` reply."""
    return {
        int(lvl["level"]): (
            tuple(int(s) for s in lvl["level_shape"]),
            int(lvl["n_blocks"]),
        )
        for lvl in sorted(described.get("levels", []), key=lambda lvl: int(lvl["level"]))
    }


#: What every read reports and every view's ``stats`` accumulates.
ACCOUNTING_KEYS = ("blocks_touched", "blocks_decoded", "cache_hits")


class LazyArray:
    """Lazy, NumPy-style read view over one level of multi-resolution data.

    Attributes mirror an ndarray (``shape``, ``dtype``, ``ndim``, ``size``);
    ``levels`` lists the available resolution levels and :meth:`level` returns
    a sibling view of another level.  Indexing with the basic-indexing subset
    (ints, slices with steps, ``...``) materialises exactly the selection;
    ``numpy.asarray(view)`` (via ``__array__``) materialises the whole level.

    Cells of the level's domain not covered by any occupied block (they belong
    to other levels of an AMR hierarchy) read as ``fill_value``.

    Subclasses pass the level geometry to ``__init__`` and implement
    :meth:`_read`; everything else — here — is the same for a local container,
    a socket and an HTTP gateway.
    """

    #: ``"<what> via <where>, "`` for views that are not over local data.
    _origin = ""

    def __init__(
        self, geometry: Geometry, level: Optional[int] = None, fill_value: float = 0.0
    ) -> None:
        self._geometry = geometry
        self.fill_value = float(fill_value)
        self._select_level(next(iter(geometry), 0) if level is None else level)

    def _select_level(self, level: int) -> None:
        self._level = int(level)
        if self._level not in self._geometry:
            raise KeyError(
                f"no level {self._level}; available: {sorted(self._geometry)}"
            )
        self._counts = dict.fromkeys(("requests",) + ACCOUNTING_KEYS, 0)

    def _read(self, kind: str, selector) -> Tuple[np.ndarray, Mapping[str, int]]:
        """Materialise one selection of the viewed level.

        ``kind`` is ``"index"`` (``selector`` is the raw index expression;
        negative numbers count from the end) or ``"bbox"`` (``selector`` is a
        bbox already clamped by :func:`~repro.store.query.normalize_bbox`).
        Returns the array and that read's ``blocks_touched`` /
        ``blocks_decoded`` / ``cache_hits``.
        """
        raise NotImplementedError

    def _account(self, result: np.ndarray, accounting: Mapping[str, int]) -> np.ndarray:
        counts = self._counts
        counts["requests"] += 1
        for key in ACCOUNTING_KEYS:
            counts[key] += int(accounting.get(key, 0))
        return result

    # -- ndarray-style metadata -----------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self._geometry[self._level][0]

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float64)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1

    def __len__(self) -> int:
        if not self.shape:
            raise TypeError("len() of unsized view")
        return self.shape[0]

    # -- levels ----------------------------------------------------------------
    @property
    def levels(self) -> Tuple[int, ...]:
        """Available resolution level indices, finest first."""
        return tuple(self._geometry)

    @property
    def level_index(self) -> int:
        return self._level

    def level(self, k: int) -> "LazyArray":
        """Sibling view of level ``k``.

        Shares everything with this view — geometry, data source or
        connection, block cache — so it costs no I/O and no round trip; only
        its read accounting starts from zero.
        """
        sibling = _clone(self)
        sibling._select_level(k)
        return sibling

    @property
    def n_blocks(self) -> int:
        """Occupied blocks of the viewed level."""
        return self._geometry[self._level][1]

    # -- reading ----------------------------------------------------------------
    def __getitem__(self, index) -> Any:
        result = self._account(*self._read("index", index))
        # A fully-scalar selection is a NumPy scalar, never a 0-d array.
        return result[()] if result.shape == () else result

    def read_roi(self, bbox: Sequence[Sequence[int]]) -> np.ndarray:
        """Decode a clamped cell-space bbox (the classic ``read_roi`` contract).

        Unlike ``__getitem__`` — where negative numbers index from the end —
        a bbox is clamped to the domain, so ``((-5, 8), ...)`` reads ``[0, 8)``.
        """
        return self._account(*self._read("bbox", normalize_bbox(bbox, self.shape)))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = np.asarray(self[...])
        if dtype is not None:
            out = out.astype(dtype, copy=False)
        return out

    # -- introspection -----------------------------------------------------------
    @property
    def stats(self) -> Dict[str, int]:
        """What reading through this view has cost: ``requests`` plus the
        ``blocks_touched`` / ``blocks_decoded`` / ``cache_hits`` each read
        reported."""
        return self._counts

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self._origin}shape={self.shape}, "
            f"dtype={self.dtype}, level={self._level} of {list(self.levels)}, "
            f"blocks={self.n_blocks}, fill_value={self.fill_value})"
        )


class CompressedArray(LazyArray):
    """The local :class:`LazyArray`: reads decode blocks of a block source.

    Sibling :meth:`~LazyArray.level` views share the source and the block
    cache.  Results are fresh writable arrays.
    """

    def __init__(
        self,
        source,
        level: Optional[int] = None,
        fill_value: float = 0.0,
        cache: Optional[BlockCache] = None,
    ) -> None:
        self._source = source
        self.cache = cache
        super().__init__(source.geometry, level, fill_value)

    @property
    def source(self):
        return self._source

    def _read(self, kind: str, selector) -> Tuple[np.ndarray, Dict[str, int]]:
        """Decode one selection.  Also the receiving end of a served read:
        the read daemon hands the selector it was shipped straight to this."""
        rel = None
        if kind == "index":
            compiled = compile_index(selector, self.shape)
            selector, rel = normalize_bbox(compiled.bbox, self.shape), compiled.rel
        out, touched, decoded = self._read_bbox(selector)
        return (out if rel is None else out[rel]), {
            "blocks_touched": touched,
            "blocks_decoded": decoded,
            "cache_hits": touched - decoded,
        }

    def _read_bbox(self, bbox: BBox) -> Tuple[np.ndarray, int, int]:
        """``(array, blocks touched, blocks decoded)`` for one clamped bbox."""
        start = time.perf_counter()
        source = self._source
        unit = source.unit_size(self._level)
        handles, coords = source.intersecting(
            self._level, bbox_to_block_range(bbox, unit)
        )
        out = np.full(
            tuple(hi - lo for lo, hi in bbox), self.fill_value, dtype=np.float64
        )
        n = len(handles)
        if not n:
            _READ_SECONDS.observe(time.perf_counter() - start)
            return out, 0, 0
        # Plan every paste in a handful of vectorised calls (no per-block
        # Python arithmetic), then decode straight into the output windows:
        # fully-covered blocks reconstruct in place, edge blocks paste only
        # their overlap.  Windows are built lazily, one chunk at a time.
        dst_bounds, src_bounds, full = paste_slices_batch(coords, unit, bbox)
        dsts = _PasteWindows(out, dst_bounds)
        srcs = _PasteSources(src_bounds, full)
        if self.cache is None:
            source.decode_into(self._level, handles, dsts, srcs)
            _BLOCKS_DECODED.inc(n)
            _READ_SECONDS.observe(time.perf_counter() - start)
            return out, n, n
        token, level = source.token, self._level
        coords_list = coords.tolist()
        missing = []
        with obs_span("paste", blocks=n) as sp:
            for i in range(n):
                block = self.cache.get((token, level, tuple(coords_list[i])))
                if block is None:
                    missing.append(i)
                else:
                    src = srcs[i]
                    np.copyto(dsts[i], block if src is None else block[src])
            if sp is not None:
                sp.set(hits=n - len(missing))
        if missing:
            # Cache misses decode once into their (read-only) cache slot —
            # the block must outlive this query — then paste the overlap.
            decoded = source.decode(self._level, [handles[i] for i in missing])
            with obs_span("paste", blocks=len(missing), decoded=True):
                for i, block in zip(missing, decoded):
                    self.cache.put((token, level, tuple(coords_list[i])), block)
                    src = srcs[i]
                    np.copyto(dsts[i], block if src is None else block[src])
        _BLOCKS_HIT.inc(n - len(missing))
        _BLOCKS_DECODED.inc(len(missing))
        _READ_SECONDS.observe(time.perf_counter() - start)
        return out, n, len(missing)

    @property
    def stats(self) -> Dict[str, int]:
        """This view's ``requests``/``blocks_touched`` under the *lifetime*
        counters of what it reads through: the source's decode stats and the
        block cache's ``cache_*`` entries, both shared with every other view
        of the same reader or cache."""
        merged = dict(super().stats)
        merged.update(self._source.stats)
        if self.cache is not None:
            merged.update({f"cache_{k}": v for k, v in self.cache.stats.items()})
        return merged


def open_array(
    path: Union[str, Path],
    level: int = 0,
    fill_value: float = 0.0,
    cache: Optional[BlockCache] = None,
) -> CompressedArray:
    """Open a ``.rps2`` block container as a lazy view (two small reads).

    ``cache`` defaults to a fresh bounded :class:`BlockCache` shared by all
    levels of the view.
    """
    from repro.store.format import ContainerReader

    reader = ContainerReader(path)
    return CompressedArray(
        ContainerSource(reader),
        level=level,
        fill_value=fill_value,
        cache=BlockCache() if cache is None else cache,
    )


def as_lazy_array(obj, fill_value: float = 0.0) -> LazyArray:
    """Wrap any read-side object as a lazy view.

    Accepts an existing view (returned unchanged), a
    :class:`repro.compressors.base.CompressedArray` payload (decoded lazily on
    first access), or an array-like (served zero-copy as one block).
    """
    from repro.compressors.base import CompressedArray as CompressedPayload

    if isinstance(obj, LazyArray):
        return obj
    if isinstance(obj, CompressedPayload):
        return CompressedArray(
            SingleBlockSource.from_compressed(obj), fill_value=fill_value
        )
    return CompressedArray(
        SingleBlockSource.from_ndarray(np.asarray(obj, dtype=np.float64)),
        fill_value=fill_value,
    )
