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
the intersecting blocks** and consults a bounded
:class:`~repro.array.cache.BlockCache` so revisited blocks decode once.  A
read moves stacks, not blocks: one ``get_many`` for all its blocks, one
``decode`` call for all its misses, one ``put_many``.  Every block the read
covers whole lands through a *block-grid view* of the result —
``window.reshape(g0, e0, g1, e1, ...)`` with the block axes moved first, so
block ``(i, j, ...)`` of the window is ``[i, j, ...]`` — and the hits and
each kernel stack the codec reconstructs paste in one advanced-index
assignment each; a block on the edge of a bbox off the block grid pastes
only its overlap, so a read allocates nothing block-sized beyond its result
and what the cache keeps.  The served families (:mod:`repro.serve`,
:mod:`repro.gateway`) ship the selector instead, and the daemon at the far
end hands it to a :class:`CompressedArray`.

The local view is source-agnostic: a :class:`ContainerSource` serves ``.rps2``
block containers (and, via :class:`repro.store.Store`, whole stores), while a
:class:`SingleBlockSource` wraps one compressed blob or an already-decoded
ndarray as a single block shaped like the domain, so facade reconstructions
share the indexing surface.  Not to be confused with
:class:`repro.compressors.base.CompressedArray`, the *payload* container this
view decodes from.

Block sources implement a small duck-typed protocol::

    geometry             -> {level: (cell-space shape, occupied block count)}
    block_shape(level)   -> per-axis block extents of one level
    intersecting(level, block_range) -> (handles, coords) of occupied blocks
    decode(level, handles, out)      -> block handles[i] written to out[i]
    token                -> hashable namespace for cache keys
    stats                -> dict of decode counters

``out`` is row-addressable: ``out[rows] = stack`` takes many blocks in one
assignment, and ``out[i]`` is a writable view of one, filled before the next
is asked for.
"""

from __future__ import annotations

import time
from copy import copy as _clone
from itertools import repeat
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
    blocks_in_range,
    normalize_bbox,
    paste_slices,
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

    def block_shape(self, level: int) -> Tuple[int, ...]:
        return self.reader.level_info(level).block_shape

    def intersecting(
        self, level: int, block_range: Optional[BBox] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        info = self.reader.level_info(level)
        positions = self.reader.index.select(info.level, info.ndim, block_range)
        coords = self.reader.index.coords[positions, : info.ndim]
        return positions, coords

    def decode(self, level: int, handles: Sequence[int], out) -> None:
        self.reader.decode_entries(handles, out)

    @property
    def stats(self) -> Dict[str, int]:
        return self.reader.stats


class SingleBlockSource:
    """A whole reconstruction served as one block.

    Wraps either a :class:`repro.compressors.base.CompressedArray` blob
    (decoded lazily, once) or an already-decoded ndarray, presenting both as a
    single-level, single-block domain so facade reconstructions answer the
    same indexing surface as block containers.  The block is shaped like the
    domain, so it pastes through the same block grid as unit blocks do.
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

    def block_shape(self, level: int) -> Tuple[int, ...]:
        return self._shape

    def intersecting(
        self, level: int, block_range: Optional[BBox] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        coords = np.zeros((1, len(self._shape)), dtype=np.int64)
        return np.zeros(1, dtype=np.int64), coords

    def decode(self, level: int, handles: Sequence[int], out) -> None:
        if self._decoded is None:
            from repro.compressors import get_compressor

            self.stats["blocks_decoded"] += 1
            self.stats["payload_bytes_read"] += int(self._compressed.nbytes_compressed)
            self._decoded = np.asarray(
                get_compressor(self._compressed.codec).decompress(self._compressed),
                dtype=np.float64,
            )
        out[: len(handles)] = self._decoded[None]


class _BlockGrid:
    """The blocks of one read as rows addressed into its result.

    Row ``r`` is the block at level block coordinate ``coords[r]``.  A block
    wholly inside the result lies in a *block-grid view* of the window the
    whole blocks cover — ``window.reshape(g0, e0, g1, e1, ...)`` with the
    block axes moved first — so ``grid[rows] = stack`` pastes all such rows in
    one advanced-index assignment.  An edge block pastes only its overlap,
    cropped from the block it arrives as, so a read off the block grid
    allocates nothing block-sized beyond its result.

    ``grid[r]`` is a writable view of block ``r``; for an edge block that is
    a one-block scratch, pasted when the next one is asked for or at
    :meth:`flush` (decoders fill the views they ask for one at a time).  A
    grid told to :meth:`keep` holds each edge block it receives as an array
    of its own, so ``grid[r]`` hands every block back whole afterwards — what
    a cache stores.  ``grid[sel]`` is the rows ``sel`` as another grid over
    the same result; ``pasted[0]`` counts the assignments across all of them.
    """

    __slots__ = (
        "_out",
        "_shape",
        "_blocks",
        "_coords",
        "_edges",
        "_full",
        "_rows",
        "_kept",
        "_pending",
        "pasted",
    )

    def __init__(
        self, out: np.ndarray, bbox: BBox, extents: Sequence[int], coords: np.ndarray
    ) -> None:
        # The block range whole blocks cover: its window of ``out`` is the grid.
        inner = [(-(-lo // e), max(-(-lo // e), hi // e)) for (lo, hi), e in zip(bbox, extents)]
        cover = (slice(b0 * e - lo, b1 * e - lo) for (b0, b1), e, (lo, _) in zip(inner, extents, bbox))
        window = out[(*cover, Ellipsis)]
        self._full = blocks_in_range(coords, inner)
        edges = np.flatnonzero(~self._full).tolist()
        # Each edge block's (destination, source) overlap.
        self._edges = {
            row: paste_slices(coord, extents, bbox)
            for row, coord in zip(edges, coords[edges].tolist())
        }
        ndim = len(extents)
        split = [n for (b0, b1), e in zip(inner, extents) for n in (b1 - b0, e)]
        axes = tuple(range(0, 2 * ndim, 2)) + tuple(range(1, 2 * ndim, 2))
        self._out, self._shape = out, tuple(extents)
        self._blocks = window.reshape(split).transpose(axes)
        self._coords = coords - [b0 for b0, _ in inner]
        self._rows = np.arange(len(coords))
        self._kept: Optional[Dict[int, np.ndarray]] = None
        self._pending: List = [None]
        self.pasted = [0]

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, rows):
        if not isinstance(rows, (int, np.integer)):
            sub = _clone(self)
            sub._rows = self._rows[rows]
            return sub
        row = int(self._rows[rows])
        if self._full[row]:
            # The ellipsis keeps a 0-d domain's block a view, not a scalar.
            return self._blocks[(*self._coords[row].tolist(), Ellipsis)]
        if self._kept is not None and row in self._kept:
            return self._kept[row]
        self.flush()
        block = np.empty(self._shape)
        self._pending[0] = (row, block)
        if self._kept is not None:
            self._kept[row] = block
        return block

    def __setitem__(self, rows, stack) -> None:
        """Paste ``stack[j]`` as block ``rows[j]``: an ``(n, *extents)``
        array, or a list of blocks — gathered a quarter at a time, so
        gathering never holds more than a quarter of them beside the result."""
        if isinstance(rows, (int, np.integer)):
            rows, stack = [rows], (stack,)
        rows = self._rows[rows]
        full = self._full[rows]
        if isinstance(stack, np.ndarray) and full.all():
            self._blocks[(*self._coords[rows].T, Ellipsis)] = stack
        else:
            inner = np.flatnonzero(full)
            stacked = isinstance(stack, np.ndarray)
            per = max(1, len(inner) if stacked else -(-len(inner) // 4))
            for lo in range(0, len(inner), per):
                part = inner[lo : lo + per]
                whole = stack[part] if stacked else [stack[j] for j in part]
                self._blocks[(*self._coords[rows[part]].T, Ellipsis)] = whole
            for j in np.flatnonzero(~full).tolist():
                row, block = int(rows[j]), stack[j]
                if self._kept is not None:
                    # An array of its own, not a view pinning the whole stack.
                    block = self._kept[row] = np.array(block)
                self._paste_edge(row, block)
        self.pasted[0] += 1

    def keep(self) -> None:
        """Hold every edge block these rows receive from now on."""
        self._kept = {}

    def flush(self) -> None:
        """Paste the edge block last handed out as a view."""
        pending, self._pending[0] = self._pending[0], None
        if pending is not None:
            self._paste_edge(*pending)

    def _paste_edge(self, row: int, block: np.ndarray) -> None:
        dst, src = self._edges[row]
        self._out[dst] = block[src]


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
        if copy is False:
            # NumPy 2's ``asarray(view, copy=False)``: materialising a lazy
            # view always allocates, so "no copy" cannot be honoured.
            raise ValueError("a lazy view has no buffer to share; materialising it always copies")
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
        source, level, cache = self._source, self._level, self.cache
        extents = source.block_shape(level)
        handles, coords = source.intersecting(level, bbox_to_block_range(bbox, extents))
        out = np.full(tuple(hi - lo for lo, hi in bbox), self.fill_value, dtype=np.float64)
        n = len(handles)
        if not n:
            _READ_SECONDS.observe(time.perf_counter() - start)
            return out, 0, 0
        grid = _BlockGrid(out, bbox, extents, coords)
        keys: List = []
        hits: List = [None] * n
        if cache is not None:
            keys = list(zip(repeat(source.token), repeat(level), map(tuple, coords.tolist())))
            hits = cache.get_many(keys)
        missing = [i for i, block in enumerate(hits) if block is None]
        # A read that hits nothing (every cold one) decodes into the whole grid.
        cold = len(missing) == n
        if missing:
            misses = grid if cold else grid[missing]
            if cache is not None:
                misses.keep()
            # One decode call for every miss: each kernel stack the codec
            # reconstructs lands in one assignment through the grid.
            source.decode(level, handles if cold else handles[missing], misses)
            grid.flush()
        with obs_span("paste", blocks=n, hits=n - len(missing), stacks=grid.pasted[0]):
            if not cold:
                found = [i for i, block in enumerate(hits) if block is not None]
                grid[found] = [hits[i] for i in found]
            if cache is not None and missing:
                cache.put_many(keys if cold else [keys[i] for i in missing], misses)
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
