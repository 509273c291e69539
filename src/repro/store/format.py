"""Block container format (``.rps2``, version 3) — write once, read any block.

Unlike the v1 hierarchy container (:mod:`repro.insitu.io`), which compresses
each resolution level into one monolithic merged-array payload, a block
container keeps every Morton-ordered unit block addressable: a per-block
``(level, coords, offset, length)`` index in the file head says which payload
a block lives in, and a reader decodes exactly the blocks a query touches — a
halo neighbourhood, an isosurface ROI, or a single coarse level — without
reconstructing the rest of the timestep.

File layout (see :mod:`repro.store` for the full diagram)::

    b"RPS2" | u32 header_len | JSON header | block index | payload ... payload

The JSON header carries the format version, error bound, codec description,
free-form metadata, the per-level geometry (shape, unit size, block count,
original bytes) and the size of the index section; the index is documented in
:mod:`repro.store.index`; each payload is a self-describing
:class:`~repro.compressors.base.CompressedArray` blob, so containers remain
decodable without any state from the writing process.

A payload holds one block or a *stack* of them (a Morton run the codec
entropy-coded together; its header says how many).  The blocks of a stack
share its ``(offset, length)`` in the index, so the unit of *storage* is the
stack — one header, one entropy stage, one fetch, which is where the ratio of
the paper's merged arrangement comes from — while the unit of prediction, of
a read and of the block cache stays the block: reading one block fetches and
inflates its stack, and reconstructs that block only.

Version 2 files (one payload per block, raw index records) are the same
format with every stack of size one and are read by the same code; the
reader's only version branch is how the index section is stored.  Only
version 3 is written.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.compressors.base import CompressedArray
from repro.compressors.errors import DecompressionError
from repro.core.partition import UnitBlockSet
from repro.obs import REGISTRY
from repro.obs import span as obs_span
from repro.store.engine import decode_payloads, decode_payloads_into
from repro.store.index import RECORD_BYTES, BlockIndex
from repro.store.query import BBox, coalesce_ranges
from repro.utils.morton import morton_encode2d, morton_encode3d

__all__ = ["BlockLevel", "LevelInfo", "ContainerReader", "write_container", "STORE_MAGIC"]

STORE_MAGIC = b"RPS2"  # "RePro Store"; the format version is in the header

#: Merge payload ranges whose file gap is at most this many bytes into one
#: fetch — about one page: reading a page-sized gap is cheaper than a second
#: syscall (file source) or a second view (mmap source).
_COALESCE_GAP = 4096

#: One observation per coalesced fetch batch, split by payload source so a
#: snapshot shows whether slow reads paid mmap slices or seek/read syscalls.
_FETCH_SECONDS = REGISTRY.histogram(
    "repro_store_fetch_seconds",
    "Payload fetch latency per coalesced batch.",
    labelnames=("source",),
)


class _FilePayloadSource:
    """Coalesced ``seek``/``read`` fetches — the fallback when mmap is not
    available; one file handle per fetch batch, so sharing a reader across
    threads stays safe."""

    kind = "file"

    def __init__(self, path: Path) -> None:
        self.path = Path(path)

    def fetch(self, lo: np.ndarray, hi: np.ndarray) -> List[memoryview]:
        out: List[memoryview] = []
        with self.path.open("rb") as fh:
            for a, b in zip(lo.tolist(), hi.tolist()):
                fh.seek(a)
                out.append(memoryview(fh.read(b - a)))
        return out

    def close(self) -> None:  # no persistent resources
        pass


class _MmapPayloadSource:
    """Zero-copy payload fetches over one shared read-only memory map.

    A fetch is a slice of the map — no syscall, no intermediate buffer — and
    slicing is thread-safe, so one mapping serves every connection of a read
    daemon.  After an atomic container overwrite (``os.replace``) the map
    keeps describing the *old* inode, which is exactly the torn-read safety
    the catalog relies on: stale readers are reopened at the catalog layer.
    """

    kind = "mmap"

    def __init__(self, path: Path) -> None:
        import mmap

        fh = open(path, "rb")
        try:
            self._mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        finally:
            # The mapping keeps its own reference to the file; holding the
            # Python handle open would just pin a second fd per reader.
            fh.close()
        self._view = memoryview(self._mm)

    def fetch(self, lo: np.ndarray, hi: np.ndarray) -> List[memoryview]:
        view = self._view
        return [view[a:b] for a, b in zip(lo.tolist(), hi.tolist())]

    def close(self) -> None:
        """Release the map (and its fd).  Degrades to a no-op while fetched
        slices are still alive — the GC finishes the job once they die."""
        try:
            self._view.release()
        except BufferError:
            return
        try:
            self._mm.close()
        except BufferError:
            pass


def _morton_codes(coords: np.ndarray) -> np.ndarray:
    if coords.shape[1] == 3:
        return morton_encode3d(coords[:, 0], coords[:, 1], coords[:, 2])
    return morton_encode2d(coords[:, 0], coords[:, 1])


@dataclass
class BlockLevel:
    """Payloads of one resolution level, ready to be written.

    A payload holds one unit block or a stack of them, and says how many in
    its own header; ``coords`` has one row per *block*, in payload order (the
    rows of payload 0, then of payload 1, ...).  The writer re-sorts the
    payloads by the Morton code of their first block, so one-block payloads
    land in space-filling-curve order however the caller produced them, and
    stacks — Morton runs as ``Store.append`` cuts them — stay whole.
    """

    level: int
    level_shape: Tuple[int, ...]
    unit_size: int
    coords: np.ndarray
    payloads: List[bytes]
    #: Blocks held by each payload, read from the payload headers.
    counts: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=np.int64)
        headers: Dict[bytes, dict] = {}
        self.counts = np.array(
            [CompressedArray.from_bytes(blob, headers).n_blocks for blob in self.payloads],
            dtype=np.int64,
        )
        if self.coords.shape[0] != self.counts.sum():
            raise ValueError(
                f"level {self.level}: {self.coords.shape[0]} coords but "
                f"{len(self.payloads)} payloads holding {self.counts.sum()} blocks"
            )

    @property
    def n_blocks(self) -> int:
        return int(self.coords.shape[0])

    @property
    def nbytes_original(self) -> int:
        return self.n_blocks * (int(self.unit_size) ** len(self.level_shape)) * 8

    def morton_ordered(self) -> Tuple[np.ndarray, List[bytes], np.ndarray]:
        """``(coords, payloads, counts)`` with the payloads sorted by the
        Morton code of their first block."""
        starts = np.cumsum(self.counts) - self.counts
        order = np.argsort(_morton_codes(self.coords[starts]), kind="stable")
        counts = self.counts[order]
        # Row r of the result is block (r - its payload's new start) of the
        # payload that moved there.
        shift = np.repeat(starts[order] - (np.cumsum(counts) - counts), counts)
        rows = np.arange(self.n_blocks) + shift
        return self.coords[rows], [self.payloads[k] for k in order], counts


@dataclass
class LevelInfo:
    """Geometry of one level as recorded in a container header."""

    level: int
    level_shape: Tuple[int, ...]
    unit_size: int
    n_blocks: int
    nbytes_original: int

    @property
    def ndim(self) -> int:
        return len(self.level_shape)


def write_container(
    path: Union[str, Path],
    levels: Sequence[BlockLevel],
    error_bound: float,
    codec: str = "",
    metadata: Optional[Dict] = None,
) -> Dict[str, int]:
    """Write a block container; returns what it wrote (``n_blocks``,
    ``nbytes_original``, ``nbytes_compressed`` — the file size), as
    :meth:`ContainerReader.describe` would report it."""
    if not levels:
        raise ValueError("a container needs at least one level")
    levels = sorted(levels, key=lambda lvl: int(lvl.level))
    ordered = [lvl.morton_ordered() for lvl in levels]
    index = BlockIndex.build(
        (lvl.level, coords, [len(blob) for blob in payloads], counts)
        for lvl, (coords, payloads, counts) in zip(levels, ordered)
    )
    index_blob = index.to_bytes()
    header = {
        "format": "repro-store-container",
        "format_version": 3,
        "error_bound": float(error_bound),
        "codec": str(codec),
        "metadata": dict(metadata or {}),
        "n_entries": index.n_entries,
        "index_nbytes": len(index_blob),
        "levels": [
            {
                "level": int(lvl.level),
                "level_shape": [int(s) for s in lvl.level_shape],
                "unit_size": int(lvl.unit_size),
                "n_blocks": lvl.n_blocks,
                "nbytes_original": lvl.nbytes_original,
            }
            for lvl in levels
        ],
    }
    header_blob = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [STORE_MAGIC, struct.pack("<I", len(header_blob)), header_blob, index_blob]
    for _, payloads, _ in ordered:
        parts.extend(payloads)
    blob = b"".join(parts)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Atomic replace: concurrent readers (e.g. a read daemon in another
    # process) see either the old container or the new one, never a torn
    # write.
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(blob)
    os.replace(tmp, path)
    return {
        "n_blocks": index.n_entries,
        "nbytes_original": sum(lvl.nbytes_original for lvl in levels),
        "nbytes_compressed": len(blob),
    }


class ContainerReader:
    """Random-access reader over one block container (version 2 or 3).

    Opening a reader parses only the header and the block index (two small
    reads, one inflate); payloads are fetched lazily, and *coalesced*: the
    payloads of the requested blocks are sorted by file offset and merged into
    contiguous ranges (adjacent or near-adjacent ones cost one fetch, not one
    syscall each; blocks of one stack share one payload),
    served zero-copy from a shared read-only memory map when the platform
    provides one, with a coalesced seek/read fallback otherwise.  ``stats``
    counts decoded blocks, payload bytes read and fetch ranges issued — the
    tests assert partial decodes through it, and ``store roi``/``store read``
    report it to the user.

    Parameters
    ----------
    path:
        A ``.rps2`` container produced by :func:`write_container`.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.stats: Dict[str, int] = {
            "blocks_decoded": 0,
            "payload_bytes_read": 0,
            "fetch_ranges": 0,
            "fetch_bytes": 0,
        }
        self._source = None  # repro: guarded-by(_source_lock)
        self._source_lock = threading.Lock()
        # Readers are shared across daemon connections; counter updates are
        # read-modify-writes and need the lock to not lose increments.
        self._stats_lock = threading.Lock()

        try:
            with self.path.open("rb") as fh:
                head = fh.read(8)
                if len(head) < 8:
                    raise DecompressionError(f"{self.path}: truncated container head")
                if head[:4] != STORE_MAGIC:
                    raise DecompressionError(
                        f"{self.path}: not a block container (bad magic {head[:4]!r})"
                    )
                (header_len,) = struct.unpack_from("<I", head, 4)
                header_blob = fh.read(header_len)
                if len(header_blob) < header_len:
                    raise DecompressionError(f"{self.path}: truncated container header")
                try:
                    header = json.loads(header_blob.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise DecompressionError(
                        f"{self.path}: corrupt container header ({exc})"
                    ) from exc
                version = int(header.get("format_version", 0))
                if version not in (2, 3):
                    raise DecompressionError(
                        f"{self.path}: unsupported container format version {version} "
                        "(this reader supports 2 and 3)"
                    )
                # Version 2 stores the index rows raw, version 3 deflated;
                # everything after the index is the same file.
                raw_index = version == 2
                try:
                    n_entries = int(header["n_entries"])
                    index_nbytes = (
                        n_entries * RECORD_BYTES if raw_index else int(header["index_nbytes"])
                    )
                except (KeyError, TypeError, ValueError) as exc:
                    raise DecompressionError(
                        f"{self.path}: corrupt container header (no usable {exc})"
                    ) from exc
                self._data_start = 8 + header_len + index_nbytes
                size = os.fstat(fh.fileno()).st_size
                if index_nbytes < 0 or self._data_start > size:
                    raise DecompressionError(
                        f"{self.path}: truncated container (block index runs through "
                        f"byte {self._data_start}, file has {size})"
                    )
                parse = BlockIndex.from_records if raw_index else BlockIndex.from_bytes
                try:
                    self._index = parse(fh.read(index_nbytes), n_entries)
                except DecompressionError as exc:
                    raise DecompressionError(f"{self.path}: {exc}") from exc
        except OSError as exc:
            raise DecompressionError(f"{self.path}: cannot read container ({exc})") from exc

        self._header = header
        # The payload section must actually be present: a container whose
        # index points past EOF (truncated copy, torn download) must fail at
        # *open*, not on the first unlucky fetch — Store.adopt leans on open
        # as its validation step before cataloging foreign files.
        if n_entries:
            end = int((self._index.offsets + self._index.lengths).max())
            if self._data_start + end > size:
                raise DecompressionError(
                    f"{self.path}: truncated container (index expects "
                    f"payload through byte {self._data_start + end}, "
                    f"file has {size})"
                )
        self._levels = {
            int(lvl["level"]): LevelInfo(
                level=int(lvl["level"]),
                level_shape=tuple(int(s) for s in lvl["level_shape"]),
                unit_size=int(lvl["unit_size"]),
                n_blocks=int(lvl["n_blocks"]),
                nbytes_original=int(lvl["nbytes_original"]),
            )
            for lvl in header["levels"]
        }

    # -- header accessors -----------------------------------------------------
    @property
    def error_bound(self) -> float:
        return float(self._header["error_bound"])

    @property
    def codec(self) -> str:
        return str(self._header.get("codec", ""))

    @property
    def metadata(self) -> Dict:
        return dict(self._header.get("metadata", {}))

    @property
    def levels(self) -> List[LevelInfo]:
        """Per-level geometry, ordered fine to coarse."""
        return [self._levels[k] for k in sorted(self._levels)]

    @property
    def index(self) -> BlockIndex:
        return self._index

    @property
    def n_blocks(self) -> int:
        return self._index.n_entries

    @property
    def nbytes_compressed(self) -> int:
        """Container size: header + index + all payloads."""
        return self._data_start + self._index.nbytes_payloads

    @property
    def nbytes_original(self) -> int:
        return sum(info.nbytes_original for info in self._levels.values())

    @property
    def compression_ratio(self) -> float:
        return self.nbytes_original / max(1, self.nbytes_compressed)

    def level_info(self, level: int) -> LevelInfo:
        try:
            return self._levels[int(level)]
        except KeyError as exc:
            raise KeyError(
                f"{self.path}: no level {level}; available: {sorted(self._levels)}"
            ) from exc

    # -- payload access -------------------------------------------------------
    @property
    def payload_source(self) -> str:
        """``"mmap"`` or ``"file"`` — the payload path this reader resolved to."""
        return self._payload_source().kind

    def close(self) -> None:
        """Release the payload source (for mmap: the mapping and its fd).

        Optional — dropping the reader releases everything via GC — but
        explicit for long-lived processes managing many readers.  Safe to
        call repeatedly, and a closed reader simply reopens its source on
        the next fetch; the caller must not race it against in-flight
        fetches on the same reader.
        """
        with self._source_lock:
            source, self._source = self._source, None
        if source is not None:
            source.close()

    def __enter__(self) -> "ContainerReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _payload_source(self):
        # Double-checked fast path: a set _source is immutable-until-close, so
        # the unlocked first read is safe; only the None -> open transition
        # needs the lock.
        source = self._source  # repro: unlocked -- double-checked locking fast path
        if source is None:
            with self._source_lock:
                source = self._source
                if source is None:
                    source = self._source = self._open_payload_source()
        return source

    def _open_payload_source(self):
        try:
            return _MmapPayloadSource(self.path)
        except (ImportError, OSError, ValueError, OverflowError):
            return _FilePayloadSource(self.path)

    def fetch_entries(
        self, positions: Sequence[int], blocks: Optional[int] = None
    ) -> List[memoryview]:
        """Raw payload buffers of the given index-entry positions, coalesced.

        Positions are sorted by file offset, merged into contiguous ranges
        (a gap of up to one page is read through), fetched once per range and
        handed back as zero-copy ``memoryview`` slices in the *requested*
        order — one per position, so blocks of one stack payload each get
        that payload.  This is the only place payload bytes enter the process;
        ``fetch_ranges`` / ``fetch_bytes`` in :attr:`stats` count what it cost.
        ``blocks`` only labels the trace span: how many blocks the caller is
        after, when it asks for each of their payloads once.
        """
        positions = np.asarray(positions, dtype=np.int64)
        n = positions.shape[0]
        if n == 0:
            return []
        offsets = self._index.offsets[positions] + self._data_start
        lengths = self._index.lengths[positions]
        lo, hi, which = coalesce_ranges(offsets, lengths, _COALESCE_GAP)
        source = self._payload_source()
        start = time.perf_counter()
        with obs_span(
            "fetch", blocks=n if blocks is None else blocks, source=source.kind
        ) as sp:
            buffers = source.fetch(lo, hi)
            sizes = (hi - lo).tolist()
            for j, buf in enumerate(buffers):
                if len(buf) < sizes[j]:
                    short = int(positions[int(np.flatnonzero(which == j)[0])])
                    raise DecompressionError(
                        f"{self.path}: truncated payload at index entry {short}"
                    )
            rel = (offsets - lo[which]).tolist()
            lens = lengths.tolist()
            views = [
                buffers[w][r : r + ln]
                for w, r, ln in zip(which.tolist(), rel, lens)
            ]
            if sp is not None:
                sp.set(
                    payloads=int(np.unique(offsets).size),
                    ranges=len(buffers),
                    bytes=int((hi - lo).sum()),
                )
        _FETCH_SECONDS.labels(source=source.kind).observe(time.perf_counter() - start)
        with self._stats_lock:
            self.stats["payload_bytes_read"] += int(lengths.sum())
            self.stats["fetch_ranges"] += len(buffers)
            self.stats["fetch_bytes"] += int((hi - lo).sum())
        return views

    def decode_entries(self, positions: Sequence[int]) -> List[np.ndarray]:
        """Fetch and decode the blocks at the given index-entry positions.

        The batched decode primitive behind every query: positions come from
        :meth:`BlockIndex.select`; the distinct payloads they live in are each
        fetched once (coalesced, see :meth:`fetch_entries`) and inflated once,
        and only the blocks asked for are reconstructed, as one batch
        (:func:`~repro.store.engine.decode_payloads`).  Lazy views
        (:mod:`repro.array`) call this for exactly their cache misses.
        """
        return self._decode(positions, None, None)

    def decode_entries_into(
        self,
        positions: Sequence[int],
        outs: Sequence[np.ndarray],
        srcs: Optional[Sequence] = None,
    ) -> None:
        """Fetch and decode index entries straight into caller-owned buffers.

        ``outs[i]`` receives the decoded block of ``positions[i]`` (restricted
        to the ``srcs[i]`` source window when given) with no intermediate
        block array on the supporting codecs — the zero-copy half of
        :meth:`repro.array.CompressedArray.__getitem__`.
        """
        self._decode(positions, outs, srcs)

    def _decode(self, positions, outs, srcs) -> List[np.ndarray]:
        positions = np.asarray(positions, dtype=np.int64)
        n = positions.shape[0]
        if n == 0:
            return []
        index = self._index
        # In file order the blocks of one payload are neighbours.
        order = None
        if (positions[1:] < positions[:-1]).any():
            order = np.argsort(positions, kind="stable")
            positions = positions[order]
            if outs is not None:
                outs = [outs[i] for i in order]
                srcs = None if srcs is None else [srcs[i] for i in order]
        payload = index.payload_of[positions]
        cuts = np.flatnonzero(payload[1:] != payload[:-1]) + 1
        distinct = payload[np.concatenate(([0], cuts))]
        slots = np.split(index.slots[positions], cuts)
        payloads = self.fetch_entries(index.payload_starts[distinct], blocks=n)
        with self._stats_lock:
            self.stats["blocks_decoded"] += n
        counts = index.payload_counts[distinct]
        try:
            with obs_span("decode", blocks=n, payloads=len(payloads), into=outs is not None):
                if outs is not None:
                    decode_payloads_into(payloads, outs, srcs, slots, counts)
                    return []
                blocks = decode_payloads(payloads, slots, counts)
        except DecompressionError as exc:
            raise DecompressionError(f"{self.path}: {exc}") from exc
        if order is None:
            return blocks
        requested: List[np.ndarray] = [blocks[0]] * n
        for k, i in enumerate(order.tolist()):
            requested[i] = blocks[k]
        return requested

    # -- queries --------------------------------------------------------------
    def read_blocks(self, level: int, region: Optional[BBox] = None) -> UnitBlockSet:
        """Decode the blocks of one level, optionally restricted to a region.

        ``region`` is a half-open range of *unit-block coordinates* per axis;
        only index entries inside it are fetched and decoded.  Returns a
        :class:`~repro.core.partition.UnitBlockSet` carrying the decoded
        blocks and their coordinates (Morton file order).
        """
        info = self.level_info(level)
        positions = self._index.select(info.level, info.ndim, region)
        coords = self._index.coords[positions, : info.ndim]
        # Decoded straight into the stacked result: blocks[i] is outs[i].
        blocks = np.empty(
            (len(positions),) + (info.unit_size,) * info.ndim, dtype=np.float64
        )
        self.decode_entries_into(positions, blocks)
        return UnitBlockSet(
            blocks=blocks,
            coords=coords.astype(np.int64),
            unit_size=info.unit_size,
            level_shape=info.level_shape,
        )

    def as_array(self, level: int = 0, fill_value: float = 0.0, cache=None):
        """Lazy :class:`repro.array.CompressedArray` view over one level.

        The view's indexing compiles into this reader's block queries, so only
        intersecting blocks are decoded; pass a :class:`repro.array.BlockCache`
        to decode revisited blocks once across queries.
        """
        from repro.array import CompressedArray, ContainerSource

        return CompressedArray(
            ContainerSource(self), level=level, fill_value=fill_value, cache=cache
        )

    def read_roi(
        self, bbox: Sequence[Sequence[int]], level: int = 0, fill_value: float = 0.0
    ) -> np.ndarray:
        """Decode a cell-space sub-region, touching only intersecting blocks.

        ``bbox`` is a per-axis ``(lo, hi)`` half-open cell range in the
        level's own resolution, clamped to the domain; the result has shape
        ``hi - lo`` per axis.  Cells inside the bbox but outside any occupied
        block are ``fill_value`` (they belong to other levels of the
        hierarchy).  A thin adapter over :meth:`as_array` — lazy views are
        the primary read surface.
        """
        return self.as_array(level=level, fill_value=fill_value).read_roi(bbox)

    def describe(self) -> Dict:
        """Header summary as plain data (what ``repro store ls`` prints)."""
        return {
            "path": str(self.path),
            "codec": self.codec,
            "error_bound": self.error_bound,
            "format_version": int(self._header["format_version"]),
            "n_levels": len(self._levels),
            "n_blocks": self.n_blocks,
            "n_payloads": self._index.n_payloads,
            "nbytes_original": self.nbytes_original,
            "nbytes_compressed": self.nbytes_compressed,
            "compression_ratio": round(self.compression_ratio, 3),
            "metadata": self.metadata,
        }
