"""Per-block level/coordinate/offset/length index of a block container.

The index is the piece that turns an opaque compressed file into a
random-access store: one row per unit block, stored between the JSON header
and the data section, so a reader can locate the payload of any
``(level, block-coordinate)`` pair from the file head alone — no payload
outside the query is ever touched.

A row is six integers::

    level | c0 | c1 | c2 | offset | length

``c2`` is zero for 2-D levels; ``offset`` is relative to the start of the
data section; rows are grouped by level and follow the file's payload order.
Blocks a codec merged into one *stack* payload share that payload's
``(offset, length)`` on consecutive rows, and a block's *slot* in the payload
is its rank among them — so in memory every block still has its own row,
whatever the payloads look like.

On disk (format version 3, :meth:`BlockIndex.to_bytes`) the rows are stored
column by column as little-endian ``int64`` and deflated: the columns of a
Morton-ordered level are long runs and ramps, so 48 bytes a row shrink to
well under one.  Version 2 files hold the same rows as raw fixed-width
records (:meth:`BlockIndex.from_records`).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from repro.compressors.errors import DecompressionError
from repro.store.query import BBox, blocks_in_range

__all__ = ["BlockIndex", "RECORD_FIELDS", "RECORD_BYTES"]

RECORD_FIELDS = 6
RECORD_BYTES = RECORD_FIELDS * 8


@dataclass
class BlockIndex:
    """Columnar view of the index rows of one container.

    Attributes
    ----------
    levels:
        ``(n,)`` level index of every block.
    coords:
        ``(n, 3)`` unit-block coordinates (third column zero for 2-D data).
    offsets, lengths:
        Location, relative to the data section, of the payload every block
        lives in.
    """

    levels: np.ndarray
    coords: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray

    @property
    def n_entries(self) -> int:
        return int(self.levels.shape[0])

    # -- payloads: runs of rows that share an offset ----------------------------
    @cached_property
    def payload_starts(self) -> np.ndarray:
        """Row of the first block of every payload, in file order."""
        if not self.n_entries:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(np.r_[True, self.offsets[1:] != self.offsets[:-1]])

    @cached_property
    def payload_counts(self) -> np.ndarray:
        """How many rows — blocks — point at every payload."""
        return np.diff(np.r_[self.payload_starts, self.n_entries])

    @cached_property
    def payload_of(self) -> np.ndarray:
        """``(n,)`` ordinal of the payload every block lives in."""
        return np.repeat(np.arange(self.n_payloads), self.payload_counts)

    @cached_property
    def slots(self) -> np.ndarray:
        """``(n,)`` rank of every block among the blocks of its payload."""
        return np.arange(self.n_entries) - self.payload_starts[self.payload_of]

    @property
    def n_payloads(self) -> int:
        return int(self.payload_starts.shape[0])

    @property
    def nbytes_payloads(self) -> int:
        """Total size of the data section in bytes."""
        return int(self.lengths[self.payload_starts].sum())

    # -- serialisation ----------------------------------------------------------
    def to_bytes(self) -> bytes:
        """The index section of a version-3 file: columns, deflated."""
        columns = np.empty((RECORD_FIELDS, self.n_entries), dtype="<i8")
        columns[0] = self.levels
        columns[1:4] = self.coords.T
        columns[4] = self.offsets
        columns[5] = self.lengths
        return zlib.compress(columns.tobytes(), 6)

    @classmethod
    def from_bytes(cls, blob: bytes, n_entries: int) -> "BlockIndex":
        """Invert :meth:`to_bytes`."""
        expected = int(n_entries) * RECORD_BYTES
        inflater = zlib.decompressobj()
        try:
            # Bounded: a corrupt section cannot inflate past the rows promised.
            raw = inflater.decompress(blob, expected + 1)
        except zlib.error as exc:
            raise DecompressionError(f"corrupt block index ({exc})") from exc
        if len(raw) != expected or not inflater.eof:
            raise DecompressionError(
                f"corrupt block index: {n_entries} blocks need {expected} bytes, the "
                f"section inflates to {'more' if len(raw) > expected else len(raw)}"
            )
        return cls._from_records(np.frombuffer(raw, dtype="<i8").reshape(RECORD_FIELDS, -1).T)

    @classmethod
    def from_records(cls, blob: bytes, n_entries: int) -> "BlockIndex":
        """The index section of a version-2 file: raw fixed-width records."""
        expected = int(n_entries) * RECORD_BYTES
        if len(blob) < expected:
            raise DecompressionError(
                f"truncated block index: expected {expected} bytes, got {len(blob)}"
            )
        return cls._from_records(
            np.frombuffer(blob[:expected], dtype="<i8").reshape(-1, RECORD_FIELDS)
        )

    @classmethod
    def _from_records(cls, records: np.ndarray) -> "BlockIndex":
        records = records.astype(np.int64)
        return cls(
            levels=records[:, 0],
            coords=records[:, 1:4],
            offsets=records[:, 4],
            lengths=records[:, 5],
        )

    @classmethod
    def build(cls, per_level) -> "BlockIndex":
        """Assemble an index from ``(level, coords, lengths, counts)`` tuples.

        ``per_level`` iterates levels in file order; ``lengths[k]`` is the
        size of the level's *k*-th payload and ``counts[k]`` how many of the
        ``coords`` rows — consecutive, in order — are its blocks.  Offsets
        are assigned by accumulating the payload lengths in that order.
        """
        levels, coords3, lengths, counts = [], [], [], []
        for level, coords, lens, blocks_per_payload in per_level:
            n = coords.shape[0]
            levels.append(np.full(n, int(level), dtype=np.int64))
            padded = np.zeros((n, 3), dtype=np.int64)
            padded[:, : coords.shape[1]] = coords
            coords3.append(padded)
            lengths.append(np.asarray(lens, dtype=np.int64))
            counts.append(np.asarray(blocks_per_payload, dtype=np.int64))
        lengths = np.concatenate(lengths)
        counts = np.concatenate(counts)
        offsets = np.cumsum(lengths) - lengths
        return cls(
            levels=np.concatenate(levels),
            coords=np.concatenate(coords3, axis=0),
            offsets=np.repeat(offsets, counts),
            lengths=np.repeat(lengths, counts),
        )

    # -- queries --------------------------------------------------------------
    def select(
        self, level: int, ndim: int, block_range: Optional[BBox] = None
    ) -> np.ndarray:
        """Index-entry positions of one level's blocks, optionally range-filtered.

        Returns the integer positions (into the columnar arrays) of the
        blocks of ``level`` whose coordinates fall inside ``block_range``
        (half-open, per-axis); with no range, all of the level's blocks.
        """
        positions = np.flatnonzero(self.levels == int(level))
        if block_range is not None:
            keep = blocks_in_range(self.coords[positions, :ndim], block_range)
            positions = positions[keep]
        return positions
