"""Bounded LRU cache for decoded unit blocks.

Lazy views (:class:`repro.array.CompressedArray`) decode a block at most once
per cache lifetime: repeated queries over overlapping regions — a sliding ROI,
a slice viewer stepping through planes, a halo finder revisiting neighbours —
hit the cache instead of re-inflating payloads.  The cache is bounded both in
*blocks* and in *bytes* (block size depends on the store's unit size, so a
count bound alone would let a 64^3-unit store pin gigabytes), and it is
instrumented with hit/miss/eviction counters that the tests and
``repro store read`` use to prove the decode accounting.

Keys are ``(token, level, block-coordinate)`` tuples, where ``token``
namespaces the owning container, so one cache can safely back every view of a
:class:`repro.store.Store`.

A read consults the cache once for all its blocks: :meth:`BlockCache.get_many`
is a loop of :meth:`~BlockCache.get` under one lock acquisition, and
:meth:`~BlockCache.put_many` leaves exactly what a loop of
:meth:`~BlockCache.put` would — the same entries in the same LRU order, the
same ``hits`` / ``misses`` / ``evictions`` / ``nbytes`` / ``bytes_resident`` —
without paying for the blocks that loop would insert only to evict again.
Every put evicts from the least-recently-used end, so when the batch's keys
are new the survivors are simply the longest suffix of "resident entries, then
the batch" that fits both bounds: a whole-level read through a 512-block cache
copies 512 blocks, not 4096, and it copies them before taking the lock,
because which rows of a batch survive depends on the batch alone.  A batch
that repeats a key or names a resident one — two readers missing the same
block at once — is that loop, copying every row.  The cache stays per block
either way: a one-block miss decodes and stores one block.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

__all__ = ["BlockCache"]


class BlockCache:
    """Thread-safe bounded LRU over decoded block arrays.

    Parameters
    ----------
    max_blocks:
        Capacity in blocks; the least-recently-used entry is evicted when a
        put would exceed it.  Must be at least 1.
    max_bytes:
        Capacity in decoded-array bytes (default 64 MiB).  Both bounds are
        enforced; the most recent entry always stays, so a single block
        larger than ``max_bytes`` still caches (alone).
    """

    def __init__(self, max_blocks: int = 512, max_bytes: int = 64 * 2 ** 20) -> None:
        self.max_blocks = int(max_blocks)
        if self.max_blocks < 1:
            raise ValueError(f"max_blocks must be >= 1, got {max_blocks}")
        self.max_bytes = int(max_bytes)
        if self.max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self._entries: "OrderedDict[Hashable, np.ndarray]" = OrderedDict()  # repro: guarded-by(_lock)
        self._lock = threading.Lock()
        self._nbytes = 0  # repro: guarded-by(_lock)
        self._resident = 0  # repro: guarded-by(_lock)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        # len() during a concurrent put/evict must not see the OrderedDict
        # mid-relink (CPython re-links nodes across several bytecodes).
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> Optional[np.ndarray]:
        """Cached block for ``key``, refreshing its recency; ``None`` on miss."""
        with self._lock:
            block = self._entries.get(key)
            if block is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return block

    @staticmethod
    def _resident_nbytes(block: np.ndarray) -> int:
        """Bytes the cached entry actually pins: its owned buffer, or — for a
        view — the whole buffer it keeps alive (``base``), which is what the
        process pays while the entry lives."""
        base = block.base
        if base is None:
            return int(block.nbytes)
        return int(getattr(base, "nbytes", block.nbytes))

    def get_many(self, keys: Sequence[Hashable]) -> List[Optional[np.ndarray]]:
        """``[get(key) for key in keys]`` under one lock acquisition: the same
        results, recency and ``hits`` / ``misses``."""
        with self._lock:
            entries = self._entries
            found = list(map(entries.get, keys))
            hits = 0
            for key, block in zip(keys, found):
                if block is not None:
                    entries.move_to_end(key)
                    hits += 1
            self.hits += hits
            self.misses += len(found) - hits
            return found

    def put(self, key: Hashable, block: np.ndarray) -> None:
        """Insert a decoded block, evicting the least recently used beyond capacity.

        The stored array is marked read-only: every view and remote request
        pastes *from* the shared entry, so a consumer scribbling on it would
        silently corrupt all later reads of the block.
        """
        block.flags.writeable = False
        with self._lock:
            self._insert(key, block)

    def put_many(self, keys: Sequence[Hashable], blocks) -> None:
        """What ``for i, key in enumerate(keys): put(key, blocks[i])`` leaves
        behind, copying only the blocks that stay.

        ``blocks`` is row-addressable — an ``(n, *shape)`` array, or any
        sequence whose ``blocks[i]`` is such a row — and its rows share one
        shape.  A surviving row that is a view is copied into an array of its
        own, so an entry pins exactly its ``nbytes`` whatever buffer the row
        came from; one that owns its memory is stored as :meth:`put` stores
        it, marked read-only.
        """
        keys = list(keys)
        n = len(keys)
        if not n:
            return
        size = int(blocks[0].nbytes)
        # When the keys are distinct and new, the survivors are the last
        # `fit` rows whatever is resident, so they are copied before the lock
        # is taken: a large batch does not stall concurrent gets.
        fit = max(1, min(n, self.max_blocks, self.max_bytes // size if size else n))
        tail = [_owned(blocks[i]) for i in range(n - fit, n)]
        with self._lock:
            entries = self._entries
            if len(set(keys)) == n and entries.keys().isdisjoint(keys):
                # Resident entries are older than every row, so the loop
                # evicts them first: the oldest go until the rest fit beside
                # the whole batch.
                while entries and (
                    len(entries) + n > self.max_blocks or self._nbytes + n * size > self.max_bytes
                ):
                    self._evict_oldest()
                self.evictions += n - fit
                for key, block in zip(keys[n - fit :], tail):
                    self._link(key, block)
                return
            for i, key in enumerate(keys):
                self._insert(key, _owned(blocks[i]))

    def _insert(self, key: Hashable, block: np.ndarray) -> None:  # repro: holds(_lock)
        """One :meth:`put`: replace, append as most recent, evict beyond capacity."""
        old = self._entries.pop(key, None)
        if old is not None:
            self._nbytes -= old.nbytes
            self._resident -= self._resident_nbytes(old)
        self._link(key, block)
        while len(self._entries) > 1 and (
            len(self._entries) > self.max_blocks or self._nbytes > self.max_bytes
        ):
            self._evict_oldest()

    def _link(self, key: Hashable, block: np.ndarray) -> None:  # repro: holds(_lock)
        self._entries[key] = block
        self._nbytes += block.nbytes
        self._resident += self._resident_nbytes(block)

    def _evict_oldest(self) -> None:  # repro: holds(_lock)
        _, evicted = self._entries.popitem(last=False)
        self._nbytes -= evicted.nbytes
        self._resident -= self._resident_nbytes(evicted)
        self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept; they describe the lifetime)."""
        with self._lock:
            self._entries.clear()
            self._nbytes = 0
            self._resident = 0

    @property
    def stats(self) -> Dict[str, int]:
        """Counters as plain data: hits, misses, evictions, size and bounds.

        ``nbytes`` sums the logical size of the cached blocks (what the
        capacity bound meters); ``bytes_resident`` charges what the entries
        actually pin in memory — for read-only *views* that share a larger
        buffer, the whole buffer, so the two diverge exactly when zero-copy
        caching is holding more than it stores.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "nbytes": self._nbytes,
                "bytes_resident": self._resident,
                "max_blocks": self.max_blocks,
                "max_bytes": self.max_bytes,
            }

    def __repr__(self) -> str:
        s = self.stats
        return (
            f"BlockCache(size={s['size']}/{s['max_blocks']}, "
            f"hits={s['hits']}, misses={s['misses']}, evictions={s['evictions']})"
        )


def _owned(row: np.ndarray) -> np.ndarray:
    # Entries never share a buffer: a view is copied.
    block = row if row.base is None else np.array(row)
    block.flags.writeable = False
    return block
