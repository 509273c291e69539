"""Concurrency stress for ``BlockCache`` and the shared-cache read paths.

A thread pool hammers one cache with interleaved gets/puts/clears while
invariants are sampled *during* the storm (not just at the end): block and
byte caps never exceeded, counters monotone non-decreasing, every returned
array internally consistent with its key.  A second group proves the
read-path property the daemon relies on: many threads reading overlapping
regions through views sharing one cache never corrupt results and, once
warm, never decode again.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.array import BlockCache
from repro.core.mr_compressor import MultiResolutionCompressor
from repro.datasets.synthetic import smooth_wave_field
from repro.store import Store
from repro.utils.rng import default_rng

BLOCK_CELLS = 64  # 64 float64 = 512 bytes per test block


def make_block(key_id: int) -> np.ndarray:
    """A block whose *every* cell encodes its key, so torn reads are visible."""
    return np.full(BLOCK_CELLS, float(key_id), dtype=np.float64)


class TestBlockCacheStorm:
    N_THREADS = 8
    OPS_PER_THREAD = 400

    def test_caps_counters_and_integrity_under_interleaving(self):
        max_blocks, max_bytes = 16, 16 * make_block(0).nbytes
        cache = BlockCache(max_blocks=max_blocks, max_bytes=max_bytes)
        violations: list = []
        stop_monitor = threading.Event()
        samples: list = []

        def monitor():
            # Snapshots are taken under the cache lock (stats does that), so
            # each one is internally consistent; monotonicity must hold
            # across them even while clears run.
            # Busy sampling on purpose: the storm is over in milliseconds and
            # the point is to observe counters *mid-interleaving*; the cap
            # bounds memory if the workers are slow on a loaded machine.
            while not stop_monitor.is_set() and len(samples) < 200_000:
                samples.append(cache.stats)
        monitor_thread = threading.Thread(target=monitor, daemon=True)
        monitor_thread.start()

        def worker(worker_id: int):
            rng = default_rng(f"cache-storm:{worker_id}")
            for op in range(self.OPS_PER_THREAD):
                key_id = int(rng.integers(0, 48))  # 48 keys > 16 slots: churn
                key = ("storm", 0, key_id)
                draw = rng.random()
                if draw < 0.45:
                    block = cache.get(key)
                    if block is not None and not (block == float(key_id)).all():
                        violations.append(f"worker {worker_id}: torn read for {key}")
                elif draw < 0.9:
                    cache.put(key, make_block(key_id))
                else:
                    cache.clear()
                stats = cache.stats
                if stats["size"] > max_blocks:
                    violations.append(f"size cap exceeded: {stats['size']}")
                if stats["nbytes"] > max_bytes and stats["size"] > 1:
                    violations.append(f"byte cap exceeded: {stats['nbytes']}")

        with ThreadPoolExecutor(max_workers=self.N_THREADS) as pool:
            list(pool.map(worker, range(self.N_THREADS)))
        stop_monitor.set()
        monitor_thread.join(5.0)

        assert not violations, violations[:10]
        assert len(samples) > 10  # the monitor actually observed the storm
        for earlier, later in zip(samples, samples[1:]):
            for counter in ("hits", "misses", "evictions"):
                assert later[counter] >= earlier[counter], (
                    f"{counter} went backwards: {earlier} -> {later}"
                )
        final = cache.stats
        assert final["hits"] + final["misses"] > 0
        assert final["size"] <= max_blocks and final["nbytes"] <= max_bytes

    def test_no_lost_updates_below_capacity(self):
        # Distinct keys, total below both caps, no clears: after the storm
        # every key must be present with exactly its own block — a lost
        # update or byte-accounting drift would show here.
        n_keys = 24
        cache = BlockCache(max_blocks=64, max_bytes=64 * make_block(0).nbytes)

        def worker(worker_id: int):
            rng = default_rng(f"cache-fill:{worker_id}")
            for _ in range(200):
                key_id = int(rng.integers(0, n_keys))
                cache.put(("fill", 0, key_id), make_block(key_id))

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(worker, range(8)))

        assert len(cache) == n_keys
        for key_id in range(n_keys):
            block = cache.get(("fill", 0, key_id))
            assert block is not None and (block == float(key_id)).all()
        stats = cache.stats
        assert stats["evictions"] == 0
        assert stats["nbytes"] == n_keys * make_block(0).nbytes

    def test_batches_beside_single_calls_under_interleaving(self):
        # get_many / put_many from half the threads, get / put from the
        # other half, on one small cache: caps hold at every sample, every
        # returned block is its key's, and a batch's stored rows are copies.
        max_blocks, max_bytes = 12, 12 * make_block(0).nbytes
        cache = BlockCache(max_blocks=max_blocks, max_bytes=max_bytes)
        violations: list = []

        def worker(worker_id: int):
            rng = default_rng(f"cache-batch-storm:{worker_id}")
            for _ in range(150):
                ids = [int(k) for k in rng.integers(0, 40, size=int(rng.integers(1, 20)))]
                keys = [("batch", 0, k) for k in ids]
                if worker_id % 2:
                    if rng.random() < 0.5:
                        found = cache.get_many(keys)
                    else:
                        cache.put_many(keys, np.stack([make_block(k) for k in ids]))
                        found = []
                else:
                    found = [cache.get(keys[0])]
                    cache.put(keys[-1], make_block(ids[-1]))
                    keys = keys[:1]
                for key, block in zip(keys, found):
                    if block is not None and not (block == float(key[2])).all():
                        violations.append(f"worker {worker_id}: torn read for {key}")
                stats = cache.stats
                if stats["size"] > max_blocks or (stats["nbytes"] > max_bytes and stats["size"] > 1):
                    violations.append(f"cap exceeded: {stats}")

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(worker, range(6)))

        assert not violations, violations[:10]
        stats = cache.stats
        assert stats["size"] == len(cache) <= max_blocks
        assert stats["nbytes"] == stats["bytes_resident"] == stats["size"] * make_block(0).nbytes

    def test_clear_keeps_lifetime_counters(self):
        cache = BlockCache(max_blocks=4)
        cache.put("a", make_block(1))
        assert cache.get("a") is not None
        before = cache.stats
        cache.clear()
        after = cache.stats
        assert after["size"] == 0 and after["nbytes"] == 0
        assert after["hits"] == before["hits"] and after["misses"] == before["misses"]

    def test_single_oversized_block_still_caches_alone(self):
        cache = BlockCache(max_blocks=8, max_bytes=100)
        big = np.zeros(1024, dtype=np.float64)
        cache.put("big", big)
        assert len(cache) == 1 and cache.get("big") is not None


class TestSharedCacheReadPath:
    N_READERS = 8

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        field = smooth_wave_field((32, 32, 32), frequencies=(2.0, 3.0, 1.0))
        store = Store(
            tmp_path_factory.mktemp("cc") / "store",
            MultiResolutionCompressor(unit_size=8),
        )
        store.append("f", 0, field, 0.05)
        return store

    def overlapping_roi(self, reader_id: int):
        # Sliding windows over the same planes: heavy key overlap by design.
        lo = (reader_id * 3) % 8
        return (slice(lo, lo + 24), slice(None), slice(None, None, 2))

    def test_concurrent_overlapping_reads_are_correct(self, store):
        reference = np.asarray(store["f", 0][...])
        store.block_cache.clear()

        def read(reader_id: int):
            view = store["f", 0]  # fresh view per thread, one shared cache
            roi = self.overlapping_roi(reader_id)
            out = []
            for _ in range(5):
                out.append(view[roi])
            return reader_id, out

        with ThreadPoolExecutor(max_workers=self.N_READERS) as pool:
            results = list(pool.map(read, range(self.N_READERS)))
        for reader_id, arrays in results:
            expected = reference[self.overlapping_roi(reader_id)]
            for got in arrays:
                assert np.array_equal(got, expected)
        stats = store.block_cache.stats
        assert stats["size"] <= stats["max_blocks"]
        assert stats["nbytes"] <= stats["max_bytes"]

    def test_warm_cache_never_decodes_again(self, store):
        store.block_cache.clear()
        warmup = store["f", 0]
        warmup[...]  # one serial pass decodes everything once

        def read(reader_id: int):
            view = store["f", 0]
            view[self.overlapping_roi(reader_id)]
            return view.stats["blocks_decoded"]

        with ThreadPoolExecutor(max_workers=self.N_READERS) as pool:
            decoded = list(pool.map(read, range(self.N_READERS)))
        # Each view's reader is fresh, so its decode counter is exactly what
        # that thread paid: nothing, everything was already cached.
        assert decoded == [0] * self.N_READERS
