"""Behavioural tests for the zero-copy hot read path.

Covers the pieces the coalescing suite doesn't: the ``decode_into``
destination path (bit-for-bit vs the block-list path, and genuinely
temporary-free for the in-place codec), read-only shared-cache entries with
honest ``bytes_resident`` accounting, the zero-copy ndarray wire codec and
its ``copy=True`` escape hatch, scatter-gather frame writes being
byte-identical to ``pack_frame``, the daemon's debounced store refresh, and
the two allocation bounds of the zero-copy design (``tracemalloc`` peaks of
one cacheless local read and one warm remote read).
"""

from __future__ import annotations

import io
import socket
import threading
import tracemalloc

import numpy as np
import pytest

from repro.array import BlockCache, open_array
from repro.serve.protocol import (
    decode_ndarray,
    encode_ndarray,
    pack_frame,
    read_frame,
    send_frame,
)
from repro.utils.rng import default_rng


@pytest.fixture(scope="module")
def container(tmp_path_factory, smooth_field_3d=None):
    from repro.core.mr_compressor import MultiResolutionCompressor
    from repro.store import Store

    root = tmp_path_factory.mktemp("hotpath") / "store"
    store = Store(root, MultiResolutionCompressor(unit_size=8))
    rng = default_rng("hotpath-data")
    store.append("field", 0, rng.standard_normal((32, 24, 16)), 0.05)
    return root / store.entry("field", 0).path


# -- decode_into ----------------------------------------------------------------


class TestDecodeInto:
    def test_cacheless_view_matches_cached_view(self, container):
        uncached = open_array(container, cache=None)
        uncached.cache = None  # open_array defaults a cache in; force direct path
        cached = open_array(container)
        assert cached.cache is not None
        full_a, full_b = uncached[...], cached[...]
        assert np.array_equal(full_a, full_b)
        for index in [
            (slice(3, 30), slice(None), slice(None, None, 2)),
            (0, Ellipsis),
            (slice(None), 7, slice(2, 15)),
            (-1, -1, -1),
        ]:
            assert np.array_equal(uncached[index], cached[index])

    def test_decompress_into_matches_decompress(self, container):
        from repro.compressors import get_compressor
        from repro.compressors.base import CompressedArray
        from repro.store.format import ContainerReader

        reader = ContainerReader(container)
        for blob in reader.fetch_entries(np.arange(min(4, reader.n_blocks))):
            compressed = CompressedArray.from_bytes(blob)
            codec = get_compressor(compressed.codec)
            reference = codec.decompress(compressed)
            # Full in-place decode, into a non-contiguous destination view.
            backing = np.full(tuple(2 * s for s in compressed.shape), -1.0)
            window = backing[tuple(slice(0, s) for s in compressed.shape)]
            codec.decompress_into(compressed, window)
            assert np.array_equal(window, reference)
            # Windowed decode pastes only the overlap.
            src = tuple(slice(1, s) for s in compressed.shape)
            partial = np.empty(reference[src].shape)
            codec.decompress_into(compressed, partial, src=src)
            assert np.array_equal(partial, reference[src])

    def test_decode_payloads_into_parity(self, container):
        from repro.store.engine import decode_payloads, decode_payloads_into
        from repro.store.format import ContainerReader

        reader = ContainerReader(container)
        payloads = reader.fetch_entries(np.arange(reader.n_blocks))
        blocks = decode_payloads(payloads)
        outs = [np.empty_like(b) for b in blocks]
        decode_payloads_into(payloads, outs)
        for a, b in zip(blocks, outs):
            assert np.array_equal(a, b)


# -- allocation bounds ------------------------------------------------------------


class TestPeakMemory:
    """What the zero-copy path may allocate, measured around one read each.

    The field is 96^3 (6.75 MiB decoded) so that one payload-sized temporary
    too many overshoots the bound: both bounds allow 25% plus a flat 2 MiB of
    per-block fetch/plan bookkeeping over the allocations the design needs.
    """

    SLACK = 2 << 20

    @pytest.fixture(scope="class")
    def big_store(self, tmp_path_factory):
        from repro.core.mr_compressor import MultiResolutionCompressor
        from repro.store import Store

        store = Store(
            tmp_path_factory.mktemp("hotpath-peak") / "store",
            MultiResolutionCompressor(unit_size=16),
        )
        store.append("f", 0, default_rng("hotpath-peak").standard_normal((96, 96, 96)), 1e-2)
        return store

    @staticmethod
    def _traced_peak(read):
        tracemalloc.start()
        try:
            result = read()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_cacheless_whole_level_read_allocates_one_output(self, big_store):
        view = open_array(big_store.root / big_store.entry("f", 0).path)
        view.cache = None  # direct decode-into path
        view[:16, :16, :16]  # imports and codec plan caches, outside the traced read
        full, peak = self._traced_peak(lambda: view[...])
        # Blocks reconstruct inside the output array: one extra full-array
        # temporary would blow straight through this.
        assert peak <= full.nbytes * 1.25 + self.SLACK

    def test_warm_remote_read_allocates_one_payload_per_side(self, big_store):
        from repro.serve import ReadDaemon, RemoteStore

        with ReadDaemon(big_store) as daemon, RemoteStore(daemon.address) as client:
            remote = client["f", 0]
            cold = remote[...]
            # Warm: the daemon (same process, so traced too) assembles its
            # result from cache and the client lands it in one receive buffer.
            warm, peak = self._traced_peak(lambda: remote[...])
        assert peak <= 2 * warm.nbytes * 1.25 + self.SLACK
        assert warm.base is not None and not warm.flags.writeable
        assert np.array_equal(warm, cold)


# -- shared cache ---------------------------------------------------------------


class TestCacheZeroCopy:
    def test_entries_are_read_only(self, container):
        view = open_array(container)
        view[...]
        key = next(iter(view.cache._entries))
        block = view.cache.get(key)
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[...] = 0.0

    def test_bytes_resident_tracks_buffers(self):
        cache = BlockCache(max_blocks=4)
        owned = np.zeros((8, 8))
        cache.put(("a",), owned)
        stats = cache.stats
        assert stats["bytes_resident"] == stats["nbytes"] == owned.nbytes
        # A view pins its whole base buffer; nbytes meters the logical size.
        base = np.zeros(1024)
        cache.put(("b",), base[:16])
        stats = cache.stats
        assert stats["nbytes"] == owned.nbytes + 16 * 8
        assert stats["bytes_resident"] == owned.nbytes + base.nbytes
        cache.clear()
        assert cache.stats["bytes_resident"] == 0

    def test_eviction_releases_resident_bytes(self):
        cache = BlockCache(max_blocks=2)
        for i in range(5):
            cache.put(i, np.zeros(32))
        stats = cache.stats
        assert stats["size"] == 2
        assert stats["bytes_resident"] == 2 * 32 * 8


# -- wire codec -----------------------------------------------------------------


class TestWireZeroCopy:
    def test_decode_ndarray_is_zero_copy_and_read_only(self):
        arr = np.arange(24.0).reshape(4, 6)
        meta, payload = encode_ndarray(arr)
        out = decode_ndarray(meta, payload)
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0, 0] = 1.0
        # Same memory as the payload buffer: no copy happened.
        assert out.base is not None
        assert np.shares_memory(out, np.frombuffer(payload, dtype=np.float64))

    def test_decode_ndarray_copy_escape_hatch(self):
        arr = np.arange(6.0)
        meta, payload = encode_ndarray(arr)
        out = decode_ndarray(meta, payload, copy=True)
        assert out.flags.writeable
        out[0] = 99.0  # private buffer; the payload is untouched
        assert np.frombuffer(payload, dtype=np.float64)[0] == 0.0

    def test_encode_ndarray_shares_memory_for_contiguous_input(self):
        arr = np.arange(12.0).reshape(3, 4)
        _, payload = encode_ndarray(arr)
        assert np.shares_memory(np.frombuffer(payload, dtype=np.float64), arr)

    def test_read_frame_payload_single_buffer_roundtrip(self):
        blob = bytes(range(256)) * 64
        header, payload = read_frame(io.BytesIO(pack_frame({"op": "read"}, blob)))
        assert isinstance(payload, memoryview)
        assert payload == blob
        arr = decode_ndarray(
            {"dtype": "|u1", "shape": [len(blob)]}, payload
        )
        assert not arr.flags.writeable

    def test_send_frame_bytes_identical_to_pack_frame(self):
        header = {"op": "read", "shape": [4, 6], "dtype": "<f8"}
        _, payload = encode_ndarray(np.arange(24.0).reshape(4, 6))
        expected = pack_frame(header, payload)
        left, right = socket.socketpair()
        try:
            received = bytearray()
            done = threading.Event()

            def drain():
                while len(received) < len(expected):
                    chunk = right.recv(65536)
                    if not chunk:
                        break
                    received.extend(chunk)
                done.set()

            t = threading.Thread(target=drain)
            t.start()
            sent = send_frame(left, header, payload)
            assert sent == len(expected)
            assert done.wait(5.0)
            t.join(5.0)
            assert bytes(received) == expected
        finally:
            left.close()
            right.close()

    def test_send_frame_without_sendmsg_falls_back(self):
        class SendallOnly:
            def __init__(self):
                self.data = bytearray()

            def sendall(self, buf):
                self.data.extend(bytes(buf))

        header = {"op": "stats"}
        _, payload = encode_ndarray(np.arange(5.0))
        sink = SendallOnly()
        send_frame(sink, header, payload)
        assert bytes(sink.data) == pack_frame(header, payload)


# -- daemon refresh debounce ----------------------------------------------------


class TestRefreshTTL:
    def _count_refreshes(self, daemon, n_requests):
        from repro.serve import RemoteStore

        calls = []
        original = daemon.store.refresh

        def counting():
            calls.append(1)
            return original()

        daemon.store.refresh = counting
        try:
            with RemoteStore(daemon.address) as client:
                for _ in range(n_requests):
                    client.stats()
        finally:
            daemon.store.refresh = original
        return len(calls)

    def test_ttl_zero_refreshes_every_request(self, serve_store):
        from repro.serve import ReadDaemon

        with ReadDaemon(serve_store, refresh_ttl=0.0) as daemon:
            assert self._count_refreshes(daemon, 5) == 5

    def test_positive_ttl_debounces(self, serve_store):
        from repro.serve import ReadDaemon

        with ReadDaemon(serve_store, refresh_ttl=60.0) as daemon:
            # The TTL window opened at construction covers the whole burst:
            # at most one stat for any number of requests.
            assert self._count_refreshes(daemon, 10) <= 1

    def test_stale_catalog_still_visible_after_ttl(self, serve_store, tmp_path):
        import time

        from repro.serve import ReadDaemon, RemoteStore

        with ReadDaemon(serve_store, refresh_ttl=0.05) as daemon:
            with RemoteStore(daemon.address) as client:
                client.stats()  # consume the first refresh slot
                time.sleep(0.06)
                before = len(client.entries())
                assert before == len(serve_store)
