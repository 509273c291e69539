"""Property tests for the coalesced zero-copy payload fetch path.

The contract under test: however payload bytes reach the process — coalesced
mmap slices or the coalesced seek/read fallback — every reader hands codecs
the *same bytes* as the file holds at each index record, and every query
decodes the *same arrays*.  Fuzzed over containers with dropped blocks and
overhanging (non-multiple-of-unit) edge blocks, in the requested order, for
shuffled/duplicated position sets, and through the mmap-unavailable fallback.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.store.format import ContainerReader, _FilePayloadSource, _MmapPayloadSource
from repro.store.query import (
    block_cell_slices,
    bounds_to_slices,
    coalesce_ranges,
    paste_slices,
    paste_slices_batch,
)
from repro.utils.blocks import block_bounds
from repro.utils.rng import default_rng


# -- coalesce_ranges -----------------------------------------------------------


class TestCoalesceRanges:
    def test_empty(self):
        lo, hi, which = coalesce_ranges(np.array([]), np.array([]))
        assert lo.size == hi.size == which.size == 0

    def test_adjacent_ranges_merge(self):
        lo, hi, which = coalesce_ranges([0, 10, 20], [10, 10, 10], max_gap=0)
        assert lo.tolist() == [0] and hi.tolist() == [30]
        assert which.tolist() == [0, 0, 0]

    def test_gap_splits_and_merges(self):
        offsets, lengths = [0, 14, 100], [10, 6, 1]
        lo, hi, which = coalesce_ranges(offsets, lengths, max_gap=0)
        assert lo.tolist() == [0, 14, 100] and hi.tolist() == [10, 20, 101]
        lo, hi, which = coalesce_ranges(offsets, lengths, max_gap=4)
        assert lo.tolist() == [0, 100] and hi.tolist() == [20, 101]
        assert which.tolist() == [0, 0, 1]

    def test_unsorted_input_maps_back(self):
        offsets = np.array([50, 0, 10], dtype=np.int64)
        lengths = np.array([5, 10, 10], dtype=np.int64)
        lo, hi, which = coalesce_ranges(offsets, lengths, max_gap=0)
        assert lo.tolist() == [0, 50] and hi.tolist() == [20, 55]
        assert which.tolist() == [1, 0, 0]

    @pytest.mark.parametrize("gap", [0, 1, 7, 64, 10**6])
    def test_fuzzed_invariants(self, gap):
        rng = default_rng(f"coalesce-{gap}")
        for _ in range(25):
            n = int(rng.integers(1, 40))
            offsets = rng.integers(0, 2000, size=n).astype(np.int64)
            lengths = rng.integers(1, 120, size=n).astype(np.int64)
            lo, hi, which = coalesce_ranges(offsets, lengths, max_gap=gap)
            # Every input range is fully contained in its assigned fetch range.
            assert np.all(lo[which] <= offsets)
            assert np.all(offsets + lengths <= hi[which])
            # Fetch ranges are sorted, non-overlapping, and separated by more
            # than the merge gap (otherwise they would have merged).
            assert np.all(lo < hi)
            if lo.size > 1:
                assert np.all(lo[1:] > hi[:-1] + gap)


# -- batch paste planning ------------------------------------------------------


class TestPasteSlicesBatch:
    def test_matches_scalar_paste_slices(self):
        rng = default_rng("paste-batch")
        for _ in range(30):
            ndim = int(rng.integers(1, 4))
            unit = int(rng.integers(1, 9))
            shape = tuple(int(rng.integers(unit, 4 * unit)) for _ in range(ndim))
            bbox = tuple(
                tuple(sorted(rng.integers(0, s, size=2).tolist()))
                for s in shape
            )
            bbox = tuple((lo, hi + 1) for lo, hi in bbox)  # non-empty
            nblocks = tuple(-(-s // unit) for s in shape)
            coords = np.stack(
                [rng.integers(0, nb, size=12) for nb in nblocks], axis=1
            )
            dst_b, src_b, full = paste_slices_batch(coords, unit, bbox)
            for i, coord in enumerate(coords):
                dst, src = paste_slices(coord, unit, bbox)
                assert bounds_to_slices(dst_b[i]) == dst
                assert bounds_to_slices(src_b[i]) == src
                is_full = all(
                    s == slice(0, unit) for s in src
                )
                assert bool(full[i]) == is_full

    def test_block_bounds_matches_block_cell_slices(self):
        rng = default_rng("block-bounds")
        coords = rng.integers(0, 7, size=(20, 3))
        starts, stops = block_bounds(coords, 8)
        for i, coord in enumerate(coords):
            expected = block_cell_slices(coord, 8)
            got = tuple(slice(a, b) for a, b in zip(starts[i], stops[i]))
            assert got == expected
        # Clamped stops model overhanging edge blocks.
        _, stops = block_bounds(np.array([[3, 3, 3]]), 8, shape=(30, 25, 32))
        assert stops.tolist() == [[30, 25, 32]]


# -- fetch-path equivalence on real containers ---------------------------------


@pytest.fixture(scope="module")
def fuzz_container(tmp_path_factory):
    """A container with dropped blocks and overhanging edge blocks."""
    from repro.store.engine import CodecEngine
    from repro.store.format import BlockLevel, write_container

    rng = default_rng("coalesce-container")
    shape, unit = (27, 22, 19), 8  # nothing is a multiple of the unit
    data = rng.standard_normal(shape)
    grid = [-(-n // unit) for n in shape]
    coords = np.stack(
        [g.ravel() for g in np.meshgrid(*[np.arange(g) for g in grid], indexing="ij")],
        axis=1,
    )
    # Drop ~40% of the blocks (an AMR level only occupies a subset).
    keep = rng.random(coords.shape[0]) > 0.4
    keep[0] = True
    coords = coords[keep]
    blocks = np.zeros((coords.shape[0],) + (unit,) * len(shape), dtype=np.float64)
    for i, coord in enumerate(coords):
        src = tuple(
            slice(int(c) * unit, min((int(c) + 1) * unit, n))
            for c, n in zip(coord, shape)
        )
        dst = tuple(slice(0, sl.stop - sl.start) for sl in src)
        blocks[i][dst] = data[src]
    payloads = CodecEngine("sz3").encode_blocks(blocks, 0.05)
    path = tmp_path_factory.mktemp("coalesce") / "fuzz.rps2"
    write_container(
        path,
        [
            BlockLevel(
                level=0,
                level_shape=shape,
                unit_size=unit,
                coords=coords,
                payloads=payloads,
            )
        ],
        error_bound=0.05,
        codec="sz3",
    )
    return path


def _mmap_refuses(self, path):
    raise OSError("mmap disabled for the test")


@pytest.fixture
def file_reader(fuzz_container):
    """A reader on the seek/read fallback: its source resolves while mmap
    refuses to open, and stays resolved."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_MmapPayloadSource, "__init__", _mmap_refuses)
        reader = ContainerReader(fuzz_container)
        assert reader.payload_source == "file"
    return reader


class TestFetchEquivalence:
    def _positions(self, reader, rng):
        n = reader.n_blocks
        k = int(rng.integers(1, n + 1))
        positions = rng.choice(n, size=k, replace=False)
        rng.shuffle(positions)
        return positions

    @staticmethod
    def _file_bytes(reader, positions):
        """The reference: each payload cut out of the file's own bytes by its
        index record, through no fetch code at all."""
        blob = reader.path.read_bytes()
        index = reader.index
        starts = len(blob) - index.nbytes_payloads + index.offsets[positions]
        return [
            blob[a : a + n]
            for a, n in zip(starts.tolist(), index.lengths[positions].tolist())
        ]

    def test_coalesced_mmap_equals_per_block_reads(self, fuzz_container):
        mmap_reader = ContainerReader(fuzz_container)
        assert mmap_reader.payload_source == "mmap"
        rng = default_rng("fetch-parity")
        for _ in range(20):
            positions = self._positions(mmap_reader, rng)
            coalesced = mmap_reader.fetch_entries(positions)
            assert [bytes(v) for v in coalesced] == self._file_bytes(mmap_reader, positions)

    def test_coalesced_file_fallback_equals_mmap(self, fuzz_container, file_reader):
        mmap_reader = ContainerReader(fuzz_container)
        assert mmap_reader.payload_source == "mmap"
        rng = default_rng("fallback-parity")
        for _ in range(10):
            positions = self._positions(mmap_reader, rng)
            fallback = [bytes(v) for v in file_reader.fetch_entries(positions)]
            assert fallback == [bytes(v) for v in mmap_reader.fetch_entries(positions)]
            assert fallback == self._file_bytes(file_reader, positions)

    def test_auto_falls_back_when_mmap_unavailable(self, fuzz_container, monkeypatch):
        monkeypatch.setattr(_MmapPayloadSource, "__init__", _mmap_refuses)
        reader = ContainerReader(fuzz_container)
        assert reader.payload_source == "file"
        assert isinstance(reader._payload_source(), _FilePayloadSource)
        # ...and still serves correct bytes.
        positions = np.arange(reader.n_blocks)
        assert [bytes(v) for v in reader.fetch_entries(positions)] == self._file_bytes(
            reader, positions
        )

    def test_fetch_accounting(self, fuzz_container):
        reader = ContainerReader(fuzz_container)
        positions = np.arange(reader.n_blocks)
        views = reader.fetch_entries(positions)
        stats = reader.stats
        # Morton file order + coalescing: a full scan is far fewer fetches
        # than blocks (the payload section is contiguous).
        assert stats["fetch_ranges"] <= max(1, reader.n_blocks // 2)
        assert stats["payload_bytes_read"] == sum(len(v) for v in views)
        # Blocks of one stack payload each get that payload's view, but the
        # bytes are fetched once: the fetch covers the data section.
        assert stats["fetch_bytes"] >= reader.index.nbytes_payloads

    def test_decodes_are_bit_for_bit_across_sources(self, fuzz_container, file_reader):
        from repro.store.engine import decode_payloads

        mmap_reader = ContainerReader(fuzz_container)
        assert mmap_reader.payload_source == "mmap"
        rng = default_rng("decode-parity")
        for _ in range(5):
            positions = self._positions(mmap_reader, rng)
            # A position's payload holds its whole stack; its block is one slot.
            reference = [
                stack.reshape((-1, 8, 8, 8))[slot]
                for stack, slot in zip(
                    decode_payloads(self._file_bytes(mmap_reader, positions)),
                    mmap_reader.index.slots[positions],
                )
            ]
            for reader in (mmap_reader, file_reader):
                decoded = reader.decode_entries(positions)
                outs = [np.empty_like(block) for block in reference]
                reader.decode_entries_into(positions, outs)
                assert len(decoded) == len(reference)
                for want, got, into in zip(reference, decoded, outs):
                    assert np.array_equal(got, want)
                    assert np.array_equal(into, want)

    def test_close_releases_fd_and_reopens(self, fuzz_container):
        import os

        def open_fds():
            try:
                return len(os.listdir("/proc/self/fd"))
            except OSError:  # pragma: no cover - non-procfs platform
                return None

        reader = ContainerReader(fuzz_container)
        before = open_fds()
        first = [bytes(v) for v in reader.fetch_entries([0])]
        during = open_fds()
        if before is not None:
            assert during == before + 1  # the mapping's fd (the fh is closed)
        reader.close()
        reader.close()  # idempotent
        if before is not None:
            assert open_fds() == before
        # A closed reader lazily reopens on the next fetch.
        assert [bytes(v) for v in reader.fetch_entries([0])] == first

    def test_context_manager_closes(self, fuzz_container):
        with ContainerReader(fuzz_container) as reader:
            reader.fetch_entries([0])
        assert reader._source is None

    def test_truncated_payload_diagnostic(self, fuzz_container, tmp_path):
        from repro.compressors.errors import DecompressionError

        blob = fuzz_container.read_bytes()
        clipped = tmp_path / "clipped.rps2"
        clipped.write_bytes(blob[:-16])
        # The index-vs-file-size check fires at open, before any payload
        # source exists — torn files never produce a usable reader.
        with pytest.raises(DecompressionError, match="truncated container"):
            ContainerReader(clipped)
