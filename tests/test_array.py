"""Tests for the lazy read API (``repro.array``): views, indexing, caching.

The acceptance bar for the read redesign: for every registered dataset,
``CompressedArray.__getitem__`` matches the eager ``read_roi`` bit-for-bit
while the decode counters prove that only blocks intersecting the request
were inflated.
"""

import numpy as np
import pytest

import repro
from repro.array import BlockCache, CompressedArray, as_lazy_array, compile_index, open_array
from repro.core.mr_compressor import MultiResolutionCompressor
from repro.core.partition import scatter_unit_blocks
from repro.datasets import available_datasets, get_dataset
from repro.datasets.synthetic import smooth_wave_field
from repro.store import ContainerReader, Store

EB = 0.02

#: Index expressions exercised against NumPy semantics (32^3 domain).
INDEXES = [
    (slice(None),),
    (slice(0, 8), slice(0, 8), slice(0, 16)),
    (slice(4, 12), slice(6, 10), slice(7, 9)),
    (slice(None), slice(None), 16),
    (slice(10, 20), slice(None), slice(None, None, 2)),
    (slice(None, None, 5), slice(3, 29, 7), slice(None)),
    (slice(None, None, -1),),
    (slice(30, 4, -3), slice(-8, None), slice(None, None, -4)),
    (-1, Ellipsis),
    (Ellipsis, 0),
    (5, slice(3, 9), 0),
    (3, 4, 5),
    (slice(-12, -2),),
    (slice(31, None), slice(None), slice(None)),
]


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    field = smooth_wave_field((32, 32, 32), frequencies=(2.0, 3.0, 1.0))
    mrc = MultiResolutionCompressor(unit_size=8)
    root = tmp_path_factory.mktemp("arr")
    store = Store(root / "store", mrc)
    store.append("f", 0, field, EB)
    return store, field


class TestViewMetadata:
    def test_opening_is_lazy(self, container):
        store, _ = container
        arr = store.array("f", 0)
        assert arr.source.stats["blocks_decoded"] == 0


class TestGetitem:
    @pytest.mark.parametrize("index", INDEXES, ids=[str(i) for i in INDEXES])
    def test_matches_numpy_semantics(self, container, index):
        store, _ = container
        arr = store["f", 0]
        full = np.asarray(arr)
        assert np.array_equal(np.asarray(arr[index]), full[index])

    def test_iteration_via_getitem(self, container):
        store, _ = container
        arr = store["f", 0]
        planes = [p for _, p in zip(range(2), iter(arr))]
        full = np.asarray(arr)
        assert np.array_equal(planes[0], full[0])
        assert np.array_equal(planes[1], full[1])

    def test_too_many_indices(self, container):
        store, _ = container
        with pytest.raises(IndexError, match="too many indices"):
            store["f", 0][1, 2, 3, 4]

    def test_double_ellipsis(self, container):
        store, _ = container
        with pytest.raises(IndexError, match="single ellipsis"):
            store["f", 0][..., ...]

    def test_out_of_bounds_int(self, container):
        store, _ = container
        with pytest.raises(IndexError, match="out of bounds for axis 0 with size 32"):
            store["f", 0][32]
        with pytest.raises(IndexError, match="out of bounds"):
            store["f", 0][0, -33]

    def test_unsupported_index_kind(self, container):
        store, _ = container
        with pytest.raises(TypeError, match="basic indexing"):
            store["f", 0][[1, 2, 3]]

    def test_empty_selection_matches_roi_error(self, container):
        store, _ = container
        reader = store.get("f", 0)
        with pytest.raises(ValueError) as via_index:
            store["f", 0][8:8]
        with pytest.raises(ValueError) as via_reader:
            reader.read_roi(((8, 8), (0, 32), (0, 32)))
        with pytest.raises(ValueError) as via_store:
            store.read_roi("f", 0, ((8, 8), (0, 32), (0, 32)))
        assert str(via_index.value) == str(via_reader.value) == str(via_store.value)

    def test_out_of_domain_selection_matches_roi_error(self, container):
        store, _ = container
        # An out-of-range *slice* compiles to an empty anchor (NumPy slice
        # semantics clamp it first), so indexing reports an empty selection...
        with pytest.raises(ValueError, match=r"empty after clamping to \[0, 32\)"):
            store["f", 0][40:50]
        # ...while an out-of-range *bbox* states the actual mistake, with the
        # same one-line diagnostic on every read_roi surface.
        outside = r"bbox axis 0 \(40, 50\) lies entirely outside the domain \[0, 32\)"
        with pytest.raises(ValueError) as via_store:
            store.read_roi("f", 0, ((40, 50), (0, 32), (0, 32)))
        with pytest.raises(ValueError) as via_reader:
            store.get("f", 0).read_roi(((40, 50), (0, 32), (0, 32)))
        with pytest.raises(ValueError) as via_view:
            store["f", 0].read_roi(((40, 50), (0, 32), (0, 32)))
        import re

        assert re.fullmatch(outside, str(via_store.value))
        assert str(via_store.value) == str(via_reader.value) == str(via_view.value)

    def test_single_block_array(self, tmp_path):
        field = smooth_wave_field((8, 8, 8), frequencies=(1.0, 2.0, 1.0))
        store = Store(tmp_path / "s", MultiResolutionCompressor(unit_size=8))
        store.append("f", 0, field, EB)
        arr = store["f", 0]
        assert arr.n_blocks == 1
        full = np.asarray(arr)
        assert np.abs(full - field).max() <= EB * (1 + 1e-9)
        assert np.array_equal(arr[2:5, ::2, -1], full[2:5, ::2, -1])

    def test_partial_decode_counter(self, container):
        store, _ = container
        view = store.get("f", 0).as_array()  # private reader: clean counters
        roi = view[0:8, 0:8, 0:16]
        assert roi.shape == (8, 8, 16)
        assert view.stats["blocks_decoded"] == 2
        assert view.stats["blocks_decoded"] < view.n_blocks

    def test_strided_selection_decodes_only_touched_blocks(self, container):
        store, _ = container
        view = store.get("f", 0).as_array()
        # Cells 0, 12, 24 on axis 0: blocks 0, 1 and 3 (unit 8) — block 2 is
        # inside [0, 25) but holds no selected cell's bbox rows... it does
        # (cells 16..23 are skipped but the bbox is dense), so the tight bbox
        # [0, 25) touches 4 of the 4 axis blocks; axes 1/2 stay single-block.
        out = view[0:25:12, 0:4, 0:4]
        assert out.shape == (3, 4, 4)
        assert view.stats["blocks_decoded"] == 4


class TestRegisteredDatasetEquivalence:
    @pytest.mark.parametrize("name", available_datasets())
    def test_lazy_matches_eager_bit_for_bit(self, tmp_path, name):
        ds = get_dataset(name, size="tiny")
        store = Store(tmp_path / name, MultiResolutionCompressor(unit_size=8))
        data = ds.hierarchy if ds.is_multiresolution else ds.field
        store.append(ds.name, 0, data, repro.ErrorBound.rel(0.02))
        reader = store.get(ds.name, 0)
        arr = store[ds.name, 0]
        for level in arr.levels:
            view = arr.level(level)
            shape = view.shape
            # An independent eager reference: decode every block and scatter.
            block_set = reader.read_blocks(level)
            eager_full = scatter_unit_blocks(block_set) if block_set.n_blocks else None
            bbox = tuple((s // 4, max(s // 4 + 1, 3 * s // 4)) for s in shape)
            sl = tuple(slice(lo, hi) for lo, hi in bbox)

            counting = store.get(ds.name, 0).as_array(level)
            lazy = counting[sl]
            eager = reader.read_roi(bbox, level=level)
            assert lazy.dtype == eager.dtype and lazy.shape == eager.shape
            assert np.array_equal(lazy, eager)
            if eager_full is not None:
                assert np.array_equal(lazy, eager_full[sl])
            assert counting.stats["blocks_decoded"] <= counting.n_blocks

            # Lazy-read proof: a query over exactly one occupied block decodes
            # one block — strictly fewer than the level total.
            unit = counting.source.unit_size(level)
            first = counting.source.intersecting(level)[1][0]
            one_block = store.get(ds.name, 0).as_array(level)
            out = one_block[
                tuple(slice(int(c) * unit, (int(c) + 1) * unit) for c in first)
            ]
            assert out.shape == (unit,) * len(shape)
            assert one_block.stats["blocks_decoded"] == 1
            if one_block.n_blocks > 1:
                assert one_block.stats["blocks_decoded"] < one_block.n_blocks


class TestBlockCache:
    def test_lru_eviction_and_counters(self):
        cache = BlockCache(max_blocks=2)
        a, b, c = (np.full((2,), v) for v in (1.0, 2.0, 3.0))
        cache.put("a", a)
        cache.put("b", b)
        assert cache.get("a") is a  # refreshes recency: b is now LRU
        cache.put("c", c)  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") is a and cache.get("c") is c
        stats = cache.stats
        assert (stats["hits"], stats["misses"], stats["evictions"]) == (3, 1, 1)
        assert stats["size"] == 2 and stats["max_blocks"] == 2
        assert stats["nbytes"] == a.nbytes + c.nbytes

    def test_byte_bound_evicts_independently_of_count(self):
        block = np.zeros((8, 8))  # 512 B each
        cache = BlockCache(max_blocks=100, max_bytes=2 * block.nbytes)
        for key in "abc":
            cache.put(key, block.copy())
        stats = cache.stats
        assert stats["size"] == 2 and stats["evictions"] == 1
        assert stats["nbytes"] <= cache.max_bytes
        # The most recent entry survives even when it alone exceeds the bound.
        big = np.zeros((64, 64))
        cache.put("big", big)
        assert cache.get("big") is big
        assert cache.stats["size"] == 1

    def test_rejects_empty_capacity(self):
        with pytest.raises(ValueError, match="max_blocks"):
            BlockCache(max_blocks=0)
        with pytest.raises(ValueError, match="max_bytes"):
            BlockCache(max_bytes=0)

    def test_view_hit_accounting(self, container):
        store, _ = container
        cache = BlockCache()
        view = store.get("f", 0).as_array(cache=cache)
        view[0:8, 0:8, 0:16]
        assert view.stats["blocks_decoded"] == 2
        assert cache.stats["misses"] == 2 and cache.stats["hits"] == 0
        view[0:8, 0:8, 0:16]  # identical query: served entirely from cache
        assert view.stats["blocks_decoded"] == 2
        assert cache.stats["hits"] == 2
        view[0:4, 0:4, 0:24]  # overlaps one cached block, adds one
        assert view.stats["blocks_decoded"] == 3
        assert cache.stats["hits"] == 4

    def test_store_views_share_cache(self, container):
        store, _ = container
        store.block_cache.clear()
        a = store["f", 0]
        b = store["f", 0]
        a[0:8, 0:8, 0:8]
        before = store.block_cache.stats["hits"]
        b[0:8, 0:8, 0:8]
        assert b.source.stats["blocks_decoded"] == 0  # b's reader decoded nothing
        assert store.block_cache.stats["hits"] == before + 1

    def test_bounded_cache_evicts_under_pressure(self, container):
        store, _ = container
        cache = BlockCache(max_blocks=4)
        view = store.get("f", 0).as_array(cache=cache)
        view[...]  # 64 blocks through a 4-block cache
        stats = cache.stats
        assert stats["size"] == 4
        assert stats["evictions"] == 60
        # Still bit-identical to an uncached read.
        assert np.array_equal(view[0:8, 0:8, 0:8], store.get("f", 0).as_array()[0:8, 0:8, 0:8])


class TestAdaptersAndDeprecation:
    def test_read_roi_is_thin_adapter(self, container):
        store, field = container
        roi = store.read_roi("f", 0, ((-5, 8), (0, 8), (24, 99)))
        assert roi.shape == (8, 8, 8)  # bbox clamping, not negative indexing
        assert np.array_equal(roi, store["f", 0][0:8, 0:8, 24:32])


class TestFacadeViews:
    def test_decompress_returns_lazy_view(self, smooth_field_3d):
        compressed = repro.compress(smooth_field_3d, repro.ErrorBound.rel(0.01))
        view = repro.decompress(compressed)
        assert isinstance(view, CompressedArray)
        assert view.shape == smooth_field_3d.shape
        assert view.source.stats["blocks_decoded"] == 0  # nothing decoded yet
        plane = view[:, :, 5]
        assert view.source.stats["blocks_decoded"] == 1
        full = np.asarray(view)
        assert np.array_equal(plane, full[:, :, 5])
        value_range = smooth_field_3d.max() - smooth_field_3d.min()
        assert np.abs(full - smooth_field_3d).max() <= 0.01 * value_range * (1 + 1e-9)

    def test_decompress_bytes_path_and_blob_agree(self, tmp_path, smooth_field_2d):
        from repro.insitu.io import write_compressed_array

        compressed = repro.compress(smooth_field_2d, 0.05)
        path = tmp_path / "f.rpca"
        write_compressed_array(path, compressed)
        a = np.asarray(repro.decompress(compressed))
        assert np.array_equal(np.asarray(repro.decompress(compressed.to_bytes())), a)
        assert np.array_equal(np.asarray(repro.decompress(path)), a)

    def test_open_array_on_container(self, container):
        store, _ = container
        path = store.root / store.entry("f", 0).path
        arr = repro.open_array(path)
        assert isinstance(arr, CompressedArray)
        assert np.array_equal(arr[0:8, 0:8, 0:8], store["f", 0][0:8, 0:8, 0:8])
        assert arr.stats["blocks_decoded"] == 1  # block-granular, cache attached

    def test_as_lazy_array_wraps_ndarray(self):
        data = np.arange(24.0).reshape(4, 6)
        view = as_lazy_array(data)
        assert view.shape == (4, 6)
        assert np.array_equal(view[1:3, ::2], data[1:3, ::2])
        assert np.array_equal(np.asarray(view), data)


class TestVisConsumesViews:
    def test_extract_slice_is_block_granular(self, container):
        from repro.vis import extract_slice

        store, _ = container
        view = store.get("f", 0).as_array()
        plane = extract_slice(view, axis=2, position=0.5)
        assert plane.shape == (32, 32)
        # One z-plane of blocks out of the 4x4x4 grid.
        assert view.stats["blocks_decoded"] == 16
        assert np.array_equal(plane, np.asarray(view)[:, :, 16])

    def test_isosurface_and_pmc_accept_views(self, container):
        from repro.vis import crossing_probability, isosurface_cell_count

        store, _ = container
        arr = store["f", 0]
        iso = float(np.median(np.asarray(arr)))
        assert isosurface_cell_count(arr, iso) == isosurface_cell_count(
            np.asarray(arr), iso
        )
        prob = crossing_probability(arr, 0.01, iso)
        assert prob.shape == (31, 31, 31)


class TestCompileIndex:
    def test_rejects_non_integer_slice_parts(self):
        with pytest.raises(TypeError):
            compile_index(slice(0, "x"), (8,))

    def test_ndim_out_counts_kept_axes(self):
        compiled = compile_index((2, slice(None), 4), (8, 8, 8))
        assert compiled.ndim_out == 1
