"""Unit tests for the pure bbox/block arithmetic in ``repro.store.query``.

Every store read path — ``read_blocks``/``read_roi``, the lazy
``CompressedArray`` view, the CLI — compiles to these few functions, so they
are pinned down exhaustively here without any file I/O.
"""

import numpy as np
import pytest

from repro.store.query import (
    bbox_to_block_range,
    block_cell_slices,
    blocks_in_range,
    normalize_bbox,
    paste_slices,
)


class TestNormalizeBbox:
    def test_passthrough(self):
        assert normalize_bbox(((0, 8), (4, 12)), (16, 16)) == ((0, 8), (4, 12))

    def test_clamps_to_domain(self):
        assert normalize_bbox(((-5, 8), (10, 99)), (16, 16)) == ((0, 8), (10, 16))

    def test_wrong_axis_count(self):
        with pytest.raises(ValueError, match="2 axes .* 3-dimensional"):
            normalize_bbox(((0, 8), (0, 8)), (16, 16, 16))

    def test_empty_axis_message(self):
        with pytest.raises(
            ValueError, match=r"bbox axis 1 is empty after clamping to \[0, 16\)"
        ):
            normalize_bbox(((0, 8), (5, 5)), (16, 16))

    def test_fully_outside_domain_has_dedicated_message(self):
        # A non-empty box with no overlap is *outside*, not "empty after
        # clamping" — the old message blamed the clamp for a caller mistake.
        with pytest.raises(
            ValueError,
            match=r"bbox axis 0 \(20, 30\) lies entirely outside the domain \[0, 16\)",
        ):
            normalize_bbox(((20, 30), (0, 8)), (16, 16))

    def test_fully_below_domain_has_dedicated_message(self):
        with pytest.raises(
            ValueError,
            match=r"bbox axis 1 \(-9, -2\) lies entirely outside the domain \[0, 16\)",
        ):
            normalize_bbox(((0, 8), (-9, -2)), (16, 16))

    def test_edge_touching_box_is_still_empty_not_outside(self):
        # (16, 20) on a 16-wide axis overlaps nothing but starts exactly at
        # the boundary; (0, 0) is a zero-cell box.  Both are "outside" by the
        # no-overlap rule and must say so, except the truly empty (0, 0)
        # which has no cells to be outside with.
        with pytest.raises(ValueError, match="entirely outside"):
            normalize_bbox(((16, 20),), (16,))
        with pytest.raises(ValueError, match="empty after clamping"):
            normalize_bbox(((0, 0),), (16,))

    def test_inverted_box_is_empty(self):
        with pytest.raises(ValueError, match="empty after clamping"):
            normalize_bbox(((8, 2),), (16,))

    def test_coerces_to_ints(self):
        out = normalize_bbox(((np.int64(0), np.int64(8)),), (np.int64(16),))
        assert out == ((0, 8),)
        assert all(isinstance(v, int) for pair in out for v in pair)


class TestBlockRange:
    def test_aligned(self):
        assert bbox_to_block_range(((0, 16), (8, 24)), 8) == ((0, 2), (1, 3))

    def test_unaligned_rounds_outward(self):
        assert bbox_to_block_range(((3, 9), (7, 8)), 8) == ((0, 2), (0, 1))

    def test_unit_one(self):
        assert bbox_to_block_range(((3, 9),), 1) == ((3, 9),)

    def test_per_axis_extents(self):
        # A block shaped like a non-cubic domain has one extent per axis.
        assert bbox_to_block_range(((3, 9), (7, 8)), (4, 8)) == ((0, 3), (0, 1))


class TestBlocksInRange:
    def test_selects_inside_half_open(self):
        coords = np.array([[0, 0], [1, 0], [1, 1], [2, 2]])
        keep = blocks_in_range(coords, ((0, 2), (0, 2)))
        assert keep.tolist() == [True, True, True, False]

    def test_empty_range_selects_nothing(self):
        coords = np.array([[0, 0], [1, 1]])
        assert not blocks_in_range(coords, ((1, 1), (0, 2))).any()


class TestSlices:
    def test_block_cell_slices(self):
        assert block_cell_slices((2, 0), 8) == (slice(16, 24), slice(0, 8))

    def test_paste_slices_per_axis_extents(self):
        dst, src = paste_slices((1, 0), (4, 8), ((3, 9), (7, 8)))
        assert dst == (slice(1, 5), slice(0, 1))
        assert src == (slice(0, 4), slice(7, 8))

    @pytest.mark.parametrize(
        "coord,bbox",
        [
            ((0, 0), ((0, 8), (0, 8))),  # block fully inside
            ((0, 0), ((3, 5), (2, 7))),  # bbox inside the block
            ((1, 1), ((4, 12), (6, 10))),  # partial overlap on both axes
        ],
    )
    def test_paste_slices_copies_exact_overlap(self, coord, bbox):
        u = 8
        level = np.arange(16 * 16, dtype=np.float64).reshape(16, 16)
        block = level[block_cell_slices(coord, u)]
        out = np.full(tuple(hi - lo for lo, hi in bbox), np.nan)
        dst, src = paste_slices(coord, u, bbox)
        out[dst] = block[src]
        # Every cell of the bbox owned by this block must carry the level
        # value; cells outside the block stay untouched.
        expected = level[tuple(slice(lo, hi) for lo, hi in bbox)]
        own = ~np.isnan(out)
        assert np.array_equal(out[own], expected[own])
        lo0, hi0 = coord[0] * u, (coord[0] + 1) * u
        lo1, hi1 = coord[1] * u, (coord[1] + 1) * u
        for (i, j), filled in np.ndenumerate(own):
            ci, cj = i + bbox[0][0], j + bbox[1][0]
            assert filled == (lo0 <= ci < hi0 and lo1 <= cj < hi1)

    def test_paste_slices_cover_bbox_when_blocks_tile(self):
        # Pasting every intersecting block of a tiled domain fills the bbox.
        # (paste_slices is only defined for intersecting blocks, which is what
        # the index range-query guarantees in the real read path.)
        u, shape = 4, (12, 12)
        level = np.random.default_rng(0).standard_normal(shape)
        bbox = normalize_bbox(((2, 11), (5, 12)), shape)
        block_range = bbox_to_block_range(bbox, u)
        out = np.full((9, 7), np.nan)
        for ci in range(*block_range[0]):
            for cj in range(*block_range[1]):
                dst, src = paste_slices((ci, cj), u, bbox)
                block = level[block_cell_slices((ci, cj), u)]
                out[dst] = block[src]
        assert np.array_equal(out, level[2:11, 5:12])
