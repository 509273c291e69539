"""Round-trip and error-bound tests for the SZ2 / SZ3 / ZFP compressors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ErrorBound
from repro.compressors import SZ2Compressor, SZ3Compressor, ZFPCompressor
from repro.compressors.base import (
    CompressedArray,
    available_compressors,
    get_compressor,
)
from repro.compressors.errors import (
    CompressionError,
    DecompressionError,
    ErrorBoundViolation,
    UnknownCompressorError,
)

ALL_COMPRESSORS = [SZ3Compressor, SZ2Compressor, ZFPCompressor]


def _make_field(shape, seed=0, noise=0.02):
    rng = np.random.default_rng(seed)
    coords = np.meshgrid(*[np.linspace(0, 1, s) for s in shape], indexing="ij")
    field = np.ones(shape)
    for i, c in enumerate(coords):
        field = field * np.sin(2 * np.pi * (i + 2) * c)
    return field + noise * rng.standard_normal(shape)


class TestRoundTripAllCompressors:
    @pytest.mark.parametrize("cls", ALL_COMPRESSORS)
    @pytest.mark.parametrize("shape", [(200,), (24, 30), (18, 20, 22)])
    def test_error_bound_respected(self, cls, shape):
        data = _make_field(shape, seed=1)
        comp = cls()
        result = comp.roundtrip(data, 1e-3, verify=True)
        assert result.max_error <= 1e-3 * (1 + 1e-9)
        assert result.decompressed.shape == data.shape

    @pytest.mark.parametrize("cls", ALL_COMPRESSORS)
    def test_larger_error_bound_gives_larger_ratio(self, cls):
        data = _make_field((24, 24, 24), seed=2)
        comp = cls()
        loose = comp.roundtrip(data, 1e-1)
        tight = comp.roundtrip(data, 1e-4)
        assert loose.compression_ratio > tight.compression_ratio

    @pytest.mark.parametrize("cls", ALL_COMPRESSORS)
    def test_relative_error_bound(self, cls):
        data = 1000.0 * _make_field((16, 16, 16), seed=3)
        comp = cls()
        rel = 1e-3
        result = comp.roundtrip(data, ErrorBound.rel(rel))
        value_range = data.max() - data.min()
        assert result.max_error <= rel * value_range * (1 + 1e-9)

    @pytest.mark.parametrize("cls", ALL_COMPRESSORS)
    def test_constant_field_compresses_hugely(self, cls):
        data = np.full((16, 16, 16), 3.14)
        result = cls().roundtrip(data, 1e-6)
        assert result.compression_ratio > 50
        np.testing.assert_allclose(result.decompressed, data, atol=1e-6)

    @pytest.mark.parametrize("cls", ALL_COMPRESSORS)
    def test_serialization_roundtrip(self, cls):
        data = _make_field((12, 12, 12), seed=4)
        comp = cls()
        compressed = comp.compress(data, 1e-3)
        blob = compressed.to_bytes()
        restored = CompressedArray.from_bytes(blob)
        recon = comp.decompress(restored)
        assert np.abs(recon - data).max() <= 1e-3 * (1 + 1e-9)

    @pytest.mark.parametrize("cls", ALL_COMPRESSORS)
    def test_wrong_codec_decompression_raises(self, cls):
        data = _make_field((10, 10), seed=5)
        compressed = cls().compress(data, 1e-2)
        other = [c for c in ALL_COMPRESSORS if c is not cls][0]()
        with pytest.raises(DecompressionError):
            other.decompress(compressed)

    @pytest.mark.parametrize("cls", ALL_COMPRESSORS)
    def test_invalid_inputs_raise(self, cls):
        comp = cls()
        with pytest.raises(CompressionError):
            comp.compress(np.zeros((2, 2, 2, 2)), 1e-3)
        with pytest.raises(CompressionError):
            comp.compress(np.zeros((4, 4)), -1.0)


class TestSZ3Specifics:
    def test_linear_vs_cubic_both_bounded(self):
        data = _make_field((20, 20, 20), seed=6)
        for mode in ("linear", "cubic"):
            result = SZ3Compressor(interpolation=mode).roundtrip(data, 1e-3, verify=True)
            assert result.max_error <= 1e-3 * (1 + 1e-9)

    def test_huffman_entropy_roundtrip(self):
        data = _make_field((16, 16), seed=7)
        result = SZ3Compressor(entropy="huffman").roundtrip(data, 1e-3, verify=True)
        assert result.max_error <= 1e-3 * (1 + 1e-9)

    def test_level_error_bounds_hook_is_respected(self):
        data = _make_field((32, 32), seed=8)
        # Tighter bounds at earlier (coarser) levels must still respect the
        # overall bound and should give a better PSNR than it requires.
        schedule = lambda level, max_level, eb: eb / min(2.0 ** (level - 1), 8.0)
        result = SZ3Compressor(level_error_bounds=schedule).roundtrip(data, 1e-2, verify=True)
        assert result.max_error <= 1e-2

    def test_level_error_bounds_stored_in_metadata(self):
        data = _make_field((16, 16), seed=9)
        compressed = SZ3Compressor().compress(data, 1e-3)
        assert "level_error_bounds" in compressed.metadata
        assert all(float(v) > 0 for v in compressed.metadata["level_error_bounds"].values())

    def test_invalid_options(self):
        with pytest.raises(ValueError):
            SZ3Compressor(interpolation="quintic")
        with pytest.raises(ValueError):
            SZ3Compressor(entropy="lz4")

    def test_global_beats_blockwise_on_smooth_data(self):
        """The paper's premise: global interpolation outperforms block-wise SZ2."""
        data = _make_field((32, 32, 32), seed=10, noise=0.0)
        eb = 1e-4
        sz3 = SZ3Compressor().roundtrip(data, eb)
        sz2 = SZ2Compressor().roundtrip(data, eb)
        assert sz3.compression_ratio > sz2.compression_ratio


class TestSZ2Specifics:
    @pytest.mark.parametrize("block_size", [4, 6, 8])
    def test_block_sizes(self, block_size):
        data = _make_field((20, 20, 20), seed=11)
        result = SZ2Compressor(block_size=block_size).roundtrip(data, 1e-3, verify=True)
        assert result.max_error <= 1e-3 * (1 + 1e-9)

    def test_mean_predictor(self):
        data = _make_field((16, 16), seed=12)
        result = SZ2Compressor(predictor="mean").roundtrip(data, 1e-3, verify=True)
        assert result.max_error <= 1e-3

    def test_block_boundaries_helper(self):
        comp = SZ2Compressor(block_size=4)
        bounds = comp.block_boundaries((10, 8))
        np.testing.assert_array_equal(bounds[0], [0, 4, 8])
        np.testing.assert_array_equal(bounds[1], [0, 4])

    def test_invalid_options(self):
        with pytest.raises(ValueError):
            SZ2Compressor(block_size=1)
        with pytest.raises(ValueError):
            SZ2Compressor(predictor="spline")


class TestZFPSpecifics:
    def test_error_usually_well_below_bound(self):
        """ZFP's fixed-accuracy mode underestimates error (exploited in §III-B)."""
        data = _make_field((24, 24, 24), seed=13)
        eb = 1e-2
        result = ZFPCompressor().roundtrip(data, eb)
        assert result.max_error < eb / 2

    def test_coefficient_grouping_improves_ratio(self):
        data = _make_field((32, 32, 32), seed=14)
        grouped = ZFPCompressor(coefficient_grouping=True).roundtrip(data, 1e-3)
        flat = ZFPCompressor(coefficient_grouping=False).roundtrip(data, 1e-3)
        assert grouped.compression_ratio >= flat.compression_ratio * 0.95

    def test_block_size_property(self):
        assert ZFPCompressor().block_size == 4


class TestRegistry:
    def test_all_registered(self):
        assert {"sz2", "sz3", "zfp"} <= set(available_compressors())

    def test_get_compressor_with_options(self):
        comp = get_compressor("sz2", block_size=4)
        assert comp.block_size == 4

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownCompressorError):
            get_compressor("mgard")

    def test_roundtrip_verify_raises_on_violation(self):
        """verify=True must raise when the bound is (artificially) violated."""

        class Broken(SZ3Compressor):
            def _decompress_impl(self, compressed):
                out = super()._decompress_impl(compressed)
                out[0] += 10 * compressed.error_bound
                return out

        data = _make_field((64,), seed=15)
        with pytest.raises(ErrorBoundViolation):
            Broken().roundtrip(data, 1e-3, verify=True)


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=60),
    eb_exp=st.integers(min_value=-4, max_value=-1),
)
def test_property_sz3_1d_error_bound(n, eb_exp):
    """SZ3 respects the error bound for arbitrary 1-D sizes."""
    rng = np.random.default_rng(n)
    data = np.cumsum(rng.standard_normal(n))  # random walk: correlated data
    eb = 10.0**eb_exp
    result = SZ3Compressor().roundtrip(data, eb)
    assert result.max_error <= eb * (1 + 1e-9)
