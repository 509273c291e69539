"""Tests for the :class:`repro.api.ErrorBound` spec type."""

import json

import numpy as np
import pytest

from repro.api import ERROR_BOUND_MODES, ErrorBound
from repro.compressors import get_compressor


class TestConstruction:
    def test_constructors_set_mode(self):
        assert ErrorBound.abs(1e-3).mode == "abs"
        assert ErrorBound.rel(0.01).mode == "rel"
        assert ErrorBound.ptw_rel(0.01).mode == "ptw_rel"
        assert ErrorBound.psnr(60).mode == "psnr"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown error-bound mode"):
            ErrorBound("relative", 0.01)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_non_positive_values_rejected(self, value):
        with pytest.raises(ValueError, match="finite and positive"):
            ErrorBound.abs(value)

    def test_roundtrip_through_json(self):
        for mode in ERROR_BOUND_MODES:
            spec = ErrorBound(mode, 0.25)
            again = ErrorBound.from_dict(json.loads(json.dumps(spec.to_dict())))
            assert again == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown ErrorBound keys"):
            ErrorBound.from_dict({"mode": "abs", "value": 1.0, "relative": True})


class TestResolution:
    def test_abs_ignores_data(self):
        data = np.linspace(-5.0, 5.0, 100)
        assert ErrorBound.abs(1e-2).resolve(data) == 1e-2

    def test_rel_uses_known_value_range(self):
        data = np.linspace(2.0, 12.0, 50)  # value range exactly 10
        assert ErrorBound.rel(0.01).resolve(data) == pytest.approx(0.1)

    def test_ptw_rel_uses_peak_magnitude(self):
        data = np.array([-8.0, 0.0, 4.0])
        assert ErrorBound.ptw_rel(0.25).resolve(data) == pytest.approx(2.0)

    def test_degenerate_data_falls_back_to_absolute(self):
        flat = np.ones(10)
        assert ErrorBound.rel(1e-3).resolve(flat) == 1e-3
        assert ErrorBound.ptw_rel(1e-3).resolve(np.zeros(10)) == 1e-3

    def test_psnr_target_monotonicity(self):
        data = np.linspace(0.0, 1.0, 64)
        bounds = [ErrorBound.psnr(db).resolve(data) for db in (40, 50, 60, 80, 100)]
        assert all(b > 0 for b in bounds)
        # Tighter quality targets must demand tighter bounds, strictly.
        assert all(hi > lo for hi, lo in zip(bounds, bounds[1:]))

    def test_psnr_target_approximately_achieved(self):
        rng = np.random.default_rng(20260730)
        data = rng.standard_normal((32, 32, 32)).cumsum(axis=0)
        target = 55.0
        result = get_compressor("sz3").roundtrip(data, ErrorBound.psnr(target))
        # The uniform-error model is approximate; the achieved PSNR should
        # land in the target's neighbourhood, not orders of magnitude away.
        assert abs(result.psnr - target) < 12.0

    def test_resolve_range_matches_resolve(self):
        data = np.linspace(-3.0, 7.0, 128)
        for mode, value in (("rel", 0.02), ("ptw_rel", 0.02), ("psnr", 60.0), ("abs", 0.5)):
            spec = ErrorBound(mode, value)
            assert spec.resolve_range(10.0, 7.0) == pytest.approx(spec.resolve(data))


class TestCoercion:
    def test_float_coerces_to_abs(self):
        assert ErrorBound.coerce(1e-3) == ErrorBound.abs(1e-3)

    def test_dict_coerces_through_from_dict(self):
        assert ErrorBound.coerce({"mode": "psnr", "value": 60}) == ErrorBound.psnr(60)

    def test_spec_passes_through(self):
        spec = ErrorBound.rel(0.01)
        assert ErrorBound.coerce(spec) is spec


class TestDescribe:
    def test_describe_is_compact(self):
        assert ErrorBound.rel(0.01).describe() == "rel:0.01"
        assert ErrorBound.psnr(60).describe() == "psnr:60dB"
