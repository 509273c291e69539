"""Property tier: what comes back is within the requested bound of the *original*.

The bit-equality tiers prove that every read path returns the same
reconstruction; this one holds the reconstruction to the paper's invariant —
``|decoded − original| ≤ bound`` at every cell, with no tolerance — for every
:class:`~repro.api.error_bound.ErrorBound` mode, over the fields a simulation
can produce (smooth, white noise, constant, twelve decades of dynamic range,
all-tiny magnitudes), through the two entry points the codec layers offer:

* ``Store.append`` → ``Store[field, step][...]`` at unit 2, 4, 8 and 16 on
  2-D and 3-D levels (per-block, batched encode and decode);
* ``repro.compress`` → ``repro.decompress`` on 1-, 2- and 3-D arrays.

A two-level hierarchy whose ROI is everything or nothing — one level owns no
cell — is a legal snapshot and a row of the store table too; the merged v1
writers (``run_workflow``, ``compress_hierarchy``, a store-less
``InSituPipeline``) cannot hold it and refuse it with a typed error.

The bound held against is the one the spec resolves to on the original data,
so an entry that quietly recorded a looser bound fails too.  Inputs outside
the domain are rows of the same table, asserting the typed refusal: non-finite
values, level shapes the unit does not divide, 1-D levels.

Seeded by ``REPRO_FUZZ_SEED``; no new dependency.  Holding the *served*
surfaces (socket, shards, gateway) to the same invariant is ROADMAP 4b.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro
from repro import ErrorBound
from repro.compressors import get_compressor
from repro.compressors.errors import CompressionError
from repro.core.mr_compressor import MultiResolutionCompressor
from repro.core.roi import extract_roi
from repro.store import Store
from repro.utils.rng import default_rng

FUZZ_SEED = os.environ.get("REPRO_FUZZ_SEED", "fuzz-0")

BOUNDS = {
    "abs": ErrorBound.abs(1e-2),
    "rel": ErrorBound.rel(1e-3),
    "ptw_rel": ErrorBound.ptw_rel(1e-3),
    "psnr": ErrorBound.psnr(60.0),
}
UNITS = (2, 4, 8, 16)
LEVEL_SHAPES = {"2d": (32, 48), "3d": (16, 16, 32)}  # every unit divides both


def _smooth(rng, shape):
    axes = np.meshgrid(*(np.linspace(0.0, 1.0, n) for n in shape), indexing="ij")
    phase = rng.uniform(0.0, 2 * np.pi, len(shape))
    return 3.0 + sum(np.sin(2 * np.pi * (k + 1) * x + p) for k, (x, p) in enumerate(zip(axes, phase)))


FIELDS = {
    "smooth": _smooth,
    "noise": lambda rng, shape: rng.standard_normal(shape),
    "constant": lambda rng, shape: np.full(shape, float(rng.uniform(-5.0, 5.0))),
    "12-decades": lambda rng, shape: rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-6, 6, shape),
    "tiny": lambda rng, shape: 1e-30 * rng.standard_normal(shape),
}


def _field(kind, shape, *label):
    rng = default_rng(":".join(map(str, (FUZZ_SEED, "bound-property", kind, shape) + label)))
    return FIELDS[kind](rng, shape)


def _assert_within(decoded, original, bound, spec):
    assert bound == float(spec.resolve(original))
    assert decoded.shape == original.shape
    worst = np.abs(decoded - original).max()
    assert worst <= bound, f"max error {worst!r} exceeds {spec.describe()} = {bound!r}"


@pytest.mark.parametrize("kind", FIELDS)
@pytest.mark.parametrize("dims", LEVEL_SHAPES)
@pytest.mark.parametrize("unit", UNITS)
def test_store_round_trip_is_within_the_bound(tmp_path, unit, dims, kind):
    original = _field(kind, LEVEL_SHAPES[dims], unit)
    store = Store(tmp_path / "s", MultiResolutionCompressor(unit_size=unit))
    for step, spec in enumerate(BOUNDS.values()):
        entry = store.append("f", step, original, spec)
        # A fresh store: nothing of the write survives but the container.
        decoded = Store(tmp_path / "s")["f", step][...]
        _assert_within(decoded, original, entry.error_bound, spec)


@pytest.mark.parametrize("roi_fraction", [0.0, 1.0])
def test_store_holds_a_hierarchy_with_an_unoccupied_level(tmp_path, roi_fraction):
    """Everything refined, or nothing: an in-situ run reaches this on its first
    fully refined step.  The unoccupied level is stored with zero blocks."""
    original = _field("smooth", (32, 32, 32), roi_fraction)
    hierarchy = extract_roi(original, roi_fraction=roi_fraction, block_size=8).hierarchy
    (empty,) = [lvl.level for lvl in hierarchy.levels if not lvl.mask.any()]
    store = Store(tmp_path / "s", MultiResolutionCompressor(unit_size=8))
    for step, spec in enumerate(BOUNDS.values()):
        entry = store.append("f", step, hierarchy, spec)
        reader = Store(tmp_path / "s").get("f", step)
        assert reader.level_info(empty).n_blocks == 0
        assert reader.read_blocks(empty).blocks.shape == (0, 8, 8, 8)
        for lvl in hierarchy.levels:
            decoded = reader.as_array(level=lvl.level, fill_value=-7.0)[...]
            assert decoded.shape == lvl.data.shape
            if lvl.level == empty:
                assert (decoded == -7.0).all()
            else:
                assert np.abs(decoded - lvl.data)[lvl.mask].max() <= entry.error_bound


@pytest.mark.parametrize("roi_fraction", [0.0, 1.0])
def test_merged_v1_paths_refuse_a_hierarchy_with_an_unoccupied_level(roi_fraction):
    """The v1 container has no empty level: its three writers say so, naming
    the level and the path that can hold one."""
    from repro.insitu import InSituPipeline
    from repro.amr.simulation import SimulationSnapshot

    original = _field("smooth", (32, 32, 32), roi_fraction)
    hierarchy = extract_roi(original, roi_fraction=roi_fraction, block_size=8).hierarchy
    (empty,) = [lvl.level for lvl in hierarchy.levels if not lvl.mask.any()]
    message = f"level {empty} owns no cell.*Store.append"
    mrc = MultiResolutionCompressor(unit_size=8)
    for spec in BOUNDS.values():
        with pytest.raises(CompressionError, match=message):
            repro.run_workflow(hierarchy, error_bound=spec)
        with pytest.raises(CompressionError, match=message):
            mrc.compress_hierarchy(hierarchy, spec)
        with pytest.raises(CompressionError, match=message):
            InSituPipeline(mrc).process_snapshot(
                SimulationSnapshot(step=1, time=0.0, field_name="f", data=hierarchy), spec
            )


@pytest.mark.parametrize("kind", FIELDS)
@pytest.mark.parametrize("shape", [(97,), (32, 48), (16, 16, 32), (9, 5, 7)], ids=str)
@pytest.mark.parametrize("mode", BOUNDS)
def test_codec_round_trip_is_within_the_bound(mode, shape, kind):
    original = _field(kind, shape, mode)
    compressed = repro.compress(original, BOUNDS[mode])
    decoded = np.asarray(repro.decompress(compressed.to_bytes()))
    _assert_within(decoded, original, compressed.error_bound, BOUNDS[mode])


# -- outside the input domain: typed refusals, not skipped rows ---------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("shape", [(10,), (6, 5), (4, 4, 4)], ids=str)
@pytest.mark.parametrize("codec", ["sz3", "sz2", "zfp"])
def test_codec_refuses_non_finite_values(codec, shape, bad):
    """One NaN used to come back as -1.8e17 with no error: ``rint(nan)`` cast
    to int64 is ``INT64_MIN``, whose ``abs`` stays negative, so the quantizer's
    overflow escape never fired."""
    data = _field("smooth", shape)
    data.flat[data.size // 2] = bad
    with pytest.raises(CompressionError, match="NaN or infinite"):
        repro.compress(data, 0.01, codec=codec)
    with pytest.raises(CompressionError, match="NaN or infinite"):
        get_compressor(codec).compress_batch(np.stack([_field("smooth", shape), data]), 0.01)
    with pytest.raises(CompressionError, match="NaN or infinite"):
        repro.compress(data, ErrorBound.rel(0.01), codec=codec)


@pytest.mark.parametrize(
    "data, message",
    [
        (np.array([[1.0, np.nan], [0.0, 2.0]]), "NaN or infinite"),
        (np.array([[1.0, -np.inf], [0.0, 2.0]]), "NaN or infinite"),
        (np.zeros((10, 8, 8)), "not divisible by unit block size 4"),
        (np.zeros((8, 6)), "not divisible by unit block size 4"),
        (np.zeros(16), r"dimensionality in \(2, 3\), got 1"),
    ],
    ids=["nan", "-inf", "3d-not-divisible", "2d-not-divisible", "1d-level"],
)
def test_store_refuses_what_it_cannot_hold(tmp_path, data, message):
    store = Store(tmp_path / "s", MultiResolutionCompressor(unit_size=4))
    for spec in BOUNDS.values():
        with pytest.raises(ValueError, match=message):
            store.append("f", 0, data, spec)
    assert len(store) == 0 and not list((tmp_path / "s").rglob("*.rps2"))
