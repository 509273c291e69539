"""Tests for the Store catalog: manifest, append-as-you-simulate, queries."""

import json

import numpy as np
import pytest

from repro.amr.simulation import CollapsingDensitySimulation
from repro.core.mr_compressor import MultiResolutionCompressor
from repro.core.sz3mr import SZ3MRCompressor
from repro.insitu import InSituPipeline
from repro.store import Store

EB = 0.05


@pytest.fixture()
def store(tmp_path):
    return Store(tmp_path / "store", MultiResolutionCompressor(unit_size=8))


class TestCatalog:
    def test_append_and_get(self, store, small_hierarchy):
        entry = store.append("density", 0, small_hierarchy, EB)
        assert entry.key == "density/00000"
        assert entry.compression_ratio > 1.0
        reader = store.get("density", 0)
        for lvl in small_hierarchy.levels:
            recon = reader.as_array(lvl.level)[...]
            assert np.abs(recon - lvl.data)[lvl.mask].max() <= EB * (1 + 1e-9)

    def test_append_uniform_array(self, store, smooth_field_3d):
        store.append("temp", 7, smooth_field_3d, EB)
        recon = store["temp", 7][...]
        assert np.abs(recon - smooth_field_3d).max() <= EB * (1 + 1e-9)

    def test_duplicate_append_needs_overwrite(self, store, smooth_field_3d):
        store.append("temp", 1, smooth_field_3d, EB)
        with pytest.raises(ValueError, match="overwrite"):
            store.append("temp", 1, smooth_field_3d, EB)
        store.append("temp", 1, smooth_field_3d, EB, overwrite=True)
        assert len(store) == 1

    def test_adopt_external_container(self, tmp_path, store, smooth_field_3d):
        # A container written by another store is adopted without re-encoding:
        # the bytes are copied in, the entry metadata comes from its header.
        other = Store(tmp_path / "other", MultiResolutionCompressor(unit_size=8))
        source = other.append("density", 3, smooth_field_3d, EB)
        entry = store.adopt("density", 3, other.root / source.path)
        assert entry.key == "density/00003"
        assert entry.n_blocks == source.n_blocks
        assert entry.error_bound == source.error_bound
        assert (store.root / entry.path).exists()
        assert np.array_equal(
            np.asarray(store["density", 3][...]), np.asarray(other["density", 3][...])
        )
        # The adopted entry survives a reopen like any appended one.
        reopened = Store(store.root)
        assert reopened.entry("density", 3).n_blocks == source.n_blocks

    def test_adopt_in_place_and_overwrite_rules(self, tmp_path, store, smooth_field_3d):
        entry = store.append("temp", 0, smooth_field_3d, EB)
        # Adopting a path already under the root does not copy it.
        readopted = store.adopt("alias", 0, store.root / entry.path)
        assert readopted.path == entry.path
        with pytest.raises(ValueError, match="overwrite"):
            store.adopt("alias", 0, store.root / entry.path)
        store.adopt("alias", 0, store.root / entry.path, overwrite=True)

    def test_refresh_picks_up_external_writer(self, store, smooth_field_3d):
        # Two Store objects on one root model a writer and a reader process.
        writer = Store(store.root, MultiResolutionCompressor(unit_size=8))
        assert store.refresh() is False  # steady state: a stat, no reload
        writer.append("density", 5, smooth_field_3d, EB)
        assert store.refresh() is True
        assert store.entry("density", 5).n_blocks == writer.entry("density", 5).n_blocks
        # An external overwrite replaces the entry row on refresh.
        writer.append("density", 5, smooth_field_3d[:16, :16, :16], EB, overwrite=True)
        assert store.refresh() is True
        assert store["density", 5].shape == (16, 16, 16)
        assert store.refresh() is False

    def test_adopt_rejects_non_container(self, store, tmp_path):
        from repro.compressors.errors import DecompressionError

        junk = tmp_path / "junk.rps2"
        junk.write_bytes(b"not a container")
        with pytest.raises(DecompressionError):
            store.adopt("junk", 0, junk)

    def test_manifest_survives_reopen(self, tmp_path, store, smooth_field_3d, small_hierarchy):
        store.append("temp", 0, smooth_field_3d, EB)
        store.append("temp", 1, smooth_field_3d, EB)
        store.append("density", 4, small_hierarchy, EB)
        reopened = Store(store.root)
        assert len(reopened) == 3
        assert reopened.fields() == ["density", "temp"]
        assert reopened.steps("temp") == [0, 1]
        assert ("density", 4) in reopened
        assert ("density", 5) not in reopened
        recon = reopened["temp", 1][...]
        assert np.abs(recon - smooth_field_3d).max() <= EB * (1 + 1e-9)

    def test_iteration_order(self, store, smooth_field_3d):
        store.append("b", 2, smooth_field_3d, EB)
        store.append("a", 9, smooth_field_3d, EB)
        store.append("b", 1, smooth_field_3d, EB)
        keys = [e.key for e in store]
        assert keys == ["a/00009", "b/00001", "b/00002"]

    def test_missing_entry_raises(self, store):
        with pytest.raises(KeyError, match="no entry"):
            store.get("nope", 0)

    def test_open_does_not_write_manifest(self, tmp_path):
        root = tmp_path / "existing"
        root.mkdir()
        store = Store(root)
        assert len(store) == 0
        assert not (root / "manifest.json").exists()

    def test_corrupt_manifest_raises(self, tmp_path):
        root = tmp_path / "bad"
        root.mkdir()
        (root / "manifest.json").write_text("{not json")
        with pytest.raises(ValueError, match="manifest"):
            Store(root)

    def test_foreign_manifest_raises(self, tmp_path):
        root = tmp_path / "foreign"
        root.mkdir()
        (root / "manifest.json").write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a store manifest"):
            Store(root)

    def test_roi_through_catalog(self, store, smooth_field_3d):
        store.append("temp", 3, smooth_field_3d, EB)
        roi = store.read_roi("temp", 3, ((0, 8), (8, 16), (0, 8)))
        assert roi.shape == (8, 8, 8)
        assert np.abs(roi - smooth_field_3d[:8, 8:16, :8]).max() <= EB * (1 + 1e-9)

    def test_summary_lists_entries(self, store, smooth_field_3d):
        store.append("temp", 0, smooth_field_3d, EB)
        text = store.summary()
        assert "temp" in text and "1 entries" in text


class TestPipelineIntegration:
    def test_append_as_you_simulate(self, tmp_path):
        sim = CollapsingDensitySimulation(shape=(16, 16, 16), block_size=8)
        store = Store(tmp_path / "run", SZ3MRCompressor(unit_size=8))
        pipeline = InSituPipeline(SZ3MRCompressor(unit_size=8), store=store)
        reports = pipeline.run(sim, n_steps=3, error_bound=0.2)
        assert len(reports) == 3
        assert store.steps(reports[0].field_name) == [r.step for r in reports]
        for report in reports:
            # Store-backed steps keep only the on-disk container.
            assert report.compressed is None
            assert report.compression_ratio > 1.0
            assert report.psnr is not None and report.psnr > 20
            assert report.output_path is not None and report.output_path.exists()
            assert report.compress_write_time > 0.0

    def test_mismatched_store_compressor_rejected(self, tmp_path):
        store = Store(tmp_path / "s", MultiResolutionCompressor(compressor="zfp", unit_size=8))
        with pytest.raises(ValueError, match="disagree"):
            InSituPipeline(SZ3MRCompressor(unit_size=8), store=store)

    def test_store_quality_matches_v1_path(self, tmp_path):
        sim = CollapsingDensitySimulation(shape=(16, 16, 16), block_size=8, seed=5)
        snap = next(iter(sim.run(1)))
        v1 = InSituPipeline(SZ3MRCompressor(unit_size=8))
        store = Store(tmp_path / "s", SZ3MRCompressor(unit_size=8))
        v2 = InSituPipeline(SZ3MRCompressor(unit_size=8), store=store)
        r1 = v1.process_snapshot(snap, error_bound=0.2)
        r2 = v2.process_snapshot(snap, error_bound=0.2)
        # Same codec, same error bound: quality is comparable even though the
        # v2 path compresses each unit block independently.
        assert r2.psnr == pytest.approx(r1.psnr, rel=0.2)
