#!/usr/bin/env python
"""Lazy NumPy-style reads from a block-indexed compressed store.

The example simulates a short in-situ run declared through the
:class:`repro.Pipeline` builder with a store sink (block containers + JSON
catalog), then plays the post-hoc analyst with the ``repro.array``
view API: *open returns a view, indexing triggers I/O*.  Slicing a stored
timestep decodes only the unit blocks the selection intersects — the rest of
the timestep stays compressed on disk — and the shared block cache serves
revisited blocks without decoding them again.

Run with:  python examples/store_random_access.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

import repro
from repro.amr.simulation import CollapsingDensitySimulation


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        # 1. In-situ: every step is appended to the store as it is produced,
        #    declared as a repro.api pipeline with a store sink.
        sim = CollapsingDensitySimulation(shape=(32, 32, 32), block_size=8, seed=7)
        codec = repro.CodecSpec.sz3mr(unit_size=8)
        store = repro.open_store(Path(tmp) / "run", codec)
        error_bound = 0.1
        reports = (
            repro.Pipeline(codec, repro.ErrorBound.abs(error_bound))
            .sink_store(store)
            .run(sim, n_steps=3)
        )

        print("catalog after the run:")
        print(store.summary())

        # The store keeps every unit block addressable and still entropy-codes
        # a level in whole stacks of them, so it stays close to the ratio of
        # the merged arrangement (the paper's: one array, no random access).
        last = store.entry(reports[-1].field_name, reports[-1].step)
        merged = codec.build().compress_hierarchy(sim.snapshot().data, error_bound)
        print(f"\nratio of the last step: store {last.compression_ratio:.2f}x, "
              f"merged {merged.compression_ratio:.2f}x")
        assert last.compression_ratio > merged.compression_ratio / 2

        # 2. Post-hoc: `store[field, step]` is a lazy view — no payload has
        #    been touched yet.  NumPy-style indexing compiles straight into
        #    block queries.
        field = reports[-1].field_name
        step = reports[-1].step
        arr = store[field, step]
        print(f"\nopened {field} step {step}: {arr!r}")

        # A halo-core neighbourhood around the first occupied fine block.
        unit = arr.source.unit_size(0)
        first = arr.source.intersecting(0)[1][0]
        sl = tuple(
            slice(max(0, int(c) * unit - 2), min(n, (int(c) + 1) * unit + 2))
            for c, n in zip(first, arr.shape)
        )
        roi = arr[sl]
        stats = arr.stats
        print(f"\nroi {sl} of {field} step {step}:")
        print(f"  shape               : {roi.shape}")
        print(f"  blocks decoded      : {stats['blocks_decoded']} of {arr.n_blocks} in level 0")
        print(f"  payload bytes read  : {stats['payload_bytes_read']}")

        # 3. Revisiting the region hits the store's block cache: the
        #    cumulative decode count does not move, only the hit counter.
        again = arr[sl]
        stats = arr.stats
        print(f"  re-read decoded     : {stats['blocks_decoded']} blocks total "
              f"(cache hits {stats['cache_hits']})")
        assert np.array_equal(again, roi)

        # 4. The decoded region honours the error bound wherever level 0 owns
        #    the cells (other cells belong to coarser levels and read as 0).
        snapshot_level0 = sim.snapshot().data.levels[0]
        owned = snapshot_level0.mask[sl]
        if owned.any():
            err = np.abs(roi - snapshot_level0.data[sl])[owned].max()
            print(f"  max error (owned)   : {err:.4g} (bound {error_bound})")

        # 5. Other resolution levels are sibling views; strided and negative
        #    indexing work like NumPy and still decode only touched blocks.
        coarse = arr.level(1)
        corner = coarse[-4:, ::2, 0]
        print(f"  coarse level shape  : {coarse.shape} (corner sample {corner.shape})")


if __name__ == "__main__":
    main()
