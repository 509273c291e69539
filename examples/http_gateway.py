#!/usr/bin/env python
"""Anything that speaks HTTP can read the cluster: the gateway end to end.

A short in-situ run fills a store, a shard map splits it across three
:class:`repro.serve.ReadDaemon` shards behind a
:class:`repro.shard.RouterDaemon`, and a :class:`repro.gateway.GatewayDaemon`
mounts on the router — one HTTP origin in front of the whole cluster.  Then
three kinds of client hit it:

* raw ``urllib`` (standing in for curl / a browser / a dashboard) walks
  ``/health``, ``/catalog`` and ``/stats?format=prom``;
* :func:`repro.open_http` reads arrays lazily through
  :class:`repro.gateway.HTTPArray` — the same surface as ``repro.connect()``,
  bit-for-bit the same bytes;
* a deliberate mistake shows the typed error envelope: the daemon's
  ``KeyError`` crosses HTTP with its message intact.

Run with:  python examples/http_gateway.py
"""

from __future__ import annotations

import json
import tempfile
import urllib.request
from pathlib import Path

import numpy as np

import repro
from repro.gateway import GatewayDaemon
from repro.serve import ReadDaemon
from repro.shard import RouterDaemon, ShardMap, ShardSpec, split_store

SHARDS = ("s0", "s1", "s2")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        # 1. Produce and shard a store (same pipeline as shard_fanout.py).
        from repro.amr.simulation import CollapsingDensitySimulation

        sim = CollapsingDensitySimulation(shape=(32, 32, 32), block_size=8, seed=11)
        codec = repro.CodecSpec.sz3mr(unit_size=8)
        single = repro.open_store(root / "run", codec)
        reports = (
            repro.Pipeline(codec, repro.ErrorBound.abs(0.1))
            .sink_store(single)
            .run(sim, n_steps=4)
        )
        field = reports[-1].field_name
        stores = {name: repro.open_store(root / name) for name in SHARDS}
        placement = ShardMap(
            [ShardSpec(name, "0:0", store=str(root / name)) for name in SHARDS]
        )
        split_store(single, placement, stores=stores)

        # 2. Daemons up: three shards, one router, one gateway on top.
        daemons = {name: ReadDaemon(stores[name]) for name in SHARDS}
        shard_map = ShardMap(
            [
                ShardSpec(name, daemons[name].start(), store=str(root / name))
                for name in SHARDS
            ]
        )
        with RouterDaemon(shard_map) as router, GatewayDaemon(
            router.address, pool_size=4
        ) as gateway:
            base = f"http://{gateway.address}"
            print(f"gateway for {len(SHARDS)} shards at {base}/")

            # 3. Plain HTTP — what curl or a dashboard would see.
            health = json.load(urllib.request.urlopen(f"{base}/health"))
            print(
                f"/health: ok={health['ok']}, replicas {health['replicas']}, "
                f"shards {health['shards']}, degraded {health['degraded']}"
            )
            catalog = json.load(urllib.request.urlopen(f"{base}/catalog"))
            print(f"/catalog: {len(catalog['entries'])} rows")

            # 4. The lazy array surface, now over HTTP.  Bit-for-bit parity
            #    with the local store is the gateway fuzz tier's contract.
            remote = repro.open_http(gateway.address)
            step = max(e.step for e in single.entries())
            via_http = remote[field, step]
            local = single.array(field, step)
            plane = via_http[:, :, 16]
            assert np.array_equal(plane, np.asarray(local)[:, :, 16])
            roi = via_http.read_roi([(0, 16), (8, 24), (0, 32)])
            assert np.array_equal(roi, local.read_roi([(0, 16), (8, 24), (0, 32)]))
            print(
                f"read {field}/{step}: plane {plane.shape}, roi {roi.shape}, "
                f"{via_http.stats['blocks_decoded']} blocks decoded — "
                "bit-for-bit vs the local store"
            )

            # 5. Errors keep their types across the HTTP hop.
            try:
                remote.array("no-such-field", 0)
            except KeyError as exc:
                print(f"typed error over HTTP: KeyError({exc})")

            # 6. One scrape serves gateway *and* relayed shard metrics.
            prom = urllib.request.urlopen(f"{base}/stats?format=prom").read().decode()
            families = sorted(
                line.split()[2]
                for line in prom.splitlines()
                if line.startswith("# TYPE repro_gateway_")
            )
            print(f"/stats?format=prom: {len(prom.splitlines())} lines, "
                  f"gateway families {families[:3]}...")
            stats = json.load(urllib.request.urlopen(f"{base}/stats"))
            per_shard = {k: v["reads"] for k, v in stats["shards"].items()}
            print(f"shard-labeled reads via /stats: {per_shard}")
            remote.close()
        for daemon in daemons.values():
            daemon.stop()
        print("clean shutdown: gateway, router and shards all stopped")


if __name__ == "__main__":
    main()
