"""The five workloads of the stack benchmark.

Each workload builds its inputs from the seed, offers one op function per
client thread for the untraced closed loop, checks every result it gets, and
has a ``traced`` procedure that re-runs the same op with a span around every
public call into a layer and returns that workload's per-layer numbers.

The seed moves what must not matter: value scale and offset, rolls by whole
unit blocks, dataset and query order, ROI positions, which entries are
popular.  Compression ratio and PSNR therefore repeat (almost) exactly across
seeds while no two seeds run the same bytes.
"""

from __future__ import annotations

import shutil
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro
from repro.amr.grid import AMRHierarchy
from repro.analysis.metrics import psnr
from repro.analysis.ssim import ssim
from repro.core.partition import UnitBlockSet
from repro.core.postprocess import PostProcessor, bezier_boundary_smooth
from repro.core.roi import extract_roi
from repro.core.uncertainty import CompressionUncertaintyModel
from repro.datasets import get_dataset
from repro.shard import ShardMap, ShardSpec, split_store
from repro.store import Store

from cluster import Cluster
from harness import CpuSample, OpLog, Tracer, median, percentile, run_window

FIELD = "density"
BOUND = repro.ErrorBound.rel(0.01)
SHARDS = ("s0", "s1")
MB = 1e6


@dataclass(frozen=True)
class Scale:
    """Problem sizes; ``FULL`` is the benchmark, ``TOY`` the smoke test."""

    edge: int  # cells per axis of every field
    roll: int  # seeded rolls are multiples of this, so unit blocks stay aligned
    cold_entries: int  # unit-4 entries cold_scan reads
    snapshots: int  # distinct in-situ snapshots, cycled
    served_unit: int  # unit block edge of the served stores
    warm_entries: int  # served_warm_roi catalog (<= half the aggregate shard cache)
    churn_distinct: int  # served_churn_rw: encoded snapshots ...
    churn_copies: int  # ... each catalogued this many times (>= 4x the aggregate cache)
    roi_edges: Tuple[int, ...]  # cubic ROI edges; axis planes ride along
    queries: int  # seeded query list per client, cycled
    replay: int  # queries replayed single-client at each tier
    warmup: int  # churn ops per client run before the window
    append_every: int  # churn: client 0 appends a step every this many of its ops
    block_sample: int  # unit-4 blocks timed for the per-block codec floor
    rounds: int  # rounds (fresh set-up + a share of the window) per untraced run


FULL = Scale(
    edge=64, roll=16, cold_entries=2, snapshots=16, served_unit=16, warm_entries=8,
    churn_distinct=8, churn_copies=8, roi_edges=(8, 16, 32), queries=2000, replay=200,
    warmup=100, append_every=50, block_sample=256, rounds=3,
)
TOY = Scale(
    edge=16, roll=8, cold_entries=1, snapshots=2, served_unit=8, warm_entries=2,
    churn_distinct=2, churn_copies=2, roi_edges=(4, 8), queries=40, replay=8,
    warmup=4, append_every=10, block_sample=8, rounds=1,
)


class Workload:
    """Common shape of a workload; see the module docstring."""

    name = ""

    def __init__(self, seed: int, scale: Scale, workdir: Path) -> None:
        self.seed = int(seed)
        self.scale = scale
        self.workdir = Path(workdir)
        #: item -> (raw bytes, stored bytes, PSNR of the delivered product)
        self.quality: Dict[object, Tuple[int, int, float]] = {}

    def rng(self, salt: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, salt])

    def base_field(self) -> np.ndarray:
        return get_dataset("nyx-t3", shape=(self.scale.edge,) * 3).field

    def rolled(self, field: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        steps = self.scale.edge // self.scale.roll
        shift = tuple(int(k) * self.scale.roll for k in rng.integers(0, steps, field.ndim))
        return np.roll(field, shift, axis=tuple(range(field.ndim)))

    # -- life cycle (driven by run.py) -----------------------------------------
    def setup(self) -> None:
        """Everything a user pays before the first op; timed as ``setup_s``."""
        raise NotImplementedError

    def teardown(self) -> List[str]:
        """Undo :meth:`setup`; returns failures seen while stopping servers."""
        return []

    def prepare(self, log: OpLog) -> None:
        """Benchmark scaffolding (expected results), outside ``setup_s``."""

    def ops(self) -> List[Callable[[int, OpLog], None]]:
        raise NotImplementedError

    def finish(self, log: OpLog) -> None:
        """Verification too costly to interleave with the window."""

    def server_pids(self) -> List[int]:
        return []

    def traced(self, seconds: float, tracer: Tracer, log: OpLog) -> Dict[str, float]:
        raise NotImplementedError

    # -- shared results ----------------------------------------------------------
    def compression_ratio(self) -> float:
        raw = sum(q[0] for q in self.quality.values())
        return raw / max(1, sum(q[1] for q in self.quality.values()))

    def psnr_db(self) -> float:
        return float(np.mean([q[2] for q in self.quality.values()]))

    def block_codec_us(self, log: OpLog) -> Dict[str, float]:
        """Per-block codec floor: encode/decode of standalone unit-4 payloads."""
        mr = repro.CodecSpec.sz3mr(4).build()
        field = self.base_field()
        bound = float(BOUND.resolve(field))
        blocks = mr.prepare_unit_blocks(field, None)
        n = min(self.scale.block_sample, blocks.n_blocks)
        sample = UnitBlockSet(blocks.blocks[:n], blocks.coords[:n], blocks.unit_size, blocks.level_shape)
        t0 = time.perf_counter()
        payloads = mr.encode_unit_blocks(sample, bound)
        t1 = time.perf_counter()
        decoded = [mr.decode_unit_block(p) for p in payloads]
        t2 = time.perf_counter()
        log.check_bound(np.stack(decoded), sample.blocks, bound, "unit-4 block round trip")
        return {
            "compressors.block_encode_us": (t1 - t0) / n * 1e6,
            "compressors.block_decode_us": (t2 - t1) / n * 1e6,
        }


def _traced_window(
    op: Callable[[int, OpLog], None], seconds: float, log: OpLog
) -> Tuple[float, CpuSample]:
    """Single-client traced loop; returns (median op ms, CPU used)."""
    before = CpuSample.take()
    run_window([op], seconds, log)
    return median(log.latencies_ms), CpuSample.take().since(before)


# -- offline_workflow -----------------------------------------------------------


class OfflineWorkflow(Workload):
    """``repro.run_workflow`` (Fig. 3) round-robin over three registry datasets."""

    name = "offline_workflow"
    DATASETS = ("nyx-t3", "s3d", "nyx-t1")

    def setup(self) -> None:
        rng = self.rng(1)
        self.config = repro.WorkflowConfig(
            codec=repro.CodecSpec.sz3mr(), error_bound=BOUND, postprocess=True, uncertainty=True
        )
        self.items: List[Tuple[str, object]] = []
        for name in rng.permutation(self.DATASETS):
            dataset = get_dataset(str(name), shape=(self.scale.edge,) * 3)
            # A seeded affine value map: under a range-relative bound the
            # quantised residuals, hence ratio and PSNR, do not depend on it.
            gain, offset = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
            if dataset.hierarchy is None:
                data: object = dataset.field * gain + offset
            else:
                data = dataset.hierarchy.copy_with_data(
                    [lvl.data * gain + offset for lvl in dataset.hierarchy.levels]
                )
            self.items.append((str(name), data))

    def _check(self, name: str, data, res, log: OpLog) -> None:
        original = data if isinstance(data, AMRHierarchy) else res.roi.hierarchy
        for got, want in zip(res.hierarchy.levels, original.levels):
            log.check_bound(
                got.data, want.data, res.error_bound, f"{name} level {want.level}", mask=want.mask
            )
        # Smoothing may move a value by at most intensity (<= 1) bounds.
        moved = float(np.abs(res.processed_field - res.decompressed_field).max())
        log.check(
            moved <= res.error_bound * (1 + 1e-9),
            f"{name}: post-processing moved a value by {moved:.6g} > bound {res.error_bound:.6g}",
        )
        self.quality[name] = (
            res.compressed.nbytes_original,
            res.compressed.nbytes_compressed,
            float(res.psnr_processed),
        )

    def ops(self):
        def op(i: int, log: OpLog) -> None:
            name, data = self.items[i % len(self.items)]
            start = time.perf_counter()
            res = repro.run_workflow(data, self.config)
            log.ok(time.perf_counter() - start, res.compressed.nbytes_original)
            self._check(name, data, res, log)

        return [op]

    def traced(self, seconds, tracer, log):
        workflow = self.config.build()
        mr = workflow.mr
        post = PostProcessor(
            compressor_kind=mr.compressor_kind, strategy=self.config.postprocess_strategy
        )
        gains: Dict[str, float] = {}
        staged_ratio: Dict[str, float] = {}

        def op(i: int, log: OpLog) -> None:
            # The stages MultiResolutionWorkflow._run runs, in its order.
            name, data = self.items[i % len(self.items)]
            start = time.perf_counter()
            with tracer.span("offline.op", op=i):
                if isinstance(data, AMRHierarchy):
                    hierarchy = data
                    reference = hierarchy.to_uniform()
                    bound = mr.resolve_hierarchy_bound(hierarchy, BOUND)
                else:
                    with tracer.span("core.roi_extract"):
                        hierarchy = extract_roi(
                            data, workflow.roi_fraction, workflow.roi_block_size
                        ).hierarchy
                    reference = data
                    bound = float(BOUND.resolve(reference))
                compressed = []
                for lvl in hierarchy.levels:
                    with tracer.span("core.mr_prepare"):
                        prepared = mr.prepare_level(lvl.data, lvl.mask, level_index=lvl.level)
                    with tracer.span("core.mr_encode"):
                        compressed.append(mr.encode_prepared(prepared, bound))
                with tracer.span("core.mr_decode"):
                    decoded = hierarchy.copy_with_data([mr.decompress_level(c) for c in compressed])
                    field = decoded.to_uniform()
                smoothed = []
                for lvl, dec in zip(hierarchy.levels, decoded.levels):
                    with tracer.span("core.postprocess_plan"):
                        plan = post.plan(lvl.data, mr.codec, bound, block_size=workflow.unit_size)
                    with tracer.span("core.postprocess_smooth"):
                        smoothed.append(
                            bezier_boundary_smooth(
                                dec.data,
                                block_size=plan.block_size,
                                error_bound=bound,
                                intensity=plan.intensities,
                            )
                        )
                with tracer.span("core.postprocess_smooth"):
                    processed = hierarchy.copy_with_data(smoothed).to_uniform()
                with tracer.span("core.uncertainty_sample"):
                    CompressionUncertaintyModel.from_sampling(hierarchy.levels[0].data, mr.codec, bound)
                with tracer.span("core.quality_metrics"):
                    raw_psnr = psnr(reference, field)
                    ssim(reference, field)
                    processed_psnr = psnr(reference, processed)
                    ssim(reference, processed)
            raw = sum(c.nbytes_original for c in compressed)
            log.ok(time.perf_counter() - start, raw)
            for got, want in zip(decoded.levels, hierarchy.levels):
                log.check_bound(got.data, want.data, bound, f"{name} level {want.level}", mask=want.mask)
            gains[name] = processed_psnr - raw_psnr
            staged_ratio[name] = raw / sum(c.nbytes_compressed for c in compressed)

        op_ms, cpu = _traced_window(op, seconds, log)
        # The staged op must be the op: same ratio as the one public call.
        for name, data in self.items:
            res = repro.run_workflow(data, self.config)
            self._check(name, data, res, log)
            log.check(
                abs(staged_ratio.get(name, 0.0) - res.compression_ratio) <= 1e-9 * res.compression_ratio,
                f"{name}: staged ratio {staged_ratio.get(name)} != run_workflow {res.compression_ratio}",
            )
        self_ms = tracer.median_self_ms()
        out = {
            f"core.{stage}_ms": self_ms.get(f"core.{stage}", 0.0)
            for stage in (
                "roi_extract", "mr_prepare", "mr_encode", "mr_decode", "postprocess_plan",
                "postprocess_smooth", "uncertainty_sample", "quality_metrics",
            )
        }
        out["core.postprocess_psnr_gain_db"] = float(np.mean(list(gains.values())))
        out.update(self._codec_floor(log))
        out.update(_local_trace_summary(self_ms, "offline.op", op_ms, cpu))
        return out

    def _codec_floor(self, log: OpLog) -> Dict[str, float]:
        """Bare SZ3 on one whole array: no blocking, no ROI, no post-processing."""
        field = self.base_field()
        bound = float(BOUND.resolve(field))
        enc, dec = [], []
        for _ in range(5):
            t0 = time.perf_counter()
            payload = repro.compress(field, BOUND)
            t1 = time.perf_counter()
            out = repro.decompress(payload)[...]
            t2 = time.perf_counter()
            enc.append(t1 - t0)
            dec.append(t2 - t1)
        log.check_bound(out, field, bound, "bare sz3 round trip")
        return {
            "compressors.sz3_compress_MBps": field.nbytes / MB / median(enc),
            "compressors.sz3_decompress_MBps": field.nbytes / MB / median(dec),
        }


def _local_trace_summary(
    self_ms: Dict[str, float], op_span: str, op_ms: float, cpu: CpuSample
) -> Dict[str, float]:
    """How much of a traced local op its stage spans explain."""
    total = sum(self_ms.values())
    return {
        "bench.traced_op_p50_ms": op_ms,
        "bench.span_coverage": 1.0 - self_ms.get(op_span, 0.0) / total if total else 0.0,
        "bench.client_cpu_share": cpu.generator / cpu.total if cpu.total else 0.0,
    }


# -- insitu_write ---------------------------------------------------------------


class InsituWrite(Workload):
    """ROI extraction + ``Store.append`` at unit 8: the in-situ output path."""

    name = "insitu_write"
    UNIT = 8

    def setup(self) -> None:
        rng = self.rng(2)
        base = self.base_field()
        # One field rolled and rescaled per step keeps set-up cheap; under the
        # relative bound every snapshot compresses alike.
        self.snapshots = [
            self.rolled(base, rng) * (1.0 + 0.01 * k) for k in range(self.scale.snapshots)
        ]
        self.root = self.workdir / "insitu"
        shutil.rmtree(self.root, ignore_errors=True)
        self.store = Store(self.root, repro.CodecSpec.sz3mr(self.UNIT).build())
        self.appended: List[int] = []

    def _hierarchy(self, step: int) -> AMRHierarchy:
        return extract_roi(self.snapshots[step % len(self.snapshots)], 0.5, block_size=8).hierarchy

    def ops(self):
        def op(i: int, log: OpLog) -> None:
            start = time.perf_counter()
            entry = self.store.append(FIELD, i, self._hierarchy(i), BOUND)
            log.ok(time.perf_counter() - start, entry.nbytes_original)
            self.appended.append(i)

        return [op]

    def finish(self, log: OpLog) -> None:
        """Read every appended entry back and hold it to the bound."""
        reader = Store(self.root)
        for step in self.appended:
            original = self._hierarchy(step)
            entry = reader.entry(FIELD, step)
            view = reader[FIELD, step]
            levels = [view.level(k)[...] for k in view.levels]
            for got, want in zip(levels, original.levels):
                log.check_bound(
                    got, want.data, entry.error_bound, f"step {step} level {want.level}", mask=want.mask
                )
            delivered = original.copy_with_data(levels).to_uniform()
            self.quality[step % len(self.snapshots)] = (
                entry.nbytes_original,
                entry.nbytes_compressed,
                psnr(self.snapshots[step % len(self.snapshots)], delivered),
            )

    def traced(self, seconds, tracer, log):
        tracer.wrap(self.store.compressor, "prepare_unit_blocks", "store.prepare_blocks")
        tracer.wrap(self.store.engine, "encode_blocks", "store.encode_blocks")

        def op(i: int, log: OpLog) -> None:
            start = time.perf_counter()
            with tracer.span("insitu.op", op=i):
                with tracer.span("core.roi_extract"):
                    hierarchy = self._hierarchy(i)
                # Self time of the append span: container write, index
                # re-open and manifest rewrite.
                with tracer.span("store.write_container"):
                    entry = self.store.append(FIELD, i, hierarchy, BOUND)
            log.ok(time.perf_counter() - start, entry.nbytes_original)
            self.appended.append(i)

        op_ms, cpu = _traced_window(op, seconds, log)
        self.finish(log)
        self_ms = tracer.median_self_ms()
        stages = ("store.prepare_blocks", "store.encode_blocks", "store.write_container")
        out = {f"{stage}_ms": self_ms.get(stage, 0.0) for stage in stages}
        out["store.append_ms"] = sum(out.values())
        out["core.roi_extract_ms"] = self_ms.get("core.roi_extract", 0.0)
        out["store.bytes_per_raw_byte"] = 1.0 / self.compression_ratio()
        out.update(self.block_codec_us(log))
        out.update(_local_trace_summary(self_ms, "insitu.op", op_ms, cpu))
        return out


# -- cold_scan ------------------------------------------------------------------


class ColdScan(Workload):
    """Whole-level reads of unit-4 entries through a freshly opened store."""

    name = "cold_scan"
    UNIT = 4

    def setup(self) -> None:
        rng = self.rng(3)
        base = self.base_field()
        self.root = self.workdir / "cold"
        shutil.rmtree(self.root, ignore_errors=True)
        store = Store(self.root, repro.CodecSpec.sz3mr(self.UNIT).build())
        self.originals = [self.rolled(base, rng) for _ in range(self.scale.cold_entries)]
        self.entries = [
            store.append(FIELD, step, data, BOUND) for step, data in enumerate(self.originals)
        ]
        self.first: Dict[int, np.ndarray] = {}

    def _check(self, step: int, out: np.ndarray, log: OpLog) -> None:
        entry = self.entries[step]
        log.check_bound(out, self.originals[step], entry.error_bound, f"step {step}")
        if step not in self.first:
            self.first[step] = out
            self.quality[step] = (
                entry.nbytes_original, entry.nbytes_compressed, psnr(self.originals[step], out)
            )
        else:
            log.check(np.array_equal(out, self.first[step]), f"step {step}: re-read differs")

    def ops(self):
        def op(i: int, log: OpLog) -> None:
            step = i % len(self.entries)
            start = time.perf_counter()
            out = Store(self.root)[FIELD, step][...]
            log.ok(time.perf_counter() - start, out.nbytes)
            self._check(step, out, log)

        return [op]

    def traced(self, seconds, tracer, log):
        counts: Dict[str, List[int]] = {"fetch_ranges": [], "fetch_bytes": [], "blocks_decoded": []}

        def op(i: int, log: OpLog) -> None:
            step = i % len(self.entries)
            start = time.perf_counter()
            with tracer.span("cold.op", op=i):
                with tracer.span("store.open"):
                    view = Store(self.root)[FIELD, step]
                reader = view.source.reader
                tracer.wrap(reader, "fetch_entries", "store.fetch")
                tracer.wrap(reader, "decode_entries", "store.decode")
                # Self time of the read span is the paste: plan, cache
                # bookkeeping and copying blocks into the result.
                with tracer.span("store.paste"):
                    out = view[...]
            log.ok(time.perf_counter() - start, out.nbytes)
            for key, values in counts.items():
                values.append(int(reader.stats[key]))
            self._check(step, out, log)

        op_ms, cpu = _traced_window(op, seconds, log)
        self_ms = tracer.median_self_ms()
        out = {
            f"store.{stage}_ms": self_ms.get(f"store.{stage}", 0.0)
            for stage in ("open", "fetch", "decode", "paste")
        }
        for key, values in counts.items():
            log.check(len(set(values)) == 1, f"store.{key} differs between identical reads: {sorted(set(values))}")
            out[f"store.{key}"] = float(values[0])
        out["store.us_per_block"] = op_ms * 1e3 / max(1.0, out["store.blocks_decoded"])
        raw_mb = self.originals[0].nbytes / MB
        out[f"store.cold_read_MBps_u{self.UNIT}"] = raw_mb / (op_ms / 1e3)
        for unit in (8, 16, 32):
            if unit <= self.scale.edge:
                out[f"store.cold_read_MBps_u{unit}"] = raw_mb / self._cold_read_s(unit, log)
        out.update(self.block_codec_us(log))
        out.update(_local_trace_summary(self_ms, "cold.op", op_ms, cpu))
        return out

    def _cold_read_s(self, unit: int, log: OpLog) -> float:
        """Median of three fresh whole-level reads of entry 0 re-encoded at ``unit``."""
        root = self.workdir / f"cold-u{unit}"
        shutil.rmtree(root, ignore_errors=True)
        entry = Store(root, repro.CodecSpec.sz3mr(unit).build()).append(FIELD, 0, self.originals[0], BOUND)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            out = Store(root)[FIELD, 0][...]
            times.append(time.perf_counter() - start)
        log.check_bound(out, self.originals[0], entry.error_bound, f"unit {unit} read")
        shutil.rmtree(root, ignore_errors=True)
        return median(times)


# -- served workloads -----------------------------------------------------------

Query = Tuple[int, tuple]  # (step, index expression)
PLANE = 0  # the ROI "edge" that stands for an axis plane


class Served(Workload):
    """Two keep-alive HTTP clients -> gateway -> router -> two shard daemons."""

    CLIENTS = 2
    zipf_s: Optional[float] = None  # entry popularity skew; None = uniform

    def catalog_shape(self) -> Tuple[int, int]:
        """(distinct encoded snapshots, catalog copies of each)."""
        raise NotImplementedError

    # -- set-up ------------------------------------------------------------------
    def setup(self) -> None:
        rng = self.rng(4)
        distinct, copies = self.catalog_shape()
        base = self.base_field()
        self.data = [self.rolled(base, rng) for _ in range(distinct)]
        self.codec = repro.CodecSpec.sz3mr(self.scale.served_unit)
        for sub in ("single", *SHARDS):
            shutil.rmtree(self.workdir / sub, ignore_errors=True)
        self.single = Store(self.workdir / "single", self.codec.build())
        for j, data in enumerate(self.data):
            self.single.append(FIELD, j, data, BOUND)
        # Catalog copies are adopted, not re-encoded: the block cache is keyed
        # by container path, so a copy occupies its own cache slots while
        # set-up stays cheap.
        for step in range(distinct, distinct * copies):
            source = self.single.root / self.single.entry(FIELD, step % distinct).path
            self.single.adopt(FIELD, step, source)
        self.n_entries = distinct * copies
        self.shard_dirs = {name: self.workdir / name for name in SHARDS}
        self.placement = ShardMap(
            [ShardSpec(name, "0:0", store=str(root)) for name, root in self.shard_dirs.items()]
        )
        split_store(self.single, self.placement)
        self.ranked = self._popularity_order(rng)
        self.queries = [self._queries(c) for c in range(self.CLIENTS)]
        self.cluster: Optional[Cluster] = None
        self.http: List[object] = []
        self.start_cluster(trace=False)

    def start_cluster(self, trace: bool) -> None:
        self.cluster = Cluster(self.shard_dirs, self.workdir, trace=trace).start()
        self.http = [repro.open_http(self.cluster.gateway) for _ in range(self.CLIENTS)]
        self.views = [dict() for _ in range(self.CLIENTS)]
        self.warm_up()
        for client in range(self.CLIENTS):  # a client opens its views once
            for step in range(self.n_entries):
                self.view(client, step)

    def stop_cluster(self) -> List[str]:
        for client in self.http:
            client.close()
        self.http = []
        failures = self.cluster.close() if self.cluster is not None else []
        self.cluster = None
        return failures

    def teardown(self) -> List[str]:
        return self.stop_cluster()

    def server_pids(self) -> List[int]:
        return self.cluster.pids if self.cluster is not None else []

    def warm_up(self) -> None:
        raise NotImplementedError

    def view(self, client: int, step: int):
        """The client's lazy view of one entry (one describe round trip, once)."""
        views = self.views[client]
        if step not in views:
            views[step] = self.http[client][FIELD, step]
        return views[step]

    def _popularity_order(self, rng: np.random.Generator) -> np.ndarray:
        """Entries from most to least popular: seeded within a shard, dealt
        round-robin across shards, so which shard owns the hot entries — a
        property of the hash ring, not of the system — does not vary by seed."""
        by_shard = {name: [] for name in SHARDS}
        for step in rng.permutation(self.n_entries):
            by_shard[self.placement.owner_name(FIELD, int(step))].append(int(step))
        order: List[int] = []
        while any(by_shard.values()):
            order.extend(steps.pop(0) for steps in by_shard.values() if steps)
        return np.array(order)

    def _queries(self, client: int) -> List[Query]:
        """One client's query list: a fixed mix of cubic ROIs and axis planes.

        Which kind of ROI comes when, and how popular its entry is, is the same
        for every seed — the mix decides the cost of a prefix of the list, and
        a window only gets through a prefix.  The seed decides which entry has
        which popularity rank and where in the entry each ROI sits.
        """
        n, edge = self.scale.queries, self.scale.edge
        mix = np.random.default_rng([client, 2024])  # not seeded: see above
        kinds = [*self.scale.roi_edges, PLANE]
        kinds = [int(k) for _ in range(-(-n // len(kinds))) for k in mix.permutation(kinds)][:n]
        if self.zipf_s is None:
            ranks = np.concatenate(
                [mix.permutation(self.n_entries) for _ in range(-(-n // self.n_entries))]
            )[:n]
        else:
            weight = 1.0 / np.arange(1, self.n_entries + 1) ** self.zipf_s
            ranks = mix.choice(self.n_entries, size=n, p=weight / weight.sum())
        where = self.rng(10 + client)
        return [
            (int(self.ranked[rank]), self._index(kind, edge, where)) for rank, kind in zip(ranks, kinds)
        ]

    @staticmethod
    def _index(kind: int, edge: int, rng: np.random.Generator) -> tuple:
        if kind == PLANE:
            index: list = [slice(None)] * 3
            index[int(rng.integers(3))] = int(rng.integers(edge))
            return tuple(index)
        origin = rng.integers(0, edge - kind + 1, 3)
        return tuple(slice(int(o), int(o) + kind) for o in origin)

    # -- scaffolding ---------------------------------------------------------------
    def prepare(self, log: OpLog) -> None:
        """Local ``Store`` results every served read must equal bit for bit."""
        self.full = []
        for j, data in enumerate(self.data):
            entry = self.single.entry(FIELD, j)
            out = self.single[FIELD, j][...]
            log.check_bound(out, data, entry.error_bound, f"local step {j}")
            self.full.append(out)
            self.quality[j] = (entry.nbytes_original, entry.nbytes_compressed, psnr(data, out))

    def expected(self, step: int, index: tuple) -> np.ndarray:
        return self.full[step % len(self.data)][index]

    def read(self, client: int, query: Query, log: OpLog) -> None:
        step, index = query
        view = self.view(client, step)
        start = time.perf_counter()
        out = view[index]
        log.ok(time.perf_counter() - start, out.nbytes)
        log.check(
            np.array_equal(out, self.expected(step, index)),
            f"served read {FIELD}/{step}{index} differs from the local store",
        )

    def ops(self):
        def client_op(client: int):
            queries = self.queries[client]
            return lambda i, log: self.read(client, queries[i % len(queries)], log)

        return [client_op(c) for c in range(self.CLIENTS)]

    # -- traced run ----------------------------------------------------------------
    def traced(self, seconds, tracer, log):
        out = self._replay_tiers(log)
        # Untraced half: the reference for tracing overhead and the tail.
        done = len(log.latencies_ms)
        plain_wall, _ = run_window(self.ops(), seconds / 2, log)
        plain = log.latencies_ms[done:]
        out["gateway.op_p95_ms"] = percentile(plain, 95)
        out["gateway.op_p99_ms"] = percentile(plain, 99)
        out.update(self.window_extras())
        for failure in self.stop_cluster():
            log.fail(failure, attempted=False)
        # Traced half: --trace on every server, a span around every request.
        self.start_cluster(trace=True)

        def spanned(client: int, op):
            def traced_op(i: int, log: OpLog) -> None:
                with tracer.span("gateway.request", op=(client, i)):
                    op(i, log)

            return traced_op

        done = len(log.latencies_ms)
        before_cpu = CpuSample.take(self.server_pids())
        before = self._server_stats()
        traced_wall, _ = run_window(
            [spanned(c, op) for c, op in enumerate(self.ops())], seconds / 2, log
        )
        after = self._server_stats()
        cpu = CpuSample.take(self.server_pids()).since(before_cpu)
        traced = log.latencies_ms[done:]
        out["obs.trace_overhead_ratio"] = (len(traced) / traced_wall) / (len(plain) / plain_wall)
        out["bench.traced_op_p50_ms"] = median(traced)
        out["bench.span_coverage"] = 1.0
        out["bench.client_cpu_share"] = cpu.generator / cpu.total if cpu.total else 0.0
        out.update(_window_server_metrics(before, after))
        return out

    def window_extras(self) -> Dict[str, float]:
        return {}

    def _server_stats(self) -> dict:
        """The merged stats document the gateway serves (shards, router, gateway)."""
        return self.http[0].stats()

    def _replay_tiers(self, log: OpLog) -> Dict[str, float]:
        """One seeded query list, single client, at four tiers of the stack.

        local ``Store`` -> daemon of the owning shard -> router -> gateway; every
        tier runs the list twice and the second pass is timed, so each hop is
        the difference of two warm medians.  Counts are taken around whole
        tiers and repeat exactly: one client, a fixed list, fresh servers.
        """
        queries = self.queries[0][: self.scale.replay]
        steps = sorted({step for step, _ in queries})

        def passes(view_of: Callable[[int], object], after_first=lambda: None) -> float:
            views = {step: view_of(step) for step in steps}
            lat: List[float] = []
            for timed in (False, True):
                if timed:
                    after_first()
                for step, index in queries:
                    start = time.perf_counter()
                    got = views[step][index]
                    if timed:
                        lat.append((time.perf_counter() - start) * 1e3)
                        log.check(
                            np.array_equal(got, self.expected(step, index)),
                            f"tier read {FIELD}/{step}{index} differs from the local store",
                        )
            return median(lat)

        # Cache counters cover the first pass only: a fresh local cache taking
        # the list once, which is what the working-set size decides.
        local = Store(self.single.root)
        first_pass: Dict[str, int] = {}
        local_ms = passes(
            lambda step: local[FIELD, step], lambda: first_pass.update(local.block_cache.stats)
        )
        touched = first_pass["hits"] + first_pass["misses"]
        out = {
            "array.warm_index_us": local_ms * 1e3,
            "array.cache_hit_ratio": first_pass["hits"] / touched if touched else 0.0,
            "array.cache_evictions": float(first_pass["evictions"]),
            "array.blocks_touched_per_op": touched / len(queries),
            "array.blocks_decoded_per_op": first_pass["misses"] / len(queries),
        }

        before = self._server_stats()
        daemons = {name: repro.connect(addr) for name, addr in self.cluster.shards.items()}
        describe: List[float] = []

        def daemon_view(step: int):
            owner = daemons[self.placement.owner_name(FIELD, step)]
            start = time.perf_counter()
            view = owner[FIELD, step]
            describe.append((time.perf_counter() - start) * 1e3)
            return view

        daemon_ms = passes(daemon_view)
        for remote in daemons.values():
            remote.close()
        after_daemon = self._server_stats()
        with repro.connect(self.cluster.router) as router:
            router_ms = passes(lambda step: router[FIELD, step])
        before_gateway = self._server_stats()
        with repro.open_http(self.cluster.gateway) as http:
            gateway_ms = passes(lambda step: http[FIELD, step])
        after_gateway = self._server_stats()

        def shard_sum(stats: dict, key: str) -> int:
            return sum(int(s[key]) for s in stats["shards"].values())

        out.update(
            {
                "serve.hop_ms": daemon_ms - local_ms,
                "shard.hop_ms": router_ms - daemon_ms,
                "gateway.hop_ms": gateway_ms - router_ms,
                "gateway.single_client_p50_ms": gateway_ms,
                "serve.describe_ms": median(describe),
                "serve.requests": float(shard_sum(after_daemon, "requests") - shard_sum(before, "requests")),
                "serve.bytes_sent": float(
                    shard_sum(after_daemon, "result_bytes_sent") - shard_sum(before, "result_bytes_sent")
                ),
                "serve.blocks_decoded": float(
                    shard_sum(after_daemon, "blocks_decoded") - shard_sum(before, "blocks_decoded")
                ),
                "gateway.requests": float(
                    after_gateway["gateway"]["requests"] - before_gateway["gateway"]["requests"]
                ),
                "gateway.bytes_out": float(
                    after_gateway["gateway"]["http_bytes_sent"] - before_gateway["gateway"]["http_bytes_sent"]
                ),
            }
        )
        return out


def _window_server_metrics(before: dict, after: dict) -> Dict[str, float]:
    """Server-side counters over the traced 2-client window."""

    def delta(path: Sequence[str]) -> float:
        a, b = after, before
        for key in path:
            a, b = a[key], b[key]
        return float(a - b)

    hits = sum(delta(("shards", s, "cache", "hits")) for s in after["shards"])
    misses = sum(delta(("shards", s, "cache", "misses")) for s in after["shards"])
    reads = [delta(("shards", s, "reads")) for s in after["shards"]]
    return {
        "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "shard.request_skew": max(reads) / (sum(reads) / len(reads)) if sum(reads) else 0.0,
        "shard.failovers": delta(("router", "failovers")),
        "shard.breaker_rejections": delta(("router", "breaker_rejections")),
        "gateway.http_errors": delta(("gateway", "errors")),
    }


class ServedWarmRoi(Served):
    """Working set within the shard caches: framing, relay and HTTP dominate."""

    name = "served_warm_roi"

    def catalog_shape(self):
        return self.scale.warm_entries, 1

    def warm_up(self) -> None:
        for step in range(self.n_entries):
            self.view(0, step)[...]


class ServedChurnRw(Served):
    """Working set 4x the shard caches, Zipf popularity, appends beside reads."""

    name = "served_churn_rw"
    zipf_s = 1.0
    FOLLOW_UP_ROUNDS = 2  # after an append, client 0 reads each ROI size from it this often
    VISIBLE_WITHIN_S = 5.0  # a read after an append must succeed within this

    def catalog_shape(self):
        return self.scale.churn_distinct, self.scale.churn_copies

    def setup(self) -> None:
        super().setup()
        self.next_step = self.n_entries
        self.follow_up: deque = deque()
        self.read_after_append_ms: List[float] = []
        self.live_append_ms: List[float] = []
        self.writers = {
            name: Store(root, self.codec.build()) for name, root in self.shard_dirs.items()
        }

    def warm_up(self) -> None:
        """Run the tail of each client's list — queries the window, which
        starts at the head, will not repeat — so it starts in steady state."""
        for client in range(self.CLIENTS):
            for step, index in self.queries[client][-self.scale.warmup :]:
                self.view(client, step)[index]

    def ops(self):
        reader_ops = super().ops()

        def writer_op(i: int, log: OpLog) -> None:
            if i % self.scale.append_every == self.scale.append_every - 1:
                self._append_then_read(log)
            if self.follow_up:
                self.read(0, self.follow_up.popleft(), log)
            else:
                reader_ops[0](i, log)

        return [writer_op, *reader_ops[1:]]

    def _append_then_read(self, log: OpLog) -> None:
        """``Store.append`` into the owner shard's directory, then read it back
        through the gateway until the catalog refresh makes it visible."""
        step, self.next_step = self.next_step, self.next_step + 1
        rng = np.random.default_rng([self.seed, 20, step])
        probes = [(step, self._index(kind, self.scale.edge, rng)) for kind in self.scale.roi_edges]
        writer = self.writers[self.placement.owner_name(FIELD, step)]
        start = time.perf_counter()
        writer.append(FIELD, step, self.data[step % len(self.data)], BOUND)
        appended = time.perf_counter()
        self.live_append_ms.append((appended - start) * 1e3)
        log.attempt()
        while True:
            try:
                got = self.view(0, step)[probes[0][1]]
                break
            except KeyError:
                if time.perf_counter() - appended > self.VISIBLE_WITHIN_S:
                    log.fail(f"step {step} not readable {self.VISIBLE_WITHIN_S}s after append", attempted=False)
                    return
        self.read_after_append_ms.append((time.perf_counter() - appended) * 1e3)
        log.check(
            np.array_equal(got, self.expected(*probes[0])),
            f"read after append of step {step} differs from the local store",
        )
        self.follow_up.extend(probes * self.FOLLOW_UP_ROUNDS)

    def window_extras(self) -> Dict[str, float]:
        return {
            "gateway.read_after_append_ms": median(self.read_after_append_ms),
            "store.live_append_ms": median(self.live_append_ms),
        }


WORKLOADS = {
    w.name: w for w in (OfflineWorkflow, InsituWrite, ColdScan, ServedWarmRoi, ServedChurnRw)
}
