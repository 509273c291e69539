#!/usr/bin/env python3
"""The stack benchmark: one command, five workloads, two modes.

    python3 bench/run.py --seed 1                       # everything, both modes
    python3 bench/run.py --workload cold_scan --seed 1 --seconds 10 --trace 0

An untraced run (``--trace 0``) measures the end-to-end metrics of
``BENCHMARK.json``; a traced run (``--trace 1``) repeats the workload with a
span around every public call into a layer and reports the per-layer metrics.
Every metric is printed by name with its unit, and the last line of standard
output of a single run is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import harness
from harness import CpuSample, OpLog, Tracer, median, peak_rss_mb, percentile, run_window

MB = 1e6
#: Each round's share of the window is measured in this many slices.
SLICES_PER_ROUND = 3


def run_once(
    workload: str, seed: int, seconds: float, trace: bool, toy: bool = False,
    results_dir: Optional[Path] = harness.RESULTS_DIR,
) -> dict:
    """One run of one workload in one mode; returns the result document."""
    harness.require_source()
    from workloads import FULL, TOY, WORKLOADS

    scale = TOY if toy else FULL
    spec = harness.spec()
    harness.WORK_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=harness.WORK_DIR))
    instance = WORKLOADS[workload](seed, scale, workdir)
    log = OpLog()
    detail: Dict[str, object] = {}
    try:
        if trace:
            values = _traced(instance, seconds, log, detail, results_dir)
            declared = spec["per_layer"]
        else:
            values = _untraced(instance, seconds, log, detail)
            declared = spec["end_to_end"]
    finally:
        for failure in instance.teardown():
            log.fail(failure, attempted=False)
        shutil.rmtree(workdir, ignore_errors=True)
    if not trace:
        # After teardown, so the servers' high-water marks are in RUSAGE_CHILDREN.
        values["peak_rss_MB"] = peak_rss_mb()
    unknown = sorted(set(values) - {m["name"] for m in declared})
    if unknown:
        raise KeyError(f"{workload} reported metrics BENCHMARK.json does not declare: {unknown}")
    metrics = {
        # A layer this workload never enters did no work: its numbers are 0.
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": log.failed == 0,
        "attempted": max(1, log.attempted),
        "failed": log.failed,
        "failures": log.failures,
        "metrics": metrics,
        "detail": detail,
        "host": harness.host_facts(),
    }
    if results_dir is not None:
        results_dir.mkdir(parents=True, exist_ok=True)
        result_path(results_dir, workload, seed, trace).write_text(json.dumps(result, indent=1), "utf-8")
    return result


def result_path(results_dir: Path, workload: str, seed: int, trace: bool) -> Path:
    return results_dir / f"{workload}_{'traced' if trace else 'untraced'}_seed{seed}.json"


def _untraced(instance, seconds: float, log: OpLog, detail: dict) -> Dict[str, float]:
    """``scale.rounds`` rounds of fresh set-up + a share of the window in slices.

    Each rate, latency and CPU cost reported is the best any slice showed, and
    ``setup_s`` is the fastest set-up, as ``timeit`` reports its minimum: this
    host slows down by up to 2-3x in bursts of seconds (other tenants), and a
    burst only ever slows a slice down.  Under emulated bursts the fastest of
    nine slices spread 7% across runs where the whole-window rate spread 21%.
    Checks and quality cover every slice.
    """
    rounds = instance.scale.rounds
    setups: List[float] = []
    slices: List[dict] = []
    for _ in range(rounds):
        for failure in instance.teardown() if setups else ():
            log.fail(failure, attempted=False)
        start = time.perf_counter()
        instance.setup()
        setups.append(time.perf_counter() - start)
        instance.prepare(log)
        ops, following = instance.ops(), None
        for _ in range(SLICES_PER_ROUND):
            done, raw = len(log.latencies_ms), log.raw_bytes
            before = CpuSample.take(instance.server_pids())
            wall, following = run_window(ops, seconds / rounds / SLICES_PER_ROUND, log, following)
            cpu = CpuSample.take(instance.server_pids()).since(before)
            latencies = log.latencies_ms[done:]
            if not latencies:
                raise RuntimeError(f"{instance.name}: no op completed; first failures: {log.failures}")
            slices.append(
                {
                    "ops": len(latencies),
                    "ops_per_s": len(latencies) / wall,
                    "raw_MBps": (log.raw_bytes - raw) / MB / wall,
                    "op_p50_ms": median(latencies),
                    "cpu_ms_per_op": cpu.total * 1e3 / len(latencies),
                    "client_cpu_share": cpu.generator / cpu.total if cpu.total else 0.0,
                }
            )
        instance.finish(log)
    fastest = max(slices, key=lambda s: s["ops_per_s"])
    samples = len(log.latencies_ms)
    detail.update(
        samples=fastest["ops"],
        samples_all_slices=samples,
        setup_samples=setups,
        ops_per_s_slices=[s["ops_per_s"] for s in slices],
        op_p95_ms_all_slices=percentile(log.latencies_ms, 95) if samples >= 200 else None,
        fail_ratio=log.failed / max(1, log.attempted),
        client_cpu_share=fastest["client_cpu_share"],
        max_err_over_bound=log.max_err_over_bound,
        read_after_append_ms=median(getattr(instance, "read_after_append_ms", ())) or None,
    )
    return {
        "setup_s": min(setups),
        "ops_per_s": fastest["ops_per_s"],
        "raw_MBps": max(s["raw_MBps"] for s in slices),
        "op_p50_ms": min(s["op_p50_ms"] for s in slices),
        "cpu_ms_per_op": min(s["cpu_ms_per_op"] for s in slices),
        "compression_ratio": instance.compression_ratio(),
        "psnr_db": instance.psnr_db(),
    }


def _traced(instance, seconds: float, log: OpLog, detail: dict, results_dir) -> Dict[str, float]:
    tracer = Tracer()
    instance.setup()
    instance.prepare(log)
    values = instance.traced(seconds, tracer, log)
    values["compressors.max_err_over_bound"] = log.max_err_over_bound
    detail.update(samples=len(log.latencies_ms), spans=len(tracer.spans))
    if results_dir is not None:
        tracer.dump(results_dir / f"trace_{instance.name}.json", workload=instance.name, seed=instance.seed)
    return values


def report(result: dict) -> None:
    """Every metric by name with its unit, then the one-line JSON result."""
    mode = "traced" if result["trace"] else "untraced"
    print(f"== {result['workload']} ({mode}, seed {result['seed']}, {result['detail'].get('samples')} ops)")
    for name, metric in result["metrics"].items():
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    for key, value in result["detail"].items():
        if key != "samples" and value is not None:
            print(f"  ({key}: {value})")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv: Optional[List[str]] = None) -> int:
    spec = harness.spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1, help="inputs are a function of the seed")
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]), help="measured window per run"
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), help="0 end-to-end metrics, 1 per-layer (default: both)"
    )
    parser.add_argument(
        "--repeat", type=int, default=1, help="repeat with seeds SEED, SEED+1, ... (samples for compare.py)"
    )
    parser.add_argument("--toy", action="store_true", help="smoke-test sizes (16^3 fields, a handful of ops)")
    parser.add_argument("--out", type=Path, help="also write every run of this invocation to one JSON file")
    args = parser.parse_args(argv)

    # SIGTERM unwinds like ctrl-c, so no server outlives a killed benchmark.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    jobs = [
        (workload, seed, trace)
        for seed in range(args.seed, args.seed + args.repeat)
        for trace in ((0, 1) if args.trace is None else (args.trace,))
        for workload in (names if args.workload is None else (args.workload,))
    ]
    if len(jobs) == 1:
        workload, seed, trace = jobs[0]
        runs = [run_once(workload, seed, args.seconds, bool(trace), toy=args.toy)]
        report(runs[0])
    else:
        # One process per run, as the driver does it: peak RSS and CPU are
        # process-wide, so runs sharing a process would share them too.
        runs = []
        for workload, seed, trace in jobs:
            command = [
                sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(trace), *(["--toy"] if args.toy else []),
            ]
            subprocess.run(command, check=True)
            runs.append(json.loads(result_path(harness.RESULTS_DIR, workload, seed, bool(trace)).read_text("utf-8")))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"runs": runs}, indent=1), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
