#!/usr/bin/env python3
"""Compare result sets of the stack benchmark, or check one for steadiness.

    python3 bench/compare.py A.json            # spread of every metric vs its bound
    python3 bench/compare.py A.json B.json     # B against A: ratio, base, verdict
    python3 bench/compare.py --baseline A.json [T.json ...] > bench/BASELINE.json

A result set is what ``run.py --out`` writes (``{"runs": [...]}``; repeated
runs of a workload become samples) or one file from ``bench/results/``.
Spread is the interquartile range as a share of the median
(``statistics.quantiles(values, n=4)``), the driver's own measure.

With one set, a metric is *steady* when its spread is within a third of its
bound, *wide* within the bound, *unsteady* beyond it.  With two, each
(workload, end-to-end metric) pair is *within-bound*, *regressed* (B's median
worse than A's by more than the bound) or *unresolved* (a spread wider than
the bound, so the comparison decides nothing).  Exit status is 1 if any pair
is unsteady or regressed; ``setup_s`` is exempt from the spread test, as it
is in the driver.  Per-layer metrics have no bound and are only listed.
``--baseline`` condenses result sets into the committed baseline document:
host facts plus median, spread and sample count of every metric.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from harness import spec

Samples = Dict[Tuple[str, int, str], List[float]]  # (workload, trace, metric) -> values


def load(path: str) -> Samples:
    doc = json.loads(Path(path).read_text("utf-8"))
    samples: Samples = {}
    for run in doc.get("runs", [doc]):
        for name, metric in run["metrics"].items():
            samples.setdefault((run["workload"], run["trace"], name), []).append(metric["value"])
    return samples


def spread(values: List[float]) -> Optional[float]:
    """IQR / median; ``None`` where undefined (one sample, or a zero median)."""
    if len(values) < 2 or statistics.median(values) == 0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def _fmt(x: Optional[float], pct: bool = False) -> str:
    if x is None:
        return "-"
    return f"{100 * x:.2f}%" if pct else f"{x:.6g}"


def check_one(a: Samples, bounds: Dict[str, dict]) -> int:
    bad = 0
    print(f"{'workload':<18}{'metric':<34}{'n':>3} {'median':>12} {'spread':>8} {'bound':>7}  verdict")
    for (workload, trace, name), values in sorted(a.items()):
        s = spread(values)
        bound = bounds.get(name, {}).get("bound") if not trace else None
        verdict = ""
        if bound is not None and s is not None:
            verdict = "steady" if s <= bound / 3 else "wide" if s <= bound else "unsteady"
            if verdict == "unsteady" and name == "setup_s":
                verdict = "unsteady (exempt)"
            bad += verdict == "unsteady"
        print(
            f"{workload:<18}{name:<34}{len(values):>3} {_fmt(statistics.median(values)):>12} "
            f"{_fmt(s, True):>8} {_fmt(bound, True):>7}  {verdict}"
        )
    return bad


def check_two(a: Samples, b: Samples, bounds: Dict[str, dict]) -> int:
    bad = 0
    print(f"{'workload':<18}{'metric':<34}{'base (A)':>12} {'B':>12} {'B/A':>8} {'bound':>7}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, trace, name = key
        base, new = statistics.median(a[key]), statistics.median(b[key])
        ratio = new / base if base else None
        declared = bounds.get(name) if not trace else None
        verdict = ""
        if declared is not None and ratio is not None:
            worse = ratio - 1 if declared["better"] == "lower" else 1 - ratio
            spreads = [s for s in (spread(a[key]), spread(b[key])) if s is not None]
            noise = 0.0 if name == "setup_s" else max(spreads, default=0.0)
            if worse > max(declared["bound"], noise):
                verdict = "regressed"
                bad += 1
            elif noise > declared["bound"]:
                verdict = "unresolved"
            else:
                verdict = "within-bound"
        print(
            f"{workload:<18}{name:<34}{_fmt(base):>12} {_fmt(new):>12} {_fmt(ratio):>8} "
            f"{_fmt(declared['bound'] if declared else None, True):>7}  {verdict}"
        )
    for key in sorted(set(a) ^ set(b)):
        print(f"{key[0]:<18}{key[2]:<34} only in {'A' if key in a else 'B'}")
    return bad


def baseline(paths: List[str]) -> dict:
    merged: Samples = {}
    for path in paths:
        for key, values in load(path).items():
            merged.setdefault(key, []).extend(values)
    runs = [
        run
        for path in paths
        for doc in [json.loads(Path(path).read_text("utf-8"))]
        for run in doc.get("runs", [doc])
    ]
    out: dict = {"host": runs[0]["host"], "seeds": sorted({run["seed"] for run in runs})}
    for (workload, trace, name), values in sorted(merged.items()):
        mode = out.setdefault("per_layer" if trace else "end_to_end", {})
        mode.setdefault(workload, {})[name] = {
            "median": statistics.median(values), "spread": spread(values), "n": len(values)
        }
    return out


def main(argv: List[str]) -> int:
    if argv[:1] == ["--baseline"] and len(argv) > 1:
        print(json.dumps(baseline(argv[1:]), indent=1))
        return 0
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    sets = [load(path) for path in argv]
    bad = check_one(sets[0], bounds) if len(sets) == 1 else check_two(sets[0], sets[1], bounds)
    if bad:
        print(f"{bad} (workload, metric) pair(s) {'unsteady' if len(sets) == 1 else 'regressed'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
