"""Measurement plumbing shared by every workload of the stack benchmark.

Nothing here knows what a workload does: it times a closed loop of client
threads, keeps the failures instead of raising them, samples CPU and memory
of the generator and of the servers it started, and records spans around the
calls the traced run makes into each layer.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "work"

#: Failures kept verbatim in the output; the rest are only counted.
MAX_RECORDED_FAILURES = 5


def spec() -> dict:
    """The benchmark contract (``BENCHMARK.json`` at the repository root)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1])


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


class OpLog:
    """What a measured window produced: latencies, bytes and failures.

    Failures are counted, never raised: an op that throws, or whose result
    fails its correctness check, adds one to ``failed`` and the first few are
    kept verbatim.  ``check_bound`` additionally tracks the worst observed
    ``|x - original| / bound`` over every lossy result it is shown.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.latencies_ms: List[float] = []
        self.raw_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.max_err_over_bound = 0.0

    def ok(self, latency_s: float, raw_bytes: int) -> None:
        with self._lock:
            self.attempted += 1
            self.latencies_ms.append(latency_s * 1e3)
            self.raw_bytes += int(raw_bytes)

    def attempt(self) -> None:
        """Count an attempted op that is not a timed read (an append)."""
        with self._lock:
            self.attempted += 1

    def fail(self, what: str, attempted: bool = True) -> None:
        """Count a failure; ``attempted=False`` when the op itself was already counted."""
        with self._lock:
            self.attempted += int(attempted)
            self.failed += 1
            if len(self.failures) < MAX_RECORDED_FAILURES:
                self.failures.append(what)

    def check(self, condition: bool, what: str) -> None:
        """A correctness check on an op already counted by :meth:`ok`."""
        if not condition:
            self.fail(what, attempted=False)

    def check_bound(self, got, original, bound: float, what: str, mask=None) -> None:
        """Pointwise ``|got - original| <= bound * (1 + 1e-9)`` on the owned cells."""
        err = np.abs(np.asarray(got) - np.asarray(original))
        worst = float(err[mask].max() if mask is not None else err.max()) if err.size else 0.0
        with self._lock:
            self.max_err_over_bound = max(self.max_err_over_bound, worst / bound)
        self.check(worst <= bound * (1 + 1e-9), f"{what}: max error {worst:.6g} > bound {bound:.6g}")


def run_window(
    clients: Sequence[Callable[[int, OpLog], None]],
    seconds: float,
    log: OpLog,
    first: Optional[Sequence[int]] = None,
) -> Tuple[float, List[int]]:
    """Closed loop: each client thread runs ``op(i, log)`` until the deadline.

    Client ``c`` counts ``i`` up from ``first[c]`` (0 by default), so a window
    cut into slices continues its op list instead of restarting it.  The op in
    flight when the deadline passes completes (a closed-loop client waits for
    its reply), so the wall time returned runs to the last completion; the
    second value is each client's next ``i``.  An exception escaping an op is
    a counted failure.
    """
    following = list(first) if first is not None else [0] * len(clients)
    deadline_box = [0.0]
    barrier = threading.Barrier(len(clients) + 1)

    def loop(client: int, op: Callable[[int, OpLog], None]) -> None:
        barrier.wait()
        i = following[client]
        while time.perf_counter() < deadline_box[0]:
            try:
                op(i, log)
            except Exception as exc:  # boundary: an op must never kill the run
                log.fail(f"op {i}: {type(exc).__name__}: {exc}")
            i += 1
        following[client] = i

    threads = [
        threading.Thread(target=loop, args=(c, op), daemon=True) for c, op in enumerate(clients)
    ]
    for t in threads:
        t.start()
    start = time.perf_counter()
    deadline_box[0] = start + seconds
    barrier.wait()
    for t in threads:
        t.join()
    return time.perf_counter() - start, following


# -- resources -----------------------------------------------------------------


def _proc_cpu_seconds(pid: int) -> float:
    """user+sys CPU of a live child, from ``/proc`` (RUSAGE_CHILDREN only
    covers children already waited for, and the servers outlive the window)."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@dataclass
class CpuSample:
    generator: float
    servers: float

    @classmethod
    def take(cls, pids: Sequence[int] = ()) -> "CpuSample":
        ru = resource.getrusage(resource.RUSAGE_SELF)
        return cls(ru.ru_utime + ru.ru_stime, sum(_proc_cpu_seconds(p) for p in pids))

    def since(self, earlier: "CpuSample") -> "CpuSample":
        return CpuSample(self.generator - earlier.generator, self.servers - earlier.servers)

    @property
    def total(self) -> float:
        return self.generator + self.servers


def peak_rss_mb() -> float:
    """Largest resident set of the generator or of any server already waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def host_facts() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": commit or "not a git checkout",
    }


# -- spans ---------------------------------------------------------------------


class Tracer:
    """In-memory spans recorded from the benchmark's side of each layer boundary.

    A span is ``{name, start, end, parent, op}``; ``parent`` indexes
    :attr:`spans` and spans of one op share its ``op`` id.  A layer's self
    time is its span minus the part its children cover.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, op: Optional[int] = None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        rec = {"name": name, "start": 0.0, "end": 0.0, "parent": parent, "op": op}
        with self._lock:
            if op is None and parent is not None:
                rec["op"] = self.spans[parent]["op"]
            index = len(self.spans)
            self.spans.append(rec)
        stack.append(index)
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span around every call of the public method ``owner.attr``."""
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(owner, attr, traced)

    def median_self_ms(self) -> Dict[str, float]:
        """Per span name: self time summed within each op, median over ops, in ms."""
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                covered[rec["parent"]] += rec["end"] - rec["start"]
        sums: Dict[str, Dict[object, float]] = {}
        for i, rec in enumerate(self.spans):
            per_op = sums.setdefault(rec["name"], {})
            self_s = rec["end"] - rec["start"] - covered[i]
            per_op[rec["op"]] = per_op.get(rec["op"], 0.0) + self_s * 1e3
        return {name: median(per_op.values()) for name, per_op in sums.items()}

    def dump(self, path: Path, **extra) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**extra, "spans": self.spans}), "utf-8")


def python_env() -> dict:
    """Environment for child servers: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def require_source() -> None:
    """Exit non-zero, printing no result, where the program under test is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: {SRC}/repro not found — the benchmark builds nothing and needs the package source")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
