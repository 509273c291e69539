"""Process-wide metrics registry: counters, gauges, histograms, collectors.

The registry is the one place every layer of the read path reports into —
container readers, the codec engine, lazy views, the daemon and the remote
client all register or observe here, so one snapshot describes the whole
process.  Two reporting styles coexist on purpose:

* **Instruments** (:class:`Counter` / :class:`Gauge` / :class:`Histogram`)
  are owned by the registry and mutated inline by instrumented code.  An
  observation is a few arithmetic operations under one small lock; with the
  registry disabled (``REGISTRY.enabled = False``) it is a single attribute
  check.
* **Collectors** wrap state that already exists — ``BlockCache.stats``,
  ``ContainerReader`` fetch counters, daemon counters — instead of
  duplicating it.  A collector is a callable invoked
  at snapshot time that returns metric families as plain data; it is held
  via a weak reference to its owner, so registering a cache with the
  process-wide registry never keeps the cache alive.

A *snapshot* is a JSON-able list of metric families::

    {"name": "repro_cache_hits_total", "type": "counter", "help": "...",
     "samples": [{"labels": {"cache": "serve"}, "value": 41}]}

(histogram samples carry ``buckets``/``sum``/``count`` instead of
``value``), which is exactly what the daemon's ``stats`` wire op ships and
what :func:`repro.obs.prometheus.render_prometheus` renders as text.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Anything speaking the lock protocol.  typeshed models ``threading.Lock``
#: as a factory *function*, so it is not usable in annotations directly.
LockLike = Any

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets (seconds): spans a ~50 µs cache hit through a
#: multi-second cold whole-level decode, Prometheus-style.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_VALID_FIRST = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_VALID_REST = _VALID_FIRST | set("0123456789")


def _check_name(name: str) -> str:
    if not name or name[0] not in _VALID_FIRST or any(c not in _VALID_REST for c in name[1:]):
        raise ValueError(
            f"bad metric name {name!r}; use [a-zA-Z_:][a-zA-Z0-9_:]*"
        )
    return name


class _Metric:
    """Shared base: name/help/label bookkeeping plus the child cache.

    A *child* is one labelled time series; ``labels()`` interns it so hot
    paths resolve their series once at import time and then mutate a plain
    object.  Unlabelled metrics use the single default child.
    """

    type: str = ""

    def __init__(
        self, registry: "MetricsRegistry", name: str, help: str,
        labelnames: Sequence[str] = (),
    ) -> None:
        self._registry = registry
        self.name = _check_name(str(name))
        self.help = str(help)
        self.labelnames = tuple(str(n) for n in labelnames)
        for label in self.labelnames:
            _check_name(label)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], Any] = {}  # repro: guarded-by(_lock)
        if not self.labelnames:
            self._default = self._make_child()

    def _make_child(self):
        raise NotImplementedError

    def labels(self, **labels: Any):
        """The child series for one label combination (interned, thread-safe)."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, got {tuple(labels)}"
            )
        key = tuple(str(labels[n]) for n in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make_child()
            return child

    def _series(self) -> List[Tuple[Tuple[str, ...], Any]]:
        if not self.labelnames:
            return [((), self._default)]
        with self._lock:
            return list(self._children.items())

    def _label_dict(self, key: Tuple[str, ...]) -> Dict[str, str]:
        return dict(zip(self.labelnames, key))

    def family(self) -> Dict[str, Any]:
        """This metric as one snapshot family (plain data)."""
        return {
            "name": self.name,
            "type": self.type,
            "help": self.help,
            "samples": [
                {"labels": self._label_dict(key), **child.sample()}
                for key, child in self._series()
            ],
        }


class _CounterChild:
    __slots__ = ("_lock", "_value", "_registry")

    def __init__(self, lock: "LockLike", registry: "MetricsRegistry") -> None:
        self._lock = lock
        self._registry = registry
        self._value = 0.0  # repro: guarded-by(_lock)

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError(f"counters only go up; inc({amount}) is a gauge move")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def sample(self) -> Dict[str, float]:
        return {"value": self.value}


class Counter(_Metric):
    """Monotonically increasing count (requests served, bytes sent)."""

    type = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild(self._lock, self._registry)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        (self.labels(**labels) if labels else self._default).inc(amount)

    @property
    def value(self) -> float:
        return self._default.value


class _GaugeChild:
    __slots__ = ("_lock", "_value", "_registry")

    def __init__(self, lock: "LockLike", registry: "MetricsRegistry") -> None:
        self._lock = lock
        self._registry = registry
        self._value = 0.0  # repro: guarded-by(_lock)

    def set(self, value: float) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def sample(self) -> Dict[str, float]:
        return {"value": self.value}


class Gauge(_Metric):
    """A value that can go both ways (open readers, active connections)."""

    type = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild(self._lock, self._registry)

    def set(self, value: float, **labels: Any) -> None:
        (self.labels(**labels) if labels else self._default).set(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        (self.labels(**labels) if labels else self._default).inc(amount)

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        (self.labels(**labels) if labels else self._default).dec(amount)

    @property
    def value(self) -> float:
        return self._default.value


class _HistogramChild:
    __slots__ = ("_lock", "_registry", "_bounds", "_counts", "_sum", "_count")

    def __init__(
        self, lock: "LockLike", registry: "MetricsRegistry",
        bounds: Tuple[float, ...],
    ) -> None:
        self._lock = lock
        self._registry = registry
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # trailing slot is +Inf  # repro: guarded-by(_lock)
        self._sum = 0.0  # repro: guarded-by(_lock)
        self._count = 0  # repro: guarded-by(_lock)

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        # A handful of arithmetic ops: linear scan beats bisect for the ~16
        # default buckets and typical small observations land in the first few.
        bounds = self._bounds
        i = 0
        n = len(bounds)
        while i < n and value > bounds[i]:
            i += 1
        with self._lock:
            self._counts[i] += 1
            self._sum += value
            self._count += 1

    def sample(self) -> Dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            total, count = self._sum, self._count
        cumulative: Dict[str, int] = {}
        running = 0
        for bound, c in zip(self._bounds, counts):
            running += c
            cumulative[repr(float(bound))] = running
        cumulative["+Inf"] = running + counts[-1]
        return {"buckets": cumulative, "sum": total, "count": count}


class Histogram(_Metric):
    """Cumulative-bucket latency/size distribution.

    ``observe`` is a short linear scan plus three additions under one lock —
    cheap enough to sit on every request of the hot read path.
    """

    type = "histogram"

    def __init__(
        self, registry: "MetricsRegistry", name: str, help: str,
        labelnames: Sequence[str] = (), buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram buckets must be increasing, got {buckets}")
        self._bounds = bounds
        super().__init__(registry, name, help, labelnames)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self._lock, self._registry, self._bounds)

    def observe(self, value: float, **labels: Any) -> None:
        (self.labels(**labels) if labels else self._default).observe(value)


class MetricsRegistry:
    """Thread-safe metric + collector registry with JSON-able snapshots.

    One process-wide instance (:data:`REGISTRY`) backs all built-in
    instrumentation; tests build private registries.  ``enabled = False``
    turns every instrument mutation into a single attribute check (the
    overhead-gate baseline) — snapshots still work and collectors still run,
    since they only read state owned elsewhere.
    """

    def __init__(self) -> None:
        self.enabled = True
        self._lock = threading.Lock()
        self._metrics: "Dict[str, _Metric]" = {}  # repro: guarded-by(_lock)
        # collector id -> (callable, weakref-to-owner or None)
        self._collectors: Dict[int, Tuple[Callable, Optional[weakref.ref]]] = {}  # repro: guarded-by(_lock)

    # -- instrument constructors ----------------------------------------------
    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if type(existing) is not type(metric) or existing.labelnames != metric.labelnames:
                    raise ValueError(
                        f"metric {metric.name!r} already registered with a "
                        "different type or label set"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def counter(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Counter:
        """Register (or return the existing) counter ``name``."""
        return self._register(Counter(self, name, help, labelnames))

    def gauge(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Gauge:
        """Register (or return the existing) gauge ``name``."""
        return self._register(Gauge(self, name, help, labelnames))

    def histogram(
        self, name: str, help: str, labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Register (or return the existing) histogram ``name``."""
        return self._register(Histogram(self, name, help, labelnames, buckets))

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    # -- collectors ------------------------------------------------------------
    def add_collector(self, collect: Callable[[], Iterable[Dict[str, Any]]],
                      owner: Any = None) -> Callable:
        """Register a snapshot-time callable returning metric families.

        ``owner`` (when weakref-able) tethers the collector's lifetime: once
        the owner is garbage-collected the collector is dropped automatically,
        so wrapping a short-lived cache or daemon never leaks.  Returns
        ``collect`` for :meth:`remove_collector`.
        """
        ref = None
        if owner is not None:
            try:
                ref = weakref.ref(owner)
            except TypeError:
                ref = None
        with self._lock:
            self._collectors[id(collect)] = (collect, ref)
        return collect

    def remove_collector(self, collect: Callable) -> None:
        with self._lock:
            self._collectors.pop(id(collect), None)

    # -- snapshot ---------------------------------------------------------------
    def snapshot(self) -> List[Dict[str, Any]]:
        """Every family — instruments plus collectors — as sorted plain data.

        Families sharing a name are merged; samples sharing a label set are
        summed (two daemons in one process legitimately report into the same
        counter family).  Output ordering is deterministic: families by name,
        samples by label items.
        """
        with self._lock:
            metrics = list(self._metrics.values())
            collectors = list(self._collectors.items())
        families: List[Dict[str, Any]] = [m.family() for m in metrics]
        dead = []
        for key, (collect, ref) in collectors:
            if ref is not None and ref() is None:
                dead.append(key)
                continue
            families.extend(collect())
        if dead:
            with self._lock:
                for key in dead:
                    self._collectors.pop(key, None)
        return _merge_families(families)


def _merge_families(families: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    merged: Dict[str, Dict[str, Any]] = {}
    for fam in families:
        name = fam["name"]
        into = merged.get(name)
        if into is None:
            merged[name] = {
                "name": name,
                "type": fam.get("type", "untyped"),
                "help": fam.get("help", ""),
                "samples": list(fam.get("samples", ())),
            }
            continue
        if into["type"] != fam.get("type", "untyped"):
            raise ValueError(
                f"metric family {name!r} reported with conflicting types "
                f"{into['type']!r} and {fam.get('type')!r}"
            )
        into["samples"].extend(fam.get("samples", ()))
    out = []
    for fam in sorted(merged.values(), key=lambda f: f["name"]):
        fam["samples"] = _merge_samples(fam["samples"], fam["type"])
        out.append(fam)
    return out


def _merge_samples(samples: List[Dict[str, Any]], kind: str) -> List[Dict[str, Any]]:
    by_labels: Dict[Tuple[Tuple[str, str], ...], Dict[str, Any]] = {}
    for sample in samples:
        labels = {str(k): str(v) for k, v in sample.get("labels", {}).items()}
        key = tuple(sorted(labels.items()))
        into = by_labels.get(key)
        if into is None:
            copied = dict(sample)
            copied["labels"] = labels
            if kind == "histogram" and "buckets" in copied:
                copied["buckets"] = dict(copied["buckets"])
            by_labels[key] = copied
        elif kind == "histogram":
            for bound, count in sample.get("buckets", {}).items():
                into["buckets"][bound] = into["buckets"].get(bound, 0) + count
            into["sum"] = into.get("sum", 0.0) + sample.get("sum", 0.0)
            into["count"] = into.get("count", 0) + sample.get("count", 0)
        else:
            into["value"] = into.get("value", 0.0) + sample.get("value", 0.0)
    return [by_labels[key] for key in sorted(by_labels)]


def label_snapshot(
    families: List[Dict[str, Any]], labels: Mapping[str, str]
) -> List[Dict[str, Any]]:
    """Deep-copy a snapshot with extra labels stamped onto every sample.

    The multi-process aggregation primitive: a router stamps each shard
    daemon's snapshot with ``{"shard": name}`` before merging, so one scrape
    of the router distinguishes every process's series.  Labels already
    present on a sample win — stamping never rewrites a family's own
    dimensions (e.g. a shard's ``op`` or ``cache`` labels survive).
    """
    extra = {str(k): str(v) for k, v in labels.items()}
    out = []
    for fam in families:
        samples = []
        for sample in fam.get("samples", ()):
            copied = dict(sample)
            copied["labels"] = {**extra, **dict(sample.get("labels", {}))}
            if "buckets" in copied:
                copied["buckets"] = dict(copied["buckets"])
            samples.append(copied)
        out.append({**fam, "samples": samples})
    return out


def merge_snapshots(*snapshots: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Merge registry snapshots into one, exactly like one registry would.

    Families sharing a name concatenate (types must agree); samples sharing
    a label set sum.  Feed shard snapshots through :func:`label_snapshot`
    first so distinct processes never collapse into one series.
    """
    families: List[Dict[str, Any]] = []
    for snap in snapshots:
        families.extend(snap)
    return _merge_families(families)


#: The process-wide default registry every built-in instrument reports into.
REGISTRY = MetricsRegistry()
