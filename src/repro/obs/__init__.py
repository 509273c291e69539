"""``repro.obs`` — metrics, request tracing and exposition for the read path.

The serving stack (PRs 3-5) kept ad-hoc counters per layer; this package
gives the process one telemetry surface:

* **Metrics** (:mod:`repro.obs.metrics`) — a thread-safe process-wide
  registry of :class:`Counter` / :class:`Gauge` / :class:`Histogram`
  instruments with label support, plus *collector* adapters
  (:mod:`repro.obs.collectors`) that expose the accounting the cache,
  readers and daemon already keep.  ``REGISTRY.snapshot()`` is plain
  JSON-able data; :func:`render_prometheus` turns a snapshot into
  Prometheus text (``repro stats ADDR --prom`` scrapes exactly this).
* **Tracing** (:mod:`repro.obs.tracing`) — lightweight spans
  (``obs.span("decode", blocks=n)``) recorded into a bounded in-memory ring.
  A client-generated trace id rides the wire protocol's JSON header, so one
  remote read yields one trace tree spanning client encode, daemon
  fetch/decode/paste and the response send.  Off by default; when off, a
  span is one context-variable lookup.
* **Logging** (:mod:`repro.obs.logs`) — stdlib-``logging`` plumbing: the
  package-root ``NullHandler`` contract plus :func:`configure_logging` for
  processes that opt into access logs (``repro serve -v`` / ``--log-json``).

Quick tour::

    from repro import obs

    reads = obs.REGISTRY.counter("myapp_reads_total", "Reads issued.")
    reads.inc()

    obs.TRACER.enable()
    with obs.TRACER.trace("my-request"):
        with obs.span("phase-one", items=3):
            ...

    print(obs.render_prometheus(obs.REGISTRY.snapshot()))
"""

from repro.obs.collectors import (
    cache_collector,
    counter_family,
    gauge_family,
    reader_stats_family,
)
from repro.obs.logs import JsonLineFormatter, access_extra, configure_logging
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    label_snapshot,
    merge_snapshots,
)
from repro.obs.prometheus import render_prometheus
from repro.obs.tracing import TRACER, Span, Tracer, current_trace, format_trace, span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_BUCKETS",
    "label_snapshot",
    "merge_snapshots",
    "render_prometheus",
    "Span",
    "Tracer",
    "TRACER",
    "span",
    "current_trace",
    "format_trace",
    "cache_collector",
    "reader_stats_family",
    "counter_family",
    "gauge_family",
    "configure_logging",
    "JsonLineFormatter",
    "access_extra",
]
