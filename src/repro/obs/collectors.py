"""Collector adapters over the accounting the read path already keeps.

The cache, the container readers and the daemon each grew
their own counters PR by PR; these adapters expose them as registry metric
families *at snapshot time* instead of mirroring every increment — no second
set of counters to keep consistent, no write amplification on the hot path.
Each ``*_collector`` returns a callable suitable for
:meth:`repro.obs.MetricsRegistry.add_collector`; pass the wrapped object as
``owner`` so the registration dies with it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional

__all__ = [
    "cache_collector",
    "reader_stats_family",
    "counter_family",
    "gauge_family",
]


def counter_family(name: str, help: str, value: float,
                   labels: Optional[Mapping[str, str]] = None) -> Dict[str, Any]:
    """One single-sample counter family (plain data)."""
    return {
        "name": name, "type": "counter", "help": help,
        "samples": [{"labels": dict(labels or {}), "value": float(value)}],
    }


def gauge_family(name: str, help: str, value: float,
                 labels: Optional[Mapping[str, str]] = None) -> Dict[str, Any]:
    """One single-sample gauge family (plain data)."""
    return {
        "name": name, "type": "gauge", "help": help,
        "samples": [{"labels": dict(labels or {}), "value": float(value)}],
    }


def cache_collector(cache, labels: Optional[Mapping[str, str]] = None) -> Callable:
    """Wrap a :class:`repro.array.BlockCache`'s own ``stats`` snapshot.

    Counters (hits/misses/evictions) and gauges (blocks held, logical bytes,
    resident bytes) come straight from the cache's instrumentation; ``labels``
    distinguishes multiple caches in one process (e.g. ``{"cache": "serve"}``).
    """
    labels = dict(labels or {})

    def collect() -> List[Dict[str, Any]]:
        stats = cache.stats
        return [
            counter_family("repro_cache_hits_total",
                           "Block cache lookups served from the cache.",
                           stats["hits"], labels),
            counter_family("repro_cache_misses_total",
                           "Block cache lookups that required a decode.",
                           stats["misses"], labels),
            counter_family("repro_cache_evictions_total",
                           "Blocks evicted from the cache by the LRU bounds.",
                           stats["evictions"], labels),
            gauge_family("repro_cache_blocks",
                         "Decoded blocks currently held by the cache.",
                         stats["size"], labels),
            gauge_family("repro_cache_bytes",
                         "Logical bytes of the cached blocks (the capacity bound).",
                         stats["nbytes"], labels),
            gauge_family("repro_cache_bytes_resident",
                         "Bytes the cache entries actually pin in memory.",
                         stats["bytes_resident"], labels),
        ]

    return collect


#: ``ContainerReader.stats`` keys -> (metric name, help).  Shared by the
#: daemon's aggregated reader collector and anything else exposing reader
#: accounting, so names cannot drift between surfaces.
READER_STAT_METRICS = {
    "blocks_decoded": (
        "repro_store_blocks_decoded_total",
        "Blocks decoded from containers (post-cache misses only).",
    ),
    "payload_bytes_read": (
        "repro_store_payload_bytes_total",
        "Compressed payload bytes handed to codecs.",
    ),
    "fetch_ranges": (
        "repro_store_fetch_ranges_total",
        "Coalesced byte ranges fetched from container files.",
    ),
    "fetch_bytes": (
        "repro_store_fetch_bytes_total",
        "Bytes covered by coalesced fetch ranges (payloads plus merged gaps).",
    ),
}


def reader_stats_family(stats: Mapping[str, int],
                        labels: Optional[Mapping[str, str]] = None) -> List[Dict[str, Any]]:
    """``ContainerReader.stats``-shaped totals as counter families."""
    labels = dict(labels or {})
    return [
        counter_family(name, help, stats.get(key, 0), labels)
        for key, (name, help) in READER_STAT_METRICS.items()
    ]
