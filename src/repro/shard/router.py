"""``RouterDaemon``: one wire-protocol front door over N shard daemons.

The router speaks the exact :mod:`repro.serve` protocol on its front socket
— ``repro.connect()`` pointed at a router is bit-for-bit a single-daemon
client — and fans out over a small
:class:`~repro.serve.pool.ConnectionPool` of backend connections per shard
(``pool_size=``), so concurrent requests routed to the *same* shard relay in
parallel instead of serializing on one socket:

* ``catalog`` merges every shard's catalog into one entry list (preferring
  the owning shard's row for keys that transiently exist on two shards
  mid-rebalance);
* ``describe``/``read`` forward to the shard the :class:`ShardMap` names
  as the entry's owner.  The relay is zero-copy: the shard's response
  header is rewritten (spans merged), the ndarray payload is passed through
  untouched — the router never decodes, copies or even inspects result
  bytes;
* ``stats`` merges per-shard counters and registry snapshots, each stamped
  with a ``shard`` label (the router's own snapshot under
  ``shard="router"``), so one scrape sees every process;
* ``trace`` serves the router's own ring, which — because shard spans are
  grafted as responses relay through — holds the *complete* tree of every
  traced request: client root, router ``route`` span, shard fetch/decode.

Fault tolerance (with ``replicas > 1`` in the map) is layered on the same
relay: ``describe``/``read`` try the entry's replicas in ring order, failing
over to the next on any *transport*-level failure — connect errors, torn
frames, payload-checksum mismatches caught before relay — while application
errors (a bad index, a missing entry) still relay verbatim on the first
healthy exchange.  Each backend sits behind a
:class:`~repro.shard.breaker.CircuitBreaker`: ``breaker_threshold``
consecutive transport failures open it, after which calls fail over in
microseconds (:class:`~repro.shard.breaker.BreakerOpenError`) instead of
re-paying connect timeouts; a background prober re-dials sick shards every
``probe_interval`` seconds so recovery needs no client traffic.  Breaker
states, trips and failover counts ship as ``repro_router_*`` families and in
``stats``; the ``health`` op answers from breaker state alone (no shard
round trips), which is what the gateway's ``/health`` serves.

Backend failures surface as typed :class:`ShardError` responses naming the
shard and address.  Backend connections dial under one
:class:`~repro.serve.client.ConnectSpec` (jittered exponential backoff on
refusal), so launching a router alongside its shard daemons never races
their binds, and a poisoned pooled connection (shard restarted) is replaced
transparently on the next request that needs it.

The shard map is swappable live (:meth:`RouterDaemon.set_map`): rebalancing
installs the new topology between its copy and prune phases, so routed
reads never observe a missing entry.
"""

from __future__ import annotations

import logging
import threading
from numbers import Number
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import access_extra, label_snapshot, merge_snapshots
from repro.obs import span as obs_span
from repro.obs.tracing import current_trace
from repro.obs.collectors import counter_family, gauge_family
from repro.serve.client import ConnectSpec
from repro.serve.daemon import WireDaemon
from repro.serve.pool import ConnectionPool
from repro.serve.protocol import (
    ProtocolError,
    error_header,
    register_error_type,
)
from repro.shard.breaker import BreakerOpenError, CircuitBreaker
from repro.shard.shardmap import ShardMap, entry_key

__all__ = ["RouterDaemon", "ShardError"]

log = logging.getLogger("repro.shard.router")


@register_error_type
class ShardError(RuntimeError):
    """A shard backend failed at the transport level (named in the message).

    Registered for typed transport: clients that imported :mod:`repro.shard`
    re-raise it exactly; others get the message via ``RemoteError``.
    Application errors from a shard are *not* wrapped — they relay with
    their original type and message.
    """


class RouterDaemon(WireDaemon):
    """Shard-fan-out daemon: one front socket, one connection pool per shard.

    Parameters
    ----------
    shard_map:
        The :class:`ShardMap` naming the shards and placing entries.
    host / port / backlog / tracer / slow_ms:
        See :class:`~repro.serve.daemon.WireDaemon`.
    timeout:
        Socket timeout of each backend connection.
    retries / backoff:
        Backend connect retry policy (one :class:`ConnectSpec` per shard);
        the default rides out a shard daemon that is still binding when the
        router starts.
    pool_size:
        Backend connections per shard.  One connection serializes concurrent
        requests routed to the same shard; a handful lets them relay in
        parallel (``tests/test_serve_pool.py`` proves the overlap).
    breaker_threshold / breaker_cooldown:
        Per-shard circuit breaker policy: consecutive transport failures
        that trip it open, and seconds before a half-open probe is allowed.
    probe_interval:
        Background health-prober period.  Every tick, shards whose breaker
        is not closed get one probe ``describe`` (through the breaker's
        half-open gate), so a restarted shard re-enters rotation without
        waiting for client traffic.  ``0`` disables the prober.
    """

    _thread_name = "repro-shard-router"

    def __init__(
        self,
        shard_map: ShardMap,
        host: str = "127.0.0.1",
        port: int = 0,
        backlog: int = 32,
        tracer=None,
        slow_ms: Optional[float] = None,
        timeout: float = 30.0,
        retries: int = 8,
        backoff: float = 0.05,
        pool_size: int = 4,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 1.0,
        probe_interval: float = 0.25,
    ) -> None:
        super().__init__(
            host=host, port=port, backlog=backlog, tracer=tracer, slow_ms=slow_ms
        )
        self.shard_map = shard_map
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.pool_size = max(1, int(pool_size))
        self.breaker_threshold = max(1, int(breaker_threshold))
        self.breaker_cooldown = float(breaker_cooldown)
        self.probe_interval = float(probe_interval)
        self._pools: Dict[str, ConnectionPool] = {}  # repro: guarded-by(_lock)
        self._breakers: Dict[str, CircuitBreaker] = {}  # repro: guarded-by(_lock)
        self._probe_thread: Optional[threading.Thread] = None
        self._counters.update(
            {
                "reads_forwarded": 0,
                "relay_bytes": 0,
                "backend_errors": 0,
                "failovers": 0,
                "breaker_rejections": 0,
            }
        )

    # -- lifecycle -------------------------------------------------------------
    def _open(self) -> None:
        # Dial one connection per shard before accepting clients.  Without
        # replicas a dead backend fails here, loudly — a misconfigured
        # topology should not serve.  With replicas the router *can* serve
        # around a dead shard, so a warm failure records a breaker strike
        # and startup proceeds; the prober keeps retrying it.
        for spec in self.shard_map.shards:
            # Eager breaker creation: the breaker-state gauge and health()
            # report every shard from the first scrape, not only the ones
            # traffic has reached.
            self._breaker(spec.name)
            try:
                self._pool(spec.name).warm()
            except (OSError, ProtocolError) as exc:
                if self.shard_map.replicas <= 1:
                    raise
                self._breaker(spec.name).record_failure()
                log.warning(
                    "shard unreachable at startup",
                    extra=access_extra(shard=spec.name, error=str(exc)),
                )
        super()._open()
        if self.probe_interval > 0:
            self._probe_thread = threading.Thread(
                target=self._probe_loop, name="repro-shard-router-prober", daemon=True
            )
            self._probe_thread.start()

    def _close(self, timeout: float) -> None:
        super()._close(timeout)
        if self._probe_thread is not None:
            self._probe_thread.join(timeout)
            self._probe_thread = None
        with self._lock:
            pools = list(self._pools.values())
            self._pools.clear()
            self._breakers.clear()
        for pool in pools:
            pool.close()

    def set_map(self, shard_map: ShardMap) -> None:
        """Install a new topology live; routed requests use it immediately.

        Pools of shards that left the map (or changed address) drain — idle
        connections close now, leased ones as their in-flight relays finish;
        new shards connect lazily on first forward.  Rebalancing calls this
        *between* copying entries to their new owners and pruning the old
        copies, so every entry is readable at its routed location throughout.
        """
        to_close: List[ConnectionPool] = []
        with self._lock:
            self.shard_map = shard_map
            live = {s.name: s for s in shard_map.shards}
            for name, pool in list(self._pools.items()):
                spec = live.get(name)
                if spec is None or pool.address != _normalize(spec.address):
                    to_close.append(self._pools.pop(name))
                    # A departed (or re-addressed) shard's breaker history is
                    # about the old backend; a future same-named shard starts
                    # clean.
                    self._breakers.pop(name, None)
            for name in list(self._breakers):
                if name not in live:
                    del self._breakers[name]
        for pool in to_close:
            pool.close()
        for name in live:
            self._breaker(name)
        log.info(
            "shard map installed",
            extra=access_extra(shards=shard_map.names()),
        )

    def _pool(self, name: str) -> ConnectionPool:
        """The live connection pool for a shard, (re)creating as needed."""
        spec = self.shard_map.spec(name)
        with self._lock:
            pool = self._pools.get(name)
        if pool is not None and not pool.closed:
            return pool
        # Creating a pool opens no sockets, so losing the race below costs
        # nothing — the loser is dropped unused.
        fresh = ConnectionPool(
            ConnectSpec(
                spec.address,
                timeout=self.timeout,
                retries=self.retries,
                backoff=self.backoff,
            ),
            size=self.pool_size,
            tracer=self.tracer,
        )
        with self._lock:
            current = self._pools.get(name)
            if current is not None and not current.closed:
                return current
            self._pools[name] = fresh
        return fresh

    def _breaker(self, name: str) -> CircuitBreaker:
        """The circuit breaker guarding one shard's backend."""
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = CircuitBreaker(
                    name,
                    threshold=self.breaker_threshold,
                    cooldown=self.breaker_cooldown,
                )
                self._breakers[name] = breaker
        return breaker

    def _probe_loop(self) -> None:
        """Background recovery: probe every shard whose breaker is not closed.

        The probe is an ordinary ``describe`` relay through :meth:`_forward`,
        so it runs the same breaker gate as client traffic — an open breaker
        inside its cooldown rejects the probe for free, one past it admits
        exactly one half-open attempt whose success closes the breaker.
        """
        while not self._stop.wait(self.probe_interval):
            with self._lock:
                sick = [
                    s.name
                    for s in self.shard_map.shards
                    if s.name in self._breakers
                    and self._breakers[s.name].state != "closed"
                ]
            for name in sick:
                if self._stop.is_set():
                    return
                try:
                    self._forward(name, {"op": "describe"})
                except (ShardError, BreakerOpenError):
                    continue
                log.info("shard recovered", extra=access_extra(shard=name))

    def __repr__(self) -> str:
        bound = f"at {self._host}:{self._port}" if self._running else "(not started)"
        return f"RouterDaemon({', '.join(self.shard_map.names())} {bound})"

    # -- request handling ------------------------------------------------------
    def _dispatch(self, header: Dict) -> Tuple[Dict, bytes]:
        op = header.get("op")
        with self._lock:
            self._counters["requests"] += 1
        try:
            if op == "catalog":
                return {"status": "ok", "entries": self._merged_catalog()}, b""
            if op == "describe":
                if header.get("field") is None:
                    return self._op_describe_store(), b""
                return self._forward_to_owner(header)
            if op == "read":
                resp, payload = self._forward_to_owner(header)
                with self._lock:
                    self._counters["reads_forwarded"] += 1
                    self._counters["relay_bytes"] += len(payload)
                return resp, payload
            if op == "stats":
                return self._op_stats(), b""
            if op == "health":
                return {"status": "ok", **self.health()}, b""
            if op == "trace":
                return self._op_trace(header), b""
            raise ValueError(
                f"unknown operation {op!r}; the router serves describe, catalog, "
                "read, stats, health and trace"
            )
        except Exception as exc:  # noqa: BLE001 - every failure becomes a response
            with self._lock:
                self._counters["errors"] += 1
            return error_header(exc), b""

    def _forward_to_owner(self, header: Dict) -> Tuple[Dict, bytes]:
        """Relay to the entry's replicas in ring order, failing over on transport.

        Only *transport*-class failures advance to the next replica — a
        connect/exchange failure (:class:`ShardError`) or a breaker
        rejection (:class:`BreakerOpenError`).  An application error from a
        healthy shard (bad bbox, missing entry) is a complete answer every
        replica would repeat, so it relays immediately.  When every replica
        fails, the caller gets the breaker error if all were rejected
        breaker-fast, else a :class:`ShardError` summarizing each attempt.
        """
        field = str(header["field"])
        step = int(header.get("step", 0))
        names = self.shard_map.owner_names(field, step)
        failures: List[Exception] = []
        for attempt, name in enumerate(names):
            try:
                resp, payload = self._forward(name, header)
            except (ShardError, BreakerOpenError) as exc:
                failures.append(exc)
                if attempt + 1 < len(names):
                    with self._lock:
                        self._counters["failovers"] += 1
                    log.warning(
                        "replica failover",
                        extra=access_extra(
                            entry=entry_key(field, step),
                            shard=name,
                            next=names[attempt + 1],
                            error=str(exc),
                        ),
                    )
                continue
            return resp, payload
        if len(failures) == 1:
            raise failures[0]
        detail = "; ".join(str(exc) for exc in failures)
        if all(isinstance(exc, BreakerOpenError) for exc in failures):
            raise BreakerOpenError(
                f"all {len(names)} replicas of {entry_key(field, step)} have "
                f"open circuit breakers: {detail}"
            )
        raise ShardError(
            f"all {len(names)} replicas of {entry_key(field, step)} failed: {detail}"
        )

    def _forward(self, name: str, header: Dict, payload: bytes = b"") -> Tuple[Dict, bytes]:
        """Relay one request to a shard; the response passes through zero-copy.

        The shard's breaker gates the call: an open breaker rejects in
        microseconds (no socket touched) so failover is cheap, and every
        outcome is recorded — transport failures count toward tripping it,
        any completed exchange (application errors included: they arrive on
        a healthy stream) closes it.  The backend client verifies the
        response payload checksum before this returns, so a corrupting
        shard is a transport failure here, never relayed bytes.

        Inside the ``route`` span the ambient trace points at *us*, so the
        forwarded header's ``trace`` is rewritten and the shard's request
        span parents on the route span — one tree across three processes.
        With the router's tracer disabled the client's original trace rides
        through untouched and the shard parents on the client directly.
        """
        op = header.get("op")
        spec = self.shard_map.spec(name)
        breaker = self._breaker(name)
        if not breaker.allow():
            with self._lock:
                self._counters["breaker_rejections"] += 1
            raise BreakerOpenError(
                f"shard {name!r} at {spec.address}: circuit breaker is open"
            )
        with obs_span("route", shard=name, op=op):
            forwarded = header
            wire_trace = current_trace()
            if wire_trace is not None:
                forwarded = {**header, "trace": wire_trace}
            try:
                with self._pool(name).lease() as backend:
                    resp, resp_payload = backend.exchange(forwarded, payload)
            except (OSError, ProtocolError) as exc:
                tripped = breaker.record_failure()
                with self._lock:
                    self._counters["backend_errors"] += 1
                if tripped:
                    log.warning(
                        "circuit breaker opened",
                        extra=access_extra(shard=name, error=str(exc)),
                    )
                raise ShardError(
                    f"shard {name!r} at {spec.address} failed during {op!r}: {exc}"
                ) from exc
        breaker.record_success()
        spans = resp.pop("spans", None)
        if spans:
            if self.tracer.enabled:
                # The shard's half of the trace lands in the router's ring,
                # so the router's "trace" op shows complete trees.
                self.tracer.graft(spans)
            # ...and rides on to the client; the base request handler appends
            # the router's own spans behind these (span ids dedupe).
            resp["spans"] = spans
        return resp, resp_payload

    # -- merged ops ------------------------------------------------------------
    def _shard_request(self, name: str, header: Dict) -> Dict:
        """A routed *internal* request (catalog/stats); typed errors raise."""
        resp, _ = self._forward(name, header)
        if resp.get("status") != "ok":
            from repro.serve.protocol import raise_remote_error

            raise_remote_error(resp)
        return resp

    def _merged_catalog(self) -> List[Dict[str, Any]]:
        """Every shard's entries as one catalog, owner's row winning.

        Mid-rebalance an entry legitimately exists on two shards (copied to
        the destination, not yet pruned from the source); the merge keeps the
        row from the shard the current map routes reads to.

        With replication, up to ``replicas - 1`` unreachable shards are
        tolerated: every entry a dead shard held also lives on its other
        replicas, whose catalogs list it, so the merge stays complete.  One
        more failure than that could silently hide entries, so it raises.
        """
        shard_map = self.shard_map
        merged: Dict[str, Dict[str, Any]] = {}
        failed: List[Exception] = []
        for spec in shard_map.shards:
            try:
                resp = self._shard_request(spec.name, {"op": "catalog"})
            except (ShardError, BreakerOpenError) as exc:
                failed.append(exc)
                if len(failed) >= shard_map.replicas:
                    raise
                continue
            for row in resp.get("entries", ()):
                key = entry_key(str(row["field"]), int(row["step"]))
                owner = shard_map.owner_name(str(row["field"]), int(row["step"]))
                if key not in merged or owner == spec.name:
                    merged[key] = dict(row)
        return [merged[key] for key in sorted(merged)]

    def _op_describe_store(self) -> Dict[str, Any]:
        entries = self._merged_catalog()
        return {
            "status": "ok",
            "kind": "store",
            "root": f"shard-router[{','.join(self.shard_map.names())}]",
            "n_entries": len(entries),
            "fields": sorted({str(e["field"]) for e in entries}),
        }

    def _op_stats(self) -> Dict[str, Any]:
        """Fleet stats: summed counters, per-shard detail, labeled metrics.

        Top-level numeric counters sum across shards (so ``repro stats``
        against a router reads like one big daemon); ``shards`` keeps each
        daemon's full stats; ``router`` is the router's own accounting;
        ``metrics`` merges every process's registry snapshot with a
        ``shard`` label telling their series apart.
        """
        totals: Dict[str, float] = {}
        shards: Dict[str, Any] = {}
        snapshots = [label_snapshot(self._own_snapshot(), {"shard": "router"})]
        for spec in self.shard_map.shards:
            try:
                resp = self._shard_request(spec.name, {"op": "stats"})
            except (ShardError, BreakerOpenError) as exc:
                # Observability must not die with a shard: a fleet scrape
                # with one dead backend reports the death instead of failing.
                shards[spec.name] = {"error": str(exc)}
                continue
            resp.pop("status", None)
            metrics = resp.pop("metrics", None)
            if metrics:
                snapshots.append(label_snapshot(metrics, {"shard": spec.name}))
            shards[spec.name] = resp
            for key, value in resp.items():
                if isinstance(value, Number) and not isinstance(value, bool):
                    totals[key] = totals.get(key, 0) + value
        return {
            "status": "ok",
            **totals,
            "router": self.stats(),
            "shards": shards,
            "metrics": merge_snapshots(*snapshots),
        }

    def health(self) -> Dict[str, Any]:
        """Cluster health from breaker state alone — no shard round trips.

        A shard is *degraded* when its breaker is not closed.  The cluster
        is unhealthy (``ok: False``) when some replica set on the ring is
        entirely degraded — i.e. an entry placed there would be unreachable
        via every replica.  With all breakers closed it is trivially
        healthy; the answer is computed from local state, so health polls
        stay cheap no matter how sick the fleet is.
        """
        with self._lock:
            shard_map = self.shard_map
            states = {
                s.name: (
                    self._breakers[s.name].state
                    if s.name in self._breakers
                    else "closed"
                )
                for s in shard_map.shards
            }
        degraded = sorted(n for n, state in states.items() if state != "closed")
        unreachable: List[List[str]] = []
        if degraded:
            dead = set(degraded)
            unreachable = [
                sorted(group)
                for group in shard_map.replica_sets()
                if group <= dead
            ]
        return {
            "ok": not unreachable,
            "replicas": shard_map.replicas,
            "shards": states,
            "degraded": degraded,
            "unreachable": unreachable,
        }

    def _own_snapshot(self) -> List[Dict[str, Any]]:
        from repro.obs import REGISTRY

        return REGISTRY.snapshot()

    # -- introspection ---------------------------------------------------------
    def _collectors(self) -> List[Callable]:
        return [self._collect_families]

    def _collect_families(self) -> list:
        with self._lock:
            counters = dict(self._counters)
            active = len(self._connections)
            pools = list(self._pools.values())
            breakers = dict(self._breakers)
        backends = sum(p.stats()["open"] for p in pools if not p.closed)
        breaker_states = {name: b.state_code for name, b in breakers.items()}
        breaker_trips = {name: b.stats()["trips"] for name, b in breakers.items()}
        return [
            counter_family("repro_router_requests_total",
                           "Requests dispatched by the shard router.",
                           counters["requests"]),
            counter_family("repro_router_reads_forwarded_total",
                           "Read operations relayed to a shard.",
                           counters["reads_forwarded"]),
            counter_family("repro_router_relay_bytes_total",
                           "Result payload bytes relayed shard-to-client.",
                           counters["relay_bytes"]),
            counter_family("repro_router_errors_total",
                           "Requests answered with a router-level error.",
                           counters["errors"]),
            counter_family("repro_router_backend_errors_total",
                           "Transport failures talking to shard backends.",
                           counters["backend_errors"]),
            counter_family("repro_router_connections_total",
                           "Client connections accepted since start.",
                           counters["connections"]),
            gauge_family("repro_router_active_connections",
                         "Client connections currently open.",
                         active),
            gauge_family("repro_router_backends_connected",
                         "Shard backend connections currently live.",
                         backends),
            counter_family("repro_router_failovers_total",
                           "Requests retried on another replica after a "
                           "transport failure.",
                           counters["failovers"]),
            counter_family("repro_router_breaker_rejections_total",
                           "Backend calls rejected by an open circuit breaker.",
                           counters["breaker_rejections"]),
            {
                "name": "repro_router_breaker_state",
                "type": "gauge",
                "help": "Circuit breaker state per shard "
                        "(0=closed, 1=half_open, 2=open).",
                "samples": [
                    {"labels": {"shard": name}, "value": float(code)}
                    for name, code in sorted(breaker_states.items())
                ],
            },
            {
                "name": "repro_router_breaker_trips_total",
                "type": "counter",
                "help": "Circuit breaker closed/half-open -> open transitions "
                        "per shard.",
                "samples": [
                    {"labels": {"shard": name}, "value": float(trips)}
                    for name, trips in sorted(breaker_trips.items())
                ],
            },
        ]

    def stats(self) -> Dict[str, Any]:
        out = super().stats()
        out["shards"] = self.shard_map.names()
        with self._lock:
            pools = dict(self._pools)
            breakers = dict(self._breakers)
        out["pools"] = {name: pool.stats() for name, pool in pools.items()}
        out["breakers"] = {name: b.stats() for name, b in breakers.items()}
        out["health"] = self.health()
        return out


def _normalize(address: str) -> str:
    from repro.serve.daemon import parse_address

    host, port = parse_address(address)
    return f"{host}:{port}"
