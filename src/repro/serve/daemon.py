"""``ReadDaemon``: serve a store's array queries from one shared cache.

One daemon wraps one :class:`repro.store.Store` and the store's shared
:class:`repro.array.BlockCache` behind a local TCP socket.  Many analysis
clients then share the decoded blocks: the first client to touch a block
pays the decode, every later query — from any connection — hits the cache.  This is the multi-client step the
ROADMAP names after the lazy view API: a view query is plain data
``(field, step, level, compiled index)``, so serving it is framing, not new
read logic.

The lifecycle and the socket machinery (bind, accept loop, per-connection
workers, graceful shutdown) are :class:`repro.serve.service.ThreadedServer`;
:class:`WireDaemon` adds the wire protocol on top of it — framed request
handling, request tracing, access logging — and stays dispatch-agnostic.
:class:`ReadDaemon` plugs the store read path into it; the shard router
(:class:`repro.shard.RouterDaemon`) plugs a fan-out relay into the *same*
base, so both ends of a routed request speak literally the same server code.

Concurrency model
-----------------
A background accept loop hands each connection to its own worker thread;
NumPy decode kernels release the GIL, so concurrent cache misses overlap.
Container readers are opened once per ``(field, step)`` and shared across
connections (each payload fetch opens its own file handle, so readers are
safe to share); all daemon-wide counters mutate under one lock.  Per-request
accounting (blocks touched / decoded / served from cache) is what the local
view's read reports, so every ``read`` response says exactly what it cost —
the numbers ``repro store read --remote`` prints.

Shutdown is graceful: ``stop()`` closes the listener and every open
connection, then joins the workers, so a test fixture (or ``repro serve``
under SIGINT) always exits cleanly.
"""

from __future__ import annotations

import logging
import socket
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.obs import (
    REGISTRY,
    TRACER,
    access_extra,
    cache_collector,
    counter_family,
    gauge_family,
    reader_stats_family,
)
from repro.serve.protocol import (
    ProtocolError,
    encode_ndarray,
    error_header,
    index_from_wire,
    payload_checksum,
    read_frame,
    send_frame,
)
from repro.serve.service import ThreadedServer

__all__ = ["WireDaemon", "ReadDaemon", "parse_address"]

log = logging.getLogger("repro.serve.daemon")

#: Protocol-v1 requests carry no payload; anything past this cap on an
#: incoming frame is a framing error, answered instead of awaited.
MAX_REQUEST_PAYLOAD = 1 << 20

#: Default bound on the daemon's per-entry container reader cache.  Each
#: cached reader pins a parsed index plus (for mmap containers) a mapping and
#: file descriptor, so an unbounded dict leaks fds against a store that keeps
#: appending entries; 64 covers every test/bench working set while keeping a
#: long-lived daemon's fd count flat.
DEFAULT_MAX_READERS = 64

_REQUEST_SECONDS = REGISTRY.histogram(
    "repro_daemon_request_seconds",
    "Daemon request latency by operation (dispatch through response send).",
    labelnames=("op",),
)


def parse_address(addr: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """Parse ``"host:port"`` (or a ``(host, port)`` pair) into a pair."""
    if isinstance(addr, tuple):
        host, port = addr
        return str(host), int(port)
    host, sep, port = str(addr).rpartition(":")
    if not sep or not host:
        raise ValueError(f"bad daemon address {addr!r}; expected host:port")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"bad daemon address {addr!r}; port must be an integer") from None


class _CountingStream:
    """Byte-counting shim over a connection's read file.

    Forwards ``read``/``readinto`` (the two entry points
    :func:`~repro.serve.protocol.read_frame` uses) while summing bytes
    consumed, so the daemon can account request wire traffic without the
    protocol layer knowing.
    """

    __slots__ = ("_fh", "bytes_read")

    def __init__(self, fh) -> None:
        self._fh = fh
        self.bytes_read = 0

    def read(self, n: int = -1) -> bytes:
        data = self._fh.read(n)
        self.bytes_read += len(data)
        return data

    def readinto(self, buf) -> int:
        count = self._fh.readinto(buf)
        if count:
            self.bytes_read += count
        return count

    def close(self) -> None:
        self._fh.close()


class _ReaderSlot:
    """One cached :class:`ContainerReader` plus lease bookkeeping.

    ``refs`` counts in-flight requests using the reader; ``retired`` marks a
    slot evicted from the LRU (or invalidated by an overwrite) whose reader
    must close once the last lease drains — closing under an active fetch
    would yank the mmap out from under it.
    """

    __slots__ = ("entry", "reader", "refs", "retired")

    def __init__(self, entry, reader) -> None:
        self.entry = entry
        self.reader = reader
        self.refs = 0
        self.retired = False


def _request_fields(header: Dict, response: Dict) -> Dict[str, Any]:
    """Structured access-log fields: what was asked plus what it cost."""
    out: Dict[str, Any] = {}
    if header.get("field") is not None:
        out["field"] = header["field"]
        out["step"] = header.get("step", 0)
    accounting = response.get("accounting")
    if isinstance(accounting, dict):
        out.update(accounting)
    return out


class WireDaemon(ThreadedServer):
    """Dispatch-agnostic framed-protocol server: the wire half of a daemon.

    On top of :class:`~repro.serve.service.ThreadedServer` (lifecycle,
    listener, accept loop, per-connection workers) this owns the
    per-request frame/trace/metric/log plumbing — everything
    a :mod:`repro.serve.protocol` server needs except the meaning of a
    request.  Subclasses implement :meth:`_dispatch` (one request header in,
    one ``(response header, payload)`` out; every exception they let escape
    is answered as a typed error response by their own dispatch wrapper) and
    may extend :meth:`_collectors` with registry collectors that live exactly
    as long as the daemon runs.

    Parameters
    ----------
    host / port:
        Bind address; the default binds the loopback interface on an
        OS-assigned free port (read it back from :attr:`address`).
    backlog:
        Listen backlog of the accept socket.
    tracer:
        :class:`repro.obs.Tracer` recording request traces; defaults to the
        process-wide :data:`repro.obs.TRACER`.  When enabled, every request
        gets a ``request`` span (continuing the client's trace id when the
        header carries one) and the request's spans return to the client in
        the response header.
    slow_ms:
        Requests slower than this many milliseconds log a WARNING with the
        request's accounting — visible even at the default verbosity.
    """

    _thread_name = "repro-serve"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        backlog: int = 32,
        tracer=None,
        slow_ms: Optional[float] = None,
    ) -> None:
        super().__init__(host=host, port=port, backlog=backlog)
        self.tracer = TRACER if tracer is None else tracer
        self.slow_ms = None if slow_ms is None else float(slow_ms)
        self._counters.update(
            {"requests": 0, "errors": 0, "request_bytes_received": 0}
        )

    # -- connection loop --------------------------------------------------------
    def _serve_connection(self, conn: socket.socket, index: int) -> None:
        fh = _CountingStream(conn.makefile("rb"))
        try:
            peer = "%s:%s" % conn.getpeername()[:2]
        except OSError:
            peer = "?"
        log.debug("connection open", extra=access_extra(peer=peer))
        try:
            while not self._stop.is_set():
                before = fh.bytes_read
                try:
                    frame = read_frame(fh, max_payload=MAX_REQUEST_PAYLOAD)
                except (OSError, ValueError):
                    break  # connection torn down (e.g. by stop()) mid-read
                except ProtocolError as exc:
                    # Framing errors (bad magic, version mismatch, truncation)
                    # get one clean error response — a broken client is never
                    # left hanging — and then the connection closes: after a
                    # framing failure the stream position is untrustworthy.
                    with self._lock:
                        self._counters["errors"] += 1
                    log.warning(
                        "protocol error: %s", exc, extra=access_extra(peer=peer)
                    )
                    self._send(conn, error_header(exc))
                    break
                if frame is None:
                    break  # client hung up cleanly
                with self._lock:
                    self._counters["request_bytes_received"] += fh.bytes_read - before
                header, _payload = frame
                if not self._handle_request(conn, header, peer):
                    break
        finally:
            try:
                fh.close()
            except OSError:
                pass
            log.debug("connection closed", extra=access_extra(peer=peer))

    def _handle_request(self, conn: socket.socket, header: Dict, peer: str) -> bool:
        """Dispatch one request, send its response, record telemetry.

        Returns whether the connection is still usable (the send succeeded).
        """
        op = str(header.get("op"))
        start = time.perf_counter()
        tracer = self.tracer
        # The sink collects every span this request completes (the read
        # path's fetch/decode/paste children plus the request span itself);
        # it rides back in the response header so the client can graft the
        # daemon's side of the trace into its own ring.
        sink: Optional[list] = [] if tracer.enabled else None
        trace_id = parent_id = None
        wire_trace = header.get("trace")
        if tracer.enabled and isinstance(wire_trace, dict):
            trace_id = wire_trace.get("id")
            parent_id = wire_trace.get("parent")
        root = tracer.trace(
            "request", trace_id=trace_id, parent_id=parent_id, sink=sink, op=op
        )
        with root:
            response, payload = self._dispatch(header)
        if sink:
            # A relaying dispatch (the shard router) may already carry the
            # backend's spans in the response; ours append, the client grafts
            # both sides into one tree (span ids dedupe).
            response["spans"] = list(response.get("spans", ())) + sink
        send_wall = time.time()
        send_start = time.perf_counter()
        ok = self._send(conn, response, payload)
        done = time.perf_counter()
        root_trace = getattr(root, "trace_id", None)
        if root_trace is not None:
            # The send span outlives the response it travels in, so it is
            # recorded server-side only (readable via the "trace" op).
            tracer.add_span(
                "send", root_trace, parent_id=root.span_id, start=send_wall,
                duration=done - send_start, bytes=len(payload), ok=ok,
            )
        elapsed = done - start
        _REQUEST_SECONDS.labels(op=op).observe(elapsed)
        ms = elapsed * 1e3
        status = response.get("status", "error")
        if self.slow_ms is not None and ms >= self.slow_ms:
            log.warning(
                "slow request",
                extra=access_extra(
                    op=op, status=status, ms=round(ms, 3), peer=peer,
                    **_request_fields(header, response),
                ),
            )
        if log.isEnabledFor(logging.INFO):
            fields = _request_fields(header, response)
            if root_trace is not None:
                fields["trace"] = root_trace
            log.info(
                "request",
                extra=access_extra(
                    op=op, status=status, ms=round(ms, 3), peer=peer, **fields
                ),
            )
        return ok

    def _send(self, conn: socket.socket, header: Dict, payload: bytes = b"") -> bool:
        try:
            # Scatter-gather: the payload is the result array's own buffer
            # and goes out via sendmsg — no multi-MB frame concatenation.
            send_frame(conn, header, payload)
            return True
        except OSError:
            return False

    # -- request handling ------------------------------------------------------
    def _dispatch(self, header: Dict) -> Tuple[Dict, bytes]:
        """One request in, one ``(response header, payload)`` out.

        Implementations must answer *every* failure as an error response
        (:func:`~repro.serve.protocol.error_header`) rather than raising —
        a request must never kill its connection worker.
        """
        raise NotImplementedError

    def _op_trace(self, header: Dict) -> Dict:
        """Recent request traces from the daemon's ring (newest last).

        ``{"id": ...}`` selects one trace; ``{"limit": N}`` bounds the count.
        Server-side-only spans (``send``) are visible here and nowhere else.
        """
        trace_id = header.get("id")
        if trace_id is not None:
            spans = self.tracer.trace_spans(str(trace_id))
            return {"status": "ok", "traces": {str(trace_id): spans}}
        limit = header.get("limit")
        return {
            "status": "ok",
            "traces": self.tracer.traces(None if limit is None else int(limit)),
        }

    # -- introspection ---------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Daemon-wide counters as plain data (subclasses add their layers)."""
        with self._lock:
            return dict(self._counters)


class ReadDaemon(WireDaemon):
    """Read daemon over one store and one block cache.

    Parameters
    ----------
    store:
        A :class:`repro.store.Store` instance or a store root directory.
    host / port / backlog / tracer / slow_ms:
        See :class:`WireDaemon`.
    cache:
        Decoded-block LRU shared by every request; defaults to the store's
        own :attr:`~repro.store.Store.block_cache`, so in-process views and
        remote clients share one pool.
    refresh_ttl:
        Debounce for the per-request :meth:`Store.refresh` manifest stat, in
        seconds.  ``0`` (default) stats on every request — always-fresh, the
        historical behaviour; a small positive value (``repro serve``
        defaults to 50 ms) removes the stat syscall from hot query streams
        while keeping cross-process appends visible within the TTL.
    max_readers:
        Bound on the per-entry container reader LRU.  An evicted reader
        closes (releasing its mmap/fd) only after its in-flight fetches
        drain; its fetch counters fold into a retired accumulator so the
        aggregate reader metrics stay monotone.
    """

    def __init__(
        self,
        store,
        host: str = "127.0.0.1",
        port: int = 0,
        cache=None,
        backlog: int = 32,
        refresh_ttl: float = 0.0,
        max_readers: int = DEFAULT_MAX_READERS,
        tracer=None,
        slow_ms: Optional[float] = None,
    ) -> None:
        from repro.store import Store

        super().__init__(
            host=host, port=port, backlog=backlog, tracer=tracer, slow_ms=slow_ms
        )
        self.store = store if isinstance(store, Store) else Store(store)
        self.cache = self.store.block_cache if cache is None else cache
        self.refresh_ttl = float(refresh_ttl)
        self.max_readers = max(1, int(max_readers))
        self._last_refresh = float("-inf")  # repro: guarded-by(_lock)
        self._readers: "OrderedDict[str, _ReaderSlot]" = OrderedDict()  # repro: guarded-by(_lock)
        self._retired_reader_stats: Dict[str, int] = {}  # repro: guarded-by(_lock)
        self._counters.update(
            {
                "reads": 0,
                "blocks_touched": 0,
                "blocks_decoded": 0,
                "result_bytes_sent": 0,
            }
        )

    def _collectors(self) -> List[Callable]:
        return [
            self._collect_families,
            cache_collector(self.cache, {"cache": "serve"}),
        ]

    def _close(self, timeout: float) -> None:
        super()._close(timeout)
        with self._lock:
            slots = list(self._readers.values())
            self._readers.clear()
        for slot in slots:
            # Workers are joined: no leases remain, close unconditionally.
            self._close_slot(slot)

    def __repr__(self) -> str:
        bound = f"at {self._host}:{self._port}" if self._running else "(not started)"
        return f"ReadDaemon({self.store.root} {bound}, {len(self.store)} entries)"

    # -- request handling ------------------------------------------------------
    def _dispatch(self, header: Dict) -> Tuple[Dict, bytes]:
        op = header.get("op")
        with self._lock:
            self._counters["requests"] += 1
        try:
            # One stat per request keeps the catalog live against writers in
            # other processes (append-as-you-simulate); entry rows replaced
            # by an overwrite then invalidate their cached readers below.
            # With a positive refresh_ttl the stat is debounced: hot query
            # streams skip it until the TTL lapses.
            now = time.monotonic()
            with self._lock:
                due = now - self._last_refresh >= self.refresh_ttl
                if due:
                    self._last_refresh = now
            if due:
                self.store.refresh()
            if op == "describe":
                return self._op_describe(header), b""
            if op == "catalog":
                return self._op_catalog(), b""
            if op == "stats":
                # The stats op is the scrape surface: daemon counters for
                # compatibility plus the full registry snapshot (instruments
                # and collectors) that `repro stats --prom` renders.
                return {
                    "status": "ok",
                    **self.stats(),
                    "metrics": REGISTRY.snapshot(),
                }, b""
            if op == "health":
                # A liveness answer from local state only: reaching this
                # branch at all proves the daemon accepts and dispatches.
                with self._lock:
                    n_requests = self._counters["requests"]
                return {
                    "status": "ok",
                    "ok": True,
                    "kind": "daemon",
                    "root": str(self.store.root),
                    "requests": n_requests,
                }, b""
            if op == "trace":
                return self._op_trace(header), b""
            if op == "read":
                return self._op_read(header)
            raise ValueError(
                f"unknown operation {op!r}; the daemon serves describe, catalog, "
                "read, stats, health and trace"
            )
        except Exception as exc:  # noqa: BLE001 - every failure becomes a response
            with self._lock:
                self._counters["errors"] += 1
            return error_header(exc), b""

    @contextmanager
    def _lease(self, field: str, step: int):
        """Borrow the shared per-``(field, step)`` container reader.

        The cached reader is keyed by the catalog *entry*, not just the key:
        an overwrite-append (or ``adopt(..., overwrite=True)``) replaces the
        entry row, so the stale reader — whose parsed index describes the old
        bytes — is retired and the shared cache is cleared (the overwritten
        container reuses its path, which is the cache token).  Construction
        (file I/O, index parse) happens outside the daemon lock so a cold
        open never stalls other connections.

        Readers are held in a bounded LRU (``max_readers``): a lease bumps
        recency and pins the reader, so an eviction racing an in-flight fetch
        only *marks* the slot retired — the close happens here, when the last
        lease releases.
        """
        slot = self._acquire_slot(field, step)
        try:
            yield slot.reader
        finally:
            with self._lock:
                slot.refs -= 1
                drained = slot.retired and slot.refs == 0
            if drained:
                self._close_slot(slot)

    def _acquire_slot(self, field: str, step: int) -> _ReaderSlot:
        entry = self.store.entry(str(field), int(step))
        with self._lock:
            slot = self._readers.get(entry.key)
            if slot is not None and slot.entry == entry:
                slot.refs += 1
                self._readers.move_to_end(entry.key)
                return slot
        from repro.store.format import ContainerReader

        reader = ContainerReader(self.store.root / entry.path)
        redundant = None
        to_close: list = []
        invalidated = False
        with self._lock:
            current = self._readers.get(entry.key)
            if current is not None and current.entry == entry:
                # Another thread opened it first; ours never served a fetch.
                current.refs += 1
                self._readers.move_to_end(entry.key)
                slot, redundant = current, reader
            else:
                if current is not None:
                    invalidated = True
                    self._retire_locked(current, to_close)
                    del self._readers[entry.key]
                slot = _ReaderSlot(entry, reader)
                slot.refs = 1
                self._readers[entry.key] = slot
                while len(self._readers) > self.max_readers:
                    key, old = next(iter(self._readers.items()))
                    if old is slot:
                        break
                    del self._readers[key]
                    self._retire_locked(old, to_close)
        if redundant is not None:
            redundant.close()
        for old in to_close:
            self._close_slot(old)
        if invalidated:
            self.cache.clear()
        return slot

    def _retire_locked(self, slot: _ReaderSlot, to_close: list) -> None:  # repro: holds(_lock)
        """Mark a slot evicted; schedule the close if no lease pins it."""
        slot.retired = True
        if slot.refs == 0:
            to_close.append(slot)

    def _close_slot(self, slot: _ReaderSlot) -> None:
        """Close a retired reader, folding its counters into the accumulator.

        Folding keeps the aggregate reader metrics monotone across evictions:
        a collector summing live readers only would *decrease* when an evicted
        reader's history left the working set — poison for rate() queries.
        """
        stats = dict(slot.reader.stats)
        with self._lock:
            for key, value in stats.items():
                self._retired_reader_stats[key] = (
                    self._retired_reader_stats.get(key, 0) + int(value)
                )
        slot.reader.close()
        log.debug(
            "reader closed",
            extra=access_extra(entry=slot.entry.key, retired=slot.retired),
        )

    def _op_describe(self, header: Dict) -> Dict:
        if header.get("field") is None:
            return {
                "status": "ok",
                "kind": "store",
                "root": str(self.store.root),
                "n_entries": len(self.store),
                "fields": self.store.fields(),
            }
        with self._lease(header["field"], header.get("step", 0)) as reader:
            return {
                "status": "ok",
                "kind": "container",
                "codec": reader.codec,
                "error_bound": reader.error_bound,
                "metadata": reader.metadata,
                "levels": [
                    {
                        "level": info.level,
                        "level_shape": list(info.level_shape),
                        "unit_size": info.unit_size,
                        "n_blocks": info.n_blocks,
                    }
                    for info in reader.levels
                ],
            }

    def _op_catalog(self) -> Dict:
        from dataclasses import asdict

        return {"status": "ok", "entries": [asdict(e) for e in self.store.entries()]}

    def _op_read(self, header: Dict) -> Tuple[Dict, bytes]:
        from repro.array import CompressedArray, ContainerSource
        from repro.store.query import normalize_bbox

        if ("index" in header) == ("bbox" in header):
            raise ValueError("a read request needs exactly one of 'index' or 'bbox'")
        with self._lease(header["field"], header.get("step", 0)) as reader:
            view = CompressedArray(
                ContainerSource(reader),
                level=int(header.get("level", 0)),
                fill_value=float(header.get("fill_value", 0.0)),
                cache=self.cache,
            )
            # The far end of RemoteArray._read: the selector that was shipped
            # goes to the local view's read hook, which reports what it cost.
            if "index" in header:
                kind, selector = "index", index_from_wire(header["index"])
            else:
                bbox = [(int(lo), int(hi)) for lo, hi in header["bbox"]]
                kind, selector = "bbox", normalize_bbox(bbox, view.shape)
            result, accounting = view._read(kind, selector)
            meta, payload = encode_ndarray(np.asarray(result))
        with self._lock:
            self._counters["reads"] += 1
            self._counters["blocks_touched"] += accounting["blocks_touched"]
            self._counters["blocks_decoded"] += accounting["blocks_decoded"]
            self._counters["result_bytes_sent"] += len(payload)
        return {
            "status": "ok",
            **meta,
            "checksum": payload_checksum(payload),
            "accounting": accounting,
        }, payload

    # -- introspection ---------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Daemon-wide counters plus a cache snapshot, as plain data.

        ``blocks_decoded`` counts decodes performed *for requests* (the
        acceptance number: after warm-up, overlapping reads from any number
        of clients must not move it); ``cache`` is the shared
        :class:`~repro.array.BlockCache`'s own instrumentation.
        """
        with self._lock:
            out: Dict[str, Any] = dict(self._counters)
            out["containers_open"] = len(self._readers)
        out["cache"] = self.cache.stats
        out["entries"] = len(self.store)
        return out

    def _collect_families(self) -> list:
        """Registry collector: daemon counters and gauges as metric families."""
        with self._lock:
            counters = dict(self._counters)
            open_readers = len(self._readers)
            active = len(self._connections)
            reader_stats = dict(self._retired_reader_stats)
            slots = list(self._readers.values())
        for slot in slots:
            for key, value in slot.reader.stats.items():
                reader_stats[key] = reader_stats.get(key, 0) + int(value)
        families = [
            counter_family("repro_daemon_requests_total",
                           "Requests dispatched by the read daemon.",
                           counters["requests"]),
            counter_family("repro_daemon_reads_total",
                           "Successful read operations served.",
                           counters["reads"]),
            counter_family("repro_daemon_errors_total",
                           "Requests answered with an error response.",
                           counters["errors"]),
            counter_family("repro_daemon_connections_total",
                           "Client connections accepted since start.",
                           counters["connections"]),
            counter_family("repro_daemon_blocks_touched_total",
                           "Blocks intersected by read requests.",
                           counters["blocks_touched"]),
            counter_family("repro_daemon_blocks_decoded_total",
                           "Blocks decoded for read requests (cache misses).",
                           counters["blocks_decoded"]),
            counter_family("repro_daemon_result_bytes_total",
                           "Result payload bytes sent to clients.",
                           counters["result_bytes_sent"]),
            counter_family("repro_daemon_request_bytes_total",
                           "Request wire bytes received from clients.",
                           counters["request_bytes_received"]),
            gauge_family("repro_daemon_open_readers",
                         "Container readers currently cached by the daemon LRU.",
                         open_readers),
            gauge_family("repro_daemon_active_connections",
                         "Client connections currently open.",
                         active),
        ]
        # Aggregate container reader accounting: live LRU slots plus the
        # retired accumulator, so evictions never make the totals regress.
        families.extend(reader_stats_family(reader_stats))
        return families
