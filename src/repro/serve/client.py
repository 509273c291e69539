"""``RemoteStore`` / ``RemoteArray``: the lazy view surface over a socket.

The client *is* :mod:`repro.array` — :class:`RemoteArray` subclasses
:class:`~repro.array.LazyArray` and adds only the wire exchange — so *open
returns a view, indexing triggers I/O* and analysis and vis code written
against a local :class:`~repro.array.CompressedArray` works unchanged
against a daemon::

    remote = repro.connect("127.0.0.1:4815")
    arr = remote["density", 10]          # one describe round trip
    plane = arr[:, :, 16]                # one read round trip
    coarse = arr.level(1)[...]           # sibling view, shared metadata

Indexing is compiled daemon-side: the client ships the raw expression
(:func:`~repro.serve.protocol.index_to_wire`) and re-raises daemon errors
with their original types, so ``IndexError``/``TypeError``/``ValueError``
behave bit-for-bit like the local view — the fuzz suite asserts this.  One
connection is one socket; requests are serialized under a lock, so a client
object may be shared between threads (each request is a single
request/response exchange).
"""

from __future__ import annotations

import dataclasses
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.array.core import LazyArray, describe_geometry
from repro.obs import REGISTRY, TRACER, current_trace
from repro.obs import span as obs_span
from repro.serve.daemon import parse_address
from repro.serve.protocol import (
    ProtocolError,
    decode_ndarray,
    index_to_wire,
    raise_remote_error,
    read_frame,
    send_frame,
    verify_payload,
)
from repro.utils.rng import default_rng

__all__ = [
    "CatalogClient",
    "ConnectSpec",
    "RemoteArray",
    "RemoteStore",
    "ServedArray",
    "connect",
]

_CLIENT_SECONDS = REGISTRY.histogram(
    "repro_client_request_seconds",
    "Client-observed request round-trip latency by operation.",
    labelnames=("op",),
)
_PAYLOAD_BYTES = REGISTRY.counter(
    "repro_client_payload_bytes_total",
    "Frame payload bytes moved by remote clients, by direction.",
    labelnames=("direction",),
)
_PAYLOAD_SENT = _PAYLOAD_BYTES.labels(direction="sent")
_PAYLOAD_RECEIVED = _PAYLOAD_BYTES.labels(direction="received")


@dataclasses.dataclass(frozen=True)
class ConnectSpec:
    """Where and how to reach a daemon: address plus the one retry policy.

    Every surface that dials a daemon — :func:`connect`, the shard router's
    backends, the gateway's :class:`~repro.serve.pool.ConnectionPool` — goes
    through this spec, so retry/backoff semantics are declared once instead
    of being re-plumbed per call site.  The policy is bounded retry on the
    connect failures that waiting genuinely fixes: ``ConnectionRefusedError``
    (nothing bound yet — a daemon still launching) and
    ``ConnectionResetError``/``BrokenPipeError`` (a listener dropping us
    mid-handshake while it restarts).  Connecting is idempotent, so retrying
    these is always safe; every other connect failure (unreachable host,
    timeout) raises at once.

    Backoff uses *full jitter*: each attempt sleeps a uniform draw from
    ``[0, min(backoff · 2^attempt, 1.0)]``, so N pooled clients whose shard
    restarted don't re-dial in lockstep.  ``rng`` injects the jitter source
    (anything :func:`repro.utils.rng.default_rng` accepts — a seed makes the
    schedule deterministic in tests); it is excluded from equality/hashing
    so specs still compare by policy.
    """

    address: str
    timeout: float = 30.0
    retries: int = 0
    backoff: float = 0.05
    rng: Any = dataclasses.field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        host, port = parse_address(self.address)
        object.__setattr__(self, "address", f"{host}:{port}")

    def _jitter_rng(self):
        # An uninjected spec draws from OS entropy — default_rng(None) would
        # hand every process the package-wide *fixed* seed, putting all
        # clients back in the lockstep jitter exists to break.
        return np.random.default_rng() if self.rng is None else default_rng(self.rng)

    def backoff_delay(self, attempt: int, rng=None) -> float:
        """The full-jitter sleep before retry ``attempt`` (0-based)."""
        ceiling = min(float(self.backoff) * (2 ** attempt), 1.0)
        rng = self._jitter_rng() if rng is None else rng
        return float(rng.uniform(0.0, ceiling))

    def open_socket(self) -> socket.socket:
        """Dial the address under this spec's retry policy."""
        host, port = parse_address(self.address)
        rng = self._jitter_rng()
        attempt = 0
        while True:
            try:
                return socket.create_connection((host, port), timeout=self.timeout)
            except (ConnectionRefusedError, ConnectionResetError, BrokenPipeError):
                if attempt >= int(self.retries):
                    raise
                time.sleep(self.backoff_delay(attempt, rng=rng))
                attempt += 1

    def connect(self, tracer=None) -> "RemoteStore":
        """A fresh :class:`RemoteStore` over one socket dialed by this spec."""
        return RemoteStore(self, tracer=tracer)


def connect(
    addr: Union[str, Tuple[str, int]],
    timeout: float = 30.0,
    retries: int = 0,
    backoff: float = 0.05,
) -> "RemoteStore":
    """Connect to a :class:`~repro.serve.daemon.ReadDaemon` at ``host:port``.

    ``retries``/``backoff`` configure the :class:`ConnectSpec` retry policy
    (refused/reset connections only).  Off by default; the shard router and the
    HTTP gateway turn it on for their backend connections so startup never
    races a shard daemon's bind.
    """
    return RemoteStore(addr, timeout=timeout, retries=retries, backoff=backoff)


class CatalogClient:
    """The read-side catalog of a served store, over any transport.

    The read-side subset of :class:`repro.store.Store`: ``entries()`` /
    ``fields()`` / ``steps()`` mirror the catalog queries, ``array()`` and
    ``client[field, step]`` return lazy views, ``stats()`` / ``health()``
    expose the server's own documents.  A subclass supplies the transport as
    one hook, :meth:`_call`, names its :class:`ServedArray` class in
    ``_array_type`` and owns its connection (``address``, ``close()``); it is
    usable as a context manager.
    """

    _array_type: type

    def _call(self, op: str, **params: Any) -> Dict[str, Any]:
        """One ``catalog`` / ``describe`` / ``stats`` / ``health`` exchange;
        returns the reply document, raises the server's typed errors."""
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- catalog queries -------------------------------------------------------
    def describe(self, field: Optional[str] = None, step: int = 0) -> Dict[str, Any]:
        """Store summary, or one container's header + level geometry."""
        if field is None:
            return self._call("describe")
        return self._call("describe", field=str(field), step=int(step))

    def entries(self) -> List[Dict[str, Any]]:
        """All catalog rows as plain dicts (the manifest schema)."""
        return list(self._call("catalog")["entries"])

    def fields(self) -> List[str]:
        return sorted({e["field"] for e in self.entries()})

    def steps(self, field: str) -> List[int]:
        return sorted(e["step"] for e in self.entries() if e["field"] == str(field))

    def __len__(self) -> int:
        return len(self.entries())

    def stats(self) -> Dict[str, Any]:
        """Server-wide counters + shared-cache snapshot.

        The ``"metrics"`` key holds the serving process's full registry
        snapshot — feed it to :func:`repro.obs.render_prometheus` for text
        exposition (that is all ``repro stats ADDR --prom`` does).
        """
        return self._call("stats")

    def health(self) -> Dict[str, Any]:
        """The server's health verdict.

        Against a single daemon: a cheap liveness echo.  Against a shard
        router: breaker-derived cluster health — ``ok``, per-shard breaker
        ``shards`` states, ``degraded`` shard names and the ``unreachable``
        replica sets (entries placed there have no live replica).
        """
        return self._call("health")

    # -- views -----------------------------------------------------------------
    def array(self, field: str, step: int, level: int = 0, fill_value: float = 0.0):
        """Lazy view of one snapshot (one describe round trip)."""
        described = self.describe(field, step)
        return self._array_type(
            self, str(field), int(step), described, level=level, fill_value=fill_value
        )

    def __getitem__(self, key: Tuple[str, int]):
        field, step = key
        return self.array(field, step)


class ServedArray(LazyArray):
    """A :class:`~repro.array.LazyArray` opened through a
    :class:`CatalogClient`: all geometry is known from the opening
    ``describe``, so only indexing and ``read_roi`` move payload bytes.

    Results are **read-only zero-copy views** over the response buffer (one
    allocation per response, no ``frombuffer(...).copy()``); call ``.copy()``
    (or ``np.array(result)``) for a private writable array before mutating.
    """

    def __init__(
        self,
        store: CatalogClient,
        field: str,
        step: int,
        described: Dict[str, Any],
        level: Optional[int] = None,
        fill_value: float = 0.0,
    ) -> None:
        self._store = store
        self.field = field
        self.step = step
        self._origin = f"{field}/{step} via {store.address}, "
        super().__init__(describe_geometry(described), level, fill_value)


class RemoteArray(ServedArray):
    """The :class:`ServedArray` whose reads are one wire exchange with a
    daemon (or a shard router)."""

    def _read(self, kind: str, selector) -> Tuple[np.ndarray, Dict[str, int]]:
        # Indexing is compiled daemon-side; index_to_wire runs out here so
        # unsupported kinds raise their TypeError without a round trip.
        wire = index_to_wire(selector) if kind == "index" else [list(p) for p in selector]
        # Root span of the whole remote read: with the tracer enabled, its
        # trace id rides the request header and the daemon's fetch/decode/
        # paste spans come back under it — one trace, both sides of the wire.
        with self._store.tracer.trace(
            "remote_read", field=self.field, step=self.step, level=self._level
        ):
            resp, payload = self._store.request(
                {
                    "op": "read",
                    "field": self.field,
                    "step": self.step,
                    "level": self._level,
                    "fill_value": self.fill_value,
                    kind: wire,
                }
            )
        return decode_ndarray(resp, payload), resp.get("accounting", {})


class RemoteStore(CatalogClient):
    """:class:`CatalogClient` over one daemon connection.

    ``store[field, step]`` is a :class:`RemoteArray`; :meth:`exchange` /
    :meth:`request` are the raw framed transport (the shard router relays on
    them) and :meth:`traces` reads the daemon's trace ring.  :meth:`close`
    hangs up politely.
    """

    _array_type = RemoteArray

    def __init__(
        self,
        addr: Union[str, Tuple[str, int], ConnectSpec],
        timeout: float = 30.0,
        tracer=None,
        retries: int = 0,
        backoff: float = 0.05,
    ) -> None:
        if isinstance(addr, ConnectSpec):
            spec = addr
        else:
            host, port = parse_address(addr)
            spec = ConnectSpec(
                f"{host}:{port}", timeout=timeout, retries=retries, backoff=backoff
            )
        self.spec = spec
        self.address = spec.address
        self.tracer = TRACER if tracer is None else tracer
        self._sock = spec.open_socket()
        self._fh = self._sock.makefile("rb")
        self._lock = threading.Lock()
        self._closed = False  # repro: guarded-by(_lock)

    # -- transport -------------------------------------------------------------
    def exchange(self, header: Dict[str, Any], payload: bytes = b"") -> Tuple[Dict, bytes]:
        """One framed request/response exchange, returned verbatim.

        The raw transport half of :meth:`request`: sends the frame, reads
        the response, records client metrics — and hands back the response
        header *exactly as the daemon wrote it*, error responses and
        ``spans`` included.  The shard router relays on this surface so a
        shard's typed error reaches the far client byte-for-byte.

        A *transport* failure mid-exchange (send error, recv timeout,
        truncated or garbled response) leaves the stream position unknowable,
        so it poisons the connection: further requests fail fast instead of
        misparsing a late response as their own.  Application errors reported
        by the daemon arrive on a healthy stream and keep the connection
        usable.  Responses are read uncapped — a whole-level read is
        legitimately as large as the level.
        """
        op = str(header.get("op"))
        if "trace" not in header:
            # Propagate the ambient trace (if any) in the request header, so
            # the daemon parents its request span on ours and one remote read
            # stays one trace across the wire.
            wire_trace = current_trace()
            if wire_trace is not None:
                header = {**header, "trace": wire_trace}
        start = time.perf_counter()
        with self._lock:
            if self._closed:
                raise ProtocolError(f"connection to {self.address} is closed")
            try:
                with obs_span("encode", op=op, bytes=len(payload)):
                    send_frame(self._sock, header, payload)
                frame = read_frame(self._fh, max_payload=None)
            except (OSError, ProtocolError):
                self._teardown()
                raise
            if frame is None:
                self._teardown()
                raise ProtocolError(
                    f"daemon at {self.address} closed the connection mid-request"
                )
            try:
                # A checksum mismatch is transport-class corruption: the
                # stream can no longer be trusted, so poison like any other
                # mid-exchange failure.  The shard router exchanges on this
                # same surface, so corruption is caught *before* relay.
                verify_payload(*frame)
            except ProtocolError:
                self._teardown()
                raise
        resp, resp_payload = frame
        _CLIENT_SECONDS.labels(op=op).observe(time.perf_counter() - start)
        _PAYLOAD_SENT.inc(len(payload))
        _PAYLOAD_RECEIVED.inc(len(resp_payload))
        return resp, resp_payload

    def request(self, header: Dict[str, Any], payload: bytes = b"") -> Tuple[Dict, bytes]:
        """One exchange with the client niceties: graft spans, raise errors.

        See :meth:`exchange` for the transport contract.
        """
        resp, resp_payload = self.exchange(header, payload)
        # The daemon returns its request-scoped spans in the response header;
        # graft them into our ring (span-id dedupe makes the in-process
        # shared-tracer case harmless).  Errors carry spans too.
        spans = resp.pop("spans", None)
        if spans:
            self.tracer.graft(spans)
        if resp.get("status") != "ok":
            raise_remote_error(resp)
        return resp, resp_payload

    def _teardown(self) -> None:  # repro: holds(_lock)
        """Mark closed and release the socket (caller holds the lock)."""
        self._closed = True
        try:
            self._fh.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    @property
    def closed(self) -> bool:
        """Whether the connection was closed (by us) or poisoned (by a
        transport failure); a closed store never becomes usable again."""
        return self._closed  # repro: unlocked -- racy-read probe; closing is one-way

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._teardown()

    def _call(self, op: str, **params: Any) -> Dict[str, Any]:
        resp, _ = self.request({"op": op, **params})
        resp.pop("status", None)
        return resp

    def traces(
        self, trace_id: Optional[str] = None, limit: Optional[int] = None
    ) -> Dict[str, List[Dict[str, Any]]]:
        """Recent request traces from the daemon's ring (includes ``send``
        spans, which never travel in response headers)."""
        header: Dict[str, Any] = {"op": "trace"}
        if trace_id is not None:
            header["id"] = str(trace_id)
        if limit is not None:
            header["limit"] = int(limit)
        resp, _ = self.request(header)
        return dict(resp.get("traces", {}))

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"  # repro: unlocked -- repr is a racy snapshot
        return f"RemoteStore({self.address}, {state})"
