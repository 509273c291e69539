"""``repro.gateway`` — an HTTP/1.1 front end for daemons and shard routers.

The wire protocol (:mod:`repro.serve.protocol`) is the right transport
between trusted processes on one machine; it is the wrong thing to hand a
dashboard, a notebook on another host, or ``curl``.  This package bridges
that gap with nothing beyond the stdlib:

* :class:`GatewayDaemon` (:mod:`repro.gateway.daemon`) — an asyncio HTTP
  server under the shared :class:`repro.serve.service.Service` lifecycle
  (``with GatewayDaemon(addr) as g:`` starts it; ``g.address`` raises until
  then) that mounts on one wire backend (a
  :class:`~repro.serve.daemon.ReadDaemon` or — fronting a whole cluster —
  a :class:`~repro.shard.RouterDaemon`) through a per-backend
  :class:`~repro.serve.pool.ConnectionPool`, exposing ``/health``,
  ``/catalog``, ``/fields/{field}``, ``/read/{field}/{step}`` and
  ``/stats`` (JSON or ``?format=prom``);
* :class:`HTTPStore` / :class:`HTTPArray` (:mod:`repro.gateway.client`) —
  the socket client's :class:`~repro.serve.client.CatalogClient` and
  :class:`repro.array.LazyArray`, with a GET where it has a wire exchange;
* :mod:`repro.gateway.http` — the bounded, hostile-input-hardened
  HTTP/1.1 request parsing underneath.

Typed errors survive the extra hop: backend error envelopes relay verbatim
(with an ``http_status`` added — bad bbox → 400, unknown entry → 404,
:class:`~repro.shard.ShardError` → 502 with the shard named), so
``store["nope", 0]`` raises the same ``KeyError`` text over HTTP as over a
socket.  The gateway parity fuzz tier holds all three surfaces — local
NumPy, socket, HTTP — bit-for-bit equal, error messages included.

CLI: ``repro gateway ROOT --http HOST:PORT`` (in-process daemon) or
``repro gateway --router ADDR --http HOST:PORT`` (front a running router).
"""

from repro.gateway import http
from repro.gateway.client import HTTPArray, HTTPStore, open_http
from repro.gateway.daemon import MAX_TRACKED_CLIENTS, STATUS_BY_ERROR_TYPE, GatewayDaemon

__all__ = [
    "GatewayDaemon",
    "HTTPStore",
    "HTTPArray",
    "open_http",
    "STATUS_BY_ERROR_TYPE",
    "MAX_TRACKED_CLIENTS",
    "http",
]
