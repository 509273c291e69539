"""``repro.serve`` — a shared-cache read daemon for array queries.

The multi-client step after :mod:`repro.array`: a view query is already plain
data (``field``, ``step``, ``level``, an index expression), so this package
serves it over a local socket from **one** :class:`repro.store.Store` and
one shared :class:`repro.array.BlockCache`, instead of every analysis process
paying full decode cost::

    # server (or: repro serve RUN_DIR --addr 127.0.0.1:4815)
    daemon = ReadDaemon(store)
    addr = daemon.start()

    # any number of clients (or: repro store read ... --remote ADDR)
    remote = repro.connect(addr)
    arr = remote["density", 10]        # lazy: one describe round trip
    plane = arr[:, :, 16]              # daemon decodes only missed blocks

Four pieces:

* :mod:`repro.serve.service` — ``Service``, the lifecycle every long-running
  repro server shares (``address`` / ``start`` / ``stop`` /
  ``serve_forever`` / ``request_stop`` / ``with``, collectors registered
  while running), and ``ThreadedServer``, its blocking-socket form (accept
  loop, one worker per connection); the read daemon, the shard router and
  the chaos proxy are threaded servers, the HTTP gateway is a ``Service``
  around an event loop;
* :mod:`repro.serve.protocol` — versioned, length-prefixed JSON-header +
  raw-ndarray-payload frames for ``describe`` / ``catalog`` / ``read`` /
  ``stats``, with typed error transport;
* :class:`ReadDaemon` (:mod:`repro.serve.daemon`) — framed request
  handling, tracing and dispatch over that lifecycle, shared
  readers and cache, per-request decode accounting;
* :class:`RemoteStore` / :class:`RemoteArray` (:mod:`repro.serve.client`) —
  a :class:`~repro.serve.client.CatalogClient` and a
  :class:`repro.array.LazyArray` that add only the wire exchange, so existing
  analysis and vis code works unchanged against a socket.
"""

from repro.serve.client import ConnectSpec, RemoteArray, RemoteStore, connect
from repro.serve.daemon import ReadDaemon, WireDaemon, parse_address
from repro.serve.pool import ConnectionPool
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    RemoteError,
    VersionMismatch,
)

__all__ = [
    "ReadDaemon",
    "WireDaemon",
    "RemoteStore",
    "RemoteArray",
    "connect",
    "ConnectSpec",
    "ConnectionPool",
    "parse_address",
    "ProtocolError",
    "VersionMismatch",
    "RemoteError",
    "PROTOCOL_VERSION",
]
