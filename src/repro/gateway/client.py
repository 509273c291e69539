"""``HTTPStore`` / ``HTTPArray``: the remote-store surface over plain HTTP.

The gateway's counterpart to :class:`~repro.serve.client.RemoteStore`: the
same :class:`~repro.serve.client.CatalogClient` and
:class:`~repro.serve.client.ServedArray`, the same typed exceptions (error
envelopes re-raise through :func:`~repro.serve.protocol.raise_remote_error`,
exactly like the socket client), but speaking HTTP/1.1 via :mod:`http.client`
— so it needs nothing but a URL, and anything else that speaks HTTP (curl, a
browser, a dashboard) can share the origin::

    store = repro.gateway.open_http("127.0.0.1:8080")
    arr = store["density", 10]      # one GET /fields/density?step=10
    plane = arr[:, :, 16]           # one GET /read/density/10?index=...

Index expressions travel as the JSON wire form
(:func:`~repro.serve.protocol.index_to_wire`), so unsupported index kinds
raise client-side with the same ``TypeError`` the local and socket views
produce, and the fuzz tier can assert gateway ≡ router ≡ NumPy down to error
messages.  Array payloads arrive as ``application/octet-stream`` framed by
``X-Repro-Dtype`` / ``X-Repro-Shape`` response headers — zero JSON overhead
on the hot path.  A reply that is not what the gateway promises (a short
body, a garbled frame header, a proxy's HTML error page) raises
:class:`~repro.serve.protocol.ProtocolError`, never an error that reads as a
caller mistake.
"""

from __future__ import annotations

import json
import threading
from http.client import HTTPConnection, HTTPException
from typing import Any, Dict, Optional, Tuple
from urllib.parse import quote, urlencode

import numpy as np

from repro.array.core import ACCOUNTING_KEYS
from repro.serve.client import CatalogClient, ServedArray
from repro.serve.daemon import parse_address
from repro.serve.protocol import (
    ProtocolError,
    decode_ndarray,
    index_to_wire,
    raise_remote_error,
)

__all__ = ["HTTPStore", "HTTPArray", "open_http"]


def open_http(address: str, timeout: float = 30.0) -> "HTTPStore":
    """Open an :class:`HTTPStore` on a gateway at ``host:port``."""
    return HTTPStore(address, timeout=timeout)


class HTTPArray(ServedArray):
    """The :class:`~repro.serve.client.ServedArray` whose reads are gateway
    GETs: ``GET /read/{field}/{step}`` with the index (or bbox) in the query
    string and the ndarray in the octet-stream body."""

    def _read(self, kind: str, selector) -> Tuple[np.ndarray, Dict[str, int]]:
        # index_to_wire here, client-side, so unsupported kinds raise the
        # exact TypeError the local and socket views raise — no round trip.
        if kind == "index":
            text = json.dumps(index_to_wire(selector))
        else:
            text = ",".join(f"{lo}:{hi}" for lo, hi in selector)
        store = self._store
        status, headers, body = store.fetch(
            f"/read/{self.field}/{self.step}",
            {"level": str(self._level), "fill_value": repr(self.fill_value), kind: text},
        )
        if status != 200:
            # Error bodies are always the JSON envelope, whatever we accepted.
            store._parse_json(status, body)
            raise ProtocolError(
                f"gateway at {store.address} answered {status} to a read "
                "without an error envelope"
            )
        try:
            meta = {
                "dtype": headers["x-repro-dtype"],
                "shape": [int(n) for n in headers["x-repro-shape"].split(",") if n],
            }
            accounting = {
                key: int(headers.get("x-repro-" + key.replace("_", "-"), 0))
                for key in ACCOUNTING_KEYS
            }
            return decode_ndarray(meta, body), accounting
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                f"gateway at {store.address} framed a read reply badly: {exc!r}"
            ) from None


class HTTPStore(CatalogClient):
    """:class:`~repro.serve.client.CatalogClient` over one keep-alive HTTP
    connection to a gateway, exchange-serialized.

    Like :class:`~repro.serve.client.RemoteStore`, a lock pins the
    connection to one request at a time (``http.client`` cannot interleave),
    and a request that dies mid-stream reconnects once before surfacing the
    failure — the gateway end of a keep-alive pair may close an idle
    connection at any time.  ``store[field, step]`` is an :class:`HTTPArray`;
    :meth:`fetch` is the raw GET and :meth:`prometheus` the metrics scrape.
    """

    _array_type = HTTPArray

    #: Where each catalog op lives; ``describe`` is ``/fields/{field}?step=``.
    _ROUTES = {"catalog": "/catalog", "stats": "/stats", "health": "/health"}

    def __init__(self, address: str, timeout: float = 30.0) -> None:
        host, port = parse_address(address)
        self.address = f"{host}:{port}"
        self.timeout = float(timeout)
        self._lock = threading.Lock()
        self._conn: Optional[HTTPConnection] = None  # repro: guarded-by(_lock)
        self._closed = False  # repro: guarded-by(_lock)

    # -- transport -------------------------------------------------------------
    def _request(self, path: str, query: Optional[Dict[str, str]] = None):
        # repro: holds(_lock)
        target = quote(path)
        if query:
            target += "?" + urlencode(query)
        if self._conn is None:
            host, port = parse_address(self.address)
            self._conn = HTTPConnection(host, port, timeout=self.timeout)
        self._conn.request("GET", target, headers={"Accept": "application/octet-stream"})
        resp = self._conn.getresponse()
        return resp, resp.read()

    def fetch(
        self, path: str, query: Optional[Dict[str, str]] = None
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One GET; returns (status, lower-cased headers, body bytes)."""
        with self._lock:
            if self._closed:
                raise ProtocolError(f"HTTPStore({self.address}) is closed")
            try:
                resp, body = self._request(path, query)
            except (OSError, HTTPException):
                # The gateway (or an idle timeout) dropped the keep-alive
                # connection; one fresh dial before giving up.
                if self._conn is not None:
                    self._conn.close()
                    self._conn = None
                resp, body = self._request(path, query)
            headers = {name.lower(): value for name, value in resp.getheaders()}
            return resp.status, headers, body

    def _parse_json(self, status: int, body: bytes) -> Dict[str, Any]:
        """A reply body as its JSON document; error envelopes raise typed
        errors, anything that is not a JSON object is a :class:`ProtocolError`."""
        try:
            payload = json.loads(body.decode("utf-8"))
        except ValueError:
            payload = None
        if not isinstance(payload, dict):
            raise ProtocolError(
                f"gateway at {self.address} answered {status} with a "
                f"non-JSON body of {len(body)} bytes"
            )
        if payload.get("status") == "error":
            raise_remote_error(payload)
        return payload

    def _call(self, op: str, **params: Any) -> Dict[str, Any]:
        if op != "describe":
            path, query = self._ROUTES[op], None
        elif "field" in params:
            path, query = f"/fields/{params['field']}", {"step": str(params["step"])}
        else:
            raise TypeError("the gateway has no store-summary route; pass a field")
        status, _, body = self.fetch(path, query)
        return self._parse_json(status, body)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def close(self) -> None:
        with self._lock:
            self._closed = True
            conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()

    def prometheus(self) -> str:
        """The merged Prometheus exposition (``/stats?format=prom``)."""
        status, _, body = self.fetch("/stats", {"format": "prom"})
        if status != 200:
            raise ProtocolError(
                f"gateway at {self.address} answered {status} to a metrics scrape"
            )
        return body.decode("utf-8")

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"  # repro: unlocked -- repr is a racy snapshot
        return f"HTTPStore(http://{self.address}/, {state})"
