"""Golden tests for the HTTP gateway: framing, status mapping, hostility.

Mirrors ``test_serve_protocol.py`` one layer up: pure request-parsing round
trips (no sockets), hostile raw bytes against a live gateway (garbage request
lines, oversized headers, chunked bodies, mid-stream disconnects — everything
must get a clean 4xx/5xx and a closed connection, never a hang), and the
end-to-end ``HTTPStore`` surface checked for exact parity — payload bytes and
error messages both — against the socket client talking to the same daemon.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.gateway import GatewayDaemon, HTTPStore, open_http
from repro.gateway.http import (
    MAX_HEADER_BYTES,
    MAX_REQUEST_LINE_BYTES,
    HttpError,
    Request,
    read_request,
    render_response,
)
from repro.serve import ReadDaemon, RemoteStore
from repro.serve.protocol import ProtocolError, RemoteError


@pytest.fixture(scope="module")
def gateway(serve_daemon):
    """One gateway over the shared session daemon, stopped at module end."""
    daemon = GatewayDaemon(serve_daemon.address, pool_size=2)
    daemon.start()
    yield daemon
    daemon.stop()


@pytest.fixture()
def http_store(gateway):
    with HTTPStore(gateway.address) as store:
        yield store


def raw_exchange(address, blob, read_all=True, timeout=5.0):
    """Send raw bytes, return whatever comes back until the server closes."""
    host, port = address.split(":")
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.sendall(blob)
        chunks = []
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
                if not read_all and chunks:
                    break
        except socket.timeout:
            pytest.fail("gateway hung instead of answering/closing")
        return b"".join(chunks)


def get(address, target, headers=()):
    lines = [f"GET {target} HTTP/1.1", "Host: x"]
    lines += [f"{k}: {v}" for k, v in headers]
    lines += ["Connection: close", "", ""]
    return raw_exchange(address, "\r\n".join(lines).encode())


def parse_response(blob):
    head, _, body = blob.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


def _parse(blob: bytes):
    """Run the asyncio request parser over literal bytes."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(blob)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


class TestRequestParsing:
    def test_minimal_get(self):
        req = _parse(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
        assert (req.method, req.path, req.version) == ("GET", "/health", "HTTP/1.1")
        assert req.keep_alive

    def test_query_and_percent_decoding(self):
        req = _parse(b"GET /read/a%20b/3?bbox=0:4,0:8&level=1 HTTP/1.1\r\n\r\n")
        assert req.path == "/read/a b/3"
        assert req.query == {"bbox": "0:4,0:8", "level": "1"}

    def test_duplicate_query_keys_last_wins(self):
        req = _parse(b"GET /x?level=1&level=2 HTTP/1.1\r\n\r\n")
        assert req.query["level"] == "2"

    def test_clean_eof_is_none(self):
        assert _parse(b"") is None

    def test_http10_defaults_to_close(self):
        req = _parse(b"GET / HTTP/1.0\r\n\r\n")
        assert not req.keep_alive
        req = _parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
        assert req.keep_alive

    def test_connection_close_honoured(self):
        req = _parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not req.keep_alive

    @pytest.mark.parametrize(
        "blob, status",
        [
            (b"NONSENSE\r\n\r\n", 400),
            (b"GET /x HTTP/2.0\r\n\r\n", 505),
            (b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n", 400),
            (b"GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501),
            (b"GET /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello", 413),
            (b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
            (b"GET /x HTTP/1.1\r\nHost: x\r\n", 400),  # EOF inside headers
        ],
    )
    def test_refusals_carry_their_status(self, blob, status):
        with pytest.raises(HttpError) as excinfo:
            _parse(blob)
        assert excinfo.value.status == status
        assert excinfo.value.close

    def test_oversized_request_line_is_414(self):
        blob = b"GET /" + b"a" * MAX_REQUEST_LINE_BYTES + b" HTTP/1.1\r\n\r\n"
        with pytest.raises(HttpError) as excinfo:
            _parse(blob)
        assert excinfo.value.status == 414

    def test_oversized_header_block_is_431(self):
        filler = b"".join(
            b"X-Pad-%d: %s\r\n" % (i, b"v" * 1000) for i in range(40)
        )
        assert len(filler) > MAX_HEADER_BYTES
        with pytest.raises(HttpError) as excinfo:
            _parse(b"GET /x HTTP/1.1\r\n" + filler + b"\r\n")
        assert excinfo.value.status == 431

    def test_too_many_headers_is_431(self):
        filler = b"".join(b"X-%d: 1\r\n" % i for i in range(200))
        with pytest.raises(HttpError) as excinfo:
            _parse(b"GET /x HTTP/1.1\r\n" + filler + b"\r\n")
        assert excinfo.value.status == 431

    def test_render_response_golden_bytes(self):
        blob = render_response(200, b'{"a": 1}\n', keep_alive=False)
        assert blob == (
            b"HTTP/1.1 200 OK\r\n"
            b"Server: repro-gateway\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 9\r\n"
            b"Connection: close\r\n"
            b"\r\n"
            b'{"a": 1}\n'
        )


class TestRoutes:
    def test_health(self, gateway):
        status, headers, body = parse_response(get(gateway.address, "/health"))
        assert status == 200
        assert headers["content-type"] == "application/json"
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["backend"] == gateway.spec.address
        assert payload["ok"] is True

    def test_content_length_is_exact(self, gateway):
        status, headers, body = parse_response(get(gateway.address, "/catalog"))
        assert status == 200
        assert int(headers["content-length"]) == len(body)

    def test_catalog_matches_socket_client(self, gateway, remote_store):
        _, _, body = parse_response(get(gateway.address, "/catalog"))
        assert json.loads(body)["entries"] == remote_store.entries()

    def test_fields_route(self, gateway, remote_store):
        status, _, body = parse_response(get(gateway.address, "/fields/density"))
        payload = json.loads(body)
        assert status == 200
        assert payload["steps"] == remote_store.steps("density")

    def test_read_octet_golden_framing(self, gateway, serve_store):
        """The octet body is exactly ``tobytes()`` of the reference block."""
        reference = np.asarray(serve_store["density", 0])[0:4, 0:5, 0:6]
        status, headers, body = parse_response(
            get(gateway.address, "/read/density/0?bbox=0:4,0:5,0:6")
        )
        assert status == 200
        assert headers["content-type"] == "application/octet-stream"
        assert headers["x-repro-dtype"] == "<f8"
        assert headers["x-repro-shape"] == "4,5,6"
        assert int(headers["content-length"]) == reference.nbytes
        assert body == reference.tobytes()
        assert int(headers["x-repro-blocks-touched"]) >= 1

    def test_read_json_body(self, gateway, serve_store):
        reference = np.asarray(serve_store["density", 0])[0:2, 0:2, 0:2]
        status, headers, body = parse_response(
            get(
                gateway.address,
                "/read/density/0?bbox=0:2,0:2,0:2",
                headers=[("Accept", "application/json")],
            )
        )
        assert status == 200
        assert headers["content-type"] == "application/json"
        payload = json.loads(body)
        assert payload["shape"] == [2, 2, 2]
        assert np.array_equal(np.asarray(payload["data"]), reference)

    def test_stats_has_gateway_section(self, gateway):
        _, _, body = parse_response(get(gateway.address, "/stats"))
        payload = json.loads(body)
        gw = payload["gateway"]
        assert gw["backend"] == gateway.spec.address
        assert gw["requests"] >= 1
        assert "pool" in gw and "clients" in gw

    def test_stats_prom_parses(self, gateway):
        status, headers, body = parse_response(
            get(gateway.address, "/stats?format=prom")
        )
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        text = body.decode()
        families = set()
        for line in text.splitlines():
            assert line == "" or line.startswith("#") or " " in line
            if line.startswith("# TYPE "):
                families.add(line.split()[2])
        assert "repro_gateway_requests_total" in families
        assert "repro_gateway_active_connections" in families
        # Backend families relay through the same scrape, unprefixed ones too.
        assert any(not f.startswith("repro_gateway_") for f in families)


class TestStatusMapping:
    """The typed-error table: each failure class keeps its wire identity."""

    @pytest.mark.parametrize(
        "target, status, error_type",
        [
            ("/read/density/0?bbox=0:4", 400, "ValueError"),  # ndim mismatch
            ("/read/density/0?bbox=0:4,0:4,0:4&index=[1]", 400, "ValueError"),
            ("/read/density/0?bbox=zero:4", 400, "ValueError"),
            ("/read/density/0?index=[1.5]", 400, "ValueError"),
            ("/read/density/0?level=99&bbox=0:4,0:4,0:4", 404, "KeyError"),
            ("/read/density/nope", 400, "ValueError"),
            ("/read/ghost/0?bbox=0:4,0:4,0:4", 404, "KeyError"),
            ("/fields/ghost", 404, "KeyError"),
            ("/no/such/route", 404, "KeyError"),
        ],
    )
    def test_error_envelope(self, gateway, target, status, error_type):
        got_status, _, body = parse_response(get(gateway.address, target))
        payload = json.loads(body)
        assert got_status == status
        assert payload["status"] == "error"
        assert payload["error_type"] == error_type
        assert payload["http_status"] == status
        assert payload["message"]

    def test_error_message_parity_with_socket_client(self, gateway, remote_store):
        """The HTTP envelope carries the daemon's message byte-for-byte."""
        with pytest.raises(ValueError) as socket_err:
            remote_store["density", 0].read_roi([(0, 4)])
        _, _, body = parse_response(
            get(gateway.address, "/read/density/0?bbox=0:4")
        )
        assert json.loads(body)["message"] == str(socket_err.value)

    def test_post_is_405_with_allow(self, gateway):
        blob = raw_exchange(
            gateway.address, b"POST /health HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        status, headers, body = parse_response(blob)
        assert status == 405
        assert headers["allow"] == "GET"
        assert json.loads(body)["error_type"] == "ProtocolError"


class TestHostileInput:
    """Broken clients get a clean answer and a closed connection — never a hang."""

    @pytest.mark.parametrize(
        "blob, status",
        [
            (b"NONSENSE\r\n\r\n", 400),
            (b"GET /health HTTP/9.9\r\n\r\n", 505),
            (b"GET /health HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", 501),
            (b"GET /health HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody", 413),
            (b"GET /" + b"a" * 9000 + b" HTTP/1.1\r\n\r\n", 414),
        ],
    )
    def test_clean_refusal_then_close(self, gateway, blob, status):
        got_status, headers, body = parse_response(raw_exchange(gateway.address, blob))
        assert got_status == status
        assert headers["connection"] == "close"
        assert json.loads(body)["http_status"] == status

    def test_oversized_header_block_431(self, gateway):
        filler = b"".join(
            b"X-Pad-%d: %s\r\n" % (i, b"v" * 1000) for i in range(40)
        )
        blob = b"GET /health HTTP/1.1\r\n" + filler + b"\r\n"
        status, headers, _ = parse_response(raw_exchange(gateway.address, blob))
        assert status == 431
        assert headers["connection"] == "close"

    def test_early_disconnect_leaves_gateway_healthy(self, gateway):
        """Hanging up mid-request must not wedge the accept loop."""
        host, port = gateway.address.split(":")
        for _ in range(3):
            sock = socket.create_connection((host, int(port)), timeout=5)
            sock.sendall(b"GET /catalog HTTP/1.1\r\nHos")  # cut mid-header
            sock.close()
        # And a disconnect right after the head, before reading the response.
        sock = socket.create_connection((host, int(port)), timeout=5)
        sock.sendall(b"GET /read/density/0?bbox=0:8,0:8,0:8 HTTP/1.1\r\n\r\n")
        sock.close()
        time.sleep(0.05)
        status, _, _ = parse_response(get(gateway.address, "/health"))
        assert status == 200

    def test_keep_alive_serves_many_requests_on_one_socket(self, gateway):
        host, port = gateway.address.split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            fh = sock.makefile("rb")
            for _ in range(3):
                sock.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
                line = fh.readline()
                assert line == b"HTTP/1.1 200 OK\r\n"
                length = None
                while True:
                    header = fh.readline()
                    if header in (b"\r\n", b""):
                        break
                    if header.lower().startswith(b"content-length:"):
                        length = int(header.split(b":")[1])
                assert length is not None
                body = fh.read(length)
                assert json.loads(body)["status"] == "ok"

    def test_http10_connection_closes_after_response(self, gateway):
        blob = raw_exchange(gateway.address, b"GET /health HTTP/1.0\r\n\r\n")
        status, headers, _ = parse_response(blob)
        assert status == 200
        assert headers["connection"] == "close"
        # raw_exchange read to EOF: the server really did close.


class TestGates:
    def test_max_connections_503(self, serve_daemon):
        daemon = GatewayDaemon(serve_daemon.address, max_connections=1, pool_size=1)
        daemon.start()
        try:
            host, port = daemon.address.split(":")
            with socket.create_connection((host, int(port)), timeout=5):
                # The first connection holds its slot (no request yet);
                # the second must be turned away immediately.
                time.sleep(0.05)
                blob = raw_exchange(
                    daemon.address, b"GET /health HTTP/1.1\r\n\r\n"
                )
                status, headers, body = parse_response(blob)
                assert status == 503
                assert headers["retry-after"] == "1"
                assert json.loads(body)["error_type"] == "ProtocolError"
            assert daemon.stats()["rejected_connections"] == 1
        finally:
            daemon.stop()

    def test_request_timeout_504(self, serve_store):
        class Molasses(ReadDaemon):
            def _dispatch(self, header):
                if header.get("op") == "catalog":
                    time.sleep(1.0)
                return super()._dispatch(header)

        backend = Molasses(serve_store)
        backend.start()
        daemon = GatewayDaemon(backend.address, request_timeout=0.1)
        daemon.start()
        try:
            status, headers, body = parse_response(get(daemon.address, "/catalog"))
            assert status == 504
            payload = json.loads(body)
            assert payload["error_type"] == "TimeoutError"
            assert headers["connection"] == "close"
        finally:
            daemon.stop()
            backend.stop()

    def test_backend_gone_maps_to_502(self, serve_store):
        backend = ReadDaemon(serve_store)
        backend.start()
        daemon = GatewayDaemon(backend.address)
        daemon.start()
        backend.stop()
        try:
            status, _, body = parse_response(get(daemon.address, "/catalog"))
            payload = json.loads(body)
            assert status in (502, 503)
            assert payload["status"] == "error"
        finally:
            daemon.stop()

    def test_start_fails_loudly_when_backend_absent(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        daemon = GatewayDaemon(f"127.0.0.1:{port}")
        with pytest.raises(ConnectionRefusedError):
            daemon.start()


class TestHTTPStoreSurface:
    def test_store_catalog_surface(self, http_store, remote_store):
        assert http_store.fields() == remote_store.fields()
        assert http_store.steps("density") == remote_store.steps("density")
        assert len(http_store) == len(remote_store)
        assert http_store.entries() == remote_store.entries()

    def test_array_parity_bitwise(self, http_store, remote_store):
        via_http = http_store["density", 0]
        via_socket = remote_store["density", 0]
        assert via_http.shape == via_socket.shape
        assert via_http.dtype == via_socket.dtype
        assert via_http.levels == via_socket.levels
        for index in [np.s_[...], np.s_[0:4, 1:7, ::2], np.s_[3, :, 5]]:
            a = np.asarray(via_http[index])
            b = np.asarray(via_socket[index])
            assert a.tobytes() == b.tobytes()

    def test_scalar_selection_unwraps(self, http_store, remote_store):
        got = http_store["density", 0][1, 2, 3]
        want = remote_store["density", 0][1, 2, 3]
        assert np.isscalar(got) or got.shape == ()
        assert got == want

    def test_read_roi_parity(self, http_store, remote_store):
        bbox = [(0, 5), (2, 8), (1, 4)]
        a = http_store["density", 0].read_roi(bbox)
        b = remote_store["density", 0].read_roi(bbox)
        assert np.array_equal(a, b)

    def test_level_views(self, http_store, remote_store):
        http_arr = http_store["amr", 0]
        sock_arr = remote_store["amr", 0]
        for level in http_arr.levels:
            assert np.array_equal(
                np.asarray(http_arr.level(level)), np.asarray(sock_arr.level(level))
            )

    def test_error_type_and_message_parity(self, http_store, remote_store):
        with pytest.raises(KeyError) as via_socket:
            remote_store.array("ghost", 0)
        with pytest.raises(KeyError) as via_http:
            http_store.array("ghost", 0)
        assert str(via_http.value) == str(via_socket.value)

        with pytest.raises(TypeError) as type_err:
            http_store["density", 0][1.5]
        with pytest.raises(TypeError) as socket_type_err:
            remote_store["density", 0][1.5]
        assert str(type_err.value) == str(socket_type_err.value)

    def test_accounting_accumulates(self, http_store):
        arr = http_store["density", 0]
        arr[0:4, 0:4, 0:4]
        assert arr.stats["requests"] == 1
        assert arr.stats["blocks_touched"] >= 1

    def test_reconnects_after_idle_close(self, serve_daemon):
        daemon = GatewayDaemon(serve_daemon.address, idle_timeout=0.1)
        daemon.start()
        try:
            with HTTPStore(daemon.address) as store:
                assert store.fields()
                time.sleep(0.3)  # gateway reaps the idle keep-alive socket
                assert store.fields()  # transparent reconnect
        finally:
            daemon.stop()

    def test_closed_store_refuses(self, gateway):
        store = open_http(gateway.address)
        store.close()
        with pytest.raises(ProtocolError, match="closed"):
            store.fields()

    def test_prometheus_text(self, http_store):
        text = http_store.prometheus()
        assert "repro_gateway_requests_total" in text


# -- malformed replies ---------------------------------------------------------
# A live gateway never frames a reply badly, so these run against a stub: a
# stdlib ``http.server`` that answers the describe route honestly and the read
# route with whatever (status, headers, body) the test asks for.


@pytest.fixture()
def stub_gateway():
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    describe = {
        "status": "ok",
        "levels": [{"level": 0, "level_shape": [4, 4], "unit_size": 4, "n_blocks": 1}],
    }
    reply = {}

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_GET(self):
            if self.path.startswith("/fields/"):
                status, headers, body = 200, {}, json.dumps(describe).encode()
            else:
                status, headers, body = reply["status"], reply["headers"], reply["body"]
            self.send_response(status)
            for name, value in {**headers, "Content-Length": str(len(body))}.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    address = "127.0.0.1:%d" % server.server_address[1]

    def read_with(status, headers, body):
        reply.update(status=status, headers=headers, body=body)
        with HTTPStore(address) as store:
            return store["f", 0][...]

    yield read_with
    server.shutdown()
    server.server_close()
    thread.join()


class TestMalformedReplies:
    FRAME = {"X-Repro-Dtype": "<f8", "X-Repro-Shape": "4,4"}

    def test_well_formed_stub_reply_decodes(self, stub_gateway):
        data = np.arange(16.0).reshape(4, 4)
        out = stub_gateway(200, self.FRAME, data.tobytes())
        assert np.array_equal(out, data) and not out.flags.writeable

    def test_short_body_is_a_protocol_error(self, stub_gateway):
        # Was: "ValueError: cannot reshape array of size 8 into shape (4,4)",
        # indistinguishable from a bad-bbox 400.
        with pytest.raises(ProtocolError, match="payload is 64 bytes .* require 128"):
            stub_gateway(200, self.FRAME, np.zeros(8).tobytes())

    def test_non_json_error_body_is_a_protocol_error(self, stub_gateway):
        # A proxy's HTML 502, not the gateway's JSON envelope.  Was: JSONDecodeError.
        with pytest.raises(ProtocolError, match="answered 502 with a non-JSON body"):
            stub_gateway(502, {"Content-Type": "text/html"}, b"<html>Bad Gateway</html>")

    def test_error_status_without_an_envelope_is_a_protocol_error(self, stub_gateway):
        with pytest.raises(ProtocolError, match="answered 500 .* without an error envelope"):
            stub_gateway(500, {}, b'{"detail": "oops"}')

    @pytest.mark.parametrize(
        "headers",
        [
            {"X-Repro-Dtype": "<f8"},  # shape header missing
            {"X-Repro-Dtype": "<f8", "X-Repro-Shape": "4,four"},
            {"X-Repro-Dtype": "not-a-dtype", "X-Repro-Shape": "4,4"},
            {"X-Repro-Shape": "4,4"},  # dtype header missing
        ],
        ids=["no-shape", "garbled-shape", "garbled-dtype", "no-dtype"],
    )
    def test_missing_or_garbled_frame_headers_are_protocol_errors(
        self, stub_gateway, headers
    ):
        with pytest.raises(ProtocolError, match="framed a read reply badly"):
            stub_gateway(200, headers, np.zeros(16).tobytes())
