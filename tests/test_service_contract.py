"""The ``Service`` contract, held by every long-running server in-process.

:mod:`repro.serve.service` decides once what a repro server is; this suite
holds the four concrete ones — read daemon, shard router, chaos proxy, HTTP
gateway — to it member by member.  (``tests/test_cli.py`` holds the same four
to the *process* contract: banner, SIGTERM, ``--seconds``.)

The last test is the other thing the CLI and the gateway share: the text
grammar of ``--index`` / ``--bbox`` and ``index=`` / ``bbox=``.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import numpy as np
import pytest

from repro.chaos import ChaosProxy
from repro.gateway import GatewayDaemon
from repro.serve import ReadDaemon, parse_address
from repro.shard import RouterDaemon, ShardMap, ShardSpec


@pytest.fixture(params=["ReadDaemon", "RouterDaemon", "ChaosProxy", "GatewayDaemon"])
def service(request, serve_store, serve_daemon):
    """A fresh, not yet started service of each kind over the shared backend."""
    backend = serve_daemon.address
    made = {
        "ReadDaemon": lambda: ReadDaemon(serve_store),
        "RouterDaemon": lambda: RouterDaemon(ShardMap([ShardSpec("s0", backend)])),
        "ChaosProxy": lambda: ChaosProxy(backend),
        "GatewayDaemon": lambda: GatewayDaemon(backend),
    }[request.param]()
    yield made
    made.stop()


def _accepts_connections(address: str) -> bool:
    try:
        socket.create_connection(parse_address(address), timeout=5).close()
    except OSError:
        return False
    return True


def test_address_raises_unless_running(service):
    with pytest.raises(RuntimeError, match="not started"):
        service.address
    assert service.start() == service.address
    service.stop()
    with pytest.raises(RuntimeError, match="not started"):
        service.address


def test_start_and_stop_are_idempotent(service):
    address = service.start()
    assert service.start() == address
    assert _accepts_connections(address)
    service.stop()
    service.stop()
    assert not _accepts_connections(address)


def test_with_starts_and_stops(service):
    with service as entered:
        assert entered is service
        address = service.address
        assert _accepts_connections(address)
    assert not _accepts_connections(address)


def test_request_stop_from_another_thread_unblocks_serve_forever(service):
    service.start()
    timer = threading.Timer(0.1, service.request_stop)
    timer.start()
    began = time.monotonic()
    service.serve_forever(timeout=30)
    timer.join(5)
    assert time.monotonic() - began < 10
    # request_stop tears nothing down: the service stays bound until stop().
    assert service.address


def test_serve_forever_starts_and_honours_its_timeout(service):
    service.serve_forever(timeout=0.05)
    assert _accepts_connections(service.address)


def test_collectors_are_registered_exactly_while_running(service, monkeypatch):
    from repro.obs.metrics import MetricsRegistry
    from repro.serve import service as service_module

    registry = MetricsRegistry()
    monkeypatch.setattr(service_module, "REGISTRY", registry)
    assert registry.snapshot() == []
    service.start()
    assert bool(registry.snapshot()) == bool(service._collectors())
    service.stop()
    assert registry.snapshot() == []


def test_with_gateway_serves_health_without_an_explicit_start(serve_daemon):
    with GatewayDaemon(serve_daemon.address) as gateway:
        with urllib.request.urlopen(f"http://{gateway.address}/health", timeout=10) as resp:
            assert json.load(resp)["ok"] is True


# -- one selector grammar, two front ends ----------------------------------------
@pytest.fixture(scope="module")
def gateway(serve_daemon):
    with GatewayDaemon(serve_daemon.address) as running:
        yield running


@pytest.mark.parametrize(
    "param,text,message",
    [
        ("index", "10:20,:,::2", None),
        ("index", "-1,...", None),
        ("index", " 3 , 1:9 ,0", None),
        ("index", "1:2:3:4", "bad index axis '1:2:3:4'; at most two ':' allowed"),
        ("index", "a:b", "bad index axis 'a:b'; expected integer slice parts"),
        ("index", "spam", "bad index axis 'spam'; expected int, slice or '...'"),
        ("bbox", "0:8,8:24,0:32", None),
        ("bbox", "0-8,0-8", "bad bbox axis '0-8'; expected lo:hi"),
        ("bbox", "0:8,0:x,0:8", "bad bbox axis '0:x'; expected integer lo:hi"),
    ],
)
def test_cli_and_gateway_share_the_selector_grammar(
    param, text, message, serve_store, gateway, tmp_path
):
    from repro.cli import main

    out = tmp_path / "out.npy"
    verb = {"index": "read", "bbox": "roi"}[param]
    argv = ["store", verb, str(serve_store.root), "density", "0", str(out), f"--{param}={text}"]
    url = f"http://{gateway.address}/read/density/0?{param}={urllib.parse.quote(text)}"
    if message is None:
        assert main(argv) == 0
        with urllib.request.urlopen(url, timeout=10) as resp:
            assert resp.read() == np.load(out).tobytes()
        return
    with pytest.raises(SystemExit) as cli_exit:
        main(argv)
    with pytest.raises(urllib.error.HTTPError) as http_error:
        urllib.request.urlopen(url, timeout=10)
    assert str(cli_exit.value.code) == f"error: {message}"
    assert http_error.value.code == 400
    assert json.load(http_error.value)["message"] == message
