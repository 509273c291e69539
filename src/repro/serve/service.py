"""``Service``: what a long-running repro server is, decided once.

Four processes serve the read path — the read daemon, the shard router, the
HTTP gateway and the chaos proxy — and the CLI, the test fixtures and
``bench/cluster.py`` drive all of them the same way.  That way is the
contract of :class:`Service`:

* :attr:`~Service.address` is the bound ``host:port`` and raises
  ``RuntimeError`` while the service is not running;
* :meth:`~Service.start` and :meth:`~Service.stop` are idempotent, and a
  ``with`` block starts on entry and stops on exit;
* :meth:`~Service.serve_forever` blocks until a timeout or
  :meth:`~Service.request_stop`, which only sets an event and is therefore
  safe to call from a signal handler;
* the registry collectors a service names in :meth:`~Service._collectors`
  are registered for exactly the time it is running.

A concrete service supplies two hooks, ``_open()`` and ``_close(timeout)``.
:class:`ThreadedServer` supplies them for the blocking-socket servers — a
listener, an accept loop, one worker thread per connection, a registry of
live sockets so ``stop()`` can tear every one of them down — and leaves its
subclasses the single hook ``_serve_connection(conn, index)``.  The gateway
runs an asyncio loop instead and subclasses :class:`Service` directly.
"""

from __future__ import annotations

import logging
import socket
import threading
from typing import Callable, Dict, List, Optional

from repro.obs import REGISTRY, access_extra

__all__ = ["Service", "ThreadedServer"]

log = logging.getLogger("repro.serve.service")


class Service:
    """Lifecycle of one long-running server (see the module docstring).

    ``host``/``port`` are the bind address; the default binds the loopback
    interface on an OS-assigned free port, read back from :attr:`address`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._host = str(host)
        self._port = int(port)
        self._running = False
        self._stop = threading.Event()
        self._collector_fns: list = []

    # -- hooks -----------------------------------------------------------------
    def _open(self) -> None:
        """Bind and begin serving; leave the bound pair in ``_host``/``_port``.

        Raising leaves the service not running.
        """
        raise NotImplementedError

    def _close(self, timeout: float) -> None:
        """Release what :meth:`_open` acquired, joining threads for at most
        ``timeout`` seconds each.  Runs on every :meth:`stop`, so it must
        tolerate a service that never opened or is already closed."""
        raise NotImplementedError

    def _collectors(self) -> List[Callable]:
        """Registry collectors to expose while the service runs."""
        return []

    # -- the contract ----------------------------------------------------------
    @property
    def address(self) -> str:
        """``host:port`` the service is bound to, while it is running."""
        if not self._running:
            raise RuntimeError(
                f"{type(self).__name__} is not started; call start() first"
            )
        return f"{self._host}:{self._port}"

    def start(self) -> str:
        """Bind, begin serving and return the bound address."""
        if self._running:
            return self.address
        self._stop.clear()
        self._open()
        self._running = True
        self._collector_fns = [
            REGISTRY.add_collector(fn, owner=self) for fn in self._collectors()
        ]
        log.debug(
            "service started",
            extra=access_extra(service=type(self).__name__, address=self.address),
        )
        return self.address

    def serve_forever(self, timeout: Optional[float] = None) -> None:
        """Start (if needed) and block until :meth:`request_stop` or ``timeout``."""
        self.start()
        self._stop.wait(timeout)

    def request_stop(self) -> None:
        """Unblock :meth:`serve_forever` without tearing anything down.

        Does only an ``Event.set()``, so it is safe from a signal handler;
        the caller then runs the full :meth:`stop` from normal context
        (which is how the CLI verbs exit cleanly on SIGTERM).
        """
        self._stop.set()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop serving and release every resource; a stopped service
        reports nothing to the registry."""
        self._stop.set()
        for collect in self._collector_fns:
            REGISTRY.remove_collector(collect)
        self._collector_fns = []
        self._close(timeout)
        self._running = False

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class ThreadedServer(Service):
    """The blocking-socket half of a server: accept loop plus workers.

    Subclasses implement :meth:`_serve_connection`; every socket they open on
    a connection's behalf may join :attr:`_connections` (under ``_lock``) so
    that :meth:`stop` tears it down too, and extra threads may join
    ``_workers`` so that it joins them.  ``_counters["connections"]`` counts
    accepted connections; subclasses add their own keys to the same dict.
    """

    #: Thread-name prefix (``<prefix>-accept``, ``<prefix>-conn-N``), so the
    #: servers of one process tell apart in ps/py-spy.
    _thread_name = "repro-server"

    def __init__(self, host: str = "127.0.0.1", port: int = 0, backlog: int = 32) -> None:
        super().__init__(host=host, port=port)
        self._backlog = int(backlog)
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._connections: set = set()  # repro: guarded-by(_lock)
        self._workers: List[threading.Thread] = []  # repro: guarded-by(_lock)
        self._counters: Dict[str, int] = {"connections": 0}  # repro: guarded-by(_lock)

    # -- hooks -----------------------------------------------------------------
    def _serve_connection(self, conn: socket.socket, index: int) -> None:
        """Serve accepted connection number ``index`` until it ends.

        Runs on the connection's own worker thread; the server drops
        ``conn`` when this returns or raises.
        """
        raise NotImplementedError

    def _drop(self, sock: socket.socket) -> None:
        """Tear one socket down now — a connection or the listener; never raises.

        ``shutdown`` before ``close``: on Linux, ``close()`` alone does not
        wake a thread blocked in ``accept()`` or ``recv()`` on the same
        socket — the join after it would burn its full timeout on every stop.
        """
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    # -- Service hooks ---------------------------------------------------------
    def _open(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._host, self._port))
            listener.listen(self._backlog)
        except OSError:
            listener.close()
            raise
        self._host, self._port = listener.getsockname()[:2]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            args=(listener,),
            name=f"{self._thread_name}-accept",
            daemon=True,
        )
        self._accept_thread.start()

    def _close(self, timeout: float) -> None:
        if self._listener is not None:
            self._drop(self._listener)
        with self._lock:
            conns = list(self._connections)
        for conn in conns:
            self._drop(conn)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout)
        with self._lock:
            workers = list(self._workers)
        for worker in workers:
            worker.join(timeout)
        self._listener = None
        self._accept_thread = None

    # -- accept / connection loops ---------------------------------------------
    def _accept_loop(self, listener: socket.socket) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                break  # listener closed by stop()
            with self._lock:
                index = self._counters["connections"]
                self._counters["connections"] += 1
                self._connections.add(conn)
                # Workers that already finished are reaped here, so the list
                # stays proportional to the live connection count.
                self._workers = [w for w in self._workers if w.is_alive()]
                worker = threading.Thread(
                    target=self._run_connection,
                    args=(conn, index),
                    name=f"{self._thread_name}-conn-{index}",
                    daemon=True,
                )
                self._workers.append(worker)
            worker.start()

    def _run_connection(self, conn: socket.socket, index: int) -> None:
        try:
            self._serve_connection(conn, index)
        finally:
            self._drop(conn)
            with self._lock:
                self._connections.discard(conn)
