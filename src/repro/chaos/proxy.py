"""The chaos proxy: scripted transport faults between two sockets.

One proxy fronts one upstream address.  Every accepted connection is
assigned a fault by the :class:`ChaosSchedule` — indexed by the order
connections arrive, never by wall time — and then served by a pair of pump
threads relaying bytes in both directions, with the fault applied to the
upstream→client direction (where response frames, the bytes under test,
travel):

``pass``
    Plain relay; the connection behaves like the upstream.
``refuse``
    The accepted connection is closed abortively at once (``SO_LINGER`` 0,
    so the client sees a reset — the closest a bound listener gets to a
    refused dial).
``hang``
    Accepted, then silence: nothing is read, nothing forwarded.  The
    client's socket timeout is the only way out — exactly the pathology
    request deadlines exist for.
``disconnect``
    Relay until a seeded byte budget runs out — inside the first response
    frame — then abort both sides, leaving the client mid-frame.
``corrupt``
    Relay with one byte XOR-flipped at a seeded offset of the response
    stream.  The payload checksum (or JSON header parse) turns this into a
    typed :class:`~repro.serve.protocol.ProtocolError` client-side; the
    router treats it as transport failure and fails over.
``delay``
    A seeded sleep before the response bytes start flowing, then plain
    relay — enough to trip tight deadlines without holding sockets forever.

The proxy is deliberately dumb about the wire protocol: it counts bytes,
not frames, so it also exercises every parser path downstream of a hostile
network.  All socket I/O happens outside the proxy's lock (the lock guards
only counters and the connection registry), so it runs clean under
``REPRO_LOCKCHECK=1``.
"""

from __future__ import annotations

import dataclasses
import logging
import socket
import struct
import threading
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.obs import access_extra
from repro.serve.daemon import parse_address
from repro.serve.service import ThreadedServer
from repro.utils.rng import default_rng

__all__ = ["FAULTS", "ChaosSchedule", "ChaosProxy"]

log = logging.getLogger("repro.chaos.proxy")

#: Fault vocabulary, in the order weights/scripts name them.
FAULTS = ("pass", "refuse", "hang", "disconnect", "corrupt", "delay")

#: Relay chunk size.  Small enough that mid-frame cuts and byte corruption
#: land at precise seeded offsets even for multi-chunk responses.
_CHUNK = 4096

#: Abortive close: linger on, timeout 0 -> RST instead of FIN.
_ABORT = struct.pack("ii", 1, 0)


@dataclasses.dataclass(frozen=True)
class _Plan:
    """One connection's resolved fault: what to do and exactly where."""

    fault: str
    cut_after: int = 0  # disconnect: response bytes relayed before the cut
    corrupt_at: int = 0  # corrupt: response byte offset to flip
    delay: float = 0.0  # delay: seconds before response bytes flow


class ChaosSchedule:
    """Deterministic fault-per-connection assignment.

    Two constructions:

    * ``ChaosSchedule(["pass", "corrupt", ...])`` — a literal script,
      applied to connections in arrival order and repeated cyclically.
    * ``ChaosSchedule.random(seed, weights={...})`` — the fault for
      connection ``n`` is drawn from ``default_rng(f"{seed}:conn:{n}")``
      with the given integer weights, so any connection's fate can be
      recomputed without replaying the run.

    Byte offsets (where to cut, which byte to flip) and delays draw from
    the same per-connection stream, so the *entire* fault is a function of
    ``(seed, n)``.
    """

    def __init__(
        self,
        script: Sequence[str],
        seed: Union[int, str] = "chaos-0",
        max_offset: int = 512,
        delay: float = 0.05,
    ) -> None:
        faults = [str(f) for f in script]
        unknown = sorted(set(faults) - set(FAULTS))
        if unknown:
            raise ValueError(f"unknown chaos faults {unknown}; choose from {FAULTS}")
        if not faults:
            raise ValueError("a chaos script needs at least one fault")
        self.script: Tuple[str, ...] = tuple(faults)
        self.seed = seed
        self.max_offset = max(1, int(max_offset))
        self.delay = float(delay)
        self._weights: Optional[Dict[str, int]] = None

    @classmethod
    def random(
        cls,
        seed: Union[int, str],
        weights: Optional[Mapping[str, int]] = None,
        max_offset: int = 512,
        delay: float = 0.05,
    ) -> "ChaosSchedule":
        """A seeded draw per connection instead of a fixed cycle."""
        weights = dict(weights or {"pass": 4, "corrupt": 1, "disconnect": 1})
        unknown = sorted(set(weights) - set(FAULTS))
        if unknown:
            raise ValueError(f"unknown chaos faults {unknown}; choose from {FAULTS}")
        if not weights or all(w <= 0 for w in weights.values()):
            raise ValueError("chaos weights need at least one positive entry")
        out = cls(list(weights), seed=seed, max_offset=max_offset, delay=delay)
        out._weights = weights
        return out

    def plan(self, n: int) -> _Plan:
        """The fault plan for connection index ``n`` (0-based, arrival order)."""
        rng = default_rng(f"{self.seed}:conn:{int(n)}")
        if self._weights is not None:
            names = sorted(self._weights)
            totals = [max(0, int(self._weights[name])) for name in names]
            pick = int(rng.integers(0, sum(totals)))
            fault = names[-1]
            for name, weight in zip(names, totals):
                if pick < weight:
                    fault = name
                    break
                pick -= weight
        else:
            fault = self.script[int(n) % len(self.script)]
        # Draw the offsets unconditionally so a schedule's fault choice and
        # its offsets never depend on each other across faults.
        cut_after = int(rng.integers(1, self.max_offset))
        corrupt_at = int(rng.integers(0, self.max_offset))
        delay = float(rng.uniform(0.0, self.delay)) if self.delay > 0 else 0.0
        return _Plan(
            fault=fault, cut_after=cut_after, corrupt_at=corrupt_at, delay=delay
        )

    def __repr__(self) -> str:
        if self._weights is not None:
            return f"ChaosSchedule.random({self.seed!r}, weights={self._weights})"
        return f"ChaosSchedule({list(self.script)}, seed={self.seed!r})"


class ChaosProxy(ThreadedServer):
    """Fault-injecting TCP proxy in front of one upstream address.

    A :class:`~repro.serve.service.ThreadedServer`: ``start()`` binds (an
    OS-assigned port by default) and returns the address to point the
    topology at; ``stop()`` tears down the listener, every live connection
    (client and upstream side, abortively) and the pump threads.  Usable as
    a context manager.  ``stats()`` reports connections seen and faults
    applied, so tests can assert the schedule actually fired.
    """

    _thread_name = "repro-chaos"

    def __init__(
        self,
        upstream: Union[str, Tuple[str, int]],
        schedule: Optional[ChaosSchedule] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 30.0,
        backlog: int = 32,
    ) -> None:
        super().__init__(host=host, port=port, backlog=backlog)
        up_host, up_port = parse_address(upstream)
        self.upstream = f"{up_host}:{up_port}"
        self.schedule = schedule or ChaosSchedule(["pass"])
        self.timeout = float(timeout)
        self._faults: Dict[str, int] = {f: 0 for f in FAULTS}  # repro: guarded-by(_lock)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "connections": self._counters["connections"],
                "faults": dict(self._faults),
                "upstream": self.upstream,
            }

    # -- connection handling ----------------------------------------------
    def _drop(self, sock: socket.socket) -> None:
        """Tear a connection down *now*, swallowing the races of a dying socket.

        ``shutdown`` first (the server's own drop): unlike ``close``, it takes
        effect even while another thread is blocked in ``recv`` on the same
        fd (a pump mid-relay), so the peer sees the teardown immediately
        instead of waiting out its timeout.  With linger 0 set, the close
        then drops the fd abortively (RST) without lingering in TIME_WAIT.
        """
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, _ABORT)
        except OSError:
            pass
        super()._drop(sock)

    def _serve_connection(self, client: socket.socket, index: int) -> None:
        plan = self.schedule.plan(index)
        with self._lock:
            self._faults[plan.fault] += 1
        log.info(
            "connection fault",
            extra=access_extra(conn=index, fault=plan.fault),
        )
        upstream: Optional[socket.socket] = None
        try:
            if plan.fault == "refuse":
                self._drop(client)
                return
            if plan.fault == "hang":
                # Hold the socket open, forward nothing; the client's own
                # timeout (or our stop()) ends it.
                self._stop.wait(self.timeout)
                return
            try:
                upstream = socket.create_connection(
                    parse_address(self.upstream), timeout=self.timeout
                )
                # EBADF here: stop() dropped the client while we were dialing.
                client.settimeout(self.timeout)
            except OSError:
                self._drop(client)
                return
            upstream.settimeout(self.timeout)
            with self._lock:
                self._connections.add(upstream)
            # Client -> upstream is always a clean relay (requests are not
            # the bytes under test); upstream -> client carries the fault.
            # Either side *ending* aborts both; idle relays live on until
            # stop() aborts their sockets.
            forward = threading.Thread(
                target=self._pump_then_abort,
                args=(client, upstream, _Plan("pass")),
                name=f"repro-chaos-up-{index}",
                daemon=True,
            )
            with self._lock:
                self._workers.append(forward)
            forward.start()
            if plan.delay > 0:
                self._stop.wait(plan.delay)
            self._pump(upstream, client, plan)
        finally:
            # The server drops ``client`` itself when this returns.
            if upstream is not None:
                self._drop(upstream)
                with self._lock:
                    self._connections.discard(upstream)

    def _pump_then_abort(
        self, src: socket.socket, dst: socket.socket, plan: _Plan
    ) -> None:
        try:
            self._pump(src, dst, plan)
        finally:
            self._drop(src)
            self._drop(dst)

    def _pump(self, src: socket.socket, dst: socket.socket, plan: _Plan) -> None:
        """Relay ``src`` to ``dst`` with the plan's cut/flip applied."""
        relayed = 0
        while not self._stop.is_set():
            try:
                chunk = src.recv(_CHUNK)
            except socket.timeout:
                # Idle is not a fault: pooled clients hold healthy relay
                # connections open between exchanges for minutes.  The recv
                # timeout only paces the stop-flag check above.
                continue
            except OSError:
                break
            if not chunk:
                break
            if plan.fault == "corrupt":
                offset = plan.corrupt_at - relayed
                if 0 <= offset < len(chunk):
                    mutated = bytearray(chunk)
                    mutated[offset] ^= 0xFF
                    chunk = bytes(mutated)
            if plan.fault == "disconnect" and relayed + len(chunk) >= plan.cut_after:
                keep = max(0, plan.cut_after - relayed)
                try:
                    if keep:
                        dst.sendall(chunk[:keep])
                finally:
                    self._drop(dst)
                    self._drop(src)
                break
            try:
                dst.sendall(chunk)
            except OSError:
                break
            relayed += len(chunk)
