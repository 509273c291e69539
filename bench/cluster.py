"""The served stack as subprocesses: 2 shard daemons -> router -> HTTP gateway.

Every server is launched through the CLI a deployment would use
(``python -m repro.cli serve | shard serve | gateway --router``) on port 0;
the bound address is parsed from the startup banner.  ``--seconds`` gives each
server a hard lifetime cap, so even a generator killed with SIGKILL leaves no
process behind for long; the normal path is :meth:`Cluster.close`, which
terminates and waits for every child.
"""

from __future__ import annotations

import re
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

from harness import python_env

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0
_BANNER_ADDR = re.compile(r" at (?:http://)?(\d+\.\d+\.\d+\.\d+:\d+)")


class ClusterError(RuntimeError):
    pass


class _Server:
    def __init__(self, label: str, args: Sequence[str], log_path: Path) -> None:
        self.label = label
        self.log_path = log_path
        self._log = log_path.open("w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args],
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            env=python_env(),
        )
        self.address = ""

    def wait_ready(self) -> str:
        """Bounded wait for the startup banner; returns the bound ``host:port``."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.25)
            if ready:
                line = self.proc.stdout.readline()
                match = _BANNER_ADDR.search(line)
                if match:
                    self.address = match.group(1)
                    return self.address
                if not line:
                    break
        raise ClusterError(f"{self.label} did not come up: {self.log_tail()}")

    def log_tail(self, lines: int = 12) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError as exc:
            return f"(no log: {exc})"
        return " | ".join(text.splitlines()[-lines:]) or "(empty log)"

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Cluster:
    """Two shard daemons, a router and a gateway over already-split shard stores."""

    def __init__(
        self,
        shard_dirs: Dict[str, Path],
        workdir: Path,
        trace: bool = False,
        lifetime_s: float = 170.0,
    ) -> None:
        self.shard_dirs = dict(shard_dirs)
        self.workdir = Path(workdir)
        self.trace = bool(trace)
        self.lifetime_s = float(lifetime_s)
        self._servers: List[_Server] = []
        self.shards: Dict[str, str] = {}
        self.router = ""
        self.gateway = ""

    def _spawn(self, label: str, args: List[str]) -> _Server:
        args = [*args, "--seconds", f"{self.lifetime_s:g}"]
        if self.trace:
            args.append("--trace")
        server = _Server(label, args, self.workdir / f"{label}.{len(self._servers)}.log")
        self._servers.append(server)
        return server

    def start(self) -> "Cluster":
        from repro.shard import ShardMap, ShardSpec

        try:
            # Default cache flags on purpose: 512 blocks / 64 MiB per daemon.
            daemons = {
                name: self._spawn(f"shard-{name}", ["serve", str(root)])
                for name, root in self.shard_dirs.items()
            }
            self.shards = {name: d.wait_ready() for name, d in daemons.items()}
            topology = self.workdir / "topology.json"
            ShardMap(
                [
                    ShardSpec(name, self.shards[name], store=str(root))
                    for name, root in self.shard_dirs.items()
                ]
            ).save(topology)
            self.router = self._spawn("router", ["shard", "serve", str(topology)]).wait_ready()
            self.gateway = self._spawn("gateway", ["gateway", "--router", self.router]).wait_ready()
        except BaseException:
            self.close()
            raise
        return self

    @property
    def pids(self) -> List[int]:
        return [s.proc.pid for s in self._servers]

    def close(self) -> List[str]:
        """Terminate and wait for every server, front to back.

        Returns the servers that died early or exited non-zero, with their
        log tails, so the run can count them as failures.
        """
        for server in reversed(self._servers):
            server.stop()
        failed = [
            f"{s.label} exited {s.proc.returncode}: {s.log_tail()}"
            for s in self._servers
            if s.proc.returncode != 0
        ]
        self._servers = []
        return failed
