"""lock-guard across modules, the declaring half: the base class.

Pure AST fixture for the golden tests — parsed by the linter, never imported.
Clean on its own; ``sub.py`` holds the expected finding.
"""

import threading


class Server:
    def __init__(self):
        self._lock = threading.Lock()
        self._connections = set()  # repro: guarded-by(_lock)

    def track(self, conn):
        with self._lock:
            self._connections.add(conn)
