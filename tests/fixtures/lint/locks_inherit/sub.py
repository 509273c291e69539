"""lock-guard across modules, the touching half: a subclass elsewhere.

Pure AST fixture for the golden tests — parsed by the linter, never imported.
Expected findings: one ``lock-guard`` report, on the unlocked read of the
field ``base.Server`` declares guarded.
"""

from base import Server


class Proxy(Server):
    def __init__(self):
        super().__init__()
        self._connections.clear()  # exempt: not shared yet

    def active(self):
        return len(self._connections)  # finding: declared guarded in the base

    def forget(self, conn):
        with self._lock:
            self._connections.discard(conn)
