"""``repro.chaos`` — deterministic fault injection for the serving cluster.

A :class:`ChaosProxy` is a tiny TCP proxy that sits between a router and one
shard daemon and injects transport faults *per connection* from a scripted,
seeded schedule: refuse the connection, accept and hang, disconnect
mid-frame, corrupt bytes in flight, or delay traffic.  Because the schedule
is a pure function of ``(seed, connection index)``, a chaos run replays
exactly — the fault a connection suffers does not depend on timing — which
is what lets the chaos test tier assert hard properties ("every read is
bit-identical or a typed error, never a hang") instead of probabilities.

::

    schedule = ChaosSchedule.random("chaos-0", weights={"pass": 6, "corrupt": 1})
    with ChaosProxy(shard_addr, schedule=schedule) as proxy:
        # topology points the router at proxy.address instead of shard_addr
        ...

The proxy is a :class:`repro.serve.service.ThreadedServer` like the daemons
it fronts — same ``start``/``stop``/``serve_forever``/``with`` contract —
and keeps only what is its own: the schedule, the relay pumps and the
abortive (``SO_LINGER`` 0) way it drops a socket.

``repro chaos LISTEN UPSTREAM`` runs one from the command line (the
chaos-smoke CI job fronts a shard with it and kills the shard mid-read).
"""

from repro.chaos.proxy import FAULTS, ChaosProxy, ChaosSchedule

__all__ = ["ChaosProxy", "ChaosSchedule", "FAULTS"]
