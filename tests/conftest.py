"""Shared fixtures for the test suite.

Fields are deliberately small (16-32 cells per axis) so the full suite runs in
well under a minute; the benchmarks use larger grids.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.amr.refinement import build_hierarchy_from_uniform
from repro.datasets.synthetic import gaussian_random_field, smooth_wave_field
from repro.utils.rng import default_rng


# -- runtime lock-order detection (REPRO_LOCKCHECK=1) --------------------------
def _lockcheck_enabled() -> bool:
    return os.environ.get("REPRO_LOCKCHECK", "").strip() in ("1", "true", "yes")


def pytest_configure(config):
    if not _lockcheck_enabled():
        return
    # Import the concurrency-bearing packages first so every lock they create
    # from here on is instrumented; install() swaps a threading proxy into
    # all currently imported repro.* modules.
    import repro.array.cache  # noqa: F401
    import repro.obs.metrics  # noqa: F401
    import repro.obs.tracing  # noqa: F401
    import repro.gateway.daemon  # noqa: F401
    import repro.serve.client  # noqa: F401
    import repro.serve.daemon  # noqa: F401
    import repro.serve.pool  # noqa: F401
    import repro.serve.service  # noqa: F401
    import repro.chaos.proxy  # noqa: F401
    import repro.shard.breaker  # noqa: F401
    import repro.shard.router  # noqa: F401
    import repro.store.catalog  # noqa: F401
    import repro.store.format  # noqa: F401

    from repro.devtools import lockcheck

    lockcheck.install()
    config._repro_lockcheck = True


def pytest_sessionfinish(session, exitstatus):
    if not getattr(session.config, "_repro_lockcheck", False):
        return
    from repro.devtools import lockcheck

    result = lockcheck.report()
    problems = result["cycles"] + result["blocking"]
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    lines = [
        f"REPRO_LOCKCHECK: {result['locks']} locks instrumented, "
        f"{result['edges']} ordering edges, {len(result['cycles'])} cycle(s), "
        f"{len(result['blocking'])} lock-held blocking call(s)"
    ]
    for violation in problems:
        lines.append(f"  {violation}")
    for line in lines:
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line)
    if problems and session.exitstatus == 0:
        session.exitstatus = 3


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return default_rng("test-suite")


@pytest.fixture(scope="session")
def smooth_field_3d() -> np.ndarray:
    """A smooth, easily compressible 32^3 field."""
    return smooth_wave_field((32, 32, 32), frequencies=(2.0, 3.0, 1.0))


@pytest.fixture(scope="session")
def noisy_field_3d() -> np.ndarray:
    """A 32^3 field with structure plus noise (harder to compress)."""
    field = gaussian_random_field((32, 32, 32), spectral_index=-2.5, seed="noisy-3d")
    noise = default_rng("noisy-3d-extra").standard_normal((32, 32, 32))
    return field + 0.05 * noise


@pytest.fixture(scope="session")
def smooth_field_2d() -> np.ndarray:
    return smooth_wave_field((48, 48), frequencies=(2.0, 3.0))


# -- read-daemon fixtures ------------------------------------------------------
# One daemon serves the whole session: the protocol golden tests, the CLI
# --remote tests and the indexing fuzz suite all talk to it, which is itself a
# soak test (one accept loop, many connections, shared cache).  Tests must
# assert on counter *deltas*, never absolutes, and register extra containers
# via ``serve_store.adopt`` under their own field names.


@pytest.fixture(scope="session")
def serve_store(tmp_path_factory, smooth_field_3d, smooth_field_2d, small_hierarchy):
    """A store with 3D, 2D and multi-level entries, shared by serve tests."""
    from repro.core.mr_compressor import MultiResolutionCompressor
    from repro.store import Store

    store = Store(
        tmp_path_factory.mktemp("serve") / "store",
        MultiResolutionCompressor(unit_size=8),
    )
    store.append("density", 0, smooth_field_3d, 0.05)
    store.append("density", 1, smooth_field_3d * 1.5 + 0.25, 0.05)
    store.append("plane", 0, smooth_field_2d, 0.05)
    store.append("amr", 0, small_hierarchy, 0.05)
    return store


@pytest.fixture(scope="session")
def serve_daemon(serve_store):
    """A running ``ReadDaemon`` over :func:`serve_store`, stopped at exit."""
    from repro.serve import ReadDaemon

    daemon = ReadDaemon(serve_store)
    daemon.start()
    yield daemon
    daemon.stop()


@pytest.fixture()
def remote_store(serve_daemon):
    """A fresh client connection per test (the daemon itself is shared)."""
    from repro.serve import RemoteStore

    with RemoteStore(serve_daemon.address) as client:
        yield client


@pytest.fixture(scope="session")
def small_hierarchy(noisy_field_3d) -> "AMRHierarchy":
    """A two-level hierarchy built from the noisy field (fine 25% / coarse 75%)."""
    return build_hierarchy_from_uniform(
        noisy_field_3d, n_levels=2, block_size=8, fractions=[0.25, 0.75]
    )


@pytest.fixture(scope="session")
def three_level_hierarchy(noisy_field_3d) -> "AMRHierarchy":
    """A three-level hierarchy (RT-style 15/31/54 split)."""
    return build_hierarchy_from_uniform(
        noisy_field_3d, n_levels=3, block_size=8, fractions=[0.15, 0.31, 0.54]
    )
