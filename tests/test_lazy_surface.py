"""The lazy-surface contract: one ``LazyArray``, however the data was opened.

The same two entries are opened four ways — a local :class:`Store`,
``repro.connect`` to a read daemon, ``repro.connect`` to a shard router and
``repro.open_http`` to a gateway in front of that router — and every member
of the surface must agree: the metadata, the level views, the error types and
messages, what a read returns and what it says it cost.  What is *allowed* to
differ is pinned too: local results are writable arrays, served results are
read-only views over the response buffer.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.array import CompressedArray, LazyArray, SingleBlockSource
from repro.gateway import GatewayDaemon, HTTPArray
from repro.serve import ReadDaemon, RemoteArray
from repro.shard import RouterDaemon, ShardMap, ShardSpec
from repro.vis import extract_slice

EB = 0.02
FAMILIES = ("store", "daemon", "router", "http")
VIEW_TYPES = {
    "store": CompressedArray,
    "daemon": RemoteArray,
    "router": RemoteArray,
    "http": HTTPArray,
}
ACCOUNTING_KEYS = ("requests", "blocks_touched", "blocks_decoded", "cache_hits")


@pytest.fixture(scope="module")
def served(tmp_path_factory, smooth_field_3d, small_hierarchy):
    """One store (32^3 unit-8 ``f``, two-level ``amr``) behind daemon, router, gateway."""
    from repro.core.mr_compressor import MultiResolutionCompressor
    from repro.store import Store

    root = tmp_path_factory.mktemp("lazy-surface") / "store"
    store = Store(root, MultiResolutionCompressor(unit_size=8))
    store.append("f", 0, smooth_field_3d, EB)
    store.append("amr", 0, small_hierarchy, EB)
    daemon = ReadDaemon(store)
    router = RouterDaemon(ShardMap([ShardSpec("s0", daemon.start(), store=str(root))]))
    gateway = GatewayDaemon(router.start())
    gateway.start()
    yield SimpleNamespace(store=store, daemon=daemon, router=router, gateway=gateway)
    gateway.stop()
    router.stop()
    daemon.stop()


@pytest.fixture(params=FAMILIES)
def opened(request, served):
    """``(family, catalog)`` — the store itself or a client of one server."""
    family = request.param
    if family == "store":
        yield family, served.store
    elif family == "http":
        with repro.open_http(served.gateway.address) as client:
            yield family, client
    else:
        with repro.connect(getattr(served, family).address) as client:
            yield family, client


@pytest.fixture(scope="module")
def reference(served):
    return np.asarray(served.store["f", 0])


def _delta(after, before):
    return {key: after[key] - before[key] for key in ACCOUNTING_KEYS}


def test_metadata(opened):
    family, catalog = opened
    view = catalog["f", 0]
    assert isinstance(view, LazyArray) and type(view) is VIEW_TYPES[family]
    assert view.shape == (32, 32, 32)
    assert view.dtype == np.float64
    assert view.ndim == 3 and view.size == 32 ** 3 and len(view) == 32
    assert view.levels == (0,) and view.level_index == 0
    assert view.n_blocks == 64
    assert repr(view).startswith(type(view).__name__ + "(")
    assert "shape=(32, 32, 32)" in repr(view) and "blocks=64" in repr(view)


@pytest.mark.parametrize("family", ("store", "daemon", "http"))
def test_len_of_a_0d_view_is_a_typeerror(family):
    # No store holds a 0-d entry, so the views are built by hand; opening a
    # served view performs no I/O, so a stand-in connection is enough.
    if family == "store":
        view = CompressedArray(SingleBlockSource.from_ndarray(np.array(3.0)))
    else:
        described = {"levels": [{"level": 0, "level_shape": [], "n_blocks": 1}]}
        view = VIEW_TYPES[family](SimpleNamespace(address="nowhere:0"), "f", 0, described)
    assert view.shape == () and view.ndim == 0 and view.size == 1
    with pytest.raises(TypeError) as err:
        len(view)
    assert str(err.value) == "len() of unsized view"


def test_levels_and_the_missing_level_keyerror(opened, served):
    _, catalog = opened
    view = catalog["amr", 0]
    local = served.store["amr", 0]
    assert view.levels == local.levels == (0, 1)
    for k in view.levels:
        sibling = view.level(k)
        assert type(sibling) is type(view) and sibling.level_index == k
        assert sibling.shape == local.level(k).shape
        assert sibling.n_blocks == local.level(k).n_blocks
        assert np.array_equal(np.asarray(sibling), np.asarray(local.level(k)))
    for missing in (lambda: view.level(7), lambda: catalog.array("amr", 0, level=7)):
        with pytest.raises(KeyError) as err:
            missing()
        assert err.value.args[0] == "no level 7; available: [0, 1]"


def test_asarray_with_dtype(opened, reference):
    _, catalog = opened
    out = np.asarray(catalog["f", 0], dtype=np.float32)
    assert out.dtype == np.float32 and out.shape == reference.shape
    assert np.array_equal(out, reference.astype(np.float32))


def test_asarray_copy_false_is_refused_because_materialising_allocates(opened, reference):
    _, catalog = opened
    view = catalog["f", 0]
    with pytest.raises(ValueError, match="always copies"):
        np.asarray(view, copy=False)
    for copy in (None, True):
        out = np.asarray(view, copy=copy)
        assert out.shape == reference.shape and np.array_equal(out, reference)


def test_scalar_selection_is_a_numpy_scalar(opened, reference):
    _, catalog = opened
    value = catalog["f", 0][3, 4, 5]
    assert isinstance(value, np.float64) and np.ndim(value) == 0
    assert value == reference[3, 4, 5]


def test_read_roi_clamps_where_getitem_wraps(opened, reference):
    _, catalog = opened
    view = catalog["f", 0]
    roi = view.read_roi(((-5, 8), (0, 8), (24, 99)))
    assert roi.shape == (8, 8, 8)  # bbox clamping, not negative indexing
    assert np.array_equal(roi, reference[0:8, 0:8, 24:32])
    assert np.array_equal(view[-5:, 0, 0], reference[27:, 0, 0])  # -5 counts from the end
    with pytest.raises(ValueError) as err:
        view.read_roi(((40, 50), (0, 32), (0, 32)))
    assert str(err.value) == "bbox axis 0 (40, 50) lies entirely outside the domain [0, 32)"


def test_local_results_are_writable_served_results_are_readonly_views(opened):
    family, catalog = opened
    out = catalog["f", 0][0:8, 0:8, 0:8]
    assert out.flags.writeable == (family == "store")
    if family != "store":
        assert out.base is not None  # a view over the response buffer, not a copy


def test_sibling_level_views_share_geometry_without_a_round_trip(opened, served):
    family, catalog = opened
    view = catalog["amr", 0]
    # Every served request — socket, routed or HTTP — ends at the one backend
    # daemon, which counts it at dispatch.
    before = served.daemon.stats()["requests"]
    sibling = view.level(1)
    assert (sibling.shape, sibling.ndim, len(sibling)) == ((16, 16, 16), 3, 16)
    assert sibling.levels == (0, 1) and sibling.n_blocks > 0
    assert sibling.stats["requests"] == 0  # accounting starts over per view
    assert served.daemon.stats()["requests"] == before
    if family == "store":
        assert sibling.source is view.source and sibling.cache is view.cache
    else:
        np.asarray(sibling)
        assert served.daemon.stats()["requests"] == before + 1


def test_stats_report_each_reads_accounting(opened):
    _, catalog = opened
    view = catalog["f", 0]
    assert set(ACCOUNTING_KEYS) <= set(view.stats)
    # Deltas, not totals: a local view's blocks_decoded / cache_hits are the
    # reader's and the cache's lifetime counters, a served view's its own.
    start = dict(view.stats)
    view[0:8, 0:8, 0:16]
    first = dict(view.stats)
    cost = _delta(first, start)
    assert cost["requests"] == 1 and cost["blocks_touched"] == 2
    assert cost["blocks_decoded"] + cost["cache_hits"] == 2
    view[0:8, 0:8, 0:16]  # identical query: warm wherever the cache lives
    assert _delta(dict(view.stats), first) == {
        "requests": 1,
        "blocks_touched": 2,
        "blocks_decoded": 0,
        "cache_hits": 2,
    }


def test_extract_slice_reads_one_plane_of_blocks(opened, reference):
    _, catalog = opened
    view = catalog["f", 0]
    plane = extract_slice(view, axis=2, position=0.5)
    assert np.array_equal(plane, reference[:, :, 16])
    # One z-plane of the 4x4x4 block grid, in one read — not the whole level.
    assert view.stats["requests"] == 1
    assert view.stats["blocks_touched"] == 16
