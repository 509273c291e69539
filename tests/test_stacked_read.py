"""One stacked read path: every lazy read is a batch, and it equals the blocks.

A local read consults the block cache once (``get_many``), decodes all its
misses in one ``reader.decode_entries`` call whose kernel stacks land in the
result through a block-grid view, pastes its hits the same way and stores
what the cache keeps with one ``put_many``.  The reference here is assembled
the slow way — every block of the level from ``reader.decode_entries``, pasted
one at a time with :func:`repro.store.query.paste_slices` into a level filled
with the view's ``fill_value`` — and every read must equal it bit for bit:

* units 4, 8 and 16; 2-D and 3-D levels; both levels of a masked two-level
  hierarchy; a level whose block count is not a multiple of the kernel stack;
  a hand-built container whose edge blocks overhang the domain; a ZFP level,
  whose codec fills one block view at a time instead of pasting stacks; and
  a ``SingleBlockSource``, whose one block is shaped like a non-cubic domain;
* through the store's block cache, a 3-block cache and no cache, each cold,
  warm and half-warm;
* 200 seeded selections per level: steps (reversed too), negative integers,
  ``...``, single planes and bboxes off the block grid.

The spies pin the batching itself on a whole unit-4 level (4096 blocks).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import pytest

import repro.array.cache as cache_module
from repro.amr.refinement import build_hierarchy_from_uniform
from repro.array import BlockCache, CompressedArray, SingleBlockSource
from repro.compressors import SZ3Compressor
from repro.core.mr_compressor import MultiResolutionCompressor
from repro.datasets.synthetic import smooth_wave_field
from repro.obs.tracing import Tracer
from repro.store import Store
from repro.store.engine import CodecEngine
from repro.store.format import BlockLevel, ContainerReader, write_container
from repro.store.query import paste_slices
from repro.utils.rng import default_rng

EB = 0.02
FILL = -7.5
SELECTIONS = 200
CACHES = ("store", "three", "none")
STATES = ("cold", "warm", "half-warm")


def _field(shape: Tuple[int, ...], name: str) -> np.ndarray:
    noise = default_rng(f"stacked-read:{name}").standard_normal(shape)
    return smooth_wave_field(shape, frequencies=(2.0, 3.0, 1.0)[: len(shape)]) + 0.1 * noise


def _overhanging_container(path) -> None:
    """A 19 x 13 x 10 domain at unit 4 with some blocks missing: edge blocks
    overhang the domain and cells of missing blocks read as the fill value."""
    shape, unit = (19, 13, 10), 4
    data = _field(shape, "overhang")
    grid = [-(-n // unit) for n in shape]
    coords = np.argwhere(np.ones(grid, dtype=bool))
    coords = coords[default_rng("stacked-read:drop").random(len(coords)) < 0.8]
    blocks = np.zeros((len(coords),) + (unit,) * 3)
    for block, coord in zip(blocks, coords):
        src = tuple(slice(c * unit, min((c + 1) * unit, n)) for c, n in zip(coord, shape))
        block[tuple(slice(0, s.stop - s.start) for s in src)] = data[src]
    write_container(
        path,
        [
            BlockLevel(
                level=0,
                level_shape=shape,
                unit_size=unit,
                coords=coords,
                payloads=CodecEngine("sz3").encode_blocks(blocks, EB),
            )
        ],
        error_bound=EB,
        codec="sz3",
    )


@pytest.fixture(scope="module")
def levels(tmp_path_factory):
    """``{case: (store or None, reader, level)}`` — every level the tier reads."""
    root = tmp_path_factory.mktemp("stacked-read")
    cases: Dict[str, Tuple[Optional[Store], ContainerReader, int]] = {}
    # 8 x 6 x 5 = 240 blocks: not a multiple of the 512-block unit-4 stack.
    plain = [
        ("u4-3d", 4, (32, 24, 20)),
        ("u8-2d", 8, (48, 40)),
        # 3 x 2 x 2 = 12 blocks: one full 8-block unit-16 stack and a short one.
        ("u16-3d", 16, (48, 32, 32)),
        ("u16-2d", 16, (64, 48)),
    ]
    for name, unit, shape in plain:
        store = Store(root / name, MultiResolutionCompressor(unit_size=unit))
        store.append("f", 0, _field(shape, name), EB)
        cases[name] = (store, store.get("f", 0), 0)
    store = Store(root / "zfp", MultiResolutionCompressor(compressor="zfp", unit_size=8))
    store.append("f", 0, _field((24, 16, 32), "zfp"), EB)
    cases["zfp-u8-3d"] = (store, store.get("f", 0), 0)
    hierarchy = build_hierarchy_from_uniform(
        _field((32, 32, 32), "amr"), n_levels=2, block_size=8, fractions=[0.25, 0.75]
    )
    store = Store(root / "amr", MultiResolutionCompressor(unit_size=8))
    store.append("f", 0, hierarchy, EB)
    for level in (0, 1):
        cases[f"amr-u8-level{level}"] = (store, store.get("f", 0), level)
    _overhanging_container(root / "overhang.rps2")
    cases["overhang-u4"] = (None, ContainerReader(root / "overhang.rps2"), 0)
    return cases


def _reference(reader: ContainerReader, level: int) -> np.ndarray:
    """The level assembled block by block, independently of the read path."""
    info = reader.level_info(level)
    positions = reader.index.select(info.level, info.ndim)
    whole = tuple((0, n) for n in info.level_shape)
    out = np.full(info.level_shape, FILL)
    for block, coord in zip(
        reader.decode_entries(positions), reader.index.coords[positions, : info.ndim]
    ):
        dst, src = paste_slices(coord, info.unit_size, whole)
        out[dst] = block[src]
    return out


def _axis_item(rng, n: int) -> Any:
    kind = rng.integers(5)
    if kind == 0:
        return int(rng.integers(-n, n))  # negative ints count from the end
    if kind == 1:
        return slice(None)
    lo = int(rng.integers(0, n))
    hi = int(rng.integers(lo + 1, n + 1))  # off the block grid, mostly
    step = int(rng.choice([1, 1, 2, 3, -1, -2]))
    return slice(lo, hi, step) if step > 0 else slice(hi - 1, lo - 1 if lo else None, step)


def _selection(rng, shape: Tuple[int, ...]) -> Any:
    draw = rng.random()
    if draw < 0.1:
        return Ellipsis
    if draw < 0.3:  # a single plane
        items: List[Any] = [slice(None)] * len(shape)
        axis = int(rng.integers(len(shape)))
        items[axis] = int(rng.integers(shape[axis]))
        return tuple(items)
    items = [_axis_item(rng, n) for n in shape]
    if rng.random() < 0.25:  # a run of axes becomes '...'
        i = int(rng.integers(len(items) + 1))
        j = int(rng.integers(i, len(items) + 1))
        items = items[:i] + [Ellipsis] + items[j:]
    return tuple(items)


def _view(store, reader, level: int, cache_kind: str):
    cache = {
        "store": store.block_cache if store is not None else BlockCache(),
        "three": BlockCache(max_blocks=3),
        "none": None,
    }[cache_kind]
    return reader.as_array(level=level, fill_value=FILL, cache=cache)


def _prepare(view, state: str) -> None:
    if view.cache is not None:
        view.cache.clear()
    if state == "warm":
        view[...]
    elif state == "half-warm":
        view[: max(1, view.shape[0] // 2)]


@pytest.mark.parametrize("cache_kind", CACHES)
@pytest.mark.parametrize(
    "case",
    [
        "u4-3d",
        "u8-2d",
        "u16-3d",
        "u16-2d",
        "amr-u8-level0",
        "amr-u8-level1",
        "overhang-u4",
        "zfp-u8-3d",
    ],
)
def test_every_read_equals_the_block_by_block_reference(levels, case, cache_kind):
    store, reader, level = levels[case]
    reference = _reference(reader, level)
    view = _view(store, reader, level, cache_kind)
    rng = default_rng(f"stacked-read:{case}")
    for j in range(SELECTIONS):
        sel = _selection(rng, reference.shape)
        state = STATES[j % len(STATES)]
        _prepare(view, state)
        got = np.asarray(view[sel])
        want = reference[sel]
        assert got.shape == want.shape, (case, cache_kind, state, sel)
        assert np.array_equal(got, want), (case, cache_kind, state, sel)
    if view.cache is not None:
        stats = view.cache.stats
        assert stats["bytes_resident"] == stats["nbytes"]  # entries own their memory
        assert stats["size"] <= stats["max_blocks"]


def test_a_warm_read_decodes_nothing_and_a_half_warm_read_only_the_rest(levels):
    store, reader, level = levels["u4-3d"]
    view = _view(store, reader, level, "store")
    view.cache.clear()
    view[:16]
    decoded = reader.stats["blocks_decoded"]
    whole = view[...]
    assert reader.stats["blocks_decoded"] - decoded == view.n_blocks // 2
    decoded = reader.stats["blocks_decoded"]
    assert np.array_equal(view[...], whole)
    assert reader.stats["blocks_decoded"] == decoded
    assert np.array_equal(whole, _reference(reader, level))


def test_decode_entries_over_levels_of_different_block_shapes_returns_one_array_per_block(
    tmp_path,
):
    """A coarse level smaller than the unit is stored at a clamped unit, so
    positions spanning levels need not share a block shape: the blocks come
    back as a list, each equal to its own level's decode, in request order."""
    hierarchy = build_hierarchy_from_uniform(
        _field((32, 32, 32), "mixed"), n_levels=3, block_size=8, fractions=[0.25, 0.25, 0.5]
    )
    store = Store(tmp_path, MultiResolutionCompressor(unit_size=16))
    store.append("f", 0, hierarchy, EB)
    reader = store.get("f", 0)
    assert [info.block_shape for info in reader.levels] == [(16,) * 3, (16,) * 3, (8,) * 3]
    by_level = {
        info.level: reader.decode_entries(reader.index.select(info.level, 3))
        for info in reader.levels
    }
    want = [block for blocks in by_level.values() for block in blocks]
    positions = np.arange(reader.n_blocks)
    for order in (positions, positions[::-1]):
        got = reader.decode_entries(order)
        assert isinstance(got, list) and len(got) == len(want)
        for block, i in zip(got, order.tolist()):
            assert np.array_equal(block, want[i])


@pytest.mark.parametrize("cached", [False, True])
def test_a_single_block_source_pastes_as_one_domain_shaped_block(cached):
    data = _field((5, 17, 3), "single")
    view = CompressedArray(
        SingleBlockSource.from_ndarray(data), cache=BlockCache() if cached else None
    )
    assert view.source.block_shape(0) == data.shape  # never a cube of its longest edge
    rng = default_rng("stacked-read:single")
    for _ in range(SELECTIONS):
        sel = _selection(rng, data.shape)
        assert np.array_equal(np.asarray(view[sel]), data[sel]), sel
    if cached:
        (block,) = view.cache._entries.values()
        assert block.shape == data.shape and np.array_equal(block, data)


# -- the batching itself -------------------------------------------------------------


@pytest.fixture(scope="module")
def unit4_level(tmp_path_factory):
    """A whole 64^3 unit-4 level: 4096 blocks, eight 512-block stacks."""
    store = Store(tmp_path_factory.mktemp("stacked-spies"), MultiResolutionCompressor(unit_size=4))
    store.append("f", 0, _field((64, 64, 64), "spies"), EB)
    return store


def _spy(monkeypatch, owner, name: str, calls: list, size=len) -> None:
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(size(args[0]))
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_a_whole_unit4_read_is_one_batch_at_every_layer(unit4_level, monkeypatch):
    view = unit4_level["f", 0]
    reader, cache = view.source.reader, view.cache
    cache.clear()
    calls: Dict[str, list] = {k: [] for k in ("decode", "fetch", "get", "put", "stack", "copy")}
    _spy(monkeypatch, reader, "decode_entries", calls["decode"])
    _spy(monkeypatch, reader, "fetch_entries", calls["fetch"])
    _spy(monkeypatch, cache, "get_many", calls["get"])
    _spy(monkeypatch, cache, "put_many", calls["put"])
    kernel = SZ3Compressor._decode_stack
    monkeypatch.setattr(
        SZ3Compressor,
        "_decode_stack",
        lambda self, recon, parts: calls["stack"].append(len(recon)) or kernel(self, recon, parts),
    )
    _spy(monkeypatch, cache_module, "_owned", calls["copy"], size=lambda row: 1)
    evictions = cache.stats["evictions"]

    out = view[...]

    assert calls["decode"] == [4096]
    assert calls["fetch"] == [8]  # the eight stack payloads, one coalesced range
    assert calls["get"] == [4096] and calls["put"] == [4096]
    assert calls["stack"] == [512] * 8
    assert len(calls["copy"]) == cache.max_blocks == 512
    stats = cache.stats
    assert stats["size"] == 512 and stats["evictions"] - evictions == 4096 - 512
    assert stats["bytes_resident"] == stats["nbytes"] == 512 * 4 ** 3 * 8
    assert reader.stats["fetch_ranges"] == 1
    assert out.shape == (64, 64, 64)


def test_the_batched_read_matches_the_reference_and_labels_one_paste_span(unit4_level):
    view = unit4_level["f", 0]
    reader = view.source.reader
    view.cache.clear()
    tracer = Tracer().enable()
    with tracer.trace("read") as root:
        cold = view[...]
    with tracer.trace("read") as warm_root:
        # The cache kept the last 512 blocks in Morton order: the far octant.
        warm = view[32:, 32:, 32:]
    pastes = [s for s in tracer.trace_spans(root.trace_id) if s["name"] == "paste"]
    assert [s["attrs"] for s in pastes] == [{"blocks": 4096, "hits": 0, "stacks": 8}]
    pastes = [s for s in tracer.trace_spans(warm_root.trace_id) if s["name"] == "paste"]
    assert [s["attrs"] for s in pastes] == [{"blocks": 512, "hits": 512, "stacks": 0}]
    reference = np.zeros((64, 64, 64))
    positions = reader.index.select(0, 3)
    for block, coord in zip(reader.decode_entries(positions), reader.index.coords[positions]):
        dst, src = paste_slices(coord, 4, ((0, 64),) * 3)
        reference[dst] = block[src]
    assert np.array_equal(cold, reference)
    assert np.array_equal(warm, reference[32:, 32:, 32:])
