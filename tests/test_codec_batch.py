"""Equivalence tier: the batched codec ≡ the per-block codec, bit for bit.

``Compressor.compress_batch`` / ``decompress_batch`` exist to share work
across the equal-shaped unit blocks of a level; they may never change a
stored byte or a reconstructed value.  The reference is the serial loop —
``compress(blocks[i], eb)`` / ``decompress(items[i])``, one array at a time —
and every comparison is exact (``to_bytes()`` equality,
``numpy.testing.assert_array_equal``):

* seeded stacks over 1-/2-/3-D and non-cubic shapes, unit 2…32, both
  interpolation kernels, both entropy coders, constant and adaptive level
  bounds, with and without ``outs``/``srcs`` destination windows;
* stacks where only some blocks carry unpredictable values, so every block's
  cursor into its own exact-value stream is exercised;
* one ``decode_payloads`` call mixing shapes and codecs, in request order,
  longer than one parse slice; the stack payloads the store's engine writes,
  decoded whole, by slot and into windows;
* who decides the batch size: the codec's byte bound — full stacks whatever
  the core count, one stack for a small read, bounded parsed headers;
* every corruption the decoder types, raised from inside a batch exactly as
  from the single-array call;
* what a cold whole-level read leaves behind: one interpolation plan, and a
  block cache whose entries own their memory.

Seeded by ``REPRO_FUZZ_SEED`` like the other fuzz tiers; a failure names the
case, and the seed replays it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro.compressors import SZ3Compressor, get_compressor
from repro.compressors.base import CompressedArray
from repro.compressors.errors import CompressionError, DecompressionError
from repro.compressors.huffman import huffman_decode
from repro.compressors.interpolation import build_plan
from repro.compressors.lossless import (
    decode_float_array,
    decode_int_array,
    encode_float_array,
    encode_int_array,
    lossless_decompress,
    pack_streams,
    unpack_streams,
)
from repro.core.adaptive_eb import adaptive_level_error_bounds
from repro.core.mr_compressor import MultiResolutionCompressor
from repro.store import Store
from repro.store.engine import _SLICE, CodecEngine, decode_payloads, decode_payloads_into
from repro.utils.rng import default_rng

FUZZ_SEED = os.environ.get("REPRO_FUZZ_SEED", "fuzz-0")
ERROR_BOUND = 0.02

SHAPES = [
    (2,), (33,), (64,),
    (2, 2), (4, 4), (5, 7), (17, 64),
    (2, 2, 2), (4, 4, 4), (8, 8, 8), (16, 16, 16), (32, 32, 32), (6, 9, 4), (17, 17, 5),
]
CODECS = {
    "cubic-zlib": {},
    "linear-zlib": {"interpolation": "linear"},
    "cubic-huffman": {"entropy": "huffman"},
    "adaptive": {"level_error_bounds": adaptive_level_error_bounds(2.0, 4.0)},
    "small-radius": {"quantizer_radius": 8},
}


def _rng(*label):
    return default_rng(":".join(str(part) for part in (FUZZ_SEED, "codec-batch") + label))


def _stack(rng, shape, n=None):
    """Correlated blocks at mixed scales; at large scales codes overflow the
    quantizer range, so some blocks carry exact values and most do not."""
    if n is None:
        n = int(rng.integers(2, 24)) if np.prod(shape) <= 4096 else 3
    blocks = np.cumsum(rng.standard_normal((n,) + shape), axis=-1)
    return blocks * rng.choice([1.0, 1.0, 1.0, 1e3, 1e7], size=(n,) + (1,) * len(shape))


def _windows(rng, shape):
    """A destination view inside a larger array, and the source window it takes."""
    if rng.random() < 0.4:
        src = None
        extent = shape
    else:
        lo = [int(rng.integers(0, s)) for s in shape]
        hi = [int(rng.integers(a + 1, s + 1)) for a, s in zip(lo, shape)]
        src = tuple(slice(a, b) for a, b in zip(lo, hi))
        extent = tuple(b - a for a, b in zip(lo, hi))
    backing = np.full(tuple(2 * e + 1 for e in extent), -7.0)
    return backing[tuple(slice(1, 1 + e) for e in extent)], src


@pytest.mark.parametrize("options", CODECS, ids=list(CODECS))
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_batch_is_the_serial_loop(shape, options):
    rng = _rng(shape, options)
    codec = SZ3Compressor(**CODECS[options])
    blocks = _stack(rng, shape)

    serial = [codec.compress(block, ERROR_BOUND) for block in blocks]
    batched = codec.compress_batch(blocks, ERROR_BOUND)
    assert [c.to_bytes() for c in batched] == [c.to_bytes() for c in serial]

    reference = [codec.decompress(c) for c in serial]
    for got, want, block in zip(codec.decompress_batch(batched), reference, blocks):
        assert_array_equal(got, want)
        assert got.base is None or got.base.nbytes == got.nbytes  # owns its memory
        assert np.abs(got - block).max() <= ERROR_BOUND

    outs, srcs = zip(*(_windows(rng, shape) for _ in blocks))
    assert codec.decompress_batch(batched, outs, srcs) is outs
    for out, src, want in zip(outs, srcs, reference):
        assert_array_equal(out, want if src is None else want[src])
        assert (out.base == -7.0).sum() == out.base.size - out.size  # nothing outside the window


def test_only_some_blocks_carry_exact_values():
    """Dynamic range > 2·radius·eb forces the sentinel/exact-value escape in
    some blocks of a stack; the others must not see those values."""
    rng = _rng("exact")
    codec = SZ3Compressor()
    blocks = rng.standard_normal((12, 8, 8, 8))
    blocks[[1, 4, 5, 11]] *= 4 * codec.quantizer.radius * ERROR_BOUND
    blocks[7, 3, 3, 3] = 1e12
    batched = codec.compress_batch(blocks, ERROR_BOUND)
    counts = [c.metadata["n_unpredictable"] for c in batched]
    assert [n > 0 for n in counts] == [i in (1, 4, 5, 7, 11) for i in range(12)]
    assert [c.to_bytes() for c in batched] == [
        codec.compress(block, ERROR_BOUND).to_bytes() for block in blocks
    ]
    # Decode in another order than encoded: cursors belong to blocks, not slots.
    order = rng.permutation(12)
    decoded = codec.decompress_batch([batched[i] for i in order])
    for i, got in zip(order, decoded):
        assert_array_equal(got, codec.decompress(batched[i]))
        assert np.abs(got - blocks[i]).max() <= ERROR_BOUND


def test_mixed_shapes_and_codecs_keep_request_order():
    rng = _rng("mixed")
    sz3, zfp = get_compressor("sz3"), get_compressor("zfp")
    distinct = []
    for k in range(40):
        codec = zfp if k % 5 == 2 else sz3
        shape = (8, 8, 8) if k % 3 else (4, 4, 4)
        compressed = codec.compress(_stack(rng, shape, n=1)[0], ERROR_BOUND)
        distinct.append((compressed.to_bytes(), codec.decompress(compressed)))
    # Longer than one parse slice: request order has to survive the slice
    # boundary as well as every codec boundary.
    requests = [distinct[k] for k in rng.integers(0, len(distinct), size=_SLICE + 40)]
    payloads = [blob for blob, _ in requests]
    for got, (_, want) in zip(decode_payloads(payloads), requests):
        assert_array_equal(got, want)
    outs = [np.empty_like(want) for _, want in requests]
    decode_payloads_into(payloads, outs)
    for got, (_, want) in zip(outs, requests):
        assert_array_equal(got, want)


def test_engine_stacks_decode_to_the_serial_reconstruction():
    """The engine merges a level into stack payloads; whole, by slot and into
    windows they reconstruct what the per-block codec does."""
    blocks = _stack(_rng("engine"), (4, 4, 4), n=700)
    codec = MultiResolutionCompressor(unit_size=4, adaptive_eb=True)
    payloads = CodecEngine.from_compressor(codec).encode_blocks(blocks, ERROR_BOUND)
    items = [CompressedArray.from_bytes(blob) for blob in payloads]
    assert [(item.n_blocks, item.shape) for item in items] == [
        (512, (512, 4, 4, 4)),
        (188, (188, 4, 4, 4)),
    ]
    serial = [codec.decode_unit_block(codec.codec.compress(b, ERROR_BOUND)) for b in blocks]
    assert_array_equal(np.concatenate(decode_payloads(payloads)), np.stack(serial))
    outs = [np.empty(item.shape) for item in items]
    decode_payloads_into(payloads, outs)
    assert_array_equal(np.concatenate(outs), np.stack(serial))

    slots = [np.array([511, 0, 17]), np.array([187])]
    wanted = [serial[511], serial[0], serial[17], serial[512 + 187]]
    for got, want in zip(decode_payloads(payloads, slots, counts=[512, 188]), wanted):
        assert_array_equal(got, want)
        assert got.base is None  # owns its memory
    windows = np.empty((4, 4, 4, 4))
    decode_payloads_into(payloads, windows, None, slots)
    assert_array_equal(windows, np.stack(wanted))
    # The index's row count has to agree with the payload's own header.
    with pytest.raises(DecompressionError, match="holds 188 blocks but 190 index rows"):
        decode_payloads(payloads, slots, counts=[512, 190])


# -- who decides the batch size ------------------------------------------------------


@pytest.fixture
def kernel_calls(monkeypatch):
    """Blocks per call of the two SZ3 kernels and of ``decompress_batch``."""
    calls = {"encode": [], "decode": [], "batch": []}

    def spy(name, key):
        inner = getattr(SZ3Compressor, name)

        def wrapper(self, blocks, *args, **kwargs):
            calls[key].append(len(blocks))
            return inner(self, blocks, *args, **kwargs)

        monkeypatch.setattr(SZ3Compressor, name, wrapper)

    spy("_encode_stack", "encode")
    spy("_decode_stack", "decode")
    spy("decompress_batch", "batch")
    return calls


@pytest.mark.parametrize("cpu_count", [1, 64])
def test_the_codec_alone_sizes_the_stacks(cpu_count, kernel_calls, monkeypatch, tmp_path):
    """A level reaches the kernel as the stacks its byte bound allows — full
    ones — and a small read as one stack, on a laptop and on an HPC node."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    blocks = _stack(_rng("stacks"), (4, 4, 4), n=4096)
    payloads = CodecEngine("sz3").encode_blocks(blocks, ERROR_BOUND)
    assert kernel_calls["encode"] == [512] * 8

    decoded = decode_payloads(payloads)
    assert kernel_calls["decode"] == [512] * 8
    # The level is eight stack payloads, one parse slice.
    assert kernel_calls["batch"] == [8]
    outs = np.empty_like(blocks).reshape(8, 512, 4, 4, 4)
    decode_payloads_into(payloads, outs)
    assert kernel_calls["decode"] == [512] * 16
    assert max(kernel_calls["batch"]) <= _SLICE
    assert_array_equal(outs, np.stack(decoded))

    # A 32^3 ROI of a unit-16 entry: eight blocks, one kernel call.
    field = np.cumsum(_rng("roi").standard_normal((32, 32, 32)), axis=0)
    store = Store(tmp_path / "s", MultiResolutionCompressor(unit_size=16))
    store.append("f", 0, field, ERROR_BOUND)
    kernel_calls["decode"].clear()
    out = store["f", 0][...]
    assert kernel_calls["decode"] == [8]
    assert np.abs(out - field).max() <= ERROR_BOUND


# -- the streams of the per-block codec this kernel replaced ------------------------

#: sha256 (first 16 hex digits) over every block's code / exact-value / anchor
#: stream, metadata and reconstruction, computed with the per-block traversal
#: at the commit before the batched kernel.  Hashed below the entropy stage so
#: the zlib build does not matter; the input is integer arithmetic, so neither
#: does the NumPy generator.
PARENT_STREAMS = {
    "4^3 cubic": ((4, 4, 4), {}, "3358cce7e8e82b10"),
    "8^3 adaptive": ((8, 8, 8), CODECS["adaptive"], "8688f26207c32513"),
    "17x17x5 linear": ((17, 17, 5), CODECS["linear-zlib"], "a5d7b578d8b32891"),
    "5x7 huffman": ((5, 7), CODECS["cubic-huffman"], "7c52a3ab33a606c4"),
    "33 cubic": ((33,), {}, "4afe84a54bff76ce"),
}


@pytest.mark.parametrize("name", PARENT_STREAMS)
def test_streams_are_those_of_the_per_block_codec(name):
    shape, options, expected = PARENT_STREAMS[name]
    codec = SZ3Compressor(**options)
    size = 7 * int(np.prod(shape))
    noise = ((np.arange(size, dtype=np.int64) * 2654435761) % 1000003) / 1000003.0 - 0.5
    blocks = np.cumsum(noise.reshape((7,) + shape), axis=-1)
    blocks[1::3] *= 1e4
    items = codec.compress_batch(blocks, ERROR_BOUND)
    digest = hashlib.sha256()
    for item, decoded in zip(items, codec.decompress_batch(items)):
        streams = unpack_streams(item.payload)
        tag, body = streams["codes"][:1], streams["codes"][1:]
        codes = huffman_decode(lossless_decompress(body)) if tag == b"H" else decode_int_array(body)
        exact, anchors = (decode_float_array(streams[k]) for k in ("exact", "anchors"))
        for part in (codes, exact, anchors, decoded):
            digest.update(np.ascontiguousarray(part).tobytes())
        digest.update(json.dumps(item.metadata, sort_keys=True).encode())
    assert digest.hexdigest()[:16] == expected


# -- corruption ------------------------------------------------------------------


def _rebuilt(item, tag=b"Z", codes=None, exact=None, anchors=None, metadata=None):
    streams = unpack_streams(item.payload)
    codes = decode_int_array(streams["codes"][1:]) if codes is None else codes
    exact = decode_float_array(streams["exact"]) if exact is None else exact
    anchors = decode_float_array(streams["anchors"]) if anchors is None else anchors
    payload = pack_streams(
        {
            "codes": tag + encode_int_array(codes),
            "exact": encode_float_array(exact),
            "anchors": encode_float_array(anchors),
        }
    )
    return dataclasses.replace(item, payload=payload, metadata=metadata or item.metadata)


def _codes(item):
    return decode_int_array(unpack_streams(item.payload)["codes"][1:])


CORRUPTIONS = {
    "bad tag": (lambda c: _rebuilt(c, tag=b"Q"), "unknown code-stream tag"),
    "truncated code stream": (
        lambda c: _rebuilt(c, codes=_codes(c)[:-3]),
        "exhausted prematurely",
    ),
    "surplus codes": (
        lambda c: _rebuilt(c, codes=np.append(_codes(c), [0, 0])),
        "2 unused entries",
    ),
    "wrong anchor count": (
        lambda c: _rebuilt(c, anchors=np.zeros(5)),
        "anchor stream size mismatch",
    ),
    "short exact stream": (
        lambda c: _rebuilt(c, exact=decode_float_array(unpack_streams(c.payload)["exact"])[:-1]),
        "exact values but only",
    ),
}


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_corruption_raises_the_same_error_from_inside_a_batch(name):
    corrupt, message = CORRUPTIONS[name]
    codec = SZ3Compressor()
    blocks = _stack(_rng("corrupt"), (8, 8, 8), n=9)
    blocks[4, 0, 0, 1] = 1e12  # block 4 has an exact-value stream to shorten
    items = codec.compress_batch(blocks, ERROR_BOUND)
    items[4] = corrupt(items[4])
    with pytest.raises(DecompressionError, match=message) as single:
        codec.decompress(items[4])
    with pytest.raises(DecompressionError) as batch:
        codec.decompress_batch(items)
    assert str(batch.value) == str(single.value)
    with pytest.raises(DecompressionError, match=message):
        decode_payloads([c.to_bytes() for c in items])
    with pytest.raises(DecompressionError, match=message):
        codec.decompress_batch(items, [np.empty((8, 8, 8)) for _ in items])


def test_missing_level_bound_raises_from_inside_a_batch():
    codec = SZ3Compressor()
    items = codec.compress_batch(_stack(_rng("level"), (8, 8, 8), n=6), ERROR_BOUND)
    bounds = dict(items[0].metadata["level_error_bounds"])
    del bounds["2"]
    # Every block of a level carries the same schedule, so all of them lose it.
    items = [
        dataclasses.replace(c, metadata={**c.metadata, "level_error_bounds": bounds})
        for c in items
    ]
    with pytest.raises(DecompressionError, match="missing error bound for level 2"):
        codec.decompress(items[0])
    with pytest.raises(DecompressionError, match="missing error bound for level 2"):
        codec.decompress_batch(items)


def test_payload_of_another_codec_is_refused_in_a_batch():
    block = _stack(_rng("codec"), (4, 4, 4), n=1)[0]
    items = [SZ3Compressor().compress(block, ERROR_BOUND), get_compressor("zfp").compress(block, ERROR_BOUND)]
    with pytest.raises(DecompressionError, match="produced by 'zfp'"):
        SZ3Compressor().decompress_batch(items)


# -- the encode entry point -------------------------------------------------------


def test_compress_batch_takes_an_absolute_bound_and_a_stack():
    codec = SZ3Compressor()
    assert codec.compress_batch(np.empty((0, 4, 4, 4)), ERROR_BOUND) == []
    with pytest.raises(CompressionError, match="strictly positive"):
        codec.compress_batch(np.zeros((2, 4, 4)), 0.0)
    with pytest.raises(CompressionError, match="1-3 dimensional"):
        codec.compress_batch(np.zeros(8), ERROR_BOUND)  # a stack of scalars
    with pytest.raises(CompressionError, match="empty"):
        codec.compress_batch(np.zeros((3, 4, 0)), ERROR_BOUND)


@pytest.mark.parametrize("name", ["sz2", "zfp"])
def test_codecs_without_a_kernel_batch_by_looping(name):
    codec = get_compressor(name)
    blocks = _stack(_rng(name), (8, 8, 8), n=5)
    batched = codec.compress_batch(blocks, ERROR_BOUND)
    assert [c.to_bytes() for c in batched] == [
        codec.compress(block, ERROR_BOUND).to_bytes() for block in blocks
    ]
    for got, item in zip(codec.decompress_batch(batched), batched):
        assert_array_equal(got, codec.decompress(item))


# -- through the store -------------------------------------------------------------


def test_cold_whole_level_read_builds_one_plan_and_caches_owned_blocks(tmp_path):
    field = np.cumsum(_rng("store").standard_normal((64, 64, 64)), axis=0)
    Store(tmp_path / "s", MultiResolutionCompressor(unit_size=4)).append("f", 0, field, 0.05)
    store = Store(tmp_path / "s")
    view = store["f", 0]
    assert view.n_blocks == 4096
    build_plan.cache_clear()
    out = view[...]
    assert build_plan.cache_info().misses <= 1
    assert np.abs(out - field).max() <= 0.05
    stats = store.block_cache.stats
    assert stats["size"] > 0
    # A cached view into a decode stack would pin the whole stack.
    assert stats["bytes_resident"] == stats["nbytes"]
    # The cacheless path pastes from a scratch stack; same values.
    direct = store["f", 0]
    direct.cache = None
    assert_array_equal(direct[...], out)
    assert_array_equal(store.get("f", 0).read_blocks(0).blocks[0], out[:4, :4, :4])
