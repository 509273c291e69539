"""Format proof for container version 3: stack payloads and the deflated index.

A v3 level is stored as the stacks the SZ3 kernel forms — one payload, one
header, one entropy stage per Morton run of unit blocks — while reads stay
block-granular.  What that must never change, and what it must change:

* **slot ≡ whole ≡ v2 values**: every single-block read and seeded ROIs equal
  the same window of the whole-level read, and the whole-level read equals the
  per-block codec (``decompress_batch(compress_batch(blocks))``, the v2
  payloads), bit for bit — units 4 / 8 / 16, 2-D, masked hierarchies, levels
  that do not fill their last stack;
* **a committed v2 file** still opens, adopts and reads what the commit that
  wrote it read;
* **corruption is typed**: every way a stack payload or the deflated index can
  disagree with itself is a ``DecompressionError`` naming the file, the same
  one from a one-payload and from a multi-payload request;
* **spies**: a whole level reaches the kernel as full stacks and inflates a
  few dozen streams, a one-block read reconstructs one block, and the
  counters and spans still count blocks.

Seeded by ``REPRO_FUZZ_SEED`` like the other fuzz tiers.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro import obs
from repro.compressors import SZ3Compressor
from repro.compressors.base import CompressedArray
from repro.compressors.errors import DecompressionError
from repro.compressors.lossless import (
    decode_float_array,
    decode_int_array,
    encode_float_array,
    encode_int_array,
    pack_streams,
    unpack_streams,
)
from repro.core.mr_compressor import MultiResolutionCompressor
from repro.core.roi import extract_roi
from repro.datasets.synthetic import smooth_wave_field
from repro.store import BlockLevel, CodecEngine, ContainerReader, Store, write_container
from repro.utils.rng import default_rng

FUZZ_SEED = os.environ.get("REPRO_FUZZ_SEED", "fuzz-0")
FIXTURES = Path(__file__).parent / "fixtures" / "store"
EB = 0.05


def _rng(*label):
    return default_rng(":".join(str(part) for part in (FUZZ_SEED, "container-v3") + label))


def _field(rng, shape):
    """Correlated, with a few cells far outside the quantizer's range so some
    blocks of a stack carry exact values."""
    field = np.cumsum(rng.standard_normal(shape), axis=0)
    spikes = tuple(rng.integers(0, n, size=6) for n in shape)
    field[spikes] = 1e9
    return field


# -- (i) slot ≡ whole ≡ v2 values ---------------------------------------------------

#: name -> (unit, level-0 shape, ROI fraction or None for a plain array)
LEVELS = {
    "unit4-partial-stack": (4, (32, 32, 40), None),  # 640 blocks: 512 + 128
    "unit8": (8, (32, 32, 32), None),  # 64 blocks, one stack
    "unit16-partial-stack": (16, (48, 32, 32), None),  # 12 blocks: 8 + 4
    "2d": (4, (64, 96), None),
    "masked-hierarchy": (4, (32, 32, 32), 0.3),
}


@pytest.mark.parametrize("name", LEVELS)
def test_single_blocks_and_rois_are_windows_of_the_whole_level(tmp_path, name):
    unit, shape, roi_fraction = LEVELS[name]
    rng = _rng(name)
    data = _field(rng, shape)
    if roi_fraction is not None:
        data = extract_roi(data, roi_fraction=roi_fraction, block_size=8).hierarchy
    mrc = MultiResolutionCompressor(unit_size=unit)
    Store(tmp_path / "s", mrc).append("f", 0, data, EB)
    levels = data.levels if roi_fraction is not None else None

    reader = Store(tmp_path / "s").get("f", 0)
    assert reader.describe()["format_version"] == 3
    for info in reader.levels:
        level_data, mask = (
            (data, None) if levels is None else (levels[info.level].data, levels[info.level].mask)
        )
        block_set = mrc.prepare_unit_blocks(level_data, mask)
        # The v2 arrangement: every block its own payload.
        codec = mrc.codec
        reference = codec.decompress_batch(codec.compress_batch(block_set.blocks, EB))
        whole = reader.read_blocks(info.level)
        assert_array_equal(whole.coords, block_set.coords)
        assert_array_equal(whole.blocks, np.stack(reference))

        positions = reader.index.select(info.level, info.ndim)
        assert positions.size == info.n_blocks > 0
        assert reader.index.n_payloads < reader.n_blocks  # blocks do share payloads
        for position, want in zip(positions, reference):
            (got,) = reader.decode_entries([position])
            assert_array_equal(got, want)

        full = reader.as_array(level=info.level, fill_value=-7.0)[...]
        for k in range(50):
            lo = [int(rng.integers(0, n)) for n in info.level_shape]
            hi = [int(rng.integers(a + 1, n + 1)) for a, n in zip(lo, info.level_shape)]
            window = tuple(slice(a, b) for a, b in zip(lo, hi))
            if k % 2:  # through a cold block cache
                view = Store(tmp_path / "s").array("f", 0, level=info.level, fill_value=-7.0)
            else:  # straight into the result
                view = reader.as_array(level=info.level, fill_value=-7.0)
            assert_array_equal(view[window], full[window])


def test_requests_in_any_order_with_repeats(tmp_path):
    """Positions need not arrive in file order, nor once."""
    field = _field(_rng("order"), (32, 32, 40))
    Store(tmp_path / "s", MultiResolutionCompressor(unit_size=4)).append("f", 0, field, EB)
    reader = Store(tmp_path / "s").get("f", 0)
    whole = reader.read_blocks(0).blocks
    positions = _rng("order", "positions").integers(0, reader.n_blocks, size=300)
    for got, position in zip(reader.decode_entries(positions), positions):
        assert_array_equal(got, whole[position])
    outs = np.empty((300, 4, 4, 4))
    reader.decode_entries_into(positions, outs)
    assert_array_equal(outs, whole[positions])


def test_codecs_without_a_stacked_entropy_stage_keep_one_payload_per_block(tmp_path):
    field = smooth_wave_field((16, 16, 16), frequencies=(2.0, 3.0, 1.0))
    for name in ("sz2", "zfp"):
        store = Store(tmp_path / name, MultiResolutionCompressor(compressor=name, unit_size=8))
        store.append("f", 0, field, EB)
        reader = store.get("f", 0)
        assert reader.describe()["n_payloads"] == reader.n_blocks == 8
        assert np.abs(store["f", 0][...] - field).max() <= EB


# -- (ii) a committed v2 file ---------------------------------------------------------


def test_a_v2_file_reads_what_its_writer_read(tmp_path):
    """``v2_unit8.rps2`` was written by ``Store.append`` at the commit before
    this format (32^3 ``smooth_wave_field``, unit 8, abs 0.05) and
    ``v2_unit8_decoded.npy`` is what that commit read back from it."""
    decoded = np.load(FIXTURES / "v2_unit8_decoded.npy")
    reader = ContainerReader(FIXTURES / "v2_unit8.rps2")
    described = reader.describe()
    assert (described["format_version"], described["n_blocks"], described["n_payloads"]) == (2, 64, 64)
    assert described["nbytes_compressed"] == (FIXTURES / "v2_unit8.rps2").stat().st_size
    assert_array_equal(reader.as_array()[...], decoded)
    assert_array_equal(reader.read_roi(((3, 20), (8, 9), (0, 32))), decoded[3:20, 8:9, :])
    (block,) = reader.decode_entries([63])
    assert_array_equal(block, decoded[24:, 24:, 24:])

    store = Store(tmp_path / "s", MultiResolutionCompressor(unit_size=8))
    entry = store.adopt("pressure", 3, FIXTURES / "v2_unit8.rps2")
    assert (entry.n_blocks, entry.nbytes_compressed) == (64, described["nbytes_compressed"])
    assert_array_equal(store["pressure", 3][...], decoded)

    # The same field written today: other bytes, the same values.
    field = smooth_wave_field((32, 32, 32), frequencies=(2.0, 3.0, 1.0))
    again = store.append("pressure", 4, field, 0.05)
    assert store.get("pressure", 4).describe()["format_version"] == 3
    assert again.nbytes_compressed < entry.nbytes_compressed / 3
    assert_array_equal(store["pressure", 4][...], decoded)


# -- (iii) corruption is typed -------------------------------------------------------


def _restacked(item, codes=None, exact=None, anchors=None, n_exact=None):
    """``item`` — a stack payload — with some of its streams replaced."""
    streams = unpack_streams(item.payload)
    codes = decode_int_array(streams["codes"][1:]) if codes is None else codes
    exact = decode_float_array(streams["exact"]) if exact is None else exact
    anchors = decode_float_array(streams["anchors"]) if anchors is None else anchors
    n_exact = decode_int_array(streams["n_exact"]) if n_exact is None else n_exact
    payload = pack_streams(
        {
            "codes": b"Z" + encode_int_array(codes),
            "exact": encode_float_array(exact),
            "anchors": encode_float_array(anchors),
            "n_exact": encode_int_array(n_exact),
        }
    )
    return dataclasses.replace(item, payload=payload)


def _stream(item, name):
    blob = unpack_streams(item.payload)[name]
    return decode_int_array(blob[1:] if name == "codes" else blob) if name != "exact" else decode_float_array(blob)


PAYLOAD_CORRUPTIONS = {
    "short codes": (
        lambda c: _restacked(c, codes=_stream(c, "codes")[:-3]),
        "exhausted prematurely",
    ),
    "surplus codes": (
        lambda c: _restacked(c, codes=np.append(_stream(c, "codes"), [0, 0])),
        "2 unused entries",
    ),
    "wrong anchor count": (
        lambda c: _restacked(c, anchors=np.zeros(5)),
        "anchor stream size mismatch",
    ),
    "n_exact length": (
        lambda c: _restacked(c, n_exact=_stream(c, "n_exact")[:-1]),
        "stack of 188 blocks carries 187 exact-value counts",
    ),
    "n_exact sum": (
        lambda c: _restacked(c, exact=_stream(c, "exact")[:-1]),
        "exact-value counts add up to",
    ),
    "no n_exact stream": (
        lambda c: dataclasses.replace(
            c,
            payload=pack_streams(
                {k: bytes(v) for k, v in unpack_streams(c.payload).items() if k != "n_exact"}
            ),
        ),
        "without per-block exact-value counts",
    ),
}


@pytest.fixture(scope="module")
def stacked_level():
    """700 unit-4 blocks — a full stack and a partial one — as payload blobs."""
    blocks = np.cumsum(_rng("corrupt").standard_normal((700, 4, 4, 4)), axis=-1)
    blocks[600, 0, 0, 1] = 1e12  # the second stack has an exact stream to shorten
    coords = np.stack(np.unravel_index(np.arange(700), (10, 10, 7)), axis=1)
    return coords, CodecEngine("sz3").encode_blocks(blocks, EB)


def _write(path, coords, payloads, drop_last_row=False):
    level = BlockLevel(
        level=0, level_shape=(40, 40, 28), unit_size=4, coords=coords, payloads=payloads
    )
    if drop_last_row:  # behind the constructor's back: it checks the sum
        level.coords, level.counts = level.coords[:-1], level.counts - [0, 1]
    write_container(path, [level], error_bound=EB, codec="sz3")
    return path


def _same_error_from_one_and_many_payloads(path, message):
    reader = ContainerReader(path)
    # The corrupt stack is the one that does not start at the origin.
    bad = int(reader.index.payload_starts[np.argmax(reader.index.coords[reader.index.payload_starts].any(axis=1))])
    with pytest.raises(DecompressionError, match=message) as one:
        reader.decode_entries([bad + 5])
    assert str(path) in str(one.value)
    with pytest.raises(DecompressionError) as many:
        reader.decode_entries(np.arange(reader.n_blocks))
    assert str(many.value) == str(one.value)
    with pytest.raises(DecompressionError) as into:
        reader.read_blocks(0)
    assert str(into.value) == str(one.value)
    # The intact stack still reads.
    good = 0 if bad else int(reader.index.payload_starts[1])
    assert reader.decode_entries([good])[0].shape == (4, 4, 4)


@pytest.mark.parametrize("name", PAYLOAD_CORRUPTIONS)
def test_a_corrupt_stack_payload_is_a_typed_error_naming_the_file(tmp_path, stacked_level, name):
    corrupt, message = PAYLOAD_CORRUPTIONS[name]
    coords, payloads = stacked_level
    item = CompressedArray.from_bytes(payloads[1])
    assert item.n_blocks == 188 and _stream(item, "n_exact").sum() > 0
    with pytest.raises(DecompressionError, match=message):
        SZ3Compressor().decompress(corrupt(item))
    path = _write(tmp_path / "c.rps2", coords, [payloads[0], corrupt(item).to_bytes()])
    _same_error_from_one_and_many_payloads(path, message)


def test_index_rows_must_match_the_stack_count(tmp_path, stacked_level):
    coords, payloads = stacked_level
    path = _write(tmp_path / "c.rps2", coords, payloads, drop_last_row=True)
    _same_error_from_one_and_many_payloads(path, "holds 188 blocks but 187 index rows")
    with pytest.raises(ValueError, match="699 coords but 2 payloads holding 700 blocks"):
        _write(tmp_path / "d.rps2", coords[:-1], payloads)


def _parts(path):
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 4)
    header = json.loads(blob[8 : 8 + header_len])
    index_end = 8 + header_len + header["index_nbytes"]
    return header, blob[8 + header_len : index_end], blob[index_end:]


def _assemble(path, header, index, data):
    body = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(b"RPS2" + struct.pack("<I", len(body)) + body + index + data)
    return path


INDEX_CORRUPTIONS = {
    "truncated deflate": (
        lambda h, i, d: ({**h, "index_nbytes": len(i) - 9}, i[:-9], d),
        "corrupt block index",
    ),
    "garbage": (
        lambda h, i, d: (h, bytes(len(i)), d),
        "corrupt block index",
    ),
    "inflates to other rows": (
        lambda h, i, d: (
            {**h, "index_nbytes": len(zlib.compress(bytes(48 * 3)))},
            zlib.compress(bytes(48 * 3)),
            d,
        ),
        "700 blocks need 33600 bytes",
    ),
    "index_nbytes past EOF": (
        lambda h, i, d: ({**h, "index_nbytes": 10**9}, i, d),
        "truncated container",
    ),
    "negative index_nbytes": (
        lambda h, i, d: ({**h, "index_nbytes": -4}, i, d),
        "truncated container",
    ),
    "no index_nbytes": (
        lambda h, i, d: ({k: v for k, v in h.items() if k != "index_nbytes"}, i, d),
        "corrupt container header",
    ),
    "unknown version": (
        lambda h, i, d: ({**h, "format_version": 4}, i, d),
        "supports 2 and 3",
    ),
}


@pytest.mark.parametrize("name", INDEX_CORRUPTIONS)
def test_a_corrupt_index_section_is_refused_at_open(tmp_path, stacked_level, name):
    corrupt, message = INDEX_CORRUPTIONS[name]
    good = _write(tmp_path / "good.rps2", *stacked_level)
    bad = _assemble(tmp_path / "bad.rps2", *corrupt(*_parts(good)))
    with pytest.raises(DecompressionError, match=message) as caught:
        ContainerReader(bad)
    assert str(bad) in str(caught.value)
    store = Store(tmp_path / "s")
    with pytest.raises(DecompressionError, match=message):
        store.adopt("f", 0, bad)
    assert len(store) == 0 and not list((tmp_path / "s").rglob("*.rps2"))
    # The same parts, untouched, are the file.
    assert _assemble(tmp_path / "same.rps2", *_parts(good)).read_bytes() == good.read_bytes()


# -- (iv) spies -----------------------------------------------------------------------


@pytest.fixture
def spies(monkeypatch):
    """Blocks per ``_decode_stack`` call, and ``zlib.decompress`` calls."""
    seen = {"kernel": [], "inflate": 0}
    kernel = SZ3Compressor._decode_stack

    def decode_stack(self, recon, parts):
        seen["kernel"].append(len(recon))
        return kernel(self, recon, parts)

    inflate = zlib.decompress

    def decompress(*args, **kwargs):
        seen["inflate"] += 1
        return inflate(*args, **kwargs)

    monkeypatch.setattr(SZ3Compressor, "_decode_stack", decode_stack)
    monkeypatch.setattr(zlib, "decompress", decompress)
    return seen


@pytest.fixture
def traced():
    obs.TRACER.enable()
    try:
        yield obs.TRACER
    finally:
        obs.TRACER.disable()
        obs.TRACER.clear()


def _spans(tracer, name, read):
    with tracer.trace("test") as root:
        read()
    return [s["attrs"] for s in tracer.trace_spans(root.trace_id) if s["name"] == name]


def test_a_whole_unit4_level_is_eight_full_stacks(tmp_path, spies, traced):
    field = np.cumsum(_rng("spy4").standard_normal((64, 64, 64)), axis=0)
    store = Store(tmp_path / "s", MultiResolutionCompressor(unit_size=4))
    entry = store.append("f", 0, field, EB)
    assert entry.n_blocks == 4096 and entry.compression_ratio > 4
    view = Store(tmp_path / "s")["f", 0]
    reader = view.source.reader
    assert reader.describe()["n_payloads"] == 8
    spies["inflate"] = 0

    fetches = _spans(traced, "fetch", lambda: view[...])
    assert spies["kernel"] == [512] * 8
    assert spies["inflate"] <= 40
    assert reader.stats["blocks_decoded"] == 4096
    assert reader.stats["payload_bytes_read"] == reader.index.nbytes_payloads
    assert [(a["blocks"], a["payloads"]) for a in fetches] == [(4096, 8)]

    # One block: one payload fetched and inflated, one block reconstructed.
    spies["kernel"].clear()
    spies["inflate"] = 0
    before = dict(reader.stats)
    decodes = _spans(traced, "decode", lambda: reader.decode_entries([777]))
    assert spies["kernel"] == [1] and spies["inflate"] <= 4
    assert reader.stats["blocks_decoded"] == before["blocks_decoded"] + 1
    assert reader.stats["payload_bytes_read"] - before["payload_bytes_read"] == int(
        reader.index.lengths[777]
    )
    assert [(a["blocks"], a["payloads"]) for a in decodes] == [(1, 1)]


def test_a_32_cube_of_a_unit16_entry_is_one_kernel_call_of_eight(tmp_path, spies):
    field = np.cumsum(_rng("spy16").standard_normal((64, 64, 64)), axis=0)
    Store(tmp_path / "s", MultiResolutionCompressor(unit_size=16)).append("f", 0, field, EB)
    store = Store(tmp_path / "s")
    view = store["f", 0]
    # A Morton octant is one stack; a cube across octants takes a block of each.
    for window in (np.s_[32:64, 0:32, 32:64], np.s_[16:48, 16:48, 16:48]):
        spies["kernel"].clear()
        store.block_cache.clear()
        out = view[window]
        assert spies["kernel"] == [8]
        assert np.abs(out - field[window]).max() <= EB
    assert view.source.reader.stats["blocks_decoded"] == 16
