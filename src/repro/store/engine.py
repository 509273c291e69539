"""Codec entry points of the block store: one batched call each way.

A level is cut into equal unit blocks that are small (a 16^3 float64 block is
32 KiB, a 4^3 block 512 bytes), so its cost is per-block overhead, not
arithmetic — and the codec is what removes it.  Encoding a level is one
:meth:`~repro.compressors.base.Compressor.compress_stacks` call on the stacked
blocks; decoding a request is one
:meth:`~repro.compressors.base.Compressor.decompress_batch` call per codec
present in it (for a container, one).  A codec with a batched kernel (SZ3)
predicts and quantises a whole stack together and entropy-codes it as one
*stack payload* — one header and one set of streams for up to
``sz3._STACK_BYTES`` of blocks — and it alone decides how many blocks share a
kernel call and a payload.  Nothing here depends on the core count, and there
is nothing to configure.

On the way in a request is payloads plus, from a container reader, the
*slots* it wants out of each: every payload header is parsed once (each
distinct one, for payloads that hold a single block and differ in
``n_unpredictable`` only), every payload inflated once, and the codec stacks
the wanted blocks of payloads whose decode-relevant fields agree.  On the way
out the blocks land in one destination — the ``(n, *unit)`` array a container
read returns, which owns its memory, or a lazy view's block grid — one
reconstructed kernel stack per assignment.
"""

from __future__ import annotations

import time
from itertools import groupby
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.compressors.base import CompressedArray, Compressor, get_compressor
from repro.compressors.errors import DecompressionError
from repro.obs import REGISTRY

__all__ = ["CodecEngine", "decode_payloads", "decode_payloads_into"]

#: What one public encode/decode call costs once the codec has batched it.
_BATCH_SECONDS = REGISTRY.histogram(
    "repro_engine_batch_seconds",
    "Codec batch latency (one public encode/decode call).",
    labelnames=("op",),
)
_ENCODE_SECONDS = _BATCH_SECONDS.labels(op="encode")
_DECODE_SECONDS = _BATCH_SECONDS.labels(op="decode")

#: Payloads parsed (and handed to the codec) at a time.  Every parsed
#: ``CompressedArray`` stays alive until its slice is decoded (~690 B each), so
#: where a payload is a single block — SZ2 and ZFP levels, version-2 files —
#: parsing a whole level at once would hold headers in proportion to its block
#: count beside the result.  A multiple of the stack the SZ3 kernel forms for
#: 4^3 blocks (512), the smallest unit a workload stores, so a slice does not
#: cut those stacks short.
_SLICE = 1024


def _codec_runs(
    payloads: Sequence[bytes], counts: Optional[Sequence[int]]
) -> Iterator[Tuple[Compressor, int, int, List[CompressedArray]]]:
    """Parse payload blobs ``_SLICE`` at a time and yield ``(codec, start,
    stop, items)`` per maximal run ``payloads[start:stop]`` of one codec — for
    a container, one run per slice.

    Payloads that hold one block each carry a handful of distinct headers
    (they differ in ``n_unpredictable`` only), so each distinct header byte
    string is parsed once per slice; the memo dies with its slice.
    """
    for base in range(0, len(payloads), _SLICE):
        headers: Dict[bytes, dict] = {}
        items = [
            CompressedArray.from_bytes(blob, headers)
            for blob in payloads[base : base + _SLICE]
        ]
        if counts is not None:
            for item, expected in zip(items, counts[base : base + _SLICE]):
                if item.n_blocks != expected:
                    raise DecompressionError(
                        f"payload holds {item.n_blocks} blocks but {expected} index "
                        "rows point at it"
                    )
        start = base
        for name, run in groupby(items, key=attrgetter("codec")):
            run = list(run)
            yield get_compressor(name), start, start + len(run), run
            start += len(run)


def decode_payloads(
    payloads: Sequence[bytes],
    slots: Optional[Sequence[Sequence[int]]] = None,
    counts: Optional[Sequence[int]] = None,
) -> List[np.ndarray]:
    """Decode self-describing payload blobs back to arrays.

    Each run of one codec is one
    :meth:`~repro.compressors.base.Compressor.decompress_batch` call; results
    come back in request order and every one owns its memory.  A payload
    decodes to the array it holds — for a stack payload, the whole stack.
    A container reader wants single blocks: ``slots[i]`` lists the blocks it
    needs out of ``payloads[i]`` (the results then run over those blocks,
    payload by payload) and ``counts[i]`` is how many blocks its index says
    the payload holds, which the payload's own header has to confirm.
    """
    return _decode(payloads, None, None, slots, counts)


def decode_payloads_into(
    payloads: Sequence[bytes],
    outs: Sequence[np.ndarray],
    srcs: Optional[Sequence] = None,
    slots: Optional[Sequence[Sequence[int]]] = None,
    counts: Optional[Sequence[int]] = None,
) -> None:
    """Decode payload blobs straight into caller-preallocated destinations.

    ``outs[k]`` receives result *k* of :func:`decode_payloads` — restricted
    to the ``srcs[k]`` source window when given.  ``outs`` is either a list
    of windows, each written alone, or one row-addressable destination (an
    ndarray, or anything taking ``outs[rows] = stack``), which SZ3 fills one
    reconstructed kernel stack per assignment.  A block too large to stack
    reconstructs inside its destination view, and codecs without a batched
    kernel decode then copy, so the two entry points are always bit-for-bit
    identical.
    """
    _decode(payloads, outs, srcs, slots, counts)


def _decode(payloads, outs, srcs, slots, counts) -> List[np.ndarray]:
    began = time.perf_counter()
    # Results first[i]:first[i + 1] of the request come out of payload i.
    first: Sequence[int] = range(len(payloads) + 1)
    if slots is not None:
        first = np.cumsum([0] + [len(wanted) for wanted in slots]).tolist()
    results: List[np.ndarray] = []
    for codec, start, stop, items in _codec_runs(payloads, counts):
        lo, hi = first[start], first[stop]
        # Sliced, not listified: the destination may be one block grid.
        decoded = codec.decompress_batch(
            items,
            None if outs is None else outs[lo:hi],
            None if srcs is None else srcs[lo:hi],
            None if slots is None else slots[start:stop],
        )
        if outs is None:
            results.extend(decoded)
    _DECODE_SECONDS.observe(time.perf_counter() - began)
    return results


class CodecEngine:
    """The encode side of the block path: unit blocks in, payload blobs out.

    Parameters
    ----------
    codec:
        Compressor registry name (``"sz3"``, ``"sz2"``, ``"zfp"``).
    codec_options:
        Constructor options for the codec.
    """

    def __init__(self, codec: str = "sz3", codec_options: Optional[dict] = None) -> None:
        self.codec = str(codec)
        self.codec_options = dict(codec_options or {})
        # Built once; an unregistered name raises UnknownCompressorError here.
        self._compressor = get_compressor(self.codec, **self.codec_options)

    @classmethod
    def from_compressor(cls, compressor) -> "CodecEngine":
        """Build an engine matching a :class:`MultiResolutionCompressor` codec."""
        kind, options = compressor.codec_spec()
        return cls(codec=kind, codec_options=options)

    def encode_blocks(self, blocks: np.ndarray, error_bound: float) -> List[bytes]:
        """Encode ``(n, u, u[, u])`` unit blocks into payload blobs.

        Each blob holds a run of consecutive blocks — as long a run as the
        codec can still read single blocks out of
        (:meth:`~repro.compressors.base.Compressor.compress_stacks`), so one
        block per blob for codecs that merge nothing — and says how many in
        its own header.
        """
        # The payload header records the input's dtype; a block is float64.
        blocks = np.asarray(blocks, dtype=np.float64)
        began = time.perf_counter()
        out = [
            compressed.to_bytes()
            for compressed in self._compressor.compress_stacks(blocks, float(error_bound))
        ]
        _ENCODE_SECONDS.observe(time.perf_counter() - began)
        return out
