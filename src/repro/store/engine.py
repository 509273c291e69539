"""Codec entry points of the block store: one batched call each way.

A level is cut into equal unit blocks that are small (a 16^3 float64 block is
32 KiB, a 4^3 block 512 bytes), so its cost is per-block overhead, not
arithmetic — and the codec is what removes it.  Encoding a level is one
:meth:`~repro.compressors.base.Compressor.compress_batch` call on the stacked
blocks; decoding a request is one
:meth:`~repro.compressors.base.Compressor.decompress_batch` call per codec
present in it (for a container, one).  A codec with a batched kernel (SZ3)
predicts and quantises a whole stack together and runs only its entropy stage
per block, and it alone decides how many blocks share a kernel call: it knows
its working set (``sz3._STACK_BYTES``).  Nothing here depends on the core
count, and there is nothing to configure.

On the way in, each *distinct* payload header is parsed once (the blocks of a
level differ in ``n_unpredictable`` only), and the codec stacks the payloads
whose decode-relevant fields agree.
"""

from __future__ import annotations

import time
from itertools import groupby
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.compressors.base import CompressedArray, Compressor, get_compressor
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
#: parsing a whole level at once would hold headers in proportion to its block
#: count beside the result.  A multiple of the stack the SZ3 kernel forms for
#: 4^3 blocks (512), the smallest unit a workload stores, so a slice does not
#: cut those stacks short.
_SLICE = 1024


def _codec_runs(
    payloads: Sequence[bytes],
) -> Iterator[Tuple[Compressor, int, List[CompressedArray]]]:
    """Parse payload blobs ``_SLICE`` at a time and yield ``(codec, start,
    items)`` per maximal run of consecutive payloads of one codec — for a
    container, one run per slice.

    The blocks of a level carry a handful of distinct headers (they differ in
    ``n_unpredictable`` only), so each distinct header byte string is parsed
    once per slice; the memo dies with its slice.
    """
    for base in range(0, len(payloads), _SLICE):
        headers: Dict[bytes, dict] = {}
        items = [
            CompressedArray.from_bytes(blob, headers)
            for blob in payloads[base : base + _SLICE]
        ]
        start = base
        for name, run in groupby(items, key=attrgetter("codec")):
            run = list(run)
            yield get_compressor(name), start, run
            start += len(run)


def decode_payloads(payloads: Sequence[bytes]) -> List[np.ndarray]:
    """Decode standalone per-block payload blobs back to block arrays.

    Each run of one codec is one
    :meth:`~repro.compressors.base.Compressor.decompress_batch` call; blocks
    come back in request order and every one owns its memory.
    """
    began = time.perf_counter()
    out: List[np.ndarray] = []
    for codec, _, items in _codec_runs(payloads):
        out.extend(codec.decompress_batch(items))
    _DECODE_SECONDS.observe(time.perf_counter() - began)
    return out


def decode_payloads_into(
    payloads: Sequence[bytes],
    outs: Sequence[np.ndarray],
    srcs: Optional[Sequence] = None,
) -> None:
    """Decode payload blobs straight into caller-preallocated destinations.

    ``outs[i]`` receives the reconstruction of ``payloads[i]`` — restricted
    to the ``srcs[i]`` source window when given (edge blocks paste only their
    overlap).  Small blocks are reconstructed as a bounded stack and pasted,
    a block too large to stack reconstructs inside its destination view, and
    codecs without a batched kernel decode then copy, so the two entry
    points are always bit-for-bit identical.
    """
    began = time.perf_counter()
    for codec, start, items in _codec_runs(payloads):
        stop = start + len(items)
        # Sliced, not listified: the windows may be a lazy sequence.
        codec.decompress_batch(
            items, outs[start:stop], None if srcs is None else srcs[start:stop]
        )
    _DECODE_SECONDS.observe(time.perf_counter() - began)


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
        """Encode ``(n, u, u[, u])`` unit blocks into per-block payload blobs."""
        # The payload header records the input's dtype; a block is float64.
        blocks = np.asarray(blocks, dtype=np.float64)
        began = time.perf_counter()
        out = [
            compressed.to_bytes()
            for compressed in self._compressor.compress_batch(blocks, float(error_bound))
        ]
        _ENCODE_SECONDS.observe(time.perf_counter() - began)
        return out
