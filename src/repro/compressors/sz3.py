"""SZ3-like global interpolation compressor.

The compressor predicts the whole array with the multi-level separable
interpolation of :mod:`repro.compressors.interpolation`, quantizes prediction
residuals with a strict absolute error bound, and entropy-codes the resulting
integer stream.  Two hooks are exposed because the paper's SZ3MR needs them:

* ``level_error_bounds`` — a callable mapping ``(level, max_level, base_eb)``
  to the error bound used at that interpolation level.  The default is the
  constant base bound (original SZ3); SZ3MR installs the adaptive schedule of
  §III-A (Improvement 2).
* ``interpolation`` — ``"linear"`` or ``"cubic"`` prediction kernel.

The quantization-code order is fully determined by the array shape, so the
payload only carries three streams (codes, unpredictable values, anchors).

There is one traversal in each direction, and it works on a *stack*
``(N, *shape)``: the block store cuts a level into thousands of equal-shaped
unit blocks, each encoded standalone, and what those blocks share — the
interpolation plan (memoised per shape), every prediction, quantization and
dequantization step — runs once per step across the leading axis instead of
once per block.  What cannot be shared stays per block: the entropy streams
(``pack_streams`` + zlib/Huffman) and the header, because each payload must
decode alone, and the cursor into each block's unpredictable-value stream.
``compress``/``decompress`` of a single array are the ``N = 1`` call of the
same two kernels (``_encode_stack`` / ``_decode_stack``), so the batched and
the per-array results are the same bytes by construction, and
``decompress_into`` keeps reconstructing inside the destination (``out[None]``
is a view).  A stack is bounded in decoded bytes (``_STACK_BYTES``), so peak
memory does not grow with the number of blocks a caller hands over.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.compressors.base import CompressedArray, Compressor, register_compressor
from repro.compressors.errors import CompressionError, DecompressionError
from repro.compressors.huffman import huffman_decode, huffman_encode
from repro.compressors.interpolation import build_plan, predict_step
from repro.compressors.lossless import (
    decode_float_array,
    decode_int_array,
    encode_float_array,
    encode_int_array,
    lossless_compress,
    lossless_decompress,
    pack_streams,
    unpack_streams,
)
from repro.compressors.quantizer import DEFAULT_CODE_RADIUS, LinearQuantizer

__all__ = ["SZ3Compressor", "constant_level_error_bounds"]

LevelErrorBoundFn = Callable[[int, int, float], float]

#: Decoded bytes one kernel call stacks.  Its working set — int64 codes plus
#: the prediction temporaries — is about five times that, so the bound keeps a
#: call inside a couple of MiB (and a level-sized read from allocating a
#: second level) however many blocks the caller hands over.  A block larger
#: than the bound is simply a stack of one.
_STACK_BYTES = 256 * 1024


def constant_level_error_bounds(level: int, max_level: int, base_eb: float) -> float:
    """Original SZ3 behaviour: the same error bound at every interpolation level."""
    return base_eb


@register_compressor("sz3")
class SZ3Compressor(Compressor):
    """Global interpolation-based error-bounded lossy compressor."""

    def __init__(
        self,
        interpolation: str = "cubic",
        level_error_bounds: Optional[LevelErrorBoundFn] = None,
        entropy: str = "zlib",
        lossless_level: int = 6,
        quantizer_radius: int = DEFAULT_CODE_RADIUS,
    ) -> None:
        super().__init__()
        if interpolation not in ("linear", "cubic"):
            raise ValueError("interpolation must be 'linear' or 'cubic'")
        if entropy not in ("zlib", "huffman"):
            raise ValueError("entropy must be 'zlib' or 'huffman'")
        self.interpolation = interpolation
        self.level_error_bounds = level_error_bounds or constant_level_error_bounds
        self.entropy = entropy
        self.lossless_level = int(lossless_level)
        self.quantizer = LinearQuantizer(radius=quantizer_radius)

    # -- compression --------------------------------------------------------
    def _compress_impl(self, data: np.ndarray, error_bound: float) -> Tuple[bytes, Dict]:
        return self._encode_stack(data[None], error_bound)[0]

    def _compress_stack(
        self, stack: np.ndarray, error_bound: float
    ) -> List[Tuple[bytes, Dict]]:
        per_call = _blocks_per_stack(stack.shape[1:])
        encoded: List[Tuple[bytes, Dict]] = []
        for start in range(0, len(stack), per_call):
            encoded.extend(self._encode_stack(stack[start : start + per_call], error_bound))
        return encoded

    def _encode_stack(
        self, stack: np.ndarray, error_bound: float
    ) -> List[Tuple[bytes, Dict]]:
        """The encode kernel: ``(payload, metadata)`` per block of ``(N, *shape)``."""
        n = len(stack)
        plan = build_plan(stack.shape[1:])
        # Per-level error bounds are resolved once and stored in the metadata
        # so the decompressor replays exactly the same schedule.
        level_ebs = {
            level: float(self.level_error_bounds(level, plan.max_level, error_bound))
            for level in range(1, plan.max_level + 1)
        }
        for level, eb in level_ebs.items():
            if eb <= 0:
                raise CompressionError(f"level {level} error bound must be positive, got {eb}")

        anchor = (slice(None),) + plan.anchor
        recon = np.zeros_like(stack)
        recon[anchor] = stack[anchor]
        anchors = stack[anchor].reshape(n, -1)

        codes = np.empty((n, plan.n_codes), dtype=np.int64)
        exact_segments: List[List[np.ndarray]] = [[] for _ in range(n)]
        cursor = 0
        for step in plan.steps:
            target = (slice(None),) + step.target
            pred = predict_step(recon, step, mode=self.interpolation)
            qr = self.quantizer.quantize(stack[target], pred, level_ebs[step.level])
            recon[target] = qr.reconstructed.reshape(pred.shape)
            segment = codes[:, cursor : cursor + step.size]
            segment[...] = qr.codes.reshape(n, step.size)
            cursor += step.size
            if qr.exact_values.size:
                # Exact values come out in stack order; each block's own
                # stream takes the run its sentinel codes account for.
                counts = (segment == self.quantizer.sentinel).sum(axis=1)
                runs = np.split(qr.exact_values, np.cumsum(counts)[:-1])
                for i in np.flatnonzero(counts):
                    exact_segments[i].append(runs[i])

        # Only the entropy stage is per block: each payload must stand alone.
        level_meta = {str(k): v for k, v in level_ebs.items()}
        no_exact = np.zeros(0, dtype=np.float64)
        encoded = []
        for i in range(n):
            exact = np.concatenate(exact_segments[i]) if exact_segments[i] else no_exact
            if self.entropy == "huffman":
                codes_blob = b"H" + lossless_compress(
                    huffman_encode(codes[i]), backend="zlib", level=self.lossless_level
                )
            else:
                codes_blob = b"Z" + encode_int_array(codes[i], level=self.lossless_level)
            payload = pack_streams(
                {
                    "codes": codes_blob,
                    "exact": encode_float_array(exact, level=self.lossless_level),
                    "anchors": encode_float_array(anchors[i], level=self.lossless_level),
                }
            )
            metadata = {
                "interpolation": self.interpolation,
                "entropy": self.entropy,
                "max_level": plan.max_level,
                "level_error_bounds": dict(level_meta),
                "n_unpredictable": int(exact.size),
                "quantizer_radius": self.quantizer.radius,
            }
            encoded.append((payload, metadata))
        return encoded

    # -- decompression ------------------------------------------------------
    def _decompress_impl(self, compressed: CompressedArray) -> np.ndarray:
        recon = np.empty(tuple(compressed.shape), dtype=np.float64)
        self._decode_stack([compressed], recon[None])
        return recon

    def _decompress_into_impl(
        self, compressed: CompressedArray, out: np.ndarray
    ) -> Optional[np.ndarray]:
        # The interpolation traversal is a sequence of strided assignments, so
        # it reconstructs directly inside any float64 destination view — e.g.
        # a window of a query's output array — with no block temporary.
        if out.dtype != np.float64:
            return self._decompress_impl(compressed)
        self._decode_stack([compressed], out[None])
        return None

    def decompress_batch(
        self,
        items: Sequence[CompressedArray],
        outs: Optional[Sequence[np.ndarray]] = None,
        srcs: Optional[Sequence] = None,
    ) -> Sequence[np.ndarray]:
        results: List[Optional[np.ndarray]] = [None] * len(items)
        for part in self._stackable(items):
            if len(part) == 1:
                # A stack of one is the single-array call: it owns its
                # result, or reconstructs inside the destination.
                i = part[0]
                if outs is None:
                    results[i] = self.decompress(items[i])
                else:
                    self.decompress_into(items[i], outs[i], None if srcs is None else srcs[i])
                continue
            stack = np.empty((len(part),) + tuple(items[part[0]].shape), dtype=np.float64)
            self._decode_stack([items[i] for i in part], stack)
            for block, i in zip(stack, part):
                if outs is None:
                    # A view would pin the whole stack for as long as a
                    # cache keeps this one block.
                    results[i] = block.copy()
                else:
                    src = None if srcs is None else srcs[i]
                    np.copyto(outs[i], block if src is None else block[src])
        return results if outs is None else outs

    def _stackable(self, items: Sequence[CompressedArray]) -> Iterator[List[int]]:
        """Positions of payloads one kernel call can take together: equal
        :func:`_decode_spec`, at most ``_STACK_BYTES`` decoded."""
        groups: Dict[Tuple, List[int]] = {}
        for i, compressed in enumerate(items):
            self._check_codec(compressed)
            groups.setdefault(_decode_spec(compressed), []).append(i)
        for spec, members in groups.items():
            per_call = _blocks_per_stack(spec[0])
            for start in range(0, len(members), per_call):
                yield members[start : start + per_call]

    def _decode_stack(self, items: Sequence[CompressedArray], recon: np.ndarray) -> None:
        """The decode kernel: reconstruct payloads that agree on
        :func:`_decode_spec` into ``recon``, an ``(len(items), *shape)`` view."""
        meta = items[0].metadata
        plan = build_plan(recon.shape[1:])
        level_ebs = {int(k): float(v) for k, v in meta["level_error_bounds"].items()}
        interpolation = meta.get("interpolation", "cubic")
        quantizer = LinearQuantizer(
            radius=int(meta.get("quantizer_radius", DEFAULT_CODE_RADIUS))
        )

        # Only the entropy stage is per block: unpack each payload's streams.
        anchor = (slice(None),) + plan.anchor
        anchor_shape = recon[anchor].shape
        n_anchors = math.prod(anchor_shape[1:])
        code_rows, anchor_rows, exact = [], [], []
        for compressed in items:
            streams = unpack_streams(compressed.payload)
            codes_blob = streams["codes"]
            tag, body = codes_blob[:1], codes_blob[1:]
            if tag == b"H":
                row = huffman_decode(lossless_decompress(body))
            elif tag == b"Z":
                row = decode_int_array(body)
            else:
                raise DecompressionError(f"unknown code-stream tag {bytes(tag)!r}")
            if row.size < plan.n_codes:
                raise DecompressionError("quantization-code stream exhausted prematurely")
            if row.size > plan.n_codes:
                raise DecompressionError(
                    f"code stream has {row.size - plan.n_codes} unused entries"
                )
            code_rows.append(row)
            exact.append(decode_float_array(streams["exact"]))
            anchors = decode_float_array(streams["anchors"])
            if anchors.size != n_anchors:
                raise DecompressionError("anchor stream size mismatch")
            anchor_rows.append(anchors)
        # (A lone row is viewed, not copied: a whole array's codes are large.)
        codes = code_rows[0][None] if len(items) == 1 else np.stack(code_rows)

        # Zero-fill first: the traversal writes every cell, but correctness
        # never rests on that coverage argument.
        recon[...] = 0.0
        recon[anchor] = np.concatenate(anchor_rows).reshape(anchor_shape)

        cursor = 0
        exact_cursor = [0] * len(items)
        no_exact = np.zeros(0, dtype=np.float64)
        for step in plan.steps:
            eb_level = level_ebs.get(step.level)
            if eb_level is None:
                raise DecompressionError(f"missing error bound for level {step.level}")
            pred = predict_step(recon, step, mode=interpolation)
            segment = codes[:, cursor : cursor + step.size]
            cursor += step.size
            step_exact = no_exact
            unpredictable = segment == quantizer.sentinel
            if unpredictable.any():
                # dequantize consumes exact values in stack order: hand it
                # each block's next run, advancing that block's cursor.
                counts = unpredictable.sum(axis=1)
                runs = []
                for i in np.flatnonzero(counts):
                    run = exact[i][exact_cursor[i] : exact_cursor[i] + counts[i]]
                    if run.size != counts[i]:
                        raise DecompressionError(
                            f"need {counts[i]} exact values but only {run.size} available"
                        )
                    exact_cursor[i] += counts[i]
                    runs.append(run)
                step_exact = np.concatenate(runs)
            values, _ = quantizer.dequantize(segment, pred, eb_level, step_exact)
            recon[(slice(None),) + step.target] = values.reshape(pred.shape)


def _blocks_per_stack(shape: Tuple[int, ...]) -> int:
    return max(1, _STACK_BYTES // max(8, 8 * math.prod(shape)))


def _decode_spec(compressed: CompressedArray) -> Tuple:
    """Everything the decode traversal depends on: payloads with equal specs
    can be reconstructed as one stack (``n_unpredictable`` may differ)."""
    meta = compressed.metadata
    return (
        tuple(compressed.shape),
        meta.get("interpolation", "cubic"),
        meta.get("quantizer_radius", DEFAULT_CODE_RADIUS),
        tuple(meta["level_error_bounds"].items()),
    )
