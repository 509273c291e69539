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
unit blocks, and what those blocks share — the interpolation plan (memoised
per shape), every prediction, quantization and dequantization step — runs
once per step across the leading axis instead of once per block.  The entropy
stage is per *payload*, and a payload holds as many blocks as its caller
wants to be able to read alone:

* ``compress`` / ``compress_batch`` write one block per payload (the
  ``N = 1`` case, byte for byte what a single array always compressed to);
* ``compress_stacks`` — what the store writes with — entropy-codes each
  kernel stack as **one** payload, the way the paper's SZ3MR merges a level
  before its entropy stage: one header, one code stream (``N x n_codes``), one
  anchor stream, the blocks' exact values back to back plus their ``N``
  counts (``n_exact``).  Such a *stack payload* is an ordinary
  :class:`CompressedArray` of shape ``(N, *shape)`` with ``"stack": true`` in
  its metadata; ``decompress`` gives the whole stack.

Prediction stays per block either way, so reading one block out of a stack
(``decompress_batch(..., slots=)``) inflates the stack's streams once, keeps
that block's row and *reconstructs* one block; rows gathered from several
payloads share a kernel call exactly as standalone payloads do.  The only
per-block state below the entropy stage is the cursor into each block's
exact values.  ``decompress_into`` keeps reconstructing inside the
destination (``out[None]`` is a view).  A stack is bounded in decoded bytes
(``_STACK_BYTES``), so peak memory does not grow with the number of blocks a
caller hands over — and the same bound is the size of a stack payload.
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
#: than the bound is simply a stack of one.  It is also how much one stack
#: payload decodes to: what a one-block read inflates (not reconstructs).
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
        return self._encode_stack(data[None], error_bound, merged=True)[0]

    def _compress_stack(
        self, stack: np.ndarray, error_bound: float
    ) -> List[Tuple[bytes, Dict]]:
        encoded: List[Tuple[bytes, Dict]] = []
        for run in _kernel_runs(stack):
            encoded.extend(self._encode_stack(run, error_bound, merged=False))
        return encoded

    def compress_stacks(self, blocks: np.ndarray, abs_bound: float) -> List[CompressedArray]:
        stack, eb = self._checked_batch(blocks, abs_bound)
        out: List[CompressedArray] = []
        for run in _kernel_runs(stack):
            # A run of one block is the plain single-array payload.
            shape = run.shape if len(run) > 1 else run.shape[1:]
            out.extend(self._package(blocks, shape, eb, self._encode_stack(run, eb, merged=True)))
        return out

    def _encode_stack(
        self, stack: np.ndarray, error_bound: float, merged: bool
    ) -> List[Tuple[bytes, Dict]]:
        """The encode kernel: predict and quantise ``(N, *shape)`` together,
        then entropy-code the whole stack into one ``(payload, metadata)``
        (``merged``) or every block into its own."""
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
                # run takes what its sentinel codes account for.
                counts = (segment == self.quantizer.sentinel).sum(axis=1)
                runs = np.split(qr.exact_values, np.cumsum(counts)[:-1])
                for i in np.flatnonzero(counts):
                    exact_segments[i].append(runs[i])

        metadata = {
            "interpolation": self.interpolation,
            "entropy": self.entropy,
            "max_level": plan.max_level,
            "level_error_bounds": {str(k): v for k, v in level_ebs.items()},
            "quantizer_radius": self.quantizer.radius,
        }
        exact = [np.concatenate(segments) if segments else _NO_EXACT for segments in exact_segments]
        payloads = [slice(0, n)] if merged else [slice(i, i + 1) for i in range(n)]
        return [
            self._entropy_pack(codes[rows], anchors[rows], exact[rows], metadata)
            for rows in payloads
        ]

    def _entropy_pack(
        self,
        codes: np.ndarray,
        anchors: np.ndarray,
        exact: List[np.ndarray],
        metadata: Dict,
    ) -> Tuple[bytes, Dict]:
        """One payload for the blocks given: one code stream, one anchor
        stream, the blocks' exact values back to back.  More than one block
        makes it a *stack* payload, which also says where each block's exact
        values end."""
        if self.entropy == "huffman":
            codes_blob = b"H" + lossless_compress(
                huffman_encode(codes.ravel()), backend="zlib", level=self.lossless_level
            )
        else:
            codes_blob = b"Z" + encode_int_array(codes, level=self.lossless_level)
        streams = {
            "codes": codes_blob,
            "exact": encode_float_array(np.concatenate(exact), level=self.lossless_level),
            "anchors": encode_float_array(anchors, level=self.lossless_level),
        }
        metadata = dict(
            metadata,
            level_error_bounds=dict(metadata["level_error_bounds"]),  # one per payload
            n_unpredictable=sum(run.size for run in exact),
        )
        if len(codes) > 1:
            streams["n_exact"] = encode_int_array(
                np.array([run.size for run in exact], dtype=np.int64), level=self.lossless_level
            )
            metadata["stack"] = True
        return pack_streams(streams), metadata

    # -- decompression ------------------------------------------------------
    def _decompress_impl(self, compressed: CompressedArray) -> np.ndarray:
        recon = np.empty(tuple(compressed.shape), dtype=np.float64)
        self._decode_stack(_block_rows(compressed, recon), [(compressed, None)])
        return recon

    def _decompress_into_impl(
        self, compressed: CompressedArray, out: np.ndarray
    ) -> Optional[np.ndarray]:
        # The interpolation traversal is a sequence of strided assignments, so
        # it reconstructs directly inside any float64 destination view — e.g.
        # a window of a query's output array — with no block temporary.
        if out.dtype != np.float64:
            return self._decompress_impl(compressed)
        self._decode_stack(_block_rows(compressed, out), [(compressed, None)])
        return None

    def decompress_batch(
        self,
        items: Sequence[CompressedArray],
        outs: Optional[Sequence[np.ndarray]] = None,
        srcs: Optional[Sequence] = None,
        slots: Optional[Sequence[Sequence[int]]] = None,
    ) -> Sequence[np.ndarray]:
        if slots is None:
            slots = [None] * len(items)  # every payload whole, as one array
        # Item i's results are first[i]:first[i + 1] of the request.
        first = np.cumsum([0] + [1 if wanted is None else len(wanted) for wanted in slots]).tolist()
        results: List[Optional[np.ndarray]] = [None] * first[-1]

        def deliver(k: int, block: np.ndarray) -> None:
            if outs is None:
                # A view would pin the whole stack for as long as a cache
                # keeps this one block.
                results[k] = block.copy()
            else:
                src = None if srcs is None else srcs[k]
                np.copyto(outs[k], block if src is None else block[src])

        for call in self._stackable(items, slots):
            lone = call[0]
            if (
                len(call) == 1
                and items[lone].n_blocks == 1
                and (slots[lone] is None or list(slots[lone]) == [0])
            ):
                # One plain payload is the single-array call: it owns its
                # result, or reconstructs inside the destination.
                k = first[lone]
                if outs is None:
                    results[k] = self.decompress(items[lone])
                else:
                    self.decompress_into(items[lone], outs[k], None if srcs is None else srcs[k])
                continue
            parts = [(items[i], slots[i]) for i in call]
            n_rows = sum(c.n_blocks if wanted is None else len(wanted) for c, wanted in parts)
            stack = np.empty((n_rows,) + items[lone].block_shape, dtype=np.float64)
            self._decode_stack(stack, parts)
            row = 0
            for i in call:
                if slots[i] is None:
                    whole = stack[row : row + items[i].n_blocks]
                    deliver(first[i], whole.reshape(items[i].shape))
                    row += len(whole)
                else:
                    for k in range(first[i], first[i + 1]):
                        deliver(k, stack[row])
                        row += 1
        return results if outs is None else outs

    def _stackable(
        self, items: Sequence[CompressedArray], slots: Sequence[Optional[Sequence[int]]]
    ) -> Iterator[List[int]]:
        """Positions of the payloads one kernel call takes together: equal
        :func:`_decode_spec`, and as many as keep the blocks wanted of them
        within ``_STACK_BYTES`` decoded — a payload is never cut in two, so it
        is inflated once."""
        groups: Dict[Tuple, List[int]] = {}
        for i, compressed in enumerate(items):
            self._check_codec(compressed)
            groups.setdefault(_decode_spec(compressed), []).append(i)
        for spec, members in groups.items():
            per_call = _blocks_per_stack(spec[0])
            call: List[int] = []
            n_rows = 0
            for i in members:
                wanted = items[i].n_blocks if slots[i] is None else len(slots[i])
                if call and n_rows + wanted > per_call:
                    yield call
                    call, n_rows = [], 0
                call.append(i)
                n_rows += wanted
            if call:
                yield call

    def _decode_stack(
        self,
        recon: np.ndarray,
        parts: Sequence[Tuple[CompressedArray, Optional[Sequence[int]]]],
    ) -> None:
        """The decode kernel: reconstruct into ``recon`` — an ``(R, *shape)``
        view — the blocks ``parts`` names, payload by payload: ``(payload,
        slots)`` takes those blocks of the payload, ``(payload, None)`` all of
        them.  The payloads agree on :func:`_decode_spec`."""
        meta = parts[0][0].metadata
        plan = build_plan(recon.shape[1:])
        level_ebs = {int(k): float(v) for k, v in meta["level_error_bounds"].items()}
        interpolation = meta.get("interpolation", "cubic")
        quantizer = LinearQuantizer(
            radius=int(meta.get("quantizer_radius", DEFAULT_CODE_RADIUS))
        )

        # The entropy stage is per payload: each is inflated once, and only
        # the rows wanted of it go on to the traversal.
        anchor = (slice(None),) + plan.anchor
        anchor_shape = recon[anchor].shape
        n_anchors = math.prod(anchor_shape[1:])
        code_rows, anchor_rows, exact = [], [], []
        for compressed, wanted in parts:
            codes, anchors, runs = _entropy_unpack(compressed, plan.n_codes, n_anchors)
            if wanted is not None:
                wanted = np.asarray(wanted, dtype=np.int64)
                if wanted.size and not 0 <= wanted.min() <= wanted.max() < len(codes):
                    raise DecompressionError(
                        f"asked for blocks {wanted.min()}..{wanted.max()} of a payload "
                        f"holding {len(codes)}"
                    )
                codes, anchors, runs = codes[wanted], anchors[wanted], [runs[s] for s in wanted]
            code_rows.append(codes)
            anchor_rows.append(anchors)
            exact.extend(runs)
        # (A lone payload is viewed, not copied: a whole array's codes are large.)
        codes = code_rows[0] if len(parts) == 1 else np.concatenate(code_rows)

        # Zero-fill first: the traversal writes every cell, but correctness
        # never rests on that coverage argument.
        recon[...] = 0.0
        recon[anchor] = np.concatenate(anchor_rows).reshape(anchor_shape)

        cursor = 0
        exact_cursor = [0] * len(exact)
        for step in plan.steps:
            eb_level = level_ebs.get(step.level)
            if eb_level is None:
                raise DecompressionError(f"missing error bound for level {step.level}")
            pred = predict_step(recon, step, mode=interpolation)
            segment = codes[:, cursor : cursor + step.size]
            cursor += step.size
            step_exact = _NO_EXACT
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


_NO_EXACT = np.zeros(0, dtype=np.float64)


def _entropy_unpack(
    compressed: CompressedArray, n_codes: int, n_anchors: int
) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
    """Inflate one payload: ``(N, n_codes)`` codes, ``(N, n_anchors)`` anchors
    and each of its ``N`` blocks' exact values."""
    n = compressed.n_blocks
    streams = unpack_streams(compressed.payload)
    codes_blob = streams["codes"]
    tag, body = codes_blob[:1], codes_blob[1:]
    if tag == b"H":
        codes = huffman_decode(lossless_decompress(body))
    elif tag == b"Z":
        codes = decode_int_array(body)
    else:
        raise DecompressionError(f"unknown code-stream tag {bytes(tag)!r}")
    if codes.size < n * n_codes:
        raise DecompressionError("quantization-code stream exhausted prematurely")
    if codes.size > n * n_codes:
        raise DecompressionError(f"code stream has {codes.size - n * n_codes} unused entries")
    anchors = decode_float_array(streams["anchors"])
    if anchors.size != n * n_anchors:
        raise DecompressionError("anchor stream size mismatch")
    exact = decode_float_array(streams["exact"])
    if n == 1:
        return codes.reshape(1, n_codes), anchors.reshape(1, n_anchors), [exact]
    if "n_exact" not in streams:
        raise DecompressionError("stack payload without per-block exact-value counts")
    n_exact = decode_int_array(streams["n_exact"])
    if n_exact.size != n:
        raise DecompressionError(
            f"stack of {n} blocks carries {n_exact.size} exact-value counts"
        )
    if n_exact.min() < 0 or n_exact.sum() != exact.size:
        raise DecompressionError(
            f"exact-value counts add up to {n_exact.sum()} but the stream holds {exact.size}"
        )
    runs = [_NO_EXACT] * n
    ends = np.cumsum(n_exact)
    for i in np.flatnonzero(n_exact):
        runs[i] = exact[ends[i] - n_exact[i] : ends[i]]
    return codes.reshape(n, n_codes), anchors.reshape(n, n_anchors), runs


def _block_rows(compressed: CompressedArray, array: np.ndarray) -> np.ndarray:
    """``array``, shaped like the payload, as ``(n_blocks, *block_shape)``."""
    return array if compressed.metadata.get("stack") else array[None]


def _kernel_runs(stack: np.ndarray) -> Iterator[np.ndarray]:
    """``stack`` cut into the consecutive runs one kernel call takes."""
    per_call = _blocks_per_stack(stack.shape[1:])
    for start in range(0, len(stack), per_call):
        yield stack[start : start + per_call]


def _blocks_per_stack(shape: Tuple[int, ...]) -> int:
    return max(1, _STACK_BYTES // max(8, 8 * math.prod(shape)))


def _decode_spec(compressed: CompressedArray) -> Tuple:
    """Everything the decode traversal depends on: payloads with equal specs
    can be reconstructed as one stack (``n_unpredictable`` may differ)."""
    meta = compressed.metadata
    return (
        compressed.block_shape,
        meta.get("interpolation", "cubic"),
        meta.get("quantizer_radius", DEFAULT_CODE_RADIUS),
        tuple(meta["level_error_bounds"].items()),
    )
