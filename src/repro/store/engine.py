"""Parallel codec engine: batched block encode/decode through a pool.

Per-block encoding is embarrassingly parallel but the blocks are small
(a 16^3 float64 block is 32 KiB, a 4^3 block 512 bytes), so the cost of a
level is per-block overhead, not arithmetic.  Two things keep it down:

* **The codec batches.**  A chunk of blocks is one
  :meth:`~repro.compressors.base.Compressor.compress_batch` /
  :meth:`~repro.compressors.base.Compressor.decompress_batch` call, so a codec
  with a batched kernel (SZ3) predicts and quantises the whole chunk together
  and only its entropy stage runs per block.  On the way in, each *distinct*
  payload header is parsed once per call (the blocks of a level differ in
  ``n_unpredictable`` only), and the codec stacks the payloads whose
  decode-relevant fields agree.
* **The engine chunks.**  Each pool task takes a contiguous slice of the
  blocks with a codec rebuilt once per chunk, and the results are flattened
  back into file order — submitting blocks one at a time to a process pool
  would drown the work in pickling and task dispatch.

The workers are module-level functions operating on plain picklable data
(codec registry name + options, NumPy block arrays, payload byte strings) and
keep no state between calls, which is what allows the ``"process"`` executor;
``"thread"`` suits codecs that release the GIL, and ``"serial"`` is the
zero-overhead default used by tests and single-core hosts.
"""

from __future__ import annotations

import threading
import time
from itertools import groupby
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.compressors.base import CompressedArray, Compressor, get_compressor
from repro.insitu.scheduler import EXECUTORS, default_workers, parallel_map
from repro.obs import REGISTRY

__all__ = ["CodecEngine", "decode_payloads", "decode_payloads_into"]

#: Whole-batch encode/decode latency per backend — what one public call
#: costs once the codec has batched it, so backends can be compared per op.
_BATCH_SECONDS = REGISTRY.histogram(
    "repro_engine_batch_seconds",
    "Codec engine batch latency (one public encode/decode call).",
    labelnames=("op", "backend"),
)

#: Upper bound on blocks per pool task; keeps per-task payloads a few MiB.
_MAX_CHUNK = 128


def _encode_chunk(task: Tuple[str, dict, float, np.ndarray]) -> List[bytes]:
    """Worker: encode a chunk of unit blocks into standalone payload blobs."""
    kind, options, error_bound, blocks = task
    codec = get_compressor(kind, **options)
    return [compressed.to_bytes() for compressed in codec.compress_batch(blocks, error_bound)]


def _decode_into_chunk(task) -> list:
    """Worker: decode one chunk of payloads into its destination views."""
    payloads, outs, srcs = task
    decode_payloads_into(payloads, outs, srcs)
    return []


def _codec_runs(
    payloads: Sequence[bytes],
) -> Iterator[Tuple[Compressor, int, List[CompressedArray]]]:
    """Parse payload blobs and yield ``(codec, start, items)`` per maximal run
    of consecutive payloads of one codec — for a container, one run.

    The blocks of a level carry a handful of distinct headers (they differ in
    ``n_unpredictable`` only), so each distinct header byte string is parsed
    once; the memo lives for this call alone.
    """
    headers: Dict[bytes, dict] = {}
    items = [CompressedArray.from_bytes(blob, headers) for blob in payloads]
    start = 0
    for name, run in groupby(items, key=attrgetter("codec")):
        run = list(run)
        yield get_compressor(name), start, run
        start += len(run)


def decode_payloads(payloads: Sequence[bytes]) -> List[np.ndarray]:
    """Decode standalone per-block payload blobs back to block arrays.

    The single decode entry shared by the engine's pool workers and by
    engine-less readers (:class:`~repro.store.format.ContainerReader`), so
    decode semantics cannot diverge between the two paths.  Each run of one
    codec is one :meth:`~repro.compressors.base.Compressor.decompress_batch`
    call; every returned block owns its memory.  Module-level and picklable
    on purpose: it doubles as the process-pool chunk worker.
    """
    out: List[np.ndarray] = []
    for codec, _, items in _codec_runs(payloads):
        out.extend(codec.decompress_batch(items))
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
    points are always bit-for-bit identical.  Module-level like
    :func:`decode_payloads` on purpose: it is the thread-pool chunk worker
    for :meth:`CodecEngine.decode_blocks_into`.
    """
    for codec, start, items in _codec_runs(payloads):
        stop = start + len(items)
        # Sliced, not listified: the windows may be a lazy sequence.
        codec.decompress_batch(
            items, outs[start:stop], None if srcs is None else srcs[start:stop]
        )


class CodecEngine:
    """Batch per-block encode/decode through a serial/thread/process backend.

    Parameters
    ----------
    codec:
        Compressor registry name (``"sz3"``, ``"sz2"``, ``"zfp"``).
    codec_options:
        Constructor options for the codec; must be picklable for the process
        backend.
    executor:
        ``"serial"`` (default), ``"thread"`` or ``"process"`` — see
        :func:`repro.insitu.scheduler.parallel_map`.
    max_workers:
        Pool size; defaults to the core count.
    chunksize:
        Blocks per pool task; by default sized so every worker gets about
        four tasks (capped at 128 blocks), which balances load against
        dispatch overhead.
    """

    def __init__(
        self,
        codec: str = "sz3",
        codec_options: Optional[dict] = None,
        executor: str = "serial",
        max_workers: Optional[int] = None,
        chunksize: Optional[int] = None,
    ) -> None:
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
        self.codec = str(codec)
        self.codec_options = dict(codec_options or {})
        self.executor = executor
        self.max_workers = default_workers() if max_workers is None else int(max_workers)
        self.chunksize = None if chunksize is None else max(1, int(chunksize))
        # Batch accounting, exposed process-wide via obs.engine_collector:
        # engines are shared across daemon connections, so updates lock.
        self.stats: Dict[str, int] = {
            "encode_batches": 0,
            "decode_batches": 0,
            "blocks_encoded": 0,
            "blocks_decoded": 0,
        }
        self._stats_lock = threading.Lock()
        self._hist_encode = _BATCH_SECONDS.labels(op="encode", backend=executor)
        self._hist_decode = _BATCH_SECONDS.labels(op="decode", backend=executor)
        # Validate the codec spec eagerly (raises UnknownCompressorError).
        get_compressor(self.codec, **self.codec_options)

    @classmethod
    def from_compressor(cls, compressor, **kwargs) -> "CodecEngine":
        """Build an engine matching a :class:`MultiResolutionCompressor` codec."""
        kind, options = compressor.codec_spec()
        return cls(codec=kind, codec_options=options, **kwargs)

    # -- batching -------------------------------------------------------------
    def _chunk_bounds(self, n_items: int) -> List[Tuple[int, int]]:
        if self.chunksize is not None:
            size = self.chunksize
        else:
            size = -(-n_items // max(1, self.max_workers * 4))
            size = max(1, min(size, _MAX_CHUNK))
        return [(start, min(start + size, n_items)) for start in range(0, n_items, size)]

    def _run(self, fn, tasks: list) -> list:
        chunks = parallel_map(
            fn, tasks, max_workers=self.max_workers, executor=self.executor
        )
        return [item for chunk in chunks for item in chunk]

    def _account(self, op: str, n_blocks: int, seconds: float) -> None:
        with self._stats_lock:
            self.stats[f"{op}_batches"] += 1
            self.stats[f"blocks_{op}d"] += int(n_blocks)
        (self._hist_encode if op == "encode" else self._hist_decode).observe(seconds)

    # -- public API -----------------------------------------------------------
    def encode_blocks(self, blocks: np.ndarray, error_bound: float) -> List[bytes]:
        """Encode ``(n, u, u[, u])`` unit blocks into per-block payload blobs."""
        blocks = np.asarray(blocks, dtype=np.float64)
        eb = float(error_bound)
        tasks = [
            (self.codec, self.codec_options, eb, blocks[a:b])
            for a, b in self._chunk_bounds(blocks.shape[0])
        ]
        start = time.perf_counter()
        out = self._run(_encode_chunk, tasks)
        self._account("encode", blocks.shape[0], time.perf_counter() - start)
        return out

    def decode_blocks(self, payloads: Sequence[bytes]) -> List[np.ndarray]:
        """Decode per-block payload blobs back into block arrays (file order)."""
        payloads = list(payloads)
        if self.executor == "process":
            # Zero-copy fetch hands out memoryviews, which cannot cross a
            # process boundary; materialise them for pickling.
            payloads = [p if isinstance(p, bytes) else bytes(p) for p in payloads]
        tasks = [payloads[a:b] for a, b in self._chunk_bounds(len(payloads))]
        start = time.perf_counter()
        out = self._run(decode_payloads, tasks)
        self._account("decode", len(payloads), time.perf_counter() - start)
        return out

    def decode_blocks_into(
        self,
        payloads: Sequence[bytes],
        outs: Sequence[np.ndarray],
        srcs: Optional[Sequence] = None,
    ) -> None:
        """Decode payload blobs straight into preallocated destination views.

        The batched :func:`decode_payloads_into`: serial and thread backends
        write into the shared destinations directly (NumPy assignments
        release the GIL, so chunks overlap); the process backend cannot share
        the caller's memory, so it falls back to :meth:`decode_blocks` plus
        one paste per block — same bytes, one extra touch.
        """
        n = len(payloads)
        if n == 0:
            return
        if self.executor == "process":
            # decode_blocks does its own batch accounting; the paste loop
            # adds nothing worth a second histogram entry.
            for i, block in enumerate(self.decode_blocks(payloads)):
                src = None if srcs is None else srcs[i]
                np.copyto(outs[i], block if src is None else block[src])
            return
        payloads = list(payloads)
        # outs/srcs are sliced, not listified: the caller may hand in a lazy
        # window sequence that materialises destination views per access.
        tasks = [
            (payloads[a:b], outs[a:b], None if srcs is None else srcs[a:b])
            for a, b in self._chunk_bounds(n)
        ]
        start = time.perf_counter()
        self._run(_decode_into_chunk, tasks)
        self._account("decode", n, time.perf_counter() - start)

    def describe(self) -> str:
        """Short configuration string (mirrors ``MultiResolutionCompressor.describe``)."""
        return f"{self.codec}@{self.executor}x{self.max_workers}"
