"""Scheduling helper (the offline stand-in for OpenMP / MPI ranks).

The paper accelerates post-processing and the block-wise compressors with
OpenMP; in Python the equivalent for NumPy-heavy work (which releases the GIL
inside vectorised kernels) is a thread pool.  ``parallel_map`` keeps the
submission order of results and degrades to a plain loop for one worker, so
the serial-vs-parallel rows of Table IX can be produced with the same code
path.  Its caller is :class:`~repro.insitu.pipeline.InSituPipeline`, which
encodes the merged arrays of a hierarchy's levels side by side; the block
store does not use it (a level's unit blocks are one batched codec call).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["parallel_map"]


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T] | Iterable[T],
    max_workers: int,
) -> List[R]:
    """Apply ``fn`` to every item on a thread pool, preserving order.

    ``max_workers=1`` (or a single item) runs serially with zero pool
    overhead.  Exceptions raised by ``fn`` propagate to the caller.
    """
    items = list(items)
    if max_workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(fn, items))
