"""``repro.array`` — a lazy, NumPy-style read API over compressed data.

The read-side counterpart of :mod:`repro.api`: where the facade unified how
runs are *written*, this package unifies how their output is *read*.  Opening
returns a view; indexing triggers I/O::

    arr = repro.open_store("run")["density", 10]   # no payload touched yet
    plane = arr[:, :, 16]                          # decodes one plane of blocks
    window = arr[10:20, :, ::2]                    # steps compile to one bbox
    coarse = arr.level(1)[...]                     # whole coarse level

Three pieces:

* :class:`LazyArray` (:mod:`repro.array.core`) — the view: ndarray-style
  metadata (``shape``/``dtype``/``ndim``), ``levels`` + ``.level(k)`` for
  multi-resolution data, ``__getitem__`` over the basic-indexing subset
  (ints, slices with steps, ``...``), ``read_roi`` and ``stats``, written
  once; :class:`CompressedArray` is its local family, decoding **only
  intersecting blocks**;
* :mod:`repro.array.indexing` — the pure compiler from index expressions to
  the bbox/block arithmetic of :mod:`repro.store.query`;
* :class:`BlockCache` (:mod:`repro.array.cache`) — a bounded, instrumented
  LRU of decoded blocks shared across views of a store.

Every classic read path is an adapter over this surface:
``Store.read_roi`` / ``ContainerReader.read_roi`` delegate to views,
``repro.decompress`` returns one, and the vis helpers accept them.  A view
query (field, step, level, selector) is exactly the request shape the read
daemon (:mod:`repro.serve`) ships over its wire protocol, so
:class:`repro.serve.RemoteArray` and :class:`repro.gateway.HTTPArray` *are*
this surface: they subclass :class:`LazyArray` and add only how a selector
travels and how the bytes come back.
"""

from repro.array.cache import BlockCache
from repro.array.core import (
    CompressedArray,
    ContainerSource,
    LazyArray,
    SingleBlockSource,
    as_lazy_array,
    open_array,
)
from repro.array.indexing import CompiledIndex, compile_index

__all__ = [
    "LazyArray",
    "CompressedArray",
    "BlockCache",
    "ContainerSource",
    "SingleBlockSource",
    "CompiledIndex",
    "compile_index",
    "as_lazy_array",
    "open_array",
]
