"""``repro.store`` — chunked, indexed compressed-array store with random access.

The in-situ pipeline's v1 containers (:mod:`repro.insitu.io`) compress each
resolution level into one opaque merged payload: reproducing Table IV needs
nothing more, but every post-hoc workload in the paper — ROI rate-distortion
(Fig. 4), halo neighbourhoods, probabilistic isosurfaces — touches a small
sub-region and should not pay for inflating a whole timestep.  This
subsystem is the production substrate for those access patterns:

* **container format** (:mod:`repro.store.format`, version 3): a level's
  Morton-ordered unit blocks are stored as *stack payloads* — each Morton run
  the codec's batched kernel takes at once (``sz3._STACK_BYTES`` decoded: 512
  blocks at unit 4, 64 at unit 8, 8 at unit 16, one 32^3 Morton cube of a
  full level) is entropy-coded together, one header and one set of streams,
  which is how the paper's SZ3MR gets its ratio — and a per-block
  ``(level, coords, offset, length)`` index in the file head lets
  :class:`~repro.store.format.ContainerReader` reconstruct only the blocks a
  query touches (``read_blocks`` / ``read_roi``);
* **catalog** (:mod:`repro.store.catalog`): a :class:`~repro.store.catalog.Store`
  directory maps ``(field, step)`` to containers through a JSON manifest with
  append-as-you-simulate semantics for the in-situ pipeline;
* **codec entry points** (:mod:`repro.store.engine`): a level's unit blocks
  are encoded (:class:`~repro.store.engine.CodecEngine`) and a request's
  payloads decoded as one batched codec call each; the codec alone decides
  how many blocks share a kernel call and a payload, and there is nothing to
  configure.

The primary *read* surface sits one package up: :mod:`repro.array` wraps
readers and stores in lazy NumPy-style views (``store[field, step]``,
``reader.as_array()``) whose indexing decodes only intersecting blocks
through a shared block cache; ``read_roi`` here is a thin adapter over it.

Container layout (``.rps2``)
----------------------------
::

    +--------+-------------+----------------+--------------------+--------------------+
    | b"RPS2"| u32 hdr_len | JSON header    | block index        | payloads           |
    |  magic |             | version 3, eb, | one row per block: | one CompressedArray|
    |        |             | codec, levels, | (level, c0, c1, c2,| blob per stack of  |
    |        |             | metadata,      |  offset, length),  | blocks, ordered by |
    |        |             | index_nbytes   | columns, deflated  | the Morton code of |
    |        |             |                |                    | its first block    |
    +--------+-------------+----------------+--------------------+--------------------+

The blocks of a stack are consecutive index rows with the same
``(offset, length)``; a block's slot in its payload is its rank among them.
Payload offsets are relative to the data section, so the header + index (two
small reads, one inflate) are all a reader needs before seeking straight to
the payload of any block.  What a read costs: the *fetch and inflate* of every
stack it touches (at most 256 KiB decoded each), the *reconstruction* of
exactly the blocks it asked for — and the block cache holds blocks, not
stacks.  Codecs without a shared entropy stage (SZ2, ZFP) write one block per
payload; version-2 files (always one block per payload, index stored as raw
48-byte records) are read by the same code.

Catalog manifest schema (``manifest.json``)
-------------------------------------------
::

    {
      "format": "repro-store-manifest",
      "version": 1,
      "entries": {
        "<field>/<step:05d>": {
          "field": str, "step": int,
          "path": str,              # store-relative .rps2 container
          "error_bound": float, "codec": str,
          "n_levels": int, "n_blocks": int,
          "nbytes_original": int, "nbytes_compressed": int
        }, ...
      }
    }

The manifest is rewritten atomically (temp file + rename) on every append,
so a crashed simulation leaves at worst an uncatalogued container, never a
corrupt catalog.
"""

from repro.store.catalog import MANIFEST_NAME, Store, StoreEntry
from repro.store.engine import CodecEngine
from repro.store.format import BlockLevel, ContainerReader, LevelInfo, write_container
from repro.store.index import BlockIndex
from repro.store.query import BBox, bbox_to_block_range, normalize_bbox

__all__ = [
    "Store",
    "StoreEntry",
    "MANIFEST_NAME",
    "CodecEngine",
    "ContainerReader",
    "BlockLevel",
    "LevelInfo",
    "BlockIndex",
    "write_container",
    "BBox",
    "normalize_bbox",
    "bbox_to_block_range",
]
