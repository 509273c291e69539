"""``repro.store`` — chunked, indexed compressed-array store with random access.

The in-situ pipeline's v1 containers (:mod:`repro.insitu.io`) compress each
resolution level into one opaque merged payload: reproducing Table IV needs
nothing more, but every post-hoc workload in the paper — ROI rate-distortion
(Fig. 4), halo neighbourhoods, probabilistic isosurfaces — touches a small
sub-region and should not pay for inflating a whole timestep.  This
subsystem is the production substrate for those access patterns:

* **format v2** (:mod:`repro.store.format`): every Morton-ordered unit block
  is encoded into its own standalone payload, and a per-block
  ``(level, coords, offset, length)`` index in the file head lets
  :class:`~repro.store.format.ContainerReader` decode only the blocks a
  query touches (``read_blocks`` / ``read_roi``);
* **catalog** (:mod:`repro.store.catalog`): a :class:`~repro.store.catalog.Store`
  directory maps ``(field, step)`` to containers through a JSON manifest with
  append-as-you-simulate semantics for the in-situ pipeline;
* **codec entry points** (:mod:`repro.store.engine`): a level's unit blocks
  are encoded (:class:`~repro.store.engine.CodecEngine`) and a request's
  payloads decoded as one batched codec call each; the codec alone decides
  how many blocks share a kernel call, and there is nothing to configure.

The primary *read* surface sits one package up: :mod:`repro.array` wraps
readers and stores in lazy NumPy-style views (``store[field, step]``,
``reader.as_array()``) whose indexing decodes only intersecting blocks
through a shared block cache; ``read_roi`` here is a thin adapter over it.

Container layout (``.rps2``)
----------------------------
::

    +--------+-------------+----------------+---------------------+------------------+
    | b"RPS2"| u32 hdr_len | JSON header    | block index         | payloads         |
    |  magic |             | version, eb,   | n_entries records:  | one CompressedArray
    |        |             | codec, levels, | (level, c0, c1, c2, | blob per unit    |
    |        |             | metadata       |  offset, length)    | block, Morton    |
    |        |             |                | 6 x int64 each      | order per level  |
    +--------+-------------+----------------+---------------------+------------------+

Payload offsets are relative to the data section, so the header + index
(two small reads) are all a reader needs before seeking straight to any
block.

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
