"""The five-line surface: compress / decompress / open_store / open_array / run_workflow.

These free functions are what most users need; they are re-exported at the
package root so the quickstart is::

    import repro

    result = repro.run_workflow(field, repro.WorkflowConfig(
        codec=repro.CodecSpec.sz3mr(), error_bound=repro.ErrorBound.rel(0.01)))

:func:`run_config` additionally executes a serialized
:class:`~repro.api.config.WorkflowConfig` / :class:`PipelineConfig` and
returns a JSON-ready summary — the exact engine behind ``repro run``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.api.config import PipelineConfig, WorkflowConfig, config_from_dict, load_config
from repro.api.error_bound import ErrorBound

__all__ = [
    "compress",
    "decompress",
    "open_store",
    "open_array",
    "connect",
    "run_workflow",
    "run_config",
]


def load_npy_field(path: Union[str, Path]) -> np.ndarray:
    """Load and validate a 1-3D ``.npy`` field (shared by CLI and configs).

    Raises :class:`ValueError` with a one-line diagnostic on missing files,
    unreadable content or unsupported dimensionality.
    """
    path = Path(path)
    if not path.exists():
        raise ValueError(f"input file {path} does not exist")
    try:
        data = np.load(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {path} as .npy: {exc}") from exc
    if data.ndim not in (1, 2, 3):
        raise ValueError(f"{path} must hold a 1-3 dimensional array, got {data.ndim}D")
    return np.asarray(data, dtype=np.float64)


def compress(
    data: np.ndarray,
    error_bound: Union[float, ErrorBound, Mapping],
    codec: str = "sz3",
    **options: Any,
):
    """Compress one array with a bare codec; returns a ``CompressedArray``.

    The single-array counterpart of :func:`run_workflow`: no blocking, ROI
    or post-processing — just the error-bounded codec, with ``error_bound``
    accepted in any :class:`ErrorBound` convention.
    """
    from repro.compressors import get_compressor

    return get_compressor(codec, **options).compress(data, ErrorBound.coerce(error_bound))


def decompress(source):
    """Lazy view over a reconstruction (a compressed payload, its bytes, or a path).

    Returns a :class:`repro.array.CompressedArray` view: nothing is decoded
    until the view is indexed (``view[...]``, ``view[10:20, :, ::2]``) or
    coerced with ``numpy.asarray``, after which the reconstruction is served
    from memory.  A ``.rps2`` block container path opens as a true
    block-granular view (only intersecting blocks decode); a single-payload
    ``.rpca`` source decodes whole on first access.
    """
    from repro.array import as_lazy_array, open_array
    from repro.compressors.base import CompressedArray
    from repro.compressors.errors import DecompressionError
    from repro.insitu.io import read_compressed_array

    if isinstance(source, (str, Path)):
        try:
            return open_array(source)
        except DecompressionError:
            source = read_compressed_array(source)
    elif isinstance(source, (bytes, bytearray)):
        source = CompressedArray.from_bytes(bytes(source))
    return as_lazy_array(source)


def open_store(
    root: Union[str, Path],
    codec: Optional[Union["CodecSpec", Mapping]] = None,
):
    """Open (or create) a :class:`repro.store.Store` directory.

    ``codec`` is a :class:`~repro.api.config.CodecSpec` (or its dict form)
    describing how appended snapshots are blocked and encoded; omitted, the
    store's default SZ3 configuration is used.
    """
    from repro.api.config import CodecSpec
    from repro.store import Store

    compressor = None
    if codec is not None:
        spec = CodecSpec.from_dict(codec) if isinstance(codec, Mapping) else codec
        compressor = spec.build()
    return Store(root, compressor)


def open_array(
    path: Union[str, Path],
    level: int = 0,
    fill_value: float = 0.0,
):
    """Open one ``.rps2`` block container as a lazy NumPy-style view.

    Two small reads (header + index); indexing the returned
    :class:`repro.array.CompressedArray` decodes only intersecting blocks.
    For whole stores use ``open_store(root)[field, step]`` instead.
    """
    from repro.array import open_array as _open_array

    return _open_array(path, level=level, fill_value=fill_value)


def connect(addr, timeout: float = 30.0, retries: int = 0, backoff: float = 0.05):
    """Connect to a read daemon (``repro serve``) at ``"host:port"``.

    Returns a :class:`repro.serve.RemoteStore`, the read side of a local
    store: ``remote[field, step]`` is a :class:`~repro.serve.RemoteArray` —
    the same :class:`repro.array.LazyArray` a local store returns, its reads
    round-tripping through the daemon's shared block cache and coming back
    as read-only arrays — and errors keep their local types.  The
    address may equally be a shard router (``repro shard serve``) — the
    wire surface is identical.  ``retries``/``backoff`` add bounded
    exponential-backoff retry on connection refusal, for clients racing a
    daemon that is still starting.
    """
    from repro.serve import RemoteStore

    return RemoteStore(addr, timeout=timeout, retries=retries, backoff=backoff)


def open_http(addr, timeout: float = 30.0):
    """Connect to an HTTP gateway (``repro gateway``) at ``"host:port"``.

    Returns a :class:`repro.gateway.HTTPStore` — what :func:`connect`
    returns, over plain HTTP/1.1, so it works through anything that forwards
    HTTP.  ``store[field, step]`` is a :class:`~repro.gateway.HTTPArray`
    (the same :class:`repro.array.LazyArray` again); indexing moves raw
    ndarray bytes with the geometry in response headers, error envelopes
    re-raise with their original types and messages, and a reply that is
    not the gateway's is a :class:`~repro.serve.ProtocolError`.
    """
    from repro.gateway import HTTPStore

    return HTTPStore(addr, timeout=timeout)


def run_workflow(
    data,
    config: Optional[Union[WorkflowConfig, Mapping]] = None,
    **overrides: Any,
):
    """Run the full Fig. 3 workflow on ``data`` under a typed config.

    ``data`` is a uniform array (ROI extraction applies) or an
    :class:`~repro.amr.grid.AMRHierarchy` (compressed as-is).  ``config``
    defaults to :class:`WorkflowConfig`'s defaults; keyword overrides patch
    individual fields (e.g. ``error_bound=ErrorBound.psnr(60)``).
    """
    from dataclasses import replace

    from repro.amr.grid import AMRHierarchy

    if config is None:
        config = WorkflowConfig()
    elif isinstance(config, Mapping):
        config = WorkflowConfig.from_dict(config)
    if overrides:
        if "error_bound" in overrides:
            overrides["error_bound"] = ErrorBound.coerce(overrides["error_bound"])
        config = replace(config, **overrides)

    workflow = config.build()
    if isinstance(data, AMRHierarchy):
        return workflow.compress_hierarchy(data, config.error_bound)
    return workflow.compress_uniform(np.asarray(data, dtype=np.float64), config.error_bound)


# -- config execution (the `repro run` engine) --------------------------------


def _load_workflow_input(config: WorkflowConfig, input_path: Optional[Path]):
    if input_path is not None:
        return load_npy_field(input_path)
    spec = config.input
    if spec is None:
        raise ValueError("config has no input; add an 'input' section or pass --input")
    kind = spec.get("kind")
    if kind == "npy":
        if "path" not in spec:
            raise ValueError("input section of kind 'npy' needs a 'path'")
        return load_npy_field(spec["path"])
    if kind == "dataset":
        from repro.datasets import get_dataset

        if "name" not in spec:
            raise ValueError("input section of kind 'dataset' needs a 'name'")
        kwargs: Dict[str, Any] = {}
        if "size" in spec:
            kwargs["size"] = spec["size"]
        if "shape" in spec:
            kwargs["shape"] = tuple(spec["shape"])
        if "seed" in spec:
            kwargs["seed"] = spec["seed"]
        return get_dataset(spec["name"], **kwargs).field
    raise ValueError(f"unknown input kind {kind!r}; expected 'npy' or 'dataset'")


def _round(value: Optional[float]) -> Optional[float]:
    return None if value is None else float(value)


def run_config(
    config: Union[str, Path, Mapping, WorkflowConfig, PipelineConfig],
    input_path: Optional[Union[str, Path]] = None,
    save_reconstruction: Optional[Union[str, Path]] = None,
) -> Tuple[Dict[str, Any], Any]:
    """Execute a serialized run config; returns ``(summary, result)``.

    ``summary`` is JSON-ready (what ``repro run`` prints); ``result`` is the
    underlying :class:`WorkflowResult` or list of step reports for further
    Python-side analysis.
    """
    if isinstance(config, (str, Path)):
        config = load_config(config)
    elif isinstance(config, Mapping):
        config = config_from_dict(config)

    if isinstance(config, WorkflowConfig):
        data = _load_workflow_input(config, Path(input_path) if input_path else None)
        result = run_workflow(data, config)
        if save_reconstruction is not None:
            np.save(save_reconstruction, result.best_field)
        summary = {
            "type": "workflow",
            "codec": result.compressed.metadata.get("compressor", config.codec.kind),
            "error_bound": result.error_bound,
            "error_bound_spec": config.error_bound.to_dict(),
            "compression_ratio": float(result.compression_ratio),
            "psnr": _round(result.psnr),
            "ssim": _round(result.ssim),
            "psnr_processed": _round(result.psnr_processed),
            "ssim_processed": _round(result.ssim_processed),
        }
        return summary, result

    if isinstance(config, PipelineConfig):
        from repro.api.pipeline import Pipeline
        from repro.insitu.pipeline import InSituPipeline

        if input_path is not None or save_reconstruction is not None:
            raise ValueError(
                "--input/--save-reconstruction apply to workflow configs only; "
                "pipeline configs declare their source and sink themselves"
            )
        reports = Pipeline.from_config(config).run()
        summary = {
            "type": "pipeline",
            "codec": config.codec.kind,
            "error_bound_spec": config.error_bound.to_dict(),
            "steps": [
                {
                    "step": r.step,
                    "field": r.field_name,
                    "compression_ratio": float(r.compression_ratio),
                    "psnr": _round(r.psnr),
                }
                for r in reports
            ],
            "timings": InSituPipeline.aggregate_timings(reports),
        }
        return summary, reports

    raise TypeError(f"unsupported config object {type(config).__name__}")
