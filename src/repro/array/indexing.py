"""Compilation of NumPy-style indices into block-store bbox queries.

A lazy view's ``__getitem__`` accepts the basic-indexing subset of NumPy
(integers, slices with arbitrary steps, ``...``, missing trailing axes) and
must decode only the blocks its selection touches.  The compiler here turns an
index expression into two pieces:

* a per-axis half-open cell **bbox** — the tightest axis-aligned box covering
  every selected cell, in exactly the form
  :func:`repro.store.query.normalize_bbox` validates — which drives the block
  intersection and I/O;
* a per-axis **relative selection** (slice or integer) applied to the
  assembled bbox array afterwards, which realises steps, reversals and
  integer-axis dropping without touching any further data.

Keeping this pure (no arrays, no I/O) makes the index arithmetic exhaustively
unit-testable — the fuzz suite (``tests/test_array_fuzz.py``) drives it with
seeded random expressions against NumPy — and lets the read daemon
(:mod:`repro.serve`) compile an index shipped as plain request data.

The *text* spelling of both selectors — ``--index "10:20,:,::2"`` /
``--bbox 0:16,8:24`` on the command line, ``index=`` / ``bbox=`` in a gateway
URL — is parsed here too (:func:`parse_index_text`, :func:`parse_bbox_text`),
so every surface accepts and rejects the same strings with the same words.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple, Union

__all__ = [
    "CompiledIndex",
    "compile_index",
    "parse_bbox_text",
    "parse_index_text",
    "unsupported_index_error",
]


def unsupported_index_error(item: Any) -> TypeError:
    """The one diagnostic for index elements outside the basic-indexing subset.

    Shared with the wire codec (:mod:`repro.serve.protocol`), which must
    reject exactly what this compiler rejects with exactly this message —
    the fuzz suite asserts remote/local error parity.
    """
    return TypeError(
        f"unsupported index element {item!r}; lazy views support integers, "
        "slices and '...' (basic indexing) only"
    )

#: Index elements accepted per axis after ellipsis expansion.
AxisIndex = Union[int, slice]


@dataclass(frozen=True)
class CompiledIndex:
    """One compiled index expression.

    ``bbox`` may contain empty axes (``lo == hi``) for selections with no
    cells; the caller routes it through ``normalize_bbox`` so empty and
    out-of-domain selections fail with the same one-line ``ValueError`` as
    every other bbox query surface.
    """

    bbox: Tuple[Tuple[int, int], ...]
    rel: Tuple[AxisIndex, ...]

    @property
    def ndim_out(self) -> int:
        """Dimensionality of the selection result (integer axes are dropped)."""
        return sum(1 for r in self.rel if isinstance(r, slice))


def _expand_ellipsis(index: Tuple[Any, ...], ndim: int) -> List[Any]:
    n_ellipsis = sum(1 for item in index if item is Ellipsis)
    if n_ellipsis > 1:
        raise IndexError("an index can only have a single ellipsis ('...')")
    n_explicit = len(index) - n_ellipsis
    if n_explicit > ndim:
        raise IndexError(
            f"too many indices for array: array is {ndim}-dimensional, "
            f"but {n_explicit} were indexed"
        )
    out: List[Any] = []
    for item in index:
        if item is Ellipsis:
            out.extend([slice(None)] * (ndim - n_explicit))
        else:
            out.append(item)
    out.extend([slice(None)] * (ndim - len(out)))
    return out


def _compile_axis(item: Any, n: int, axis: int) -> Tuple[Tuple[int, int], AxisIndex]:
    if isinstance(item, slice):
        start, stop, step = item.indices(n)
        count = len(range(start, stop, step))
        if count == 0:
            # Empty selection: an empty bbox the caller's normalize_bbox
            # rejects with the shared one-line diagnostic.
            anchor = min(max(start, 0), n)
            return (anchor, anchor), slice(0, 0, 1)
        last = start + step * (count - 1)
        if step > 0:
            lo, hi = start, last + 1
            return (lo, hi), slice(0, None, step)
        lo, hi = last, start + 1
        return (lo, hi), slice(start - lo, None, step)
    try:
        i = operator.index(item)
    except TypeError:
        raise unsupported_index_error(item) from None
    orig = i
    if i < 0:
        i += n
    if not 0 <= i < n:
        raise IndexError(f"index {orig} is out of bounds for axis {axis} with size {n}")
    return (i, i + 1), 0


def compile_index(index: Any, shape: Sequence[int]) -> CompiledIndex:
    """Compile a NumPy-style index against ``shape`` into bbox + relative parts.

    Supports integers (negative allowed), slices with any step, ``...`` and
    missing trailing axes.  Raises ``IndexError`` for out-of-bounds integers or
    too many indices, ``TypeError`` for unsupported element kinds (boolean or
    array indices).
    """
    shape = tuple(int(s) for s in shape)
    if not isinstance(index, tuple):
        index = (index,)
    items = _expand_ellipsis(index, len(shape))
    bbox: List[Tuple[int, int]] = []
    rel: List[AxisIndex] = []
    for axis, (item, n) in enumerate(zip(items, shape)):
        pair, r = _compile_axis(item, n, axis)
        bbox.append(pair)
        rel.append(r)
    return CompiledIndex(bbox=tuple(bbox), rel=tuple(rel))


# -- text grammar ---------------------------------------------------------------
def parse_index_text(text: str) -> Tuple[Any, ...]:
    """Parse ``"10:20,:,::2"`` into ``(slice(10, 20), slice(None), slice(None, None, 2))``.

    Each comma-separated part is an integer, ``...``, or a ``start:stop:step``
    slice with any piece omitted — the NumPy syntax, minus spaces.  Raises
    ``ValueError`` naming the offending part.
    """
    items: List[Any] = []
    for part in text.split(","):
        part = part.strip()
        if part == "...":
            items.append(Ellipsis)
            continue
        if ":" in part:
            pieces = part.split(":")
            if len(pieces) > 3:
                raise ValueError(f"bad index axis {part!r}; at most two ':' allowed")
            try:
                items.append(slice(*(int(p) if p.strip() else None for p in pieces)))
            except ValueError:
                raise ValueError(
                    f"bad index axis {part!r}; expected integer slice parts"
                ) from None
            continue
        try:
            items.append(int(part))
        except ValueError:
            raise ValueError(
                f"bad index axis {part!r}; expected int, slice or '...'"
            ) from None
    return tuple(items)


def parse_bbox_text(text: str) -> Tuple[Tuple[int, int], ...]:
    """Parse ``"0:16,8:24,0:32"`` into ``((0, 16), (8, 24), (0, 32))``.

    Raises ``ValueError`` naming the offending part.
    """
    pairs: List[Tuple[int, int]] = []
    for part in text.split(","):
        lo, sep, hi = part.partition(":")
        if not sep:
            raise ValueError(f"bad bbox axis {part!r}; expected lo:hi")
        try:
            pairs.append((int(lo), int(hi)))
        except ValueError:
            raise ValueError(
                f"bad bbox axis {part!r}; expected integer lo:hi"
            ) from None
    return tuple(pairs)
