"""Sparse residual deltas: a residual as a row block over a base matrix.

Residual distance matrices are *near copies* of the profile's distance
matrix: the decremental repair that produces them
(:func:`repro.core.shortest_paths.decremental_distances`) rewrites only the
rows and columns of the affected sources, so a repaired residual differs
from the network matrix in ``O(k)`` symmetric row/column pairs out of
``n``.  This module holds that form and its byte layout:

``ResidualDelta`` / ``decode_delta``
    A delta is ``(sorted row index set, those rows verbatim)``.  Symmetry
    is what lets a row set double as a column set, so a delta of ``k``
    rows carries ``k * (n + 1)`` scalars instead of ``n^2``.  The delta
    *defines* the matrix it stands for: its rows verbatim, the same
    indices' columns of every other row from the transposed block, and
    the base everywhere else.  :func:`decode_delta` builds that matrix
    densely; reconstruction is bit-exact because the rows are verbatim
    float64 copies, never re-derived.

``pack_delta`` / ``unpack_delta``
    The byte layout a pool slot holds for a repaired residual
    (:mod:`repro.core.parallel`), pinned byte-for-byte by the golden
    layout test: an 8-byte little-endian unsigned row count, the sorted
    row indices as little-endian int64, then the rows as C-order
    little-endian float64.  All sections are 8-byte aligned so a receiver
    can build zero-copy views over the payload.

``DeltaResidual``
    A lazy row-view over ``(base, delta)`` implementing exactly the access
    surface the scoring kernels use (``shape``/``dtype``/row indexing — see
    :func:`repro.core.best_response.score_response`) plus the column
    reads (:func:`residual_block`) of the batched schedule's proposal cache,
    each bit for bit the same read of :func:`decode_delta`'s matrix, which
    is never materialized on those paths.

    It is the engine's own form of a repaired residual:
    :func:`repro.core.shortest_paths.decremental_distances` returns the
    rows it re-solved as a view over the network matrix it repaired, so a
    cached repair holds ``|S| * (n + 1)`` floats for ``|S|`` re-solved
    sources instead of an ``(n, n)`` copy, and every repair made under one
    network shares that network's matrix as its base.  The pool writes a
    view as its base and its packed delta, and a worker rebuilds the same
    view from the two slots.  A view never turns into an array implicitly
    (``numpy.asarray`` raises); a caller that needs the dense matrix asks
    for it with :meth:`DeltaResidual.dense` or :func:`dense_residual`.

``RowView``
    The read surface :class:`DeltaResidual` shares with the engine's other
    residual view, :class:`repro.core.shortest_paths.PinnedResidual` (a
    Dijkstra fallback served pinned from its raw rows); ``Residual`` is
    either an array or a row view, and :func:`dense_residual` densifies
    both.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Residual",
    "ResidualDelta",
    "RowView",
    "DeltaResidual",
    "decode_delta",
    "pack_delta",
    "unpack_delta",
    "packed_size",
    "residual_block",
    "dense_residual",
]

# Byte layout of a packed delta (everything little-endian, 8-byte aligned):
#   [0, 8)                      row count k as unsigned 64-bit
#   [8, 8 + 8k)                 sorted row indices as int64
#   [8 + 8k, 8 + 8k + 8kn)      changed rows, C-order float64 (k, n) block
_COUNT = struct.Struct("<Q")
_ROW_DTYPE = np.dtype("<i8")
_DATA_DTYPE = np.dtype("<f8")


def packed_size(num_rows: int, n: int) -> int:
    """Bytes of a packed delta with ``num_rows`` changed rows over ``n`` nodes."""
    return _COUNT.size + int(num_rows) * 8 + int(num_rows) * int(n) * 8


def _square(matrix: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class ResidualDelta:
    """A residual matrix expressed relative to a base snapshot.

    ``rows`` is the sorted, duplicate-free index set of changed rows (a
    repair's re-solved sources) and ``data`` holds the corresponding full
    matrix rows, ``data[i] == matrix[rows[i]]`` verbatim.  An empty delta
    (``rows.size == 0``) stands for the base itself.
    """

    rows: np.ndarray
    data: np.ndarray

    def __post_init__(self) -> None:
        rows = np.ascontiguousarray(self.rows, dtype=np.int64)
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        if rows.ndim != 1:
            raise ValueError(f"rows must be one-dimensional, got shape {rows.shape}")
        if data.ndim != 2 or data.shape[0] != rows.shape[0]:
            raise ValueError(
                f"data must be (len(rows), n), got {data.shape} for {rows.size} rows"
            )
        if rows.size:
            if rows[0] < 0 or rows[-1] >= data.shape[1]:
                raise ValueError(
                    f"row indices out of range for n={data.shape[1]}"
                )
            if np.any(np.diff(rows) <= 0):
                raise ValueError("row indices must be strictly increasing")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        """Matrix dimension the delta applies to."""
        return int(self.data.shape[1])

    @property
    def num_rows(self) -> int:
        return int(self.rows.shape[0])


def decode_delta(base: np.ndarray, delta: ResidualDelta) -> np.ndarray:
    """The dense matrix a delta stands for over ``base`` (bit-exact).

    The delta's rows are written verbatim and mirrored onto the matching
    columns, so every float of the result is a verbatim copy of a base
    entry or a delta entry.
    """
    b = _square(base, "base")
    if delta.n != b.shape[0]:
        raise ValueError(
            f"delta is over n={delta.n} but the base has n={b.shape[0]}"
        )
    out = np.array(b, dtype=np.float64, order="C", copy=True)
    if delta.num_rows:
        # Columns first, rows second: a row in the delta is always served
        # verbatim from the packed data, and any other row's entries at the
        # delta's columns come from the transpose, even where the block is
        # symmetric only up to floating-point error.
        out[:, delta.rows] = delta.data.T
        out[delta.rows, :] = delta.data
    return out


def pack_delta(delta: ResidualDelta) -> bytes:
    """Serialize a delta to the pinned slot layout (see module docs)."""
    return (
        _COUNT.pack(delta.num_rows)
        + np.ascontiguousarray(delta.rows, dtype=_ROW_DTYPE).tobytes()
        + np.ascontiguousarray(delta.data, dtype=_DATA_DTYPE).tobytes()
    )


def unpack_delta(payload: bytes | bytearray | memoryview, n: int) -> ResidualDelta:
    """Parse a packed delta for an ``(n, n)`` matrix; zero-copy over ``payload``.

    Validates the exact payload size and the row-index invariants (sorted,
    unique, in range) so a corrupted payload fails loudly instead of decoding
    into a silently wrong matrix.  The returned arrays view ``payload``
    where the buffer protocol allows it — callers keeping the delta beyond
    the payload's lifetime must copy.
    """
    view = memoryview(payload)
    n = int(n)
    if view.nbytes < _COUNT.size:
        raise ValueError(f"delta payload too short ({view.nbytes} bytes)")
    (count,) = _COUNT.unpack_from(view, 0)
    expected = packed_size(count, n)
    if view.nbytes != expected:
        raise ValueError(
            f"delta payload mis-sized: {view.nbytes} bytes for {count} rows "
            f"over n={n} (expected {expected})"
        )
    rows = np.frombuffer(view, dtype=_ROW_DTYPE, count=count, offset=_COUNT.size)
    data = np.frombuffer(
        view, dtype=_DATA_DTYPE, count=count * n, offset=_COUNT.size + count * 8
    ).reshape(count, n)
    return ResidualDelta(rows=rows, data=data)


class RowView:
    """Read surface shared by the residual row views.

    A row view stands for a dense float64 ``(n, n)`` residual matrix that is
    never materialized on the hot paths.  It serves ``shape``, ``dtype``,
    ``len``, row indexing by a scalar or a 1-D integer sequence (negative
    indices wrap), ``view[rows, col]`` for one integer column and
    :meth:`block` for a set of columns — exactly what the scoring kernels
    (:func:`repro.core.best_response.score_response`) and the batched
    schedule's proposal cache read — each bit for bit equal to the same
    read of :meth:`dense`.  It has no implicit array conversion:
    ``numpy.asarray(view)`` raises, so a dense use must call :meth:`dense`
    (or :func:`dense_residual`).  Subclasses implement :meth:`dense`,
    ``_rows`` and ``_block``.
    """

    __slots__ = ("shape",)

    ndim = 2
    dtype = np.dtype(np.float64)
    shape: tuple[int, int]

    def __len__(self) -> int:
        return self.shape[0]

    def __array__(self, dtype=None, copy=None):
        raise TypeError(
            f"{type(self).__name__} is a row view and has no implicit dense "
            "form; call .dense() where the full matrix is needed"
        )

    def dense(self) -> np.ndarray:
        """The full dense matrix, as a new array (never on hot paths)."""
        raise NotImplementedError

    @staticmethod
    def _index(index, n: int):
        """``index`` as an ``int`` or a 1-D ``intp`` array, wrapped into ``[0, n)``."""
        if isinstance(index, (int, np.integer)):
            i = int(index)
            if i < 0:
                i += n
            if not 0 <= i < n:
                raise IndexError(f"row {index} out of range for n={n}")
            return i
        idx = np.asarray(index)
        if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
            raise TypeError("row views support scalar or 1-D integer row indexing only")
        return np.where(idx < 0, idx + n, idx).astype(np.intp)

    def __getitem__(self, index):
        n = self.shape[0]
        if isinstance(index, tuple):
            if len(index) != 2 or not isinstance(index[1], (int, np.integer)):
                raise TypeError("row views support view[rows, col] with one integer column only")
            i = self._index(index[0], n)
            col = np.array([self._index(index[1], n)])
            out = self._block(np.atleast_1d(i), col)[:, 0]
            return out[0] if isinstance(i, int) else out
        return self._rows(self._index(index, n))

    def block(self, rows, cols) -> np.ndarray:
        """Entries ``(r, c)`` for every ``r`` in ``rows`` and ``c`` in ``cols``
        (1-D integer sequences), as a new ``(len(rows), len(cols))`` array."""
        n = self.shape[0]
        return self._block(
            np.atleast_1d(self._index(rows, n)), np.atleast_1d(self._index(cols, n))
        )

    def _rows(self, i):
        """Row ``i`` (an ``int``) or rows ``i`` (a wrapped index array)."""
        raise NotImplementedError

    def _block(self, i: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Entries ``(i[a], cols[b])`` at ``[a, b]``, for wrapped index arrays."""
        raise NotImplementedError


Residual = Union[np.ndarray, RowView]


class DeltaResidual(RowView):
    """Lazy row-view of ``base + delta``: the engine's repairs, also in a pool worker.

    Implements the :class:`RowView` read surface, so
    :func:`repro.core.best_response.score_response` relaxes candidates
    straight from the base matrix plus the packed rows without ever
    materializing the dense ``(n, n)`` array.  Rows inside the delta are
    served verbatim from the packed block; a row outside it is the base row
    with its entries at the changed columns overlaid from the packed data,
    exactly as :func:`decode_delta` builds the dense matrix, so every
    served float is bit-identical to it.

    The view shares ``base``; writing to it would change the view.
    """

    __slots__ = ("base", "delta")

    def __init__(self, base: np.ndarray, delta: ResidualDelta) -> None:
        b = _square(base, "base")
        if delta.n != b.shape[0]:
            raise ValueError(
                f"delta is over n={delta.n} but the base has n={b.shape[0]}"
            )
        self.base = b
        self.delta = delta
        self.shape = b.shape

    def dense(self) -> np.ndarray:
        """The full dense matrix, as a new array (never on hot paths)."""
        return decode_delta(self.base, self.delta)

    def _position(self, i: int) -> int:
        """Position of row ``i`` in the delta, or ``-1`` when it is not there."""
        rows = self.delta.rows
        pos = int(np.searchsorted(rows, i))
        return pos if pos < rows.size and rows[pos] == i else -1

    def _positions(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Position in the delta of each row index, and whether it is there."""
        rows = self.delta.rows
        pos = np.searchsorted(rows, idx)
        hit = rows[np.minimum(pos, rows.size - 1)] == idx
        return pos, hit

    def _rows(self, i):
        rows, data = self.delta.rows, self.delta.data
        if isinstance(i, int):
            pos = self._position(i)
            if pos >= 0:
                return data[pos]
            row = np.array(self.base[i], dtype=np.float64)
            if rows.size:
                row[rows] = data[:, i]
            return row
        out = self.base[i].astype(np.float64, copy=False)
        if not out.flags.writeable:  # pragma: no cover - read-only base
            out = out.copy()
        if rows.size:
            out[:, rows] = data[:, i].T
            pos, hit = self._positions(i)
            out[hit] = data[pos[hit]]
        return out

    def _block(self, i: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Entries ``(i, cols)``.

        A row in the delta is served from its packed row; otherwise a
        column in the delta is served from the packed row ``col``
        (transposed); otherwise the entry is the base's.
        """
        rows, data = self.delta.rows, self.delta.data
        out = self.base[i[:, None], cols]
        if rows.size:
            pos, hit = self._positions(cols)
            out[:, hit] = data[pos[hit][:, None], i].T
            pos, hit = self._positions(i)
            out[hit] = data[pos[hit][:, None], cols]
        return out


def residual_block(matrix: Residual, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entries ``(r, c)`` of a residual, dense or row view, for every ``r`` in
    ``rows`` and ``c`` in ``cols``: a new ``(len(rows), len(cols))`` array,
    bit for bit the same read of the dense matrix."""
    if isinstance(matrix, RowView):
        return matrix.block(rows, cols)
    return matrix[rows[:, None], cols]


def dense_residual(matrix: Residual) -> np.ndarray:
    """A residual as a dense float64 array: a view's :meth:`~RowView.dense`.

    An array passes through as is; a view comes back as a new array.  This
    is the explicit densify of the engine's move update and the checkpoint
    writer.
    """
    if isinstance(matrix, RowView):
        return matrix.dense()
    return np.asarray(matrix, dtype=np.float64)
