"""All-pairs and single-source shortest-path kernels.

The game engine needs shortest-path distances in two situations:

* the *created* network ``G(s)`` of a strategy profile, where the relevant
  input is a dense ``(n, n)`` weight matrix with ``numpy.inf`` marking
  non-edges, and
* best-response search, where the distances of a *residual* graph (the
  created network with one agent's owned edges removed) are combined with
  candidate edges of that agent.

Weights arrive either as a dense ``(n, n)`` matrix (``numpy.inf`` marks
non-edges, the diagonal is ignored, and the edge ``{u, v}`` weighs the
smaller of ``w[u, v]`` and ``w[v, u]``) or as a
:class:`scipy.sparse.csr_matrix` whose stored entries are the edges, each
stored in both directions with the same weight (explicit zeros are
zero-weight edges).  Every kernel first turns its input into one validated,
symmetric CSR graph: NaN or negative weights, and asymmetric sparse input,
raise ``ValueError`` whatever kernel runs next, at ``O(m)`` cost for ``m``
edges beyond reading the input.

Two interchangeable all-pairs kernels are provided:

``floyd_warshall``
    scipy's compiled Floyd–Warshall on that graph.  It is the reference
    implementation: it handles zero-weight edges and ``inf`` non-edges
    exactly, is bitwise symmetric, and is fast enough for the instance
    sizes used throughout the paper (n up to a few hundred).

``apsp_scipy``
    :func:`scipy.sparse.csgraph.dijkstra` run on the CSR graph directly.
    It is used as a cross-validation oracle in the test-suite and as the
    faster path for large networks (``n > FLOYD_WARSHALL_MAX_N``).  Where
    trees hang off the graph's 2-core, scipy solves the core alone: the
    degree-1 vertices are peeled, each hanging source enters the core
    through a super-source whose one edge weighs its left-to-right sum up
    to its root, and the hanging columns are filled top down by exact
    left folds, in ``O(n * Dijkstra on the core + n * hanging)``.  That is
    scipy's every bit, since ``fl(a + w)`` is monotone in ``a`` and the only
    simple path into a hanging vertex runs through its parent
    (:func:`_dijkstra`, for every request of at least ``n`` rows).

Both return an ``(n, n)`` float array whose diagonal is zero and whose
unreachable pairs are ``numpy.inf``.  A Dijkstra distance is the minimum over
paths of the left-to-right float sum of the path's weights, so it does not
depend on how the graph was handed in.

On top of the full-matrix kernels, this module provides the *incremental*
primitives used by the fast best-response engine
(:mod:`repro.core.incremental`):

``carry_dijkstra``
    Dijkstra rows of a graph — the whole matrix or any source subset —
    carried over from rows of an earlier graph (the whole matrix or any
    other subset), given the edges removed and added in between.  A scipy
    Dijkstra row is the minimum over paths of their left-to-right float
    sums, a pure function of the graph, so a row is unchanged bit for bit
    unless a removed edge is *tight* for it (``d(x, a) + w == d(x, b)`` in
    either direction) or an added edge strictly improves it.  Only those
    rows and the ones the earlier set lacks are solved, in one
    multi-source Dijkstra call (the affected-row test of Ramalingam and
    Reps, exact on any host); a whole matrix pins exactly as
    :func:`apsp_scipy` pins its own.  The engine carries both its repair
    rows and its fallbacks this way.

``PinnedResidual``
    The engine's Dijkstra fallback residual: the raw rows of a carry,
    served pinned (``min(raw, raw.T)``) row by row on read, so the raw
    matrix stays the base of the next carry and no pinned ``(n, n)`` copy
    is made.

``CandidateEvaluator``
    Scores candidate edge-sets of a single agent against a fixed residual
    distance matrix.  All candidate edges share one endpoint (the agent), so
    a path uses at most one bought edge before leaving the agent and the
    post-purchase distances follow from pure ``O(n)`` relaxations — no
    per-candidate shortest-path recomputation at all.  Whole chunks of the
    ``2^m`` candidate subsets are scored by filling the subset lattice, one
    ``O(n)`` minimum per subset.

``SingleMoveScorer``
    Scores *all* single-edge moves (add / delete / swap) of a stack of
    agents at once, every array carrying a leading agent axis, instead of
    per-candidate Python loops.  The agents of one stack share their
    strategy size ``k`` and add-pool size ``m``, so nothing is padded.  One
    gather per agent fetches its residual row and the relaxation rows
    ``w(u, t) + d_rest(t, ·)`` of its ``k`` bought targets and ``m`` add
    targets.  The distances of the current strategy are the element-wise
    minimum ``m1`` of the agent's row and the bought rows; a running
    selection (three ``O(n)`` passes per bought row) keeps the *second*
    smallest ``m2`` as well, which makes every deletion (and hence every
    swap) a pure ``O(n)`` selection — where row ``i`` attains ``m1`` its
    removal exposes ``m2``, everywhere else ``m1`` survives.  The
    leave-one-out edge sums come from one ``(g, k, k - 1)`` gather.  All
    add/delete/swap costs then follow from a few dense reductions per
    stack, which is what makes single-move responses fast in process,
    where the parallel evaluator scores them by default; a batch of
    ``g`` agents costs the numpy calls of one.

``decremental_distances``
    Exact distances after **removing** edges incident to one vertex, by
    affected-vertex relaxation.  A pair ``(x, y)`` can only lose its
    shortest path when some shortest ``x``–``y`` path runs through the
    touched vertex ``v`` (every removed edge is incident to ``v``), i.e.
    when ``d(x, v) + d(v, y) == d(x, y)``.  Such a path leaves ``v`` by some edge
    ``(v, b)``, so a source ``x`` can only be affected when ``x -> v -> b`` is
    tight for a pre-removal neighbour ``b`` of ``v``: an ``O(n deg(v))``
    prefilter picks those rows, and the pair test runs on them alone — on
    the neighbour columns first, and on the full row only for the rows
    those leave undecided.  Only
    the rows of *affected* sources are recomputed (one sparse single-source
    Dijkstra each, ``O(n + m log n)``); all other entries are provably
    unchanged, so the result is a row-block view over the old matrix
    (:class:`~repro.core.residual_delta.DeltaResidual`) holding just those
    rows, not a dense copy.  When the affected frontier exceeds
    ``max_affected_fraction * n`` sources, the repair degenerates towards a
    full recomputation and the function falls back to one all-pairs rebuild
    instead.  This is what lets the incremental engine
    (:mod:`repro.core.incremental`) serve residual-matrix cache misses for
    edge-owning agents without a from-scratch APSP.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from scipy.sparse import csr_matrix, issparse
from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra
from scipy.sparse.csgraph import floyd_warshall as _scipy_floyd_warshall

from .residual_delta import DeltaResidual, Residual, ResidualDelta, RowView, dense_residual

__all__ = [
    "floyd_warshall",
    "apsp_scipy",
    "all_pairs_shortest_paths",
    "FLOYD_WARSHALL_MAX_N",
    "CarriedDijkstra",
    "PinnedResidual",
    "carry_dijkstra",
    "dijkstra_rows",
    "relax_source_row",
    "strategy_cost_from_residual",
    "CandidateEvaluator",
    "SingleMoveScorer",
    "DecrementalRepair",
    "decremental_distances",
]

# Largest graph that ``all_pairs_shortest_paths`` solves by Floyd–Warshall;
# larger ones go to scipy's Dijkstra.
FLOYD_WARSHALL_MAX_N = 192

# Relative slack of the decremental repair's affected test, needed because
# a distance matrix carries accumulated floating-point error: marking extra
# pairs affected is harmless, missing one is not.
_REPAIR_TOL = 1e-9


def _as_square_float(matrix: Residual) -> Residual:
    if isinstance(matrix, RowView):
        # A residual row view (already square float64): the scoring
        # kernels only ever index it by row, which the view serves
        # bit-identically to the dense matrix without materializing it.
        return matrix
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


class _Graph(NamedTuple):
    """A validated, symmetric weighted graph in CSR form.

    Edge ``k`` runs from ``rows[k]`` to ``indices[k]`` with weight
    ``data[k]``; edges are sorted by ``(row, column)``, so row ``i`` holds
    ``indptr[i]:indptr[i + 1]``.  There are no self-loops or duplicates.
    The index arrays are in scipy's CSR index type (:func:`_index_dtype`).
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    rows: np.ndarray
    data: np.ndarray

    def csr(self) -> csr_matrix:
        return csr_matrix((self.data, self.indices, self.indptr), shape=(self.n, self.n))

    def without_edges(self, v: int, flagged: np.ndarray) -> "_Graph":
        """The graph minus the edges between ``v`` and the vertices ``flagged``
        (a boolean mask), in ``O(m)``; still validated and symmetric."""
        keep = ~(
            (self.rows == v) & flagged[self.indices] | (self.indices == v) & flagged[self.rows]
        )
        dropped = np.zeros(keep.size + 1, dtype=self.indptr.dtype)
        np.cumsum(~keep, out=dropped[1:])
        return _Graph(
            self.n,
            self.indptr - dropped[self.indptr],
            self.indices[keep],
            self.rows[keep],
            self.data[keep],
        )


def _as_graph(weights) -> _Graph:
    """``weights`` (dense or sparse) as a validated, symmetric :class:`_Graph`.

    Dense input keeps its off-diagonal entries other than ``inf``, the
    smaller of ``w[u, v]`` and ``w[v, u]`` for each pair; sparse input keeps
    its stored off-diagonal entries, explicit zeros included, and must be
    symmetric.  Raises ``ValueError`` for a NaN or negative weight or an
    asymmetric sparse graph, in ``O(m)`` for ``m`` edges beyond reading the
    input.
    """
    if isinstance(weights, _Graph):
        return weights
    if issparse(weights):
        csr = weights.tocsr()
        n = csr.shape[0]
        if csr.shape != (n, n):
            raise ValueError(f"expected a square matrix, got shape {csr.shape}")
        if not csr.has_canonical_format:
            csr = csr.copy()
            csr.sum_duplicates()
        indptr, indices = csr.indptr, csr.indices
        data = csr.data.astype(np.float64, copy=False)
        rows = np.repeat(np.arange(n, dtype=indices.dtype), np.diff(indptr))
        loops = rows == indices
        if loops.any():
            rows, indices, data = rows[~loops], indices[~loops], data[~loops]
            indptr = _indptr(rows, n)
        # Sorting the (row, column)-sorted edges stably by column lists the
        # mirror images in the same order; 16-bit keys get a linear-time
        # radix sort.
        order = np.argsort(indices.astype(np.int16) if n <= 2**15 else indices, kind="stable")
        symmetric = (
            np.array_equal(indices[order], rows)
            and np.array_equal(rows[order], indices)
            and np.array_equal(data[order], data)
        )
    else:
        w = _as_square_float(weights)
        n = w.shape[0]
        stored = w != np.inf  # NaN and -inf count as stored, so they get rejected
        np.fill_diagonal(stored, False)
        # A dense matrix is read as an undirected graph: the edge {u, v}
        # weighs min(w[u, v], w[v, u]), as scipy's undirected Dijkstra reads
        # it.  Symmetric input passes through unchanged.
        stored |= stored.T
        rows, indices = np.nonzero(stored)
        data = np.minimum(w[rows, indices], w[indices, rows])
        indptr = _indptr(rows, n)
        symmetric = True
    if not np.all(data >= 0):
        raise ValueError("edge weights must be non-negative (and not NaN)")
    if not symmetric:
        raise ValueError("sparse weights must be symmetric")
    index = _index_dtype(n, data.size)
    return _Graph(
        n,
        indptr.astype(index, copy=False),
        indices.astype(index, copy=False),
        rows.astype(index, copy=False),
        data,
    )


def _index_dtype(n: int, m: int) -> type:
    """scipy's CSR index type for ``n`` vertices and ``m`` edges.

    int32 whenever both fit, as scipy's own index type: a graph built with
    it goes to scipy's Dijkstra without being checked and cast again.
    """
    return np.int32 if max(n, m) < 2**31 else np.int64


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointer of sorted row indices."""
    indptr = np.zeros(n + 1, dtype=_index_dtype(n, rows.size))
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def floyd_warshall(weights) -> np.ndarray:
    """Floyd–Warshall, by :func:`scipy.sparse.csgraph.floyd_warshall`.

    Parameters
    ----------
    weights:
        Dense ``(n, n)`` array — ``weights[u, v]`` is the length of the edge
        ``(u, v)`` or ``numpy.inf`` if the edge is absent, the diagonal is
        ignored — or a symmetric CSR graph (see the module docstring).
        Weights must be non-negative; zero-weight edges are allowed and
        handled exactly.

    Returns
    -------
    numpy.ndarray
        The ``(n, n)`` matrix of shortest-path distances.

    Notes
    -----
    scipy's kernel runs the textbook ``k, i, j`` loop in place on the dense
    matrix of the validated CSR graph (its explicit zeros are edges), so
    ``d[i, j]`` becomes ``d[i, k] + d[k, j]`` exactly when that sum is
    smaller.  Row and column ``k`` do not change during pass ``k`` (the
    diagonal is zero and weights are non-negative), so the result equals the
    vectorized ``numpy.minimum(d, d[:, k, None] + d[None, k, :])`` sweep bit
    for bit; the sum of two floats commutes, so it is bitwise symmetric.
    """
    return _scipy_floyd_warshall(_as_graph(weights).csr(), directed=True)


def _dijkstra(graph: _Graph, sources: np.ndarray | None = None) -> np.ndarray:
    """Unpinned scipy Dijkstra rows of ``sources`` (every vertex when ``None``).

    Row ``i`` is source ``sources[i]``'s distance vector, with a zero at the
    source; ``directed=True`` on the symmetric CSR keeps zero-weight edges
    as edges.

    A request for at least as many rows as the graph has vertices runs
    scipy on the 2-core only, when the graph has a degree-1 vertex.
    Degree-1 vertices are peeled round by round into a hanging forest
    (:func:`_peel`).  scipy then solves the core once, with one
    super-source per hanging source vertex: its single edge into the
    source's core root weighs the source's *up-fold* ``s``, the
    left-to-right sum of the weights on its way up, so scipy starts that
    root at ``0.0 + s == s``.  The hanging columns are then filled top
    down, ``D[:, y] = D[:, parent(y)] + w(y)``; each round's entries at a
    row's own ancestors are overwritten with the row's prefix up-folds, and
    its diagonal with zero, before the next round reads them
    (:func:`_fill_hanging`).  Every entry is scipy's bit for bit: a
    Dijkstra row is the minimum over paths of their left-to-right float
    sums (:func:`carry_dijkstra`), ``fl(a + w)`` is monotone in ``a``, and
    the only simple path into a hanging vertex from outside its subtree
    runs through its parent, while the only one from inside runs straight
    up.  Cost ``O(rows * Dijkstra on the core + rows * hanging)``.  Smaller
    requests, the repairs' and carries' rows, stay on plain scipy: there a
    peel costs more than it saves.
    """
    if graph.n == 0:
        return np.zeros((0, 0))
    src = np.arange(graph.n) if sources is None else sources
    forest = _peel(graph) if src.size >= graph.n else None
    if forest is None:
        rows = np.asarray(
            _scipy_dijkstra(graph.csr(), directed=True, indices=sources),
            dtype=float,
        )
    else:
        rows = _fill_hanging(graph, src, forest)
    rows[np.arange(src.size), src] = 0.0
    return rows


class _HangingForest(NamedTuple):
    """The trees hanging off a graph's 2-core (:func:`_peel`).

    ``parent[y]`` is the vertex a hanging ``y`` hangs from (``-1`` in the
    core), ``weight[y]`` the weight of that edge and ``level[y]`` the round
    that peeled ``y`` (``0`` in the core).  ``rounds[k]`` lists the vertices
    peeled in round ``k + 1``; a vertex's parent is peeled in a later round
    or lies in the core.
    """

    parent: np.ndarray
    weight: np.ndarray
    level: np.ndarray
    rounds: list[np.ndarray]


def _peel(graph: _Graph) -> _HangingForest | None:
    """Peel degree-1 vertices round by round; ``None`` if there are none.

    Each round removes every vertex of degree 1 at its start, with its one
    remaining edge.  Of an isolated edge only the higher end is peeled: the
    lower one stays as the root, and isolated vertices stay in the core.
    Each vertex's row is scanned once, when it is peeled, so the cost is
    ``O(n + m)`` plus a few numpy calls per round.
    """
    indptr, indices = graph.indptr, graph.indices
    full = np.diff(indptr)
    degree = full.copy()
    leaves = np.flatnonzero(degree == 1)
    if not leaves.size:
        return None
    parent = np.full(graph.n, -1, dtype=np.intp)
    weight = np.zeros(graph.n)
    level = np.zeros(graph.n, dtype=np.intp)
    alive = np.ones(graph.n, dtype=bool)
    rounds = []
    while leaves.size:
        # Each leaf's one live edge, from a scan of its CSR row.
        count = full[leaves]
        ends = np.cumsum(count)
        at = np.arange(ends[-1]) + np.repeat(indptr[leaves] - ends + count, count)
        edge = at[alive[indices[at]]]
        up = indices[edge]
        keep = (degree[up] != 1) | (leaves > up)
        leaves, edge, up = leaves[keep], edge[keep], up[keep]
        alive[leaves] = False
        parent[leaves] = up
        weight[leaves] = graph.data[edge]
        rounds.append(leaves)
        level[leaves] = len(rounds)
        degree -= np.bincount(up, minlength=graph.n).astype(degree.dtype, copy=False)
        up = np.unique(up)
        leaves = up[degree[up] == 1]
    return _HangingForest(parent, weight, level, rounds)


def _fill_hanging(graph: _Graph, sources: np.ndarray, forest: _HangingForest) -> np.ndarray:
    """Dijkstra rows of ``sources`` from one scipy run on the 2-core
    (see :func:`_dijkstra`); the diagonal of a core row is scipy's."""
    parent, weight = forest.parent, forest.weight
    core = parent < 0
    # Up-folds: walk every hanging row to its root, noting the prefix sum at
    # each hanging ancestor (and zero at the source) as a cell to overwrite.
    hanging = np.flatnonzero(~core[sources])
    at = sources[hanging]
    supers, first = np.unique(at, return_index=True)
    cells = [(hanging, at, np.zeros(hanging.size))]
    fold = np.zeros(hanging.size)
    root = np.empty(hanging.size, dtype=np.intp)
    start = np.empty(hanging.size)
    walking = np.arange(hanging.size)
    while walking.size:
        fold = fold + weight[at]
        at = parent[at]
        done = core[at]
        root[walking[done]], start[walking[done]] = at[done], fold[done]
        walking, at, fold = walking[~done], at[~done], fold[~done]
        cells.append((hanging[walking], at, fold))
    # scipy's graph keeps the core's own edges, and each hanging source
    # vertex becomes its own super-source: its one edge, its up-fold, runs
    # into its root.  Nothing runs into a hanging vertex, so scipy settles
    # the core alone, and its rows come out in the graph's column order.
    inner = core[graph.rows] & core[graph.indices]
    tails = np.concatenate((graph.rows[inner], supers))
    order = np.argsort(tails, kind="stable")
    heads = np.concatenate((graph.indices[inner], root[first]))[order]
    data = np.concatenate((graph.data[inner], start[first]))[order]
    csr = csr_matrix((data, heads, _indptr(tails[order], graph.n)), shape=(graph.n, graph.n))
    rows = np.asarray(_scipy_dijkstra(csr, directed=True, indices=sources), dtype=float)
    # Top-down fill, one peel round at a time, last round first.  A round's
    # cells are written before any lower round reads its columns.
    cell_rows, cell_cols, cell_values = (np.concatenate(c) for c in zip(*cells))
    order = np.argsort(forest.level[cell_cols], kind="stable")
    cell_rows, cell_cols, cell_values = cell_rows[order], cell_cols[order], cell_values[order]
    bounds = np.searchsorted(forest.level[cell_cols], np.arange(len(forest.rounds) + 2))
    for k in range(len(forest.rounds), 0, -1):
        peeled = forest.rounds[k - 1]
        column = rows[:, parent[peeled]]
        column += weight[peeled]
        rows[:, peeled] = column
        span = slice(bounds[k], bounds[k + 1])
        rows[cell_rows[span], cell_cols[span]] = cell_values[span]
    return rows


def _pin(dist: np.ndarray) -> np.ndarray:
    """The bitwise-symmetric representative ``min(dist, dist.T)`` of a Dijkstra matrix.

    scipy's per-source Dijkstra accumulates path sums in source order, so
    ``dist[i, j]`` and ``dist[j, i]`` can disagree in the last ulp even
    though the graph is undirected.  Distances are mathematically
    symmetric, so pin the smaller one: this keeps every snapshot and
    row/column repair of it exactly symmetric, which is what lets a
    repair's re-solved rows double as its changed columns (the
    Floyd–Warshall path is bitwise symmetric already, as float addition
    commutes).  Every pinned matrix of this module comes from here.
    """
    return np.minimum(dist, dist.T)


def apsp_scipy(weights) -> np.ndarray:
    """All-pairs shortest paths via :mod:`scipy.sparse.csgraph` Dijkstra.

    The graph goes to scipy as the validated CSR (``directed=True`` on the
    symmetric graph), so zero-weight edges stay edges; the result is pinned
    bitwise symmetric (:func:`_pin`).
    """
    return _pin(_dijkstra(_as_graph(weights)))


def all_pairs_shortest_paths(weights) -> np.ndarray:
    """All-pairs shortest paths by the kernel that suits the size.

    Floyd–Warshall (:func:`floyd_warshall`) for small instances
    (``n <= FLOYD_WARSHALL_MAX_N``, where it is essentially free and exactly
    reproducible) and scipy's Dijkstra for larger ones.  The dense matrix
    Floyd–Warshall needs is built only when it is the chosen kernel.
    """
    graph = _as_graph(weights)
    if graph.n <= FLOYD_WARSHALL_MAX_N:
        return floyd_warshall(graph)
    return apsp_scipy(graph)


class CarriedDijkstra(NamedTuple):
    """Outcome of :func:`carry_dijkstra`.

    ``unpinned`` holds the scipy Dijkstra rows of the requested sources, in
    their order (the whole matrix by default), each bit for bit a fresh
    solve and the base of a later carry; ``resolved`` lists the sources
    whose rows were solved rather than carried; and ``every_row`` records
    that every row was requested (``sources=None``).
    """

    unpinned: np.ndarray
    resolved: np.ndarray
    every_row: bool

    @property
    def distances(self) -> np.ndarray | None:
        """``apsp_scipy(weights)`` bit for bit when every row was requested,
        ``None`` for a subset (a pin needs the whole matrix).  Pinned on each
        access: a reference for tests, not for hot paths."""
        return _pin(self.unpinned) if self.every_row else None


class PinnedResidual(RowView):
    """A raw Dijkstra matrix served pinned, ``min(raw, raw.T)``, row by row.

    The engine's form of a Dijkstra fallback residual
    (``n > FLOYD_WARSHALL_MAX_N``): it keeps the unpinned rows ``raw`` of
    :attr:`CarriedDijkstra.unpinned` — the base its agent's next carry
    reads directly — and serves the :class:`~repro.core.residual_delta.RowView`
    read surface of the pinned matrix :func:`apsp_scipy` would return: row
    ``i`` is ``min(raw[i], raw[:, i])`` and entry ``(i, c)`` is
    ``min(raw[i, c], raw[c, i])``, the same minimum :func:`_pin` takes, so
    every read equals the same read of ``_pin(raw)`` bit for bit.  A read
    costs ``O(n)`` per row, and no ``(n, n)`` pinned copy exists unless
    :meth:`dense` builds one.  The view shares ``raw``; writing to it would
    change the view.
    """

    __slots__ = ("raw",)

    def __init__(self, raw: np.ndarray) -> None:
        r = np.asarray(raw, dtype=np.float64)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError(f"raw must be a square matrix, got shape {r.shape}")
        self.raw = r
        self.shape = r.shape

    def dense(self) -> np.ndarray:
        """The pinned matrix ``_pin(raw)``, as a new array (never on hot paths)."""
        return _pin(self.raw)

    def _rows(self, i):
        raw = self.raw
        if isinstance(i, int):
            return np.minimum(raw[i], raw[:, i])
        return np.minimum(raw[i], raw[:, i].T)

    def _block(self, i: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return np.minimum(self.raw[i[:, None], cols], self.raw[cols[:, None], i].T)


def _edge_arrays(edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    a, b, w = edges
    a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
    w = np.asarray(w, dtype=float)
    if not a.shape == b.shape == w.shape or a.ndim != 1:
        raise ValueError("edges must be three equal-length 1-d arrays (a, b, w)")
    return a, b, w


def _source_array(sources, n: int) -> np.ndarray:
    src = np.asarray(sources, dtype=np.intp).reshape(-1)
    if src.size and not 0 <= src.min() <= src.max() < n:
        raise ValueError(f"sources out of range for n={n}")
    return src


def _dirty_rows(block: np.ndarray, removed, added) -> np.ndarray:
    """Which rows of ``block`` a removed edge is tight for or an added edge
    strictly improves (see :func:`carry_dijkstra`), from one gather of the
    edges' endpoint columns."""
    (ra, rb, rw), (aa, ab, aw) = _edge_arrays(removed), _edge_arrays(added)
    ends = np.concatenate((ra, rb, aa, ab))
    if ends.size == 0:
        return np.zeros(block.shape[0], dtype=bool)
    n = block.shape[1]
    if (ends.view(np.uintp) >= n).any():  # negative ends wrap to huge values
        raise ValueError(f"edge endpoints out of range for n={n}")
    k, m = ra.size, aa.size
    g = block[:, ends]
    dirty = np.zeros(block.shape[0], dtype=bool)
    if k:
        # Either equality leaves both ends equally finite: testing da suffices.
        da, db = g[:, :k], g[:, k : 2 * k]
        tight = ((da + rw == db) | (db + rw == da)) & (da < np.inf)
        dirty |= tight.any(axis=1)
    if m:
        da, db = g[:, 2 * k : 2 * k + m], g[:, 2 * k + m :]
        dirty |= ((da + aw < db) | (db + aw < da)).any(axis=1)
    return dirty


def carry_dijkstra(
    weights,
    previous: np.ndarray | None = None,
    removed=((), (), ()),
    added=((), (), ()),
    *,
    sources=None,
    previous_sources=None,
) -> CarriedDijkstra:
    """Dijkstra rows of ``weights``, re-solving only those that changed.

    Parameters
    ----------
    weights:
        The graph now, dense or CSR as for :func:`floyd_warshall`.
    previous:
        *Unpinned* Dijkstra rows (:attr:`CarriedDijkstra.unpinned`) of an
        earlier graph: the whole ``(n, n)`` matrix, or the rows of
        ``previous_sources``.  ``None`` solves every requested row.
    removed, added:
        The edges that earlier graph had and ``weights`` lacks, and the
        reverse, each as three equal-length arrays ``(a, b, w)`` (one entry
        per undirected edge).  Every other edge must be the same in both.
    sources:
        The sources whose rows to return, in that order; every vertex when
        ``None``.
    previous_sources:
        The distinct sources of the rows of ``previous``, in order; every
        vertex when ``None``.  A requested source without a previous row
        is solved.

    Notes
    -----
    A scipy Dijkstra row is ``min`` over paths of the left-to-right float
    sum of their weights: float addition of a non-negative weight is
    monotone, so Dijkstra's settling argument holds for the rounded sums,
    and the row depends on the graph alone.  A previous row ``x`` is
    re-solved when a removed edge is tight for it,
    ``d(x, a) + w == d(x, b)`` with ``d(x, a)`` finite (either direction),
    or an added edge strictly improves it, ``d(x, a) + w < d(x, b)``
    (either direction).  Any other row is unchanged bit for bit.  Removals:
    if a minimum path to ``y`` crosses a removed edge, its prefix up to the
    far end ``b`` of the last one sums to more than ``d(x, b)`` (the edge is
    not tight), so swapping that prefix for a minimum path to ``b`` gives a
    minimum path to ``y`` again, and induction on ``d(x, ·)`` yields one
    without removed edges.  Additions: a path through an added edge is no
    shorter than the same path with its prefix swapped for a minimum path
    to the edge's far end, which drops that edge.  The test is per row, so
    it holds for any set of previous rows and any requested subset: the
    dirty and the missing rows are solved together, in one multi-source
    Dijkstra call.  Cost ``O(r k)`` for ``r`` previous rows requested and
    ``k`` changed edges, plus one Dijkstra per solved row; nothing is
    pinned until :attr:`CarriedDijkstra.distances` is read.  A whole
    matrix carried whole is one copy of ``previous`` with its stale rows
    overwritten; ``previous`` itself is never written.
    """
    graph = _as_graph(weights)
    n = graph.n
    wanted = np.arange(n) if sources is None else _source_array(sources, n)
    unpinned = resolved = None
    if previous is not None:
        d = np.asarray(previous, dtype=float)
        if previous_sources is None:
            if d.shape != (n, n):
                raise ValueError(f"shape mismatch: previous {d.shape} vs weights {(n, n)}")
            at = wanted
        else:
            held = _source_array(previous_sources, n)
            if d.shape != (held.size, n):
                raise ValueError(f"shape mismatch: previous {d.shape} vs {held.size} rows of n={n}")
            index = np.full(n, -1)
            index[held] = np.arange(held.size)
            if np.count_nonzero(index >= 0) != held.size:
                raise ValueError("previous_sources must be distinct")
            at = index[wanted]
        # Position i of the result takes previous row at[i] unless it is dirty.
        have = np.flatnonzero(at >= 0)
        whole = sources is None and previous_sources is None
        block = d if whole else d[at[have]]
        clean = ~_dirty_rows(block, removed, added)
        if clean.any():
            if whole:
                # The whole matrix carried whole: one copy, whose stale rows
                # are overwritten below.
                stale = ~clean
                unpinned = d.copy()
            else:
                stale = np.ones(wanted.size, dtype=bool)
                stale[have[clean]] = False
                unpinned = np.empty((wanted.size, n))
                unpinned[~stale] = block[clean]
            resolved = wanted[stale]
            if resolved.size:
                unpinned[stale] = _dijkstra(graph, resolved)
    if unpinned is None:
        resolved = wanted
        unpinned = _dijkstra(graph, wanted) if wanted.size else np.zeros((0, n))
    return CarriedDijkstra(unpinned, resolved, sources is None)


def dijkstra_rows(weights, sources: Sequence[int]) -> np.ndarray:
    """Selected rows of the all-pairs distance matrix.

    Runs scipy's C Dijkstra from each entry of ``sources`` on the validated
    CSR graph and returns the ``(len(sources), n)`` block of shortest-path
    distances.  ``weights`` is dense or CSR, as for :func:`floyd_warshall`.
    """
    graph = _as_graph(weights)
    src = np.asarray([int(s) for s in sources], dtype=int)
    if src.size == 0:
        return np.zeros((0, graph.n), dtype=float)
    if np.any((src < 0) | (src >= graph.n)):
        raise ValueError(f"sources out of range for n={graph.n}")
    return _dijkstra(graph, src)


@dataclass(frozen=True)
class DecrementalRepair:
    """Outcome of a decremental distance update (:func:`decremental_distances`).

    ``residual`` is the exact all-pairs matrix of the post-removal graph:
    after a row repair, a :class:`~repro.core.residual_delta.DeltaResidual`
    over the pre-removal matrix whose delta is the sorted re-solved sources
    ``S`` and their ``(|S|, n)`` rows; after a rebuild, the matrix the
    rebuild returned, dense or a row view (the incremental engine's Dijkstra
    fallbacks are :class:`PinnedResidual` views).  ``distances`` is the same
    matrix, always dense
    (built on each access: a reference for tests, not for hot paths).
    ``affected_sources`` counts the vertices whose rows the repair had to
    recompute, and ``rebuilt`` records whether the affected frontier
    exceeded the threshold and a full all-pairs rebuild was performed
    instead of the row-wise repair.
    """

    residual: Residual
    affected_sources: int
    rebuilt: bool

    @property
    def distances(self) -> np.ndarray:
        """The post-removal matrix as a dense array."""
        return dense_residual(self.residual)


def _rows_near_vertex(
    d: np.ndarray, graph: _Graph, v: int, removed
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``x != v`` that may hold a pair whose shortest path runs through
    ``v``, and ``v``'s pre-removal neighbours.

    Any near-shortest ``x -> v -> y`` path leaves ``v`` by some pre-removal
    edge ``(v, b)``, so ``x -> v -> b`` is near-tight with at most the same
    slack.  The slack of the pair test is at most
    ``_REPAIR_TOL * (1 + d(x, v) + ecc(v))``; the prefilter allows four
    times that, which also absorbs the rounding of ``d``.  ``O(n deg(v))``.
    """
    n = d.shape[0]
    removed = np.asarray(removed, dtype=np.intp)
    if removed.size and not 0 <= removed.min() <= removed.max() < n:
        raise ValueError(f"removed vertices out of range for n={n}")
    flagged = np.zeros(n, dtype=bool)
    flagged[graph.indices[graph.indptr[v] : graph.indptr[v + 1]]] = True
    flagged[removed] = True
    flagged[v] = False
    neighbours = np.flatnonzero(flagged)
    dv = d[v]
    reachable = np.isfinite(dv)
    delta = 4.0 * _REPAIR_TOL * (1.0 + dv + dv[reachable].max())
    near = (dv[neighbours][:, None] + dv[None, :] <= d[neighbours] + delta).any(axis=0)
    near &= reachable
    near[v] = False
    return np.flatnonzero(near), neighbours


def _through_vertex(block: np.ndarray, dxv: np.ndarray, dvy: np.ndarray) -> np.ndarray:
    """The repair's pair test on ``block[i, j] = d(x_i, y_j)``: whether
    ``d(x_i, v) + d(v, y_j) <= d(x_i, y_j) + slack`` for a finite
    ``d(x_i, y_j)``, with ``dxv[i] = d(x_i, v)`` and ``dvy[j] = d(v, y_j)``."""
    finite = np.isfinite(block)
    slack = _REPAIR_TOL * (1.0 + np.where(finite, np.abs(block), 0.0))
    return finite & (dxv[:, None] + dvy[None, :] <= block + slack)


def decremental_distances(
    dist: np.ndarray,
    new_weights,
    vertex: int,
    *,
    removed: Sequence[int] | np.ndarray,
    max_affected_fraction: float = 0.5,
    rebuild: Callable[[_Graph], Residual] | None = None,
    solve_rows: Callable[[_Graph, np.ndarray], np.ndarray] | None = None,
) -> DecrementalRepair:
    """Exact distances after removing edges incident to ``vertex``.

    Parameters
    ----------
    dist:
        ``(n, n)`` shortest-path matrix of the graph *before* the removal
        (a symmetric metric closure, e.g. the output of
        :func:`floyd_warshall`; ``inf`` marks unreachable pairs).  A row
        repair returns a view over it, so it must not be written to while
        the result is in use.
    new_weights:
        Weights of the graph *after* the removal, dense or CSR as for
        :func:`floyd_warshall`.  Every edge present in ``new_weights`` must
        have been present with the same weight before; only edges incident
        to ``vertex`` may have been dropped.
    removed:
        The vertices whose edges to ``vertex`` were dropped.  With them the
        pre-removal neighbours of ``vertex`` are known, and only rows that
        pass an ``O(n deg(vertex))`` prefilter get the pair test.
    max_affected_fraction:
        Fallback threshold: when more than ``max_affected_fraction * n``
        sources are affected, repairing row by row approaches the cost of a
        full rebuild, so one :func:`all_pairs_shortest_paths` run is
        performed instead.
    rebuild:
        Computes that fallback instead: called once with the post-removal
        graph, it must return the graph's exact all-pairs matrix, dense or
        as a row view.  The incremental engine passes one that carries
        Dijkstra rows over from the agent's previous residual
        (:func:`carry_dijkstra`) and returns them as a
        :class:`PinnedResidual`.
    solve_rows:
        Computes a row repair's rows instead of :func:`dijkstra_rows`:
        called once with the post-removal graph and the sorted sources, it
        must return a new ``(len(sources), n)`` array equal to
        ``dijkstra_rows(graph, sources)`` bit for bit.  The incremental
        engine passes one that carries the rows its previous residual of
        the agent holds and solves only the dirty or missing ones
        (:func:`carry_dijkstra` with ``sources``).

    Notes
    -----
    Distances only grow under edge deletion, and a pair ``(x, y)`` with
    ``d(x, y) < d(x, vertex) + d(vertex, y)`` has a shortest path avoiding
    ``vertex`` entirely — hence avoiding every removed edge — so its
    distance is unchanged.  Only sources with at least one potentially
    affected pair (plus ``vertex`` itself) are re-solved, one sparse
    single-source Dijkstra (``O(n + m log n)`` for ``m`` edges) each; the
    repaired rows/columns are exact by the correctness of Dijkstra, the
    untouched entries by the argument above.  The repair keeps the
    re-solved rows ``R`` of the sorted sources ``S`` as a block with
    ``block[:, S] = R[:, S].T`` — rows ``S`` of the dense matrix that
    writes ``R`` into rows ``S`` and ``R.T`` into columns ``S`` of a copy
    of ``dist`` — and returns it as a view over ``dist``, which serves
    that dense matrix bit for bit.  The square ``block[:, S]`` is ``R[:, S]``
    transposed, so transposing it back recovers the raw rows ``R``, the
    base the engine carries the agent's next rows from.

    A source ``x`` is affected as soon as one pair ``(x, y)`` passes the
    test, and the test is run column by column with the same float
    expression, so the order in which the columns are tried cannot change
    the source set.  They are tried on the pre-removal neighbours ``b`` of
    ``vertex`` first: a shortest ``x -> vertex -> y`` path leaves through
    some ``b``, so ``x -> vertex -> b`` is tight too, and up to rounding
    and the slack every affected row fires on a neighbour column.  Only the
    rows none fires for get the test on their full row.  Total cost is
    ``O(n deg(vertex) + k deg(vertex) + q n + a (n + m log n))`` for ``k``
    rows kept by the prefilter, ``q`` of them undecided by the neighbour
    columns and ``a`` affected sources, of which ``solve_rows`` may solve
    only ``a' <= a``; nothing of size ``n^2`` is copied.
    """
    d = _as_square_float(dist)
    graph = _as_graph(new_weights)
    if d.shape != (graph.n, graph.n):
        raise ValueError(f"shape mismatch: dist {d.shape} vs new_weights {(graph.n,) * 2}")
    n = d.shape[0]
    v = int(vertex)
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range for n={n}")
    rows, neighbours = _rows_near_vertex(d, graph, v, removed)
    # Pairs whose old shortest path may run through v (and hence through a
    # removed edge): d(x, v) + d(v, y) <= d(x, y) + slack.  Pairs at infinite
    # distance cannot get worse and are never affected.  The through-v test
    # is meaningless for pairs involving v itself (it degenerates to
    # equality); v's own row is always recomputed instead.  A row is
    # affected once one pair fires, and most rows that are fire on a
    # neighbour column y = b, so the test runs on those (k, deg v) columns
    # first and on the full row only for the rows they leave undecided.
    dxv = d[rows, v]
    affected = _through_vertex(d[rows[:, None], neighbours], dxv, d[v, neighbours]).any(axis=1)
    undecided = np.flatnonzero(~affected)
    if undecided.size:
        full = _through_vertex(d[rows[undecided]], dxv[undecided], d[v])
        full[:, v] = False
        affected[undecided] = full.any(axis=1)
    source_mask = np.zeros(n, dtype=bool)
    source_mask[rows[affected]] = True
    source_mask[v] = True
    count = int(source_mask.sum())
    budget = max(1, int(np.ceil(max_affected_fraction * n)))
    if count > budget:
        rebuilt = all_pairs_shortest_paths(graph) if rebuild is None else rebuild(graph)
        return DecrementalRepair(rebuilt, count, True)
    sources = np.flatnonzero(source_mask)
    block = dijkstra_rows(graph, sources) if solve_rows is None else solve_rows(graph, sources)
    block[:, sources] = block[:, sources].T
    view = DeltaResidual(d, ResidualDelta(sources, block))
    return DecrementalRepair(view, count, False)


@lru_cache(maxsize=64)
def _leave_one_out(k: int) -> np.ndarray:
    """``(k, k - 1)`` index whose row ``i`` is ``0..k-1`` without ``i``.

    Gathering a length-``k`` vector with it and summing each row gives all
    ``k`` leave-one-out sums, each reduced exactly like the vector with
    element ``i`` deleted.
    """
    cols = np.arange(k - 1)
    index = cols + (cols >= np.arange(k)[:, None])
    index.setflags(write=False)
    return index


def _sorted_targets(source: int, targets: Iterable[int]) -> list[int]:
    t = sorted({int(v) for v in targets})
    if source in t:
        raise ValueError("strategies cannot contain the agent itself")
    return t


def relax_source_row(
    d_rest: np.ndarray,
    source: int,
    edge_weights: np.ndarray,
    targets: Iterable[int],
) -> np.ndarray:
    """Distance row of ``source`` after buying edges towards ``targets``.

    The single place the one-bought-edge relaxation
    ``d(u, x) = min(d_rest(u, x), min_{v in S} w(u, v) + d_rest(v, x))``
    is implemented; exact because a shortest path leaving ``u`` through a
    bought edge never returns to ``u``.
    """
    base = d_rest[source]
    t = _sorted_targets(source, targets)
    if not t:
        return base.copy()
    reach = edge_weights[t][:, None] + d_rest[t]
    return np.minimum(base, reach.min(axis=0))


def strategy_cost_from_residual(
    d_rest: np.ndarray,
    source: int,
    edge_weights: np.ndarray,
    alpha: float,
    targets: Iterable[int],
) -> float:
    """Total cost (edge + distance) of ``source`` playing ``targets``.

    Buying an infinite-weight (absent) host edge costs ``inf`` for every
    ``alpha`` — including ``alpha == 0``, where a naive ``alpha * w`` would
    produce NaN — matching :meth:`repro.core.game.NetworkCreationGame.edge_cost`.
    """
    t = _sorted_targets(source, targets)
    if not t:
        return float(d_rest[source].sum())
    bought = np.asarray(edge_weights, dtype=float)[t]
    if not np.all(np.isfinite(bought)):
        return float("inf")
    dist = np.minimum(d_rest[source], (bought[:, None] + d_rest[t]).min(axis=0))
    return float(alpha * bought.sum() + dist.sum())


class CandidateEvaluator:
    """Incremental cost evaluation of one agent's candidate edge purchases.

    The evaluator is constructed from the agent's *residual* distance matrix
    ``d_rest`` (the created network without the agent's solely-owned edges)
    and scores arbitrary strategies of that agent without ever recomputing
    shortest paths: since every purchasable edge is incident to the agent
    ``u``, the post-purchase distance from ``u`` to any ``x`` is ::

        d(u, x) = min(d_rest(u, x), min_{v in S} w(u, v) + d_rest(v, x))

    and the full post-purchase distance matrix follows from one more rank-1
    relaxation through ``u`` (every path using a bought edge visits ``u``)::

        d(x, y) = min(d_rest(x, y), d(u, x) + d(u, y))

    Parameters
    ----------
    d_rest:
        ``(n, n)`` residual shortest-path distances.
    source:
        The agent ``u`` whose purchases are evaluated.
    edge_weights:
        ``(n,)`` host-graph weight row ``w(u, ·)``.
    alpha:
        Edge-price parameter of the game.
    candidates:
        Optional explicit candidate target list used by the subset scan
        (:meth:`subset_costs`).  Defaults to every other node with a finite
        host weight.  Indices must lie in ``[0, n)``; the agent itself is
        dropped and repeats are dropped in first-occurrence order.
    """

    __slots__ = ("d_rest", "source", "alpha", "_w", "base", "candidates", "prices", "reach")

    def __init__(
        self,
        d_rest: np.ndarray,
        source: int,
        edge_weights: np.ndarray,
        alpha: float,
        candidates: Sequence[int] | None = None,
    ) -> None:
        d = _as_square_float(d_rest)
        n = d.shape[0]
        if not 0 <= source < n:
            raise ValueError(f"source {source} out of range for n={n}")
        w = np.asarray(edge_weights, dtype=float)
        if w.shape != (n,):
            raise ValueError(f"edge_weights must have shape ({n},), got {w.shape}")
        if candidates is None:
            finite = np.isfinite(w)
            finite[source] = False
            cand = np.nonzero(finite)[0].astype(int)
        else:
            picked = dict.fromkeys(int(v) for v in candidates)
            if any(not 0 <= v < n for v in picked):
                raise ValueError(f"candidates out of range for n={n}")
            cand = np.asarray([v for v in picked if v != source], dtype=int)
        self.d_rest = d
        self.source = int(source)
        self.alpha = float(alpha)
        self._w = w
        self.base = d[source]
        self.candidates = cand
        self.prices = self.alpha * w[cand]
        # reach[i, x] = w(u, c_i) + d_rest(c_i, x): distance via candidate c_i.
        self.reach = w[cand][:, None] + d[cand]

    @property
    def num_candidates(self) -> int:
        return int(self.candidates.shape[0])

    @property
    def empty_cost(self) -> float:
        """Cost of playing the empty strategy against the residual network."""
        return float(self.base.sum())

    # ------------------------------------------------------------------
    # Arbitrary strategies
    # ------------------------------------------------------------------
    def strategy_cost(self, targets: Iterable[int]) -> float:
        """Total agent cost (edge + distance) of playing ``targets``.

        Strategies containing infinite-weight host edges cost ``inf`` for
        every ``alpha``, matching the exact oracle and :meth:`subset_costs`.
        """
        return strategy_cost_from_residual(
            self.d_rest, self.source, self._w, self.alpha, targets
        )

    # ------------------------------------------------------------------
    # Candidate subsets (subset lattice)
    # ------------------------------------------------------------------
    def subset_costs(self, start: int, bits: int) -> np.ndarray:
        """Agent costs of the ``2**bits`` candidate subsets from index ``start``.

        Subset index ``i`` buys candidate ``j`` iff bit ``j`` of ``i`` is set;
        ``start`` must be a multiple of ``2**bits``, so the chunk fixes the
        high bits and enumerates the low ``bits`` candidates.  Distance rows
        fill the subset lattice: the chunk's base row is
        ``min(d_rest(u, .), reach[j] for each set high bit j)``, and the row
        of ``i`` with top low bit ``k`` is ``min(row(i - 2**k), reach[k])``
        — one ``np.minimum`` per low bit, ``O(2**bits * n)`` work and memory.
        ``min`` is exact, so each row equals the direct minimum over the
        subset bit for bit.
        """
        m = self.num_candidates
        if not 0 <= bits <= m or start % (1 << bits) or not 0 <= start < 1 << m:
            raise ValueError(f"bad subset chunk (start={start}, bits={bits}) for m={m}")
        size = 1 << bits
        dist = np.empty((size, self.base.shape[0]))
        dist[0] = self.base
        for j in range(bits, m):
            if start >> j & 1:
                np.minimum(dist[0], self.reach[j], out=dist[0])
        for k in range(bits):
            np.minimum(dist[: 1 << k], self.reach[k], out=dist[1 << k : 2 << k])
        masks = (((start + np.arange(size))[:, None] >> np.arange(m)) & 1).astype(bool)
        finite = np.isfinite(self.prices)
        edge_costs = masks @ np.where(finite, self.prices, 0.0)
        if not finite.all():
            edge_costs = np.where(masks[:, ~finite].any(axis=-1), np.inf, edge_costs)
        return edge_costs + dist.sum(axis=-1)


def _current_targets(source: int, current: Iterable[int], n: int) -> list[int]:
    """An agent's current targets, ascending, checked to lie in ``[0, n)``."""
    cur = _sorted_targets(source, current)
    if cur and not 0 <= cur[0] <= cur[-1] < n:
        raise ValueError(f"strategy targets out of range for n={n}")
    return cur


def _add_pools(
    finite: np.ndarray, sources: np.ndarray, currents: Sequence[list[int]]
) -> tuple[list[int], list[int]]:
    """Every agent's add pool, ascending: its finite-weight targets other than
    itself and its current ones (which may have infinite weight).

    ``finite`` is ``(T, n)``, row ``i`` marking the finite host weights of
    agent ``sources[i]``, and is overwritten; ``currents`` are the agents'
    current targets (:func:`_current_targets`).  Returns the pools
    concatenated and the ``T + 1`` offsets where each starts.
    """
    agents = np.arange(len(currents))
    finite[agents, sources] = False
    counts = [len(c) for c in currents]
    finite[np.repeat(agents, counts), list(itertools.chain.from_iterable(currents))] = False
    starts = [0, *itertools.accumulate(np.add.reduce(finite, axis=1, dtype=np.intp).tolist())]
    return (finite.ravel().nonzero()[0] % finite.shape[1]).tolist(), starts


class SingleMoveScorer:
    """Vectorized costs of every single-edge move of a stack of agents.

    Scores all adds, deletes and swaps of ``g`` agents, each against its own
    fixed residual matrix, with every array carrying a leading agent axis.
    The agents of one stack share the size ``k`` of their current strategy
    and the size ``m`` of their add pool (:func:`_add_pools`), so nothing
    is padded.  The input is one gather per agent — its own residual row
    ``d_rest(u, ·)`` followed by the rows of its ``k`` current and ``m``
    add targets — which the scorer turns into the relaxation rows
    ``w(u, c) + d_rest(c, ·)`` in place; no row is read twice, which
    matters when the residual is a repaired
    :class:`~repro.core.residual_delta.DeltaResidual` view.
    :meth:`for_agent` gathers one agent;
    :func:`repro.core.best_response.score_tasks` gathers a batch.

    The distance row of a strategy ``S`` is the element-wise minimum ``m1``
    of the ``k + 1`` relaxation rows, and ``m2`` is their element-wise
    second smallest value; a running selection over the bought rows keeps
    both, three ``O(n)`` passes per row.  ``m2`` turns removals into
    ``O(n)`` selections — where the removed row attains ``m1`` its deletion
    exposes ``m2``, everywhere else ``m1`` survives — so the full
    add/delete/swap scan costs ``O((k + m) n)`` dense work plus ``O(k m n)``
    for the swap grid (chunked to bound memory) per agent, in numpy calls
    whose number does not grow with ``g``.  The leave-one-out edge sums
    come from one ``(g, k, k - 1)`` gather.

    Every operation is elementwise or a reduction over the last, contiguous
    axis, so each agent's values are bit for bit those of a stack of one:
    how agents are stacked never changes a result.  The per-move values are
    numerically identical to scoring each move with
    :func:`strategy_cost_from_residual` (minima and row sums are computed
    over the same values in the same order); only the association of the
    edge-cost sums may differ in the last ulp, which every consumer
    compares under tolerances much larger than that.

    Parameters
    ----------
    rows:
        ``(g, 1 + k + m, n)`` fresh float array: per agent its residual
        rows of itself, of its current targets and of its add targets.
        The scorer writes into it.
    weights:
        ``(g, k + m)`` host weights ``w(u, ·)`` of those targets,
        non-negative or ``inf``.
    targets:
        ``(g, k + m)`` the targets themselves, current ones first, each
        part ascending.
    k:
        Size of every agent's current strategy.
    alpha:
        Edge-price parameter of the game.
    """

    __slots__ = (
        "alpha", "k", "targets", "current_cost", "_w_add", "_reach_cur", "_reach_add",
        "_m1", "_m2", "_del_rows", "_cur_edge_sum", "_edge_sum_wo",
    )

    _SWAP_CHUNK = 1 << 21  # max floats a stack materializes, temporaries included

    def __init__(
        self, rows: np.ndarray, weights: np.ndarray, targets: np.ndarray, k: int, alpha: float
    ) -> None:
        g, _, n = rows.shape
        self.alpha = float(alpha)
        self.k = int(k)
        self.targets = targets
        rows[:, 1:] += weights[:, :, None]
        m1, reach_cur = rows[:, 0], rows[:, 1 : k + 1]
        # Running two-smallest selection over the bought rows.  min and max
        # are exact, so m1 and m2 are the smallest and second smallest entry
        # of each column bit for bit, ties included.
        m2 = None
        if k:
            m2 = np.maximum(m1, reach_cur[:, 0])
            np.minimum(m1, reach_cur[:, 0], out=m1)
            larger = np.empty((g, n)) if k > 1 else None
            for i in range(1, k):
                np.maximum(m1, reach_cur[:, i], out=larger)
                np.minimum(m2, larger, out=m2)
                np.minimum(m1, reach_cur[:, i], out=m1)
        # Host weights are non-negative or inf, so a sum over an infinite
        # weight is inf, and its cost is guarded to inf (_cost_of).
        w_cur = weights[:, :k]
        self._w_add = weights[:, k:]
        self._reach_cur = reach_cur
        self._reach_add = rows[:, k + 1 :]
        self._m1 = m1
        self._m2 = m2
        self._del_rows: np.ndarray | None = None
        # Row sums are np.add.reduce along the last axis: ndarray.sum minus
        # its Python wrapper.  take keeps the gather C-contiguous, so each
        # row sums along its contiguous last axis exactly like the 1-D sum
        # of that row.
        self._cur_edge_sum = np.add.reduce(w_cur, axis=-1)
        self._edge_sum_wo = np.add.reduce(w_cur.take(_leave_one_out(k), axis=1), axis=-1)
        self.current_cost = self._cost_of(self._cur_edge_sum, np.add.reduce(m1, axis=-1))

    @classmethod
    def for_agent(
        cls,
        d_rest: Residual,
        source: int,
        edge_weights: np.ndarray,
        alpha: float,
        current: Iterable[int],
    ) -> "SingleMoveScorer":
        """The stack of one agent ``source`` with strategy ``current``."""
        d = _as_square_float(d_rest)
        n = d.shape[0]
        if not 0 <= source < n:
            raise ValueError(f"source {source} out of range for n={n}")
        w = np.asarray(edge_weights, dtype=float)
        if w.shape != (n,):
            raise ValueError(f"edge_weights must have shape ({n},), got {w.shape}")
        cur = _current_targets(source, current, n)
        # The add pool as _add_pools finds it, without its batch bookkeeping.
        pool = np.isfinite(w)
        pool[source] = False
        pool[cur] = False
        index = np.concatenate((np.array([source, *cur], dtype=np.intp), pool.nonzero()[0]))
        return cls(d[index][None], w[index[None, 1:]], index[None, 1:], len(cur), alpha)

    @classmethod
    def stacks(
        cls,
        tasks: Sequence[tuple[int, Residual, Iterable[int]]],
        weights: np.ndarray,
        alpha: float,
    ) -> Iterator[tuple[list[int], "SingleMoveScorer"]]:
        """Scorers over ``(agent, d_rest, current)`` tasks, stacked by shape.

        ``weights`` is the ``(n, n)`` host-weight matrix; row ``agent`` is
        the agent's.  Yields each stack with the positions in ``tasks`` of
        the agents it holds, in stack order.  Tasks group by ``(k, m)``, so
        nothing is padded, and a group larger than :meth:`stack_size`
        spans consecutive stacks.  Within a group, tasks that read one
        residual object sit next to each other: a run over a dense matrix
        (the network matrix every agent owning no solely-owned edge reads)
        is gathered by one fancy index, a row view one task at a time.
        """
        n = weights.shape[0]
        residuals: list[Residual] = []
        currents: list[list[int]] = []
        runs: list[int] = []  # position of the first task reading the same residual
        first: dict[int, int] = {}
        for i, (u, d_rest, current) in enumerate(tasks):
            j = first.setdefault(id(d_rest), i)
            d = residuals[j] if j < i else _as_square_float(d_rest)
            if d.shape[0] != n:
                raise ValueError(f"residual of shape {d.shape} does not fit n={n}")
            if not 0 <= u < n:
                raise ValueError(f"source {u} out of range for n={n}")
            residuals.append(d)
            currents.append(_current_targets(u, current, n))
            runs.append(j)
        sources = [task[0] for task in tasks]
        adds, starts = _add_pools(np.isfinite(weights)[sources], np.array(sources), currents)
        # Per task: the rows it reads — itself, its current and its add
        # targets — and the groups of tasks sharing (k, m).
        indices: list[list[int]] = []
        groups: dict[tuple[int, int], list[int]] = {}
        for i, cur in enumerate(currents):
            pool = adds[starts[i] : starts[i + 1]]
            indices.append([sources[i], *cur, *pool])
            groups.setdefault((len(cur), len(pool)), []).append(i)
        for (k, m), members in groups.items():
            members.sort(key=lambda i: (runs[i], i))
            size = cls.stack_size(k, m, n)
            for lo in range(0, len(members), size):
                stack = members[lo : lo + size]
                index = np.array([indices[i] for i in stack], dtype=np.intp)
                rows = np.empty((len(stack), 1 + k + m, n))
                for _, run in itertools.groupby(range(len(stack)), key=lambda p: runs[stack[p]]):
                    run = list(run)
                    d = residuals[stack[run[0]]]
                    if isinstance(d, np.ndarray):
                        span = slice(run[0], run[-1] + 1)
                        d.take(index[span], axis=0, out=rows[span], mode="clip")
                    else:
                        for p in run:
                            rows[p] = d[index[p]]
                targets = index[:, 1:]
                yield stack, cls(rows, weights[index[:, :1], targets], targets, k, alpha)

    @classmethod
    def stack_size(cls, k: int, m: int, n: int) -> int:
        """How many agents of shape ``(k, m)`` over ``n`` vertices one stack
        may hold: their rows, selection buffers, add and delete rows and
        swap grid stay within ``_SWAP_CHUNK`` floats (at least one agent)."""
        return max(1, cls._SWAP_CHUNK // max(1, n * (3 + 2 * k + 2 * m + k * m)))

    @property
    def current(self) -> np.ndarray:
        """``(g, k)`` current targets, ascending per agent."""
        return self.targets[:, : self.k]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _cost_of(self, edge_sum: np.ndarray, dist_sum: np.ndarray) -> np.ndarray:
        """``alpha * edge_sum + dist_sum`` with ``alpha * inf`` guarded to ``inf``.

        Distance sums are non-negative or ``inf``, so for ``alpha > 0`` the
        plain expression is already ``inf`` wherever ``edge_sum`` is; only
        ``alpha == 0`` (``0 * inf`` is NaN) needs the guard.
        """
        if self.alpha > 0:
            return self.alpha * edge_sum + dist_sum
        finite = np.isfinite(edge_sum)
        return np.where(
            finite, self.alpha * np.where(finite, edge_sum, 0.0) + dist_sum, np.inf
        )

    def _delete_rows(self) -> np.ndarray:
        """``(g, k, n)`` distance rows after deleting each current target."""
        if self._del_rows is None:
            m1, m2 = self._m1[:, None], self._m2[:, None]
            self._del_rows = np.where(self._reach_cur == m1, m2, m1)
        return self._del_rows

    def _swap_dist(self) -> np.ndarray:
        """``(g, k, m)`` distance sums of every swap; the grid is chunked."""
        reach_t = self._reach_add
        g, m, n = reach_t.shape
        k = self.k
        del_rows = self._delete_rows()[:, :, None]
        dist = np.empty((g, k, m))
        chunk = max(1, self._SWAP_CHUNK // max(1, g * k * n))
        for start in range(0, m, chunk):
            stop = min(start + chunk, m)
            block = np.minimum(del_rows, reach_t[:, None, start:stop])
            dist[:, :, start:stop] = np.add.reduce(block, axis=-1)
        return dist

    # ------------------------------------------------------------------
    # Move costs
    # ------------------------------------------------------------------
    def move_costs(self, moves: Sequence[str] = ("add", "delete", "swap")) -> np.ndarray:
        """``(g, L)`` flat costs of each agent's requested moves.

        Adds by ascending target, deletes by ascending current target and
        swaps by ``(old asc, new asc)``, each kind present only if it is in
        ``moves``.  Adds and swaps share the gathered add-target rows, and
        the costs are formed in one elementwise pass over all edge and
        distance sums.
        """
        g, k, m = self._m1.shape[0], self.k, self._w_add.shape[1]
        edge: list[np.ndarray] = []
        dist: list[np.ndarray] = []
        if m and "add" in moves:
            edge.append(self._cur_edge_sum[:, None] + self._w_add)
            dist.append(np.add.reduce(np.minimum(self._m1[:, None], self._reach_add), axis=-1))
        if k and "delete" in moves:
            edge.append(self._edge_sum_wo)
            dist.append(np.add.reduce(self._delete_rows(), axis=-1))
        if k and m and "swap" in moves:
            edge.append((self._edge_sum_wo[:, :, None] + self._w_add[:, None]).reshape(g, -1))
            dist.append(self._swap_dist().reshape(g, -1))
        if not edge:
            return np.zeros((g, 0))
        return self._cost_of(np.concatenate(edge, axis=1), np.concatenate(dist, axis=1))

    def decode(
        self, picks: Iterable[tuple[int, int]], moves: Sequence[str] = ("add", "delete", "swap")
    ) -> list[tuple[int, int]]:
        """The target each picked move adds and the one it drops (``-1``: none).

        A pick ``(i, j)`` is position ``j`` in agent ``i``'s row of
        :meth:`move_costs` for the same ``moves``.  An add adds, a delete
        drops, a swap does both.  A few integer operations per pick, in
        Python: cheaper than array calls at the one- and two-agent stacks
        most batches are.
        """
        k, m = self.k, self._w_add.shape[1]
        add_end = m if "add" in moves else 0
        swap_start = add_end + (k if "delete" in moves else 0)
        rows = self.targets.tolist()
        moved = []
        for i, j in picks:
            row = rows[i]
            if j < add_end:
                moved.append((row[k + j], -1))
            elif j < swap_start:
                moved.append((-1, row[j - add_end]))
            else:
                old, new = divmod(j - swap_start, m)
                moved.append((row[k + new], row[old]))
        return moved
