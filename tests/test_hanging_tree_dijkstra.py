"""Hanging-tree Dijkstra: bitwise equal to scipy's Dijkstra on every row.

A request for at least as many rows as the graph has vertices runs scipy on
the graph's 2-core only and fills the trees hanging off it by left-fold
sweeps (:func:`~repro.core.shortest_paths._dijkstra`).  The battery draws
forests plus a few extra edges, with isolated vertices and isolated edges,
tie-heavy and zero weights, relabels them at random, and requests every
row, a permutation of the vertices, or any source list (duplicates
included).  The oracle is ``scipy.sparse.csgraph.dijkstra`` on the whole
graph with each source's own entry zeroed, compared bit for bit.  Larger
cases run :func:`~repro.core.shortest_paths.apsp_scipy` on a localized
tree past ``FLOYD_WARSHALL_MAX_N`` and a tree-metric host built through it.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from repro.core.host_graph import HostGraph
from repro.core.shortest_paths import (
    FLOYD_WARSHALL_MAX_N,
    _as_graph,
    _dijkstra,
    _peel,
    all_pairs_shortest_paths,
    apsp_scipy,
)

_WEIGHTS = (0.0, 0.1, 0.2, 0.3, 1.0, 2.0)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def _oracle(weights, sources: np.ndarray) -> np.ndarray:
    """scipy's Dijkstra on the whole graph, each source's own entry zeroed."""
    rows = np.asarray(
        scipy_dijkstra(_as_graph(weights).csr(), directed=True, indices=sources), dtype=float
    )
    rows[np.arange(sources.size), sources] = 0.0
    return rows


def _weight(rng: np.random.Generator) -> float:
    pick = int(rng.integers(0, len(_WEIGHTS) + 1))
    return float(rng.uniform(0.0, 3.0)) if pick == len(_WEIGHTS) else _WEIGHTS[pick]


def _forest_graph(n: int, extra: int, rng: np.random.Generator) -> np.ndarray:
    """A random forest on ``n`` vertices plus ``extra`` random edges, with
    isolated vertices and isolated edges, randomly relabeled."""
    w = np.full((n, n), np.inf)
    attach = rng.choice([0.3, 0.7, 0.95])
    v = 1
    while v < n:
        kind = rng.random()
        if kind < 0.1 and v + 1 < n:  # an isolated edge
            w[v, v + 1] = w[v + 1, v] = _weight(rng)
            v += 2
            continue
        if kind < 0.1 + attach:
            u = int(rng.integers(0, v))
            w[u, v] = w[v, u] = _weight(rng)
        v += 1  # otherwise v starts a new tree, or stays isolated
    for _ in range(extra if n >= 2 else 0):
        a, b = rng.choice(n, size=2, replace=False)
        w[a, b] = w[b, a] = _weight(rng)
    perm = rng.permutation(n)
    w = w[np.ix_(perm, perm)]
    np.fill_diagonal(w, 0.0)
    return w


def _request(n: int, rng: np.random.Generator):
    """Every row (``None``), a permutation of the vertices, or any source
    list: as long as ``n`` with duplicates, longer, or shorter."""
    kind = int(rng.integers(0, 5))
    if kind == 0 or n == 0:
        return None
    if kind == 1:
        return rng.permutation(n)
    if kind == 2:
        return rng.integers(0, n, size=n)
    if kind == 3:
        return rng.integers(0, n, size=n + int(rng.integers(1, 4)))
    return rng.integers(0, n, size=int(rng.integers(1, n + 1)))


@st.composite
def _cases(draw):
    n = draw(st.integers(0, 60))
    extra = draw(st.integers(0, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    as_csr = draw(st.booleans())
    return n, extra, seed, as_csr


def _check(n: int, extra: int, seed: int, as_csr: bool) -> None:
    rng = np.random.default_rng(seed)
    weights = _forest_graph(n, extra, rng)
    graph = _as_graph(_as_graph(weights).csr() if as_csr else weights)
    sources = _request(n, rng)
    got = _dijkstra(graph, sources)
    want = _oracle(weights, np.arange(n) if sources is None else sources)
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))
    if sources is None:
        assert np.array_equal(_bits(apsp_scipy(weights)), _bits(np.minimum(want, want.T)))


_TIER1 = settings(derandomize=True, database=None, deadline=None, max_examples=150)
_SLOW = settings(derandomize=True, database=None, deadline=None, max_examples=2000)


@_TIER1
@given(_cases())
def test_hanging_tree_rows_equal_scipy(case):
    _check(*case)


@pytest.mark.slow
@_SLOW
@given(_cases())
def test_hanging_tree_rows_equal_scipy_full_budget(case):
    _check(*case)


def test_duplicated_hanging_source_zeroes_every_diagonal():
    """Regression: every row of a duplicated hanging source gets its zero
    diagonal before the round below reads it, so its children's entries
    are their edge weights, not stale sums.  A triangle core with the
    chain 2 - 3 - 4 - 5 hanging off it; vertex 4 is requested three times."""
    n = 6
    w = np.full((n, n), np.inf)
    for a, b, x in ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 0.1), (3, 4, 0.2), (4, 5, 0.3)):
        w[a, b] = w[b, a] = x
    np.fill_diagonal(w, 0.0)
    sources = np.array([4, 4, 0, 1, 4, 3])
    got = _dijkstra(_as_graph(w), sources)
    assert np.array_equal(_bits(got), _bits(_oracle(w, sources)))
    assert (got[[0, 1, 4], 4] == 0.0).all() and (got[[0, 1, 4], 5] == 0.3).all()


@pytest.mark.parametrize(
    "n, edges, core",
    [
        (3, [(0, 1)], [0, 2]),  # an isolated edge keeps its lower end; 2 is isolated
        (3, [(2, 1)], [0, 1]),  # ... whatever order it is stored in
        (4, [(0, 1), (1, 2), (2, 3)], [1]),  # a path peels from both ends
        (4, [(0, 1), (1, 2), (2, 0), (2, 3)], [0, 1, 2]),  # a cycle with a tail
    ],
)
def test_peel_keeps_cycles_roots_and_isolated_vertices(n, edges, core):
    w = np.full((n, n), np.inf)
    for a, b in edges:
        w[a, b] = w[b, a] = 1.0
    np.fill_diagonal(w, 0.0)
    forest = _peel(_as_graph(w))
    assert np.flatnonzero(forest.parent < 0).tolist() == core
    # A vertex hangs from the core or from a vertex peeled in a later round.
    for k, peeled in enumerate(forest.rounds, 1):
        assert (forest.level[peeled] == k).all()
        up = forest.parent[peeled]
        assert ((forest.parent[up] < 0) | (forest.level[up] > k)).all()
    assert (forest.level[forest.parent < 0] == 0).all()


def test_peel_leaves_a_graph_without_leaves_alone():
    cycle = np.full((4, 4), np.inf)
    for a in range(4):
        cycle[a, (a + 1) % 4] = cycle[(a + 1) % 4, a] = 1.0
    assert _peel(_as_graph(cycle)) is None
    assert _peel(_as_graph(np.zeros((1, 1)))) is None


def _localized_tree(n: int, seed: int = 5) -> np.ndarray:
    """A geometric BFS spanning tree over a kNN scaffold plus shortcuts
    between sibling leaves: a 2-core of short cycles with trees hanging
    off it, as in a localized tree network."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2)) * np.sqrt(n)
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    near = np.argsort(d, axis=1)[:, 1:10]
    w = np.full((n, n), np.inf)
    parent = {0: -1}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in near[u]:
            v = int(v)
            if v not in parent:
                parent[v] = u
                w[u, v] = w[v, u] = d[u, v]
                queue.append(v)
    children: dict[int, list[int]] = {}
    for v, u in parent.items():
        children.setdefault(u, []).append(v)
    leaves = [v for v in parent if v not in children]
    for u, kids in children.items():
        twins = [v for v in kids if v in leaves]
        if len(twins) >= 2 and rng.random() < 0.5:
            a, b = twins[:2]
            w[a, b] = w[b, a] = d[a, b]
    np.fill_diagonal(w, 0.0)
    return w


def test_apsp_scipy_on_a_localized_tree():
    """n = 300, past the Floyd–Warshall cutoff: most vertices hang."""
    n = 300
    w = _localized_tree(n)
    forest = _peel(_as_graph(w))
    assert forest is not None and 0 < np.count_nonzero(forest.parent < 0) < n // 2
    want = _oracle(w, np.arange(n))
    assert np.array_equal(_bits(_dijkstra(_as_graph(w))), _bits(want))
    pinned = np.minimum(want, want.T)
    assert np.array_equal(_bits(apsp_scipy(w)), _bits(pinned))
    assert np.array_equal(_bits(all_pairs_shortest_paths(w)), _bits(pinned))


def test_tree_metric_host_past_the_floyd_warshall_cutoff():
    """``HostGraph.from_tree`` at n = 250 closes its tree by Dijkstra, every
    vertex but one hanging: the closure equals scipy's, pinned."""
    n = 250
    assert n > FLOYD_WARSHALL_MAX_N
    rng = np.random.default_rng(3)
    edges = [(int(rng.integers(0, v)), v, _weight(rng)) for v in range(1, n)]
    host = HostGraph.from_tree(edges, n)
    adj = np.full((n, n), np.inf)
    for u, v, x in edges:
        adj[u, v] = adj[v, u] = x
    np.fill_diagonal(adj, 0.0)
    want = _oracle(adj, np.arange(n))
    assert np.array_equal(_bits(host.weights), _bits(np.minimum(want, want.T)))
