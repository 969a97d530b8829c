"""Tests for the shortest-path kernels and the decremental repair."""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path as scipy_shortest_path

from repro.core.shortest_paths import (
    FLOYD_WARSHALL_MAX_N,
    CandidateEvaluator,
    _as_graph,
    all_pairs_shortest_paths,
    apsp_scipy,
    carry_dijkstra,
    decremental_distances,
    dijkstra_rows,
    floyd_warshall,
    relax_source_row,
)
from repro.metrics.generators import (
    random_general_host,
    random_metric_host,
    random_one_two_host,
    random_tree_host,
    unit_host,
)
from repro.metrics.validation import nearest_metric_repair


def _random_weight_matrix(n: int, rng: np.random.Generator, edge_prob: float = 0.6) -> np.ndarray:
    w = rng.uniform(0.1, 5.0, size=(n, n))
    mask = rng.random((n, n)) < edge_prob
    w = np.where(mask, w, np.inf)
    w = np.minimum(w, w.T)
    np.fill_diagonal(w, 0.0)
    return w


class TestFloydWarshall:
    def test_path_graph(self):
        w = np.full((4, 4), np.inf)
        np.fill_diagonal(w, 0.0)
        for i in range(3):
            w[i, i + 1] = w[i + 1, i] = 1.0 + i
        d = floyd_warshall(w)
        assert d[0, 3] == pytest.approx(1 + 2 + 3)
        assert d[0, 2] == pytest.approx(3)
        assert np.allclose(d, d.T)

    def test_disconnected_pairs_are_infinite(self):
        w = np.full((4, 4), np.inf)
        np.fill_diagonal(w, 0.0)
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 2.0
        d = floyd_warshall(w)
        assert np.isinf(d[0, 2])
        assert np.isinf(d[1, 3])
        assert d[0, 1] == 1.0

    def test_zero_weight_edges_are_respected(self):
        w = np.full((3, 3), np.inf)
        np.fill_diagonal(w, 0.0)
        w[0, 1] = w[1, 0] = 0.0
        w[1, 2] = w[2, 1] = 2.0
        d = floyd_warshall(w)
        assert d[0, 1] == 0.0
        assert d[0, 2] == pytest.approx(2.0)

    def test_shortcut_beats_direct_edge(self):
        w = np.array([[0.0, 10.0, 1.0], [10.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        d = floyd_warshall(w)
        assert d[0, 1] == pytest.approx(2.0)

    def test_negative_weights_rejected(self):
        w = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            floyd_warshall(w)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            floyd_warshall(np.zeros((2, 3)))

    def test_empty_matrix(self):
        d = floyd_warshall(np.zeros((0, 0)))
        assert d.shape == (0, 0)

    def test_single_node(self):
        d = floyd_warshall(np.zeros((1, 1)))
        assert d[0, 0] == 0.0


class TestScipyAgreement:
    @pytest.mark.parametrize("n", [2, 5, 9, 15])
    def test_matches_floyd_warshall_on_random_graphs(self, n):
        rng = np.random.default_rng(n)
        w = _random_weight_matrix(n, rng)
        fw = floyd_warshall(w)
        sp = apsp_scipy(w)
        finite = np.isfinite(fw)
        assert np.array_equal(finite, np.isfinite(sp))
        assert np.allclose(fw[finite], sp[finite])

    def test_dispatch_methods_agree(self):
        rng = np.random.default_rng(3)
        w = _random_weight_matrix(7, rng)
        a = floyd_warshall(w)
        b = apsp_scipy(w)
        c = all_pairs_shortest_paths(w)
        assert np.allclose(np.nan_to_num(a, posinf=1e18), np.nan_to_num(b, posinf=1e18))
        assert np.allclose(np.nan_to_num(a, posinf=1e18), np.nan_to_num(c, posinf=1e18))

    @pytest.mark.parametrize("offset", [0, 1])
    def test_kernel_switches_past_the_floyd_warshall_size(self, offset):
        """Floyd–Warshall up to ``FLOYD_WARSHALL_MAX_N`` vertices, scipy's
        Dijkstra above, each bit for bit."""
        n = FLOYD_WARSHALL_MAX_N + offset
        w = _random_weight_matrix(n, np.random.default_rng(n), edge_prob=0.05)
        expected = floyd_warshall(w) if offset == 0 else apsp_scipy(w)
        assert np.array_equal(all_pairs_shortest_paths(w), expected)


class TestSingleSource:
    @pytest.mark.parametrize("source", [0, 3, 6])
    def test_matches_apsp_row(self, source):
        rng = np.random.default_rng(source + 10)
        w = _random_weight_matrix(8, rng)
        full = floyd_warshall(w)
        (row,) = dijkstra_rows(w, [source])
        finite = np.isfinite(full[source])
        assert np.array_equal(finite, np.isfinite(row))
        assert np.allclose(full[source][finite], row[finite])

    def test_out_of_range_source(self):
        with pytest.raises(ValueError):
            dijkstra_rows(np.zeros((3, 3)), [5])


class TestCandidateEdgeDistances:
    """Post-purchase distances ``min(d_rest(u, .), min_{v in S} w(u, v) + d_rest(v, .))``."""

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(42)
        n = 6
        w = _random_weight_matrix(n, rng, edge_prob=0.8)
        d = floyd_warshall(w)
        weights = np.array([0.0, 1.0, 2.0, 0.5, 3.0, 3.0])
        ev = CandidateEvaluator(d, 0, weights, alpha=1.0, candidates=[1, 2, 3])
        expected = np.minimum(d[0], np.minimum(1.0 + d[1], 0.5 + d[3]))
        assert np.allclose(relax_source_row(d, 0, weights, [1, 3]), expected)
        assert ev.strategy_cost([1, 3]) == pytest.approx(1.5 + expected.sum())

    def test_empty_subset_returns_base(self):
        d = np.array([[0.0, 1.0, np.inf], [1.0, 0.0, np.inf], [np.inf, np.inf, 0.0]])
        ev = CandidateEvaluator(d, 0, np.ones(3), alpha=1.0)
        out = relax_source_row(d, 0, np.ones(3), [])
        assert np.array_equal(np.isfinite(out), np.isfinite(d[0]))
        assert np.allclose(out[:2], d[0, :2])
        # subset index 0 of the lattice scan is the empty strategy
        assert ev.subset_costs(0, 0)[0] == ev.empty_cost

    def test_batch_dimension(self):
        # Agent 0 sees 1 and 2 at distance 5 in the residual; buying edge
        # (0, 1) or (0, 2) at weight 1 shortcuts exactly one of them.
        d = np.array([[0.0, 5.0, 5.0], [5.0, 0.0, 9.0], [5.0, 9.0, 0.0]])
        ev = CandidateEvaluator(d, 0, np.array([0.0, 1.0, 1.0]), alpha=0.0)
        costs = ev.subset_costs(0, 2)  # subsets {}, {1}, {2}, {1, 2}
        assert costs.shape == (4,)
        assert costs.tolist() == [10.0, 6.0, 6.0, 2.0]
        # a chunk fixing the high bit: subsets {2} and {1, 2}
        assert ev.subset_costs(2, 1).tolist() == [6.0, 2.0]

    def test_shape_mismatch_rejected(self):
        d = floyd_warshall(np.ones((4, 4)) - np.eye(4))
        ev = CandidateEvaluator(d, 0, np.ones(4), alpha=1.0)  # m = 3
        for start, bits in [(0, 4), (1, 1), (8, 0), (-1, 0), (0, -1)]:
            with pytest.raises(ValueError):
                ev.subset_costs(start, bits)


def _assert_same_distances(a: np.ndarray, b: np.ndarray) -> None:
    finite = np.isfinite(a)
    assert np.array_equal(finite, np.isfinite(b))
    assert np.allclose(a[finite], b[finite])


class TestCrossOracle:
    """floyd_warshall, apsp_scipy and carry_dijkstra must agree everywhere.

    The sweep deliberately stresses the inputs where dense shortest-path
    oracles commonly diverge: zero-weight edges (scipy's plain dense input
    would treat them as non-edges), ``inf`` non-edges and disconnected
    components.  ``carry_dijkstra`` adds edges to the Dijkstra rows of a
    smaller graph and must land on ``apsp_scipy`` of the larger one.
    """

    @staticmethod
    def _adversarial_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
        w = rng.uniform(0.0, 5.0, size=(n, n))
        w[rng.random((n, n)) < 0.25] = 0.0  # exact zero-weight edges
        w = np.where(rng.random((n, n)) < 0.5, w, np.inf)  # many non-edges
        # split off a disconnected block half of the time
        if n >= 4 and rng.random() < 0.5:
            cut = n // 2
            w[:cut, cut:] = np.inf
            w[cut:, :cut] = np.inf
        w = np.minimum(w, w.T)
        np.fill_diagonal(w, 0.0)
        return w

    @staticmethod
    def _add_edges(before: np.ndarray, after: np.ndarray, edges) -> np.ndarray:
        """``after``'s distances, carried from ``before``'s Dijkstra rows."""
        triple = np.asarray(edges, dtype=float).reshape(-1, 3)
        added = (triple[:, 0].astype(int), triple[:, 1].astype(int), triple[:, 2])
        return carry_dijkstra(after, carry_dijkstra(before).unpinned, added=added).distances

    @pytest.mark.parametrize("seed", range(8))
    def test_three_oracles_agree(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        w = self._adversarial_matrix(n, rng)
        fw = floyd_warshall(w)
        sp = apsp_scipy(w)
        _assert_same_distances(fw, sp)
        # carry_dijkstra oracle: drop a few edges, solve the rest, then add
        # the dropped edges back by carrying rows — must recover sp exactly.
        reduced = w.copy()
        dropped: list[tuple[int, int, float]] = []
        finite = [(i, j) for i in range(n) for j in range(i + 1, n) if np.isfinite(w[i, j])]
        rng.shuffle(finite)
        for i, j in finite[: max(1, len(finite) // 3)]:
            dropped.append((i, j, float(w[i, j])))
            reduced[i, j] = reduced[j, i] = np.inf
        carried = self._add_edges(reduced, w, dropped)
        assert np.array_equal(carried, sp)
        _assert_same_distances(fw, carried)

    def test_relax_with_zero_weight_bridge(self):
        """A zero-weight edge merging two components must propagate everywhere."""
        w = np.full((4, 4), np.inf)
        np.fill_diagonal(w, 0.0)
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 2.0
        base = floyd_warshall(w)
        assert np.isinf(base[0, 2])
        bridged = _with_edge(w, 1, 2, 0.0)
        relaxed = self._add_edges(w, bridged, [(1, 2, 0.0)])
        assert relaxed[1, 2] == 0.0
        assert relaxed[0, 2] == pytest.approx(1.0)
        assert relaxed[0, 3] == pytest.approx(3.0)
        _assert_same_distances(relaxed, floyd_warshall(bridged))

    def test_relax_empty_edge_list_is_identity(self):
        rng = np.random.default_rng(3)
        w = self._adversarial_matrix(6, rng)
        d = carry_dijkstra(w)
        out = carry_dijkstra(w, d.unpinned)
        assert out.resolved.size == 0  # every row carried
        assert out.unpinned is not d.unpinned  # a fresh array, not an alias
        assert np.array_equal(out.distances, d.distances)
        _assert_same_distances(floyd_warshall(w), out.distances)

    def test_relax_multi_edge_paths(self):
        """Shortest paths may chain *several* new edges — the one-hop formula alone is wrong."""
        n = 6
        w = np.full((n, n), np.inf)
        np.fill_diagonal(w, 0.0)  # totally disconnected base
        edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0)]
        path = w.copy()
        for a, b, weight in edges:
            path = _with_edge(path, a, b, weight)
        relaxed = self._add_edges(w, path, edges)
        assert relaxed[0, 5] == pytest.approx(5.0)
        assert relaxed[5, 0] == pytest.approx(5.0)

    def test_relax_rejects_bad_edges(self):
        w = np.zeros((3, 3))
        with pytest.raises(ValueError):
            self._add_edges(w, w, [(0, 5, 1.0)])
        with pytest.raises(ValueError):
            self._add_edges(w, _with_edge(w, 0, 1, -1.0), [(0, 1, -1.0)])


def _with_edge(w: np.ndarray, i: int, j: int, weight: float) -> np.ndarray:
    out = w.copy()
    out[i, j] = out[j, i] = weight
    return out


class TestCandidateEvaluator:
    def test_strategy_cost_matches_manual(self):
        rng = np.random.default_rng(0)
        w = _random_weight_matrix(6, rng, edge_prob=0.9)
        d = floyd_warshall(w)
        weights = rng.uniform(0.5, 2.0, size=6)
        weights[0] = 0.0
        ev = CandidateEvaluator(d, 0, weights, alpha=1.5)
        targets = [2, 4]
        expected_dist = np.minimum(
            d[0], np.minimum(weights[2] + d[2], weights[4] + d[4])
        )
        assert ev.strategy_cost(targets) == pytest.approx(
            1.5 * (weights[2] + weights[4]) + expected_dist.sum()
        )
        assert np.allclose(relax_source_row(d, 0, weights, targets), expected_dist)
        assert ev.strategy_cost([]) == pytest.approx(d[0].sum())

    def test_batch_costs_match_scalar_costs(self):
        """Every chunk of the lattice scan agrees with per-strategy scoring."""
        rng = np.random.default_rng(1)
        w = _random_weight_matrix(7, rng, edge_prob=0.8)
        d = floyd_warshall(w)
        weights = rng.uniform(0.5, 2.0, size=7)
        weights[3] = 0.0
        weights[5] = np.inf  # an inf-priced candidate: every subset buying it costs inf
        ev = CandidateEvaluator(d, 3, weights, alpha=0.7, candidates=[0, 1, 2, 4, 5, 6])
        m = ev.num_candidates
        for bits in (0, 1, 3, m):
            costs = np.concatenate(
                [ev.subset_costs(start, bits) for start in range(0, 1 << m, 1 << bits)]
            )
            assert costs.shape == (1 << m,)
            for index, cost in enumerate(costs):
                targets = [int(v) for j, v in enumerate(ev.candidates) if index >> j & 1]
                scalar = ev.strategy_cost(targets)
                if np.isinf(scalar) or np.isinf(cost):
                    assert np.isinf(scalar) and np.isinf(cost)
                else:
                    assert cost == pytest.approx(scalar)

    def test_rejects_self_target_and_bad_shapes(self):
        d = floyd_warshall(np.ones((4, 4)) - np.eye(4))
        ev = CandidateEvaluator(d, 1, np.ones(4), alpha=1.0)
        with pytest.raises(ValueError):
            ev.strategy_cost([1])
        with pytest.raises(ValueError):
            ev.subset_costs(0, ev.num_candidates + 1)
        with pytest.raises(ValueError):
            CandidateEvaluator(d, 9, np.ones(4), alpha=1.0)


class TestMetricProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        weights=hnp.arrays(
            dtype=float,
            shape=st.integers(min_value=2, max_value=7).map(lambda n: (n, n)),
            elements=st.floats(min_value=0.05, max_value=10.0),
        )
    )
    def test_output_satisfies_triangle_inequality(self, weights):
        w = np.minimum(weights, weights.T)
        np.fill_diagonal(w, 0.0)
        d = floyd_warshall(w)
        n = d.shape[0]
        for k in range(n):
            assert np.all(d <= d[:, [k]] + d[[k], :] + 1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        weights=hnp.arrays(
            dtype=float,
            shape=st.integers(min_value=2, max_value=7).map(lambda n: (n, n)),
            elements=st.floats(min_value=0.05, max_value=10.0),
        )
    )
    def test_output_dominated_by_input(self, weights):
        w = np.minimum(weights, weights.T)
        np.fill_diagonal(w, 0.0)
        d = floyd_warshall(w)
        assert np.all(d <= w + 1e-9)
        assert np.all(np.diag(d) == 0.0)


def _csr(w: np.ndarray) -> csr_matrix:
    """CSR of a dense weight matrix: every off-diagonal entry other than
    ``inf``, explicit zeros included (``csr_matrix(w)`` would drop them)."""
    stored = w != np.inf
    np.fill_diagonal(stored, False)
    rows, cols = np.nonzero(stored)
    return csr_matrix((w[rows, cols], (rows, cols)), shape=w.shape)


class TestInvalidWeights:
    """NaN and negative weights raise for every kernel and size.

    scipy's Dijkstra never returns on a negative edge and reads NaN as a
    non-edge, so the check must not depend on which kernel ``n`` selects:
    n = 200 takes the Dijkstra path, n = 5 Floyd–Warshall.
    """

    KERNELS = {
        "floyd_warshall": floyd_warshall,
        "apsp_scipy": apsp_scipy,
        "auto": all_pairs_shortest_paths,
        "dijkstra_rows": lambda w: dijkstra_rows(w, [0]),
        "carry_dijkstra": lambda w: carry_dijkstra(w).distances,
        "nearest_metric_repair": nearest_metric_repair,
        "decremental": lambda w: decremental_distances(
            np.zeros(w.shape), w, 0, removed=[1]
        ),
    }

    @staticmethod
    def _weights(n: int, bad: float) -> np.ndarray:
        w = np.ones((n, n))
        w[0, 1] = w[1, 0] = bad
        return w

    @pytest.mark.parametrize("n", [5, 200])
    @pytest.mark.parametrize("bad", [-1.0, np.nan, -np.inf])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_dense_input_rejected(self, kernel, bad, n):
        with pytest.raises(ValueError, match="non-negative"):
            self.KERNELS[kernel](self._weights(n, bad))

    @pytest.mark.parametrize("n", [5, 200])
    @pytest.mark.parametrize("bad", [-1.0, np.nan, -np.inf])
    @pytest.mark.parametrize(
        "kernel", ["floyd_warshall", "apsp_scipy", "auto", "dijkstra_rows", "decremental"]
    )
    def test_csr_input_rejected(self, kernel, bad, n):
        with pytest.raises(ValueError, match="non-negative"):
            self.KERNELS[kernel](_csr(self._weights(n, bad)))

    def test_two_node_negative_edge_raises_instead_of_hanging(self):
        w = np.array([[0.0, -1.0], [-1.0, 0.0]])
        kernels = ("floyd_warshall", "apsp_scipy", "dijkstra_rows", "carry_dijkstra")
        for kernel in kernels:
            with pytest.raises(ValueError):
                self.KERNELS[kernel](w)

    @pytest.mark.parametrize("n", [5, 200])
    def test_asymmetric_dense_input_is_undirected_for_every_kernel(self, n):
        """The edge {u, v} weighs min(w[u, v], w[v, u]) whichever kernel runs;
        Floyd–Warshall used to read the matrix as a directed graph."""
        w = np.full((n, n), np.inf)
        np.fill_diagonal(w, 0.0)
        for i in range(n - 1):
            w[i, i + 1] = w[i + 1, i] = 3.0
        w[0, 1] = 2.0  # cheaper one way
        w[n - 1, 0] = 1.0  # one way only
        expected = _masked_apsp(np.minimum(w, w.T))
        for kernel in ("floyd_warshall", "apsp_scipy", "auto"):
            assert np.array_equal(self.KERNELS[kernel](w), expected)
        assert np.array_equal(dijkstra_rows(w, [1]), expected[[1]])

    @pytest.mark.parametrize("kernel", ["floyd_warshall", "apsp_scipy", "dijkstra_rows"])
    def test_asymmetric_csr_input_rejected(self, kernel):
        one_way = csr_matrix((np.array([1.0]), (np.array([0]), np.array([1]))), shape=(3, 3))
        uneven = _csr(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.5, 1.0, 0.0]]))
        for graph in (one_way, uneven):
            with pytest.raises(ValueError, match="symmetric"):
                self.KERNELS[kernel](graph)

    def test_csr_explicit_zero_is_an_edge_and_self_loops_are_dropped(self):
        rows, cols = np.array([0, 1, 1, 2, 2]), np.array([1, 0, 2, 1, 2])
        graph = csr_matrix((np.array([0.0, 0.0, 2.0, 2.0, 7.0]), (rows, cols)), shape=(3, 3))
        expected = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0], [2.0, 2.0, 0.0]])
        for kernel in (floyd_warshall, apsp_scipy):
            assert np.array_equal(kernel(graph), expected)

    def test_diagonal_is_ignored(self):
        w = self._weights(4, 2.0)
        np.fill_diagonal(w, np.nan)
        clean = self._weights(4, 2.0)
        np.fill_diagonal(clean, 0.0)
        assert np.array_equal(floyd_warshall(w), floyd_warshall(clean))
        assert np.array_equal(apsp_scipy(w), apsp_scipy(clean))


# ----------------------------------------------------------------------
# Sparse input path: bitwise equal to the masked-array code it replaced
# ----------------------------------------------------------------------
def _masked(w: np.ndarray) -> np.ma.MaskedArray:
    return np.ma.masked_array(w, mask=~np.isfinite(w))


def _masked_apsp(w: np.ndarray) -> np.ndarray:
    """The former ``all_pairs_shortest_paths`` on a dense matrix."""
    n = w.shape[0]
    if n <= 192:
        dist = w.copy()
        np.fill_diagonal(dist, 0.0)
        for k in range(n):
            np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :], out=dist)
        return dist
    result = scipy_shortest_path(_masked(w), method="D", directed=False)
    result = np.asarray(result, dtype=float)
    np.fill_diagonal(result, 0.0)
    np.minimum(result, result.T, out=result)
    return result


def _masked_dijkstra_rows(w: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """The former ``dijkstra_rows``: scipy on a masked dense matrix."""
    rows = scipy_shortest_path(_masked(w), method="D", directed=False, indices=sources)
    rows = np.asarray(rows, dtype=float)
    rows[np.arange(sources.size), sources] = 0.0
    return rows


def _dense_scan_repair(d, w, v, max_affected_fraction, tol=1e-9):
    """The former ``decremental_distances``: a dense all-pairs affected scan
    and masked-array Dijkstra rows, kept verbatim as the repair oracle."""
    n = d.shape[0]
    finite = np.isfinite(d)
    via_v = d[:, v : v + 1] + d[v : v + 1, :]
    slack = tol * (1.0 + np.where(finite, np.abs(d), 0.0))
    affected = finite & (via_v <= d + slack)
    affected[v, :] = False
    affected[:, v] = False
    source_mask = affected.any(axis=1)
    source_mask[v] = True
    count = int(source_mask.sum())
    budget = max(1, int(np.ceil(max_affected_fraction * n)))
    if count > budget:
        return _masked_apsp(w), count, True
    sources = np.nonzero(source_mask)[0]
    rows = _masked_dijkstra_rows(w, sources)
    out = d.copy()
    out[sources, :] = rows
    out[:, sources] = rows.T
    return out, count, False


def _battery_host(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Complete symmetric host weights; 1-2, unit and tree hosts are tie-heavy."""
    if kind == "one_two":
        return random_one_two_host(n, rng=rng).weights.copy()
    if kind == "unit":
        return unit_host(n).weights.copy()
    if kind == "tree":
        return random_tree_host(n, rng=rng).weights.copy()
    if kind == "metric":
        return random_metric_host(n, rng=rng).weights.copy()
    if kind == "general":
        return random_general_host(n, rng=rng).weights.copy()
    w = np.round(rng.uniform(0.0, 3.0, size=(n, n)), 1)  # "zero": exact 0-weight edges
    w[rng.random((n, n)) < 0.3] = 0.0
    w = np.minimum(w, w.T)
    np.fill_diagonal(w, 0.0)
    return w


def _battery_network(host: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A created network over ``host``: a random spanning tree (whose edge
    removals disconnect the residual) plus a random share of extra edges."""
    n = host.shape[0]
    adj = np.zeros((n, n), dtype=bool)
    order = rng.permutation(n)
    for i in range(1, n):
        parent = order[int(rng.integers(0, i))]
        adj[order[i], parent] = adj[parent, order[i]] = True
    extra = np.triu(rng.random((n, n)) < rng.choice([0.0, 0.1, 0.4]), k=1)
    adj |= extra | extra.T
    weights = np.where(adj, host, np.inf)
    np.fill_diagonal(weights, 0.0)
    return weights


BATTERY_HOSTS = ("one_two", "unit", "tree", "metric", "general", "zero")


class TestDecrementalBitwise:
    """``decremental_distances`` equals the dense-scan repair bit for bit.

    Same ``affected_sources``, same ``rebuilt`` decision and
    ``np.array_equal`` distances, on tie-heavy and generic hosts, for every
    threshold, dense and CSR input, with ``removed`` exact or padded with
    vertices that were never neighbours of ``v`` (the prefilter only keeps
    more rows for the pair test, so the result must not change).
    """

    @staticmethod
    def _check(weights, dist, v, drop, input_kind, padding=()):
        removed_w = weights.copy()
        removed_w[v, drop] = np.inf
        removed_w[drop, v] = np.inf
        new_weights = removed_w if input_kind == "dense" else _csr(removed_w)
        for frac in (0.0, 0.3, 0.5, 1.0):
            expected, count, rebuilt = _dense_scan_repair(dist, removed_w, v, frac)
            got = decremental_distances(
                dist,
                new_weights,
                v,
                removed=np.concatenate((drop, padding)).astype(int),
                max_affected_fraction=frac,
            )
            assert got.affected_sources == count
            assert got.rebuilt == rebuilt
            assert np.array_equal(got.distances, expected)

    @pytest.mark.parametrize("padded", [False, True], ids=["removed", "padded-removed"])
    @pytest.mark.parametrize("input_kind", ["dense", "csr"])
    @pytest.mark.parametrize("host_kind", BATTERY_HOSTS)
    def test_matches_dense_scan(self, host_kind, input_kind, padded):
        rng = np.random.default_rng(zlib.crc32(f"repair-{host_kind}".encode()))
        for _ in range(6):
            n = int(rng.integers(3, 26))
            weights = _battery_network(_battery_host(host_kind, n, rng), rng)
            dist = all_pairs_shortest_paths(weights)
            v = int(rng.integers(0, n))
            incident = np.flatnonzero(np.isfinite(weights[v]))
            incident = incident[incident != v]
            # Drop all of v's edges now and then: v ends up isolated.
            keep = rng.random(incident.size) < (0.0 if rng.random() < 0.25 else 0.5)
            drop = incident[~keep] if (~keep).any() else incident[:1]
            padding = rng.choice(n, size=3) if padded else ()
            self._check(weights, dist, v, drop, input_kind, padding)

    @pytest.mark.parametrize("input_kind", ["dense", "csr"])
    def test_matches_dense_scan_past_floyd_warshall_size(self, input_kind):
        """n > 192: the fallback rebuild runs scipy's Dijkstra, not Floyd–Warshall."""
        rng = np.random.default_rng(193)
        weights = _battery_network(_battery_host("one_two", 200, rng), rng)
        dist = all_pairs_shortest_paths(weights)
        hub = int(np.argmax(np.isfinite(weights).sum(axis=1)))
        incident = np.flatnonzero(np.isfinite(weights[hub]))
        self._check(weights, dist, hub, incident[incident != hub], input_kind)

    @pytest.mark.parametrize("host_kind", BATTERY_HOSTS)
    def test_apsp_and_rows_match_masked_input(self, host_kind):
        """Dijkstra on the CSR graph equals Dijkstra on the masked matrix, bitwise."""
        rng = np.random.default_rng(zlib.crc32(f"format-{host_kind}".encode()))
        for _ in range(5):
            n = int(rng.integers(2, 30))
            weights = _battery_network(_battery_host(host_kind, n, rng), rng)
            expected = np.asarray(
                scipy_shortest_path(_masked(weights), method="D", directed=False), dtype=float
            )
            np.fill_diagonal(expected, 0.0)
            np.minimum(expected, expected.T, out=expected)
            sources = rng.choice(n, size=min(n, 3), replace=False)
            for given in (weights, _csr(weights)):
                assert np.array_equal(apsp_scipy(given), expected)
                assert np.array_equal(
                    dijkstra_rows(given, sources), _masked_dijkstra_rows(weights, sources)
                )
                assert np.array_equal(floyd_warshall(given), _masked_apsp(weights))


def _numpy_floyd_warshall(weights) -> np.ndarray:
    """The former ``floyd_warshall``: the vectorized NumPy sweep over ``k``
    on the validated graph's dense matrix, kept as the kernel's oracle."""
    graph = _as_graph(weights)
    dist = np.full((graph.n, graph.n), np.inf)
    dist[graph.rows, graph.indices] = graph.data
    np.fill_diagonal(dist, 0.0)
    for k in range(graph.n):
        np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :], out=dist)
    return dist


@pytest.mark.parametrize("host_kind", BATTERY_HOSTS)
def test_floyd_warshall_equals_the_numpy_sweep(host_kind):
    """scipy's Floyd–Warshall equals the NumPy sweep bit for bit: 50 graphs
    per host kind (zero-weight edges, ties, ``inf`` non-edges, split parts),
    dense and CSR input, and the result is bitwise symmetric."""
    rng = np.random.default_rng(zlib.crc32(f"floyd-{host_kind}".encode()))
    for _ in range(50):
        n = int(rng.integers(0, 40))
        weights = _battery_network(_battery_host(host_kind, n, rng), rng) if n else np.zeros((0, 0))
        expected = _numpy_floyd_warshall(weights).view(np.int64)
        for given in (weights, _csr(weights)):
            got = floyd_warshall(given)
            assert np.array_equal(got.view(np.int64), expected)
            assert np.array_equal(got.view(np.int64), got.T.view(np.int64))
