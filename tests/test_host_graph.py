"""Tests for host graphs, constructors and model classification."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.game import NetworkCreationGame
from repro.core.host_graph import HostGraph, ModelVariant
from repro.core.strategy import StrategyProfile


class TestConstruction:
    def test_unit_host(self):
        host = HostGraph.unit(4)
        assert host.n == 4
        assert host.weight(0, 1) == 1.0
        assert host.weight(2, 2) == 0.0
        assert host.classify() is ModelVariant.NCG

    def test_from_matrix_symmetrizes_and_zeroes_diagonal(self):
        w = np.array([[5.0, 1.0], [1.0, 7.0]])
        host = HostGraph.from_matrix(w)
        assert host.weight(0, 0) == 0.0
        assert host.weight(1, 1) == 0.0
        assert host.weight(0, 1) == 1.0

    def test_near_symmetric_host_with_forbidden_edges_has_distances(self):
        """Validation accepts asymmetry within the tolerance and keeps it when
        some edges are ``inf``; the shortest-path kernels read each edge as
        the smaller of its two directions, so distances stay symmetric."""
        w = np.array([[0.0, 1.0, np.inf], [1.0 + 1e-13, 0.0, 2.0], [np.inf, 2.0, 0.0]])
        game = NetworkCreationGame(HostGraph(w), 1.0)
        d = game.distances(StrategyProfile.complete(3))
        assert np.array_equal(d, d.T)
        assert d[0, 1] == 1.0 and d[0, 2] == 3.0

    def test_asymmetric_rejected(self):
        w = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            HostGraph(w)

    def test_negative_rejected(self):
        w = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            HostGraph(w)

    def test_nan_rejected(self):
        w = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(ValueError):
            HostGraph(w)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            HostGraph(np.zeros((2, 3)))

    def test_weights_are_read_only(self):
        host = HostGraph.unit(3)
        with pytest.raises(ValueError):
            host.weights[0, 1] = 5.0

    def test_one_two_host(self):
        host = HostGraph.one_two([(0, 1), (1, 2)], 4)
        assert host.weight(0, 1) == 1.0
        assert host.weight(0, 3) == 2.0
        assert host.classify() is ModelVariant.ONE_TWO

    def test_one_two_rejects_self_loop(self):
        with pytest.raises(ValueError):
            HostGraph.one_two([(1, 1)], 3)

    def test_one_infinity_host(self):
        host = HostGraph.one_infinity([(0, 1), (1, 2)], 3)
        assert host.weight(0, 1) == 1.0
        assert np.isinf(host.weight(0, 2))
        assert host.classify() is ModelVariant.ONE_INFINITY
        assert not host.is_metric()

    def test_edge_list_and_total_weight(self):
        host = HostGraph.one_two([(0, 1)], 3)
        edges = host.edge_list()
        assert len(edges) == 3
        assert host.total_weight() == pytest.approx(1 + 2 + 2)

    def test_equality_and_hash(self):
        a = HostGraph.unit(3)
        b = HostGraph.unit(3)
        c = HostGraph.unit(4)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c


class TestPointConstructors:
    def test_euclidean_distances(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        host = HostGraph.from_points(points, p=2)
        assert host.weight(0, 1) == pytest.approx(5.0)

    def test_manhattan_distances(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        host = HostGraph.from_points(points, p=1)
        assert host.weight(0, 1) == pytest.approx(7.0)

    def test_chebyshev_distances(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        host = HostGraph.from_points(points, p=np.inf)
        assert host.weight(0, 1) == pytest.approx(4.0)

    def test_general_p_norm(self):
        points = np.array([[0.0], [2.0]])
        host = HostGraph.from_points(points, p=3)
        assert host.weight(0, 1) == pytest.approx(2.0)

    def test_one_dimensional_input(self):
        host = HostGraph.from_points(np.array([0.0, 1.0, 3.0]))
        assert host.weight(0, 2) == pytest.approx(3.0)

    def test_invalid_norm_rejected(self):
        with pytest.raises(ValueError):
            HostGraph.from_points(np.zeros((3, 2)), p=0.5)

    def test_point_hosts_are_metric(self):
        rng = np.random.default_rng(0)
        for p in (1, 2, 3, np.inf):
            host = HostGraph.from_points(rng.random((6, 3)), p=p)
            assert host.is_metric()

    def test_points_recorded(self):
        pts = np.array([[0.0, 1.0], [2.0, 3.0]])
        host = HostGraph.from_points(pts)
        assert np.allclose(host.points, pts)


class TestTreeConstructors:
    def test_tree_metric_closure(self):
        host = HostGraph.from_tree([(0, 1, 2.0), (1, 2, 3.0)], 3)
        assert host.weight(0, 2) == pytest.approx(5.0)
        assert host.classify() is ModelVariant.TREE
        assert host.tree_edges is not None

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(ValueError):
            HostGraph.from_tree([(0, 1, 1.0)], 3)

    def test_disconnected_tree_rejected(self):
        with pytest.raises(ValueError):
            HostGraph.from_tree([(0, 1, 1.0), (0, 1, 2.0)], 3)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            HostGraph.from_tree([(0, 1, -1.0), (1, 2, 1.0)], 3)

    def test_from_networkx_tree(self):
        nx = pytest.importorskip("networkx")
        g = nx.Graph()
        g.add_edge("a", "b", weight=2.0)
        g.add_edge("b", "c", weight=1.0)
        host = HostGraph.from_networkx(g)
        assert host.n == 3
        assert host.tree_edges is not None
        dists = sorted(host.weights[np.triu_indices(3, k=1)])
        assert dists == pytest.approx([1.0, 2.0, 3.0])

    def test_from_networkx_disconnected_rejected(self):
        nx = pytest.importorskip("networkx")
        g = nx.Graph()
        g.add_node(0)
        g.add_node(1)
        with pytest.raises(ValueError):
            HostGraph.from_networkx(g)

    def test_to_networkx_roundtrip(self):
        host = HostGraph.from_tree([(0, 1, 2.0), (1, 2, 3.0)], 3)
        g = host.to_networkx()
        assert g.number_of_nodes() == 3
        assert g.number_of_edges() == 3
        assert g[0][2]["weight"] == pytest.approx(5.0)


class TestMetricStructure:
    def test_metric_closure_removes_violations(self):
        w = np.array([[0.0, 10.0, 1.0], [10.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        host = HostGraph(w)
        assert not host.is_metric()
        closed = host.metric_closure()
        assert closed.is_metric()
        assert closed.weight(0, 1) == pytest.approx(2.0)

    def test_metric_violations_witnesses(self):
        w = np.array([[0.0, 10.0, 1.0], [10.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        host = HostGraph(w)
        violations = host.metric_violations()
        assert len(violations) == 1
        v = violations[0]
        assert {v.u, v.v} == {0, 1}
        assert v.via == 2
        assert v.excess == pytest.approx(8.0)

    def test_tree_metric_four_point_condition(self):
        tree_host = HostGraph.from_tree([(0, 1, 1.0), (1, 2, 2.0), (1, 3, 3.0), (3, 4, 1.0)], 5)
        assert tree_host.is_tree_metric()

    def test_euclidean_square_is_not_tree_metric(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        host = HostGraph.from_points(points, p=2)
        assert not host.is_tree_metric()

    def test_host_distances_of_metric_host_equal_weights(self):
        host = HostGraph.from_points(np.random.default_rng(1).random((5, 2)))
        assert np.allclose(host.host_distances(), host.weights)


class TestClassification:
    def test_hierarchy_relation(self):
        assert ModelVariant.NCG.is_special_case_of(ModelVariant.METRIC)
        assert ModelVariant.ONE_TWO.is_special_case_of(ModelVariant.GENERAL)
        assert ModelVariant.TREE.is_special_case_of(ModelVariant.METRIC)
        assert not ModelVariant.METRIC.is_special_case_of(ModelVariant.TREE)
        assert not ModelVariant.GENERAL.is_special_case_of(ModelVariant.METRIC)
        assert ModelVariant.ONE_INFINITY.is_special_case_of(ModelVariant.GENERAL)
        assert not ModelVariant.ONE_INFINITY.is_special_case_of(ModelVariant.METRIC)

    def test_general_classification(self):
        w = np.array([[0.0, 10.0, 1.0], [10.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        assert HostGraph(w).classify() is ModelVariant.GENERAL

    def test_metric_classification(self):
        w = np.array([[0.0, 1.5, 1.0], [1.5, 0.0, 1.2], [1.0, 1.2, 0.0]])
        host = HostGraph(w)
        assert host.classify() in (ModelVariant.METRIC, ModelVariant.TREE)

    def test_single_node(self):
        assert HostGraph(np.zeros((1, 1))).classify() is ModelVariant.NCG

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=2, max_value=8), seed=st.integers(min_value=0, max_value=1000))
    def test_classification_is_consistent_with_hierarchy(self, n, seed):
        rng = np.random.default_rng(seed)
        host = HostGraph.from_points(rng.random((n, 2)), p=2)
        variant = host.classify()
        assert variant.is_special_case_of(ModelVariant.METRIC)
        assert host.is_metric()
