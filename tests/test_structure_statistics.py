"""Tests for the structural network statistics used by the analysis layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.structure import (
    is_spanning_tree,
    network_statistics,
    weighted_diameter,
)
from repro.core.game import NetworkCreationGame
from repro.core.host_graph import HostGraph
from repro.core.strategy import StrategyProfile


class TestWeightedDiameter:
    def test_star_on_unit_host(self):
        game = NetworkCreationGame(HostGraph.unit(5), alpha=1.0)
        star = StrategyProfile.star(5, center=0)
        assert weighted_diameter(game, star) == pytest.approx(2.0)

    def test_disconnected_network(self):
        game = NetworkCreationGame(HostGraph.unit(4), alpha=1.0)
        profile = StrategyProfile.from_undirected_edges(4, [(0, 1)])
        assert weighted_diameter(game, profile) == np.inf

    def test_single_node(self):
        game = NetworkCreationGame(HostGraph.unit(1), alpha=1.0)
        assert weighted_diameter(game, StrategyProfile.empty(1)) == 0.0

    def test_weighted_path(self, small_tree_game):
        from repro.core.equilibria import tree_profile_from_host

        tree = tree_profile_from_host(small_tree_game)
        d = small_tree_game.distances(tree)
        assert weighted_diameter(small_tree_game, tree) == pytest.approx(d.max())


class TestSpanningTreePredicate:
    def test_star_is_spanning_tree(self):
        game = NetworkCreationGame(HostGraph.unit(5), alpha=1.0)
        assert is_spanning_tree(StrategyProfile.star(5, center=0), game)

    def test_complete_graph_is_not_tree(self):
        game = NetworkCreationGame(HostGraph.unit(4), alpha=1.0)
        assert not is_spanning_tree(StrategyProfile.complete(4), game)

    def test_disconnected_with_right_edge_count_is_not_tree(self):
        game = NetworkCreationGame(HostGraph.unit(4), alpha=1.0)
        # 3 edges but one node isolated and a cycle among the rest
        profile = StrategyProfile.from_undirected_edges(4, [(0, 1), (1, 2), (2, 0)])
        assert not is_spanning_tree(profile, game)


class TestNetworkStatistics:
    def test_star_statistics(self):
        game = NetworkCreationGame(HostGraph.unit(5), alpha=2.0)
        stats = network_statistics(game, StrategyProfile.star(5, center=0))
        assert stats.num_nodes == 5
        assert stats.num_edges == 4
        assert stats.is_tree and stats.is_connected
        assert stats.total_edge_weight == pytest.approx(4.0)
        assert stats.max_degree == 4
        assert stats.mean_degree == pytest.approx((4 + 1 + 1 + 1 + 1) / 5)
        assert stats.weighted_diameter == pytest.approx(2.0)
        assert stats.social_cost == pytest.approx(game.social_cost(StrategyProfile.star(5, 0)))
        assert stats.edge_cost_share + stats.distance_cost_share == pytest.approx(1.0)

    def test_disconnected_statistics(self):
        game = NetworkCreationGame(HostGraph.unit(4), alpha=1.0)
        stats = network_statistics(game, StrategyProfile.empty(4))
        assert not stats.is_connected
        assert not stats.is_tree
        assert stats.weighted_diameter == np.inf
        assert np.isnan(stats.edge_cost_share)

    def test_as_dict_roundtrip(self, small_euclidean_game):
        stats = network_statistics(small_euclidean_game, StrategyProfile.complete(5))
        payload = stats.as_dict()
        assert payload["num_edges"] == 10
        assert payload["is_connected"] is True
        assert set(payload) >= {"social_cost", "weighted_diameter", "max_degree"}

    def test_statistics_of_equilibrium_respect_lemma7_shape(self, small_euclidean_game):
        """Sanity link to Lemma 7: social cost is O(diameter) * optimum on these instances."""
        from repro.core.dynamics import run_dynamics
        from repro.core.session import SimulationConfig
        from repro.core.social_optimum import exact_social_optimum

        game = small_euclidean_game
        result = run_dynamics(
            game, StrategyProfile.empty(5), SimulationConfig(max_rounds=30)
        )
        stats = network_statistics(game, result.final_profile)
        opt = exact_social_optimum(game)
        host_diam = game.host.host_distances().max()
        normalized_diameter = stats.weighted_diameter / host_diam
        assert stats.social_cost <= max(4.0 * normalized_diameter, 4.0) * opt.cost
