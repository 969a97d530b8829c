"""Tests for spanner utilities (Lemmas 1-2, Theorem 5 machinery)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.game import NetworkCreationGame
from repro.core.host_graph import HostGraph
from repro.core.spanner import (
    greedy_spanner,
    is_k_spanner,
    minimum_weight_spanner,
    prune_spanner,
    spanner_stretch,
)
from repro.core.strategy import StrategyProfile


class TestStretch:
    def test_complete_graph_has_stretch_one(self, small_euclidean_game):
        host = small_euclidean_game.host
        assert spanner_stretch(host, StrategyProfile.complete(5)) == pytest.approx(1.0)

    def test_star_stretch_on_unit_host(self):
        host = HostGraph.unit(5)
        star = StrategyProfile.star(5, center=0)
        assert spanner_stretch(host, star) == pytest.approx(2.0)

    def test_disconnected_subgraph_has_infinite_stretch(self):
        host = HostGraph.unit(4)
        profile = StrategyProfile.from_undirected_edges(4, [(0, 1)])
        assert spanner_stretch(host, profile) == np.inf

    def test_accepts_edge_lists_and_adjacency(self):
        host = HostGraph.unit(4)
        edges = [(0, 1), (1, 2), (2, 3)]
        adjacency = np.zeros((4, 4), dtype=bool)
        for u, v in edges:
            adjacency[u, v] = adjacency[v, u] = True
        assert spanner_stretch(host, edges) == spanner_stretch(host, adjacency)

    def test_single_node(self):
        host = HostGraph.unit(1)
        assert spanner_stretch(host, StrategyProfile.empty(1)) == pytest.approx(1.0)

    def test_is_k_spanner_threshold(self):
        host = HostGraph.unit(5)
        star = StrategyProfile.star(5, center=0)
        assert is_k_spanner(host, star, 2.0)
        assert not is_k_spanner(host, star, 1.5)


class TestGreedySpanner:
    @pytest.mark.parametrize("k", [1.5, 2.0, 3.0])
    def test_result_is_valid_spanner(self, k, rng):
        host = HostGraph.from_points(rng.random((7, 2)))
        result = greedy_spanner(host, k)
        assert result.stretch <= k + 1e-9
        assert is_k_spanner(host, result.edges, k)

    def test_k_one_returns_all_shortest_path_edges(self, rng):
        host = HostGraph.from_points(rng.random((5, 2)))
        result = greedy_spanner(host, 1.0)
        assert result.stretch == pytest.approx(1.0)

    def test_larger_k_never_heavier(self, rng):
        host = HostGraph.from_points(rng.random((7, 2)))
        w2 = greedy_spanner(host, 2.0).total_weight
        w4 = greedy_spanner(host, 4.0).total_weight
        assert w4 <= w2 + 1e-9


class TestPruneAndMinimumWeight:
    def test_prune_keeps_spanner_property(self, rng):
        host = HostGraph.from_points(rng.random((6, 2)))
        pruned = prune_spanner(host, StrategyProfile.complete(6).edges(), 2.0)
        assert pruned.stretch <= 2.0 + 1e-9

    def test_prune_never_heavier_than_input(self, rng):
        host = HostGraph.from_points(rng.random((6, 2)))
        full_weight = sum(host.weight(u, v) for u, v in StrategyProfile.complete(6).edges())
        pruned = prune_spanner(host, StrategyProfile.complete(6).edges(), 2.0)
        assert pruned.total_weight <= full_weight + 1e-9

    def test_minimum_weight_spanner_exact_small(self):
        host = HostGraph.one_two([(0, 1), (1, 2), (2, 3)], 4)
        result = minimum_weight_spanner(host, 1.5)
        assert result.stretch <= 1.5 + 1e-9
        # Lemma 5: a minimum-weight 3/2-spanner of a 1-2 host contains all 1-edges
        edge_set = set(result.edges)
        for e in [(0, 1), (1, 2), (2, 3)]:
            assert e in edge_set or (e[1], e[0]) in edge_set

    def test_minimum_weight_not_heavier_than_greedy(self, rng):
        host = HostGraph.from_points(rng.random((5, 2)))
        exact = minimum_weight_spanner(host, 2.0)
        greedy = greedy_spanner(host, 2.0)
        assert exact.total_weight <= greedy.total_weight + 1e-9

    def test_to_profile(self, rng):
        host = HostGraph.from_points(rng.random((5, 2)))
        result = greedy_spanner(host, 2.0)
        profile = result.to_profile(5)
        assert profile.num_edges() == len(result.edges)


class TestLemma1:
    """Lemma 1: every Add-only Equilibrium is an (alpha + 1)-spanner of the host."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 5_000), alpha=st.floats(min_value=0.2, max_value=4.0))
    def test_equilibria_are_spanners(self, seed, alpha):
        from repro.core.dynamics import run_dynamics
        from repro.core.session import SimulationConfig
        from repro.core.equilibria import is_add_only_equilibrium

        rng = np.random.default_rng(seed)
        host = HostGraph.from_points(rng.random((5, 2)))
        game = NetworkCreationGame(host, alpha)
        result = run_dynamics(
            game, StrategyProfile.empty(5), SimulationConfig(max_rounds=30)
        )
        if not result.converged:
            return
        profile = result.final_profile
        assert is_add_only_equilibrium(game, profile)
        assert is_k_spanner(host, profile, alpha + 1.0)


class TestTheorem5Machinery:
    def test_min_weight_three_halves_spanner_orientable_to_ne(self):
        """Thm. 5: for 1-2 hosts with 1/2 <= alpha <= 1 a minimum-weight 3/2-spanner
        admits an ownership assignment that is a Nash equilibrium."""
        from repro.constructions.ownership import find_equilibrium_orientation

        rng = np.random.default_rng(8)
        draws = np.triu(rng.random((5, 5)) < 0.5, k=1)
        ones = [(int(u), int(v)) for u, v in zip(*np.nonzero(draws))]
        host = HostGraph.one_two(ones, 5)
        spanner = minimum_weight_spanner(host, 1.5)
        game = NetworkCreationGame(host, alpha=0.75)
        oriented = find_equilibrium_orientation(game, list(spanner.edges), notion="nash")
        assert oriented is not None
