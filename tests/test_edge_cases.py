"""Edge-case and failure-injection tests: degenerate hosts, extreme alpha, tiny games."""

from __future__ import annotations

import numpy as np
import pytest

from repro.constructions.common import LowerBoundInstance
from repro.constructions import tree_star_lower_bound
from repro.core.best_response import best_response_exact
from repro.core.dynamics import run_dynamics
from repro.core.equilibria import is_nash_equilibrium
from repro.core.game import NetworkCreationGame
from repro.core.host_graph import HostGraph
from repro.core.poa import estimate_poa
from repro.core.session import SimulationConfig
from repro.core.social_optimum import exact_social_optimum, social_optimum
from repro.core.spanner import spanner_stretch
from repro.core.strategy import StrategyProfile


class TestTinyGames:
    def test_two_agents(self):
        host = HostGraph.from_matrix([[0.0, 3.0], [3.0, 0.0]])
        game = NetworkCreationGame(host, alpha=2.0)
        opt = exact_social_optimum(game)
        # the only connected network is the single edge
        assert opt.profile.num_edges() == 1
        assert opt.cost == pytest.approx(2.0 * 3.0 + 2 * 3.0)
        result = run_dynamics(
            game, StrategyProfile.empty(2), SimulationConfig(max_rounds=10)
        )
        assert result.converged
        assert is_nash_equilibrium(game, result.final_profile)

    def test_single_agent(self):
        host = HostGraph.unit(1)
        game = NetworkCreationGame(host, alpha=1.0)
        profile = StrategyProfile.empty(1)
        assert game.social_cost(profile) == 0.0
        assert is_nash_equilibrium(game, profile)

    def test_two_agent_equilibrium_owner_does_not_drop_edge(self):
        host = HostGraph.from_matrix([[0.0, 1.0], [1.0, 0.0]])
        game = NetworkCreationGame(host, alpha=5.0)
        profile = StrategyProfile.from_owned_edges(2, [(0, 1)])
        # dropping the edge would disconnect agent 0 (infinite cost), so it is a NE
        assert is_nash_equilibrium(game, profile)


class TestExtremeAlpha:
    def test_alpha_zero_optimum_is_complete_for_metric_host(self, small_euclidean_game):
        game = small_euclidean_game.with_alpha(0.0)
        opt = exact_social_optimum(game)
        # with free edges the complete network minimises all distances
        assert opt.cost == pytest.approx(game.social_cost(StrategyProfile.complete(5)))

    def test_alpha_zero_best_response_buys_everything_useful(self, small_euclidean_game):
        game = small_euclidean_game.with_alpha(0.0)
        result = best_response_exact(game, StrategyProfile.empty(5), 0)
        # free edges: buying a direct edge to every node is (weakly) optimal
        assert result.cost == pytest.approx(game.host.weights[0].sum())

    def test_huge_alpha_equilibria_are_trees(self, small_euclidean_game):
        game = small_euclidean_game.with_alpha(1e3)
        result = run_dynamics(
            game, StrategyProfile.star(5, center=0), SimulationConfig(max_rounds=30)
        )
        assert result.converged
        profile = result.final_profile
        assert profile.num_edges() == 4  # spanning tree
        assert is_nash_equilibrium(game, profile)

    def test_huge_alpha_optimum_is_mst_cost(self, small_euclidean_game):
        from repro.core.social_optimum import mst_profile

        game = small_euclidean_game.with_alpha(1e4)
        opt = exact_social_optimum(game)
        mst = mst_profile(game)
        # edge weight dominates: the optimum uses an MST edge set
        opt_weight = sum(game.host.weight(u, v) for u, v in opt.profile.edges())
        mst_weight = sum(game.host.weight(u, v) for u, v in mst.edges())
        assert opt_weight == pytest.approx(mst_weight)


class TestDegenerateGeometry:
    def test_duplicate_points_give_zero_weight_edges(self):
        points = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        host = HostGraph.from_points(points)
        assert host.weight(0, 1) == 0.0
        game = NetworkCreationGame(host, alpha=1.0)
        opt = exact_social_optimum(game)
        assert np.isfinite(opt.cost)
        assert game.is_connected(opt.profile)

    def test_collinear_points_form_tree_metric(self):
        host = HostGraph.from_points(np.array([[0.0], [1.0], [3.0], [7.0]]), p=2)
        assert host.is_tree_metric()
        game = NetworkCreationGame(host, alpha=2.0)
        path = StrategyProfile.path([0, 1, 2, 3], 4)
        assert is_nash_equilibrium(game, path)

    def test_zero_weight_host_everything_is_free(self):
        host = HostGraph.from_matrix(np.zeros((4, 4)))
        game = NetworkCreationGame(host, alpha=3.0)
        profile = StrategyProfile.star(4, center=0)
        assert game.social_cost(profile) == 0.0
        assert spanner_stretch(host, profile) == 1.0
        estimate = estimate_poa(game, num_samples=1, rng=np.random.default_rng(0))
        assert np.isnan(estimate.price_of_anarchy)  # 0/0 ratios are reported as NaN

    def test_one_infinity_unreachable_pairs(self):
        # only a path is allowed: 0-1-2; agent 0 can never buy a direct edge to 2
        host = HostGraph.one_infinity([(0, 1), (1, 2)], 3)
        game = NetworkCreationGame(host, alpha=1.0)
        opt = social_optimum(game, method="local_search")
        assert game.is_connected(opt.profile)
        assert set(opt.profile.edges()) == {(0, 1), (1, 2)}


class TestLowerBoundInstanceDataclass:
    def test_cost_properties(self):
        inst = tree_star_lower_bound(5, 2.0)
        assert isinstance(inst, LowerBoundInstance)
        assert inst.equilibrium_cost == pytest.approx(
            inst.game.social_cost(inst.equilibrium)
        )
        assert inst.optimum_cost == pytest.approx(inst.game.social_cost(inst.optimum))
        assert inst.measured_ratio == pytest.approx(
            inst.equilibrium_cost / inst.optimum_cost
        )

    def test_name_is_propagated(self):
        assert tree_star_lower_bound(5, 2.0).name == "thm15_tree_star"
