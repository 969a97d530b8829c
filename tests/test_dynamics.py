"""Tests for response dynamics, convergence and cycle verification."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dynamics import run_dynamics, verify_best_response_cycle
from repro.core.equilibria import is_greedy_equilibrium, is_nash_equilibrium
from repro.core.game import NetworkCreationGame
from repro.core.host_graph import HostGraph
from repro.core.session import SimulationConfig
from repro.core.strategy import StrategyProfile


class TestConvergence:
    def test_converges_on_small_euclidean(self, small_euclidean_game):
        result = run_dynamics(
            small_euclidean_game,
            StrategyProfile.empty(5),
            SimulationConfig(max_rounds=40),
        )
        assert result.converged
        assert is_nash_equilibrium(small_euclidean_game, result.final_profile)

    def test_converged_state_has_no_improving_round(self, small_tree_game):
        result = run_dynamics(
            small_tree_game, StrategyProfile.empty(5), SimulationConfig(max_rounds=40)
        )
        assert result.converged
        assert result.moves >= 1
        assert result.social_costs[-1] <= result.social_costs[0]

    def test_single_move_dynamics_reach_greedy_equilibrium(self, small_euclidean_game):
        result = run_dynamics(
            small_euclidean_game,
            StrategyProfile.empty(5),
            SimulationConfig(response="single", max_rounds=60),
        )
        assert result.converged
        assert is_greedy_equilibrium(small_euclidean_game, result.final_profile)

    def test_greedy_response_dynamics(self, small_euclidean_game):
        result = run_dynamics(
            small_euclidean_game,
            StrategyProfile.complete(5),
            SimulationConfig(response="greedy", max_rounds=60),
        )
        assert result.converged
        assert is_greedy_equilibrium(small_euclidean_game, result.final_profile)

    def test_random_order(self, small_euclidean_game, rng):
        result = run_dynamics(
            small_euclidean_game,
            StrategyProfile.empty(5),
            SimulationConfig(order="random", max_rounds=40),
            rng=rng,
        )
        assert result.converged

    def test_max_gain_order(self, small_euclidean_game):
        result = run_dynamics(
            small_euclidean_game,
            StrategyProfile.empty(5),
            SimulationConfig(order="max_gain", max_rounds=40),
        )
        assert result.converged
        assert is_nash_equilibrium(small_euclidean_game, result.final_profile)

    def test_explicit_activation_sequence(self, small_euclidean_game):
        result = run_dynamics(
            small_euclidean_game,
            StrategyProfile.empty(5),
            SimulationConfig(order=[0, 1, 2, 3, 4, 0, 1, 2, 3, 4], max_rounds=10),
        )
        assert result.steps > 0

    def test_history_recording(self, small_euclidean_game):
        result = run_dynamics(
            small_euclidean_game,
            StrategyProfile.empty(5),
            SimulationConfig(max_rounds=20),
            record_history=True,
        )
        assert result.history is not None
        assert len(result.history) == result.moves + 1
        assert len(result.social_costs) == result.moves + 1

    def test_already_stable_start(self, small_tree_game):
        from repro.core.equilibria import tree_profile_from_host

        tree = tree_profile_from_host(small_tree_game)
        result = run_dynamics(small_tree_game, tree, SimulationConfig(max_rounds=5))
        assert result.converged
        assert result.moves == 0
        assert result.final_profile == tree

    def test_zero_round_budget_reports_not_converged(self, small_euclidean_game):
        result = run_dynamics(
            small_euclidean_game,
            StrategyProfile.empty(5),
            SimulationConfig(max_rounds=0),
        )
        assert not result.converged

    def test_unknown_order_rejected(self, small_euclidean_game):
        with pytest.raises(ValueError):
            run_dynamics(
                small_euclidean_game,
                StrategyProfile.empty(5),
                SimulationConfig(order="bogus"),
            )

    def test_unknown_response_rejected(self, small_euclidean_game):
        with pytest.raises(ValueError):
            run_dynamics(
                small_euclidean_game,
                StrategyProfile.empty(5),
                SimulationConfig(response="bogus"),
            )


class TestDeterminism:
    """``order="random"`` must be reproducible: explicit rng/seed, no module-level RNG."""

    def _run(self, game, rng):
        return run_dynamics(
            game,
            StrategyProfile.empty(5),
            SimulationConfig(order="random", max_rounds=40),
            rng=rng,
            record_history=True,
        )

    def test_same_seed_same_trajectory(self, small_euclidean_game):
        a = self._run(small_euclidean_game, np.random.default_rng(42))
        b = self._run(small_euclidean_game, np.random.default_rng(42))
        assert a.moves == b.moves and a.steps == b.steps
        assert a.social_costs == b.social_costs
        assert a.history == b.history
        assert a.final_profile == b.final_profile

    def test_integer_seed_accepted_and_deterministic(self, small_euclidean_game):
        a = self._run(small_euclidean_game, 42)
        b = self._run(small_euclidean_game, np.random.default_rng(42))
        assert a.social_costs == b.social_costs
        assert a.final_profile == b.final_profile

    def test_default_rng_is_deterministic(self, small_euclidean_game):
        """rng=None falls back to a fixed seed, never to OS entropy."""
        a = self._run(small_euclidean_game, None)
        b = self._run(small_euclidean_game, None)
        assert a.social_costs == b.social_costs
        assert a.history == b.history
        c = self._run(small_euclidean_game, 0)
        assert a.social_costs == c.social_costs


class TestCycleVerification:
    def _two_state_cycle(self):
        """A hand-built 2-state sequence that is NOT improving (used as negative case)."""
        a = StrategyProfile.from_sets(3, [[1], [], []])
        b = StrategyProfile.from_sets(3, [[1, 2], [], []])
        return [a, b]

    def test_rejects_non_improving_sequences(self):
        game = NetworkCreationGame(HostGraph.unit(3), alpha=5.0)
        states = self._two_state_cycle()
        result = verify_best_response_cycle(game, states, require_best_response=False)
        # moving from a to b buys an expensive edge: not improving in both directions
        assert not result.violates_fip

    def test_requires_single_agent_changes(self):
        game = NetworkCreationGame(HostGraph.unit(3), alpha=1.0)
        a = StrategyProfile.from_sets(3, [[1], [], []])
        b = StrategyProfile.from_sets(3, [[2], [2], []])  # two agents changed
        result = verify_best_response_cycle(game, [a, b])
        assert not result.is_cycle
        assert result.failures

    def test_needs_at_least_two_states(self):
        game = NetworkCreationGame(HostGraph.unit(3), alpha=1.0)
        result = verify_best_response_cycle(game, [StrategyProfile.empty(3)])
        assert not result.is_cycle

    def test_detects_genuine_improving_cycle_from_search(self):
        """If the cycle search finds a cycle, the verifier must accept it as improving."""
        from repro.constructions.br_cycles import (
            fig8_geometric_cycle_host,
            search_improving_response_cycle,
        )

        game = fig8_geometric_cycle_host(alpha=1.0)
        found = search_improving_response_cycle(
            game, response="single", max_states=300
        )
        if found.found:
            result = verify_best_response_cycle(
                game, list(found.cycle), require_best_response=False
            )
            assert result.violates_fip


class TestDynamicsOnOneTwo:
    def test_small_alpha_reaches_algorithm1_network(self):
        """Thm. 9: for alpha < 1/2 dynamics end in the Algorithm 1 network."""
        from repro.core.social_optimum import algorithm1_one_two

        host = HostGraph.one_two([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
        game = NetworkCreationGame(host, alpha=0.3)
        result = run_dynamics(
            game, StrategyProfile.empty(4), SimulationConfig(max_rounds=30)
        )
        assert result.converged
        opt = algorithm1_one_two(game)
        assert game.social_cost(result.final_profile) == pytest.approx(opt.cost)
        assert set(result.final_profile.edges()) == set(opt.profile.edges())
