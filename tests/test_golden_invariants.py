"""Golden regression tests: frozen paper numbers the engines must reproduce.

Engine refactors (and in particular the incremental distance engine) must
never silently change the numbers the reproduction derives from the paper's
constructions.  This module freezes the social costs, best-response costs
and PoA ratios of the key gadgets — the Figure 5 / Figure 8 best-response
cycle hosts, the Theorem 15 tree-star lower bound and the Theorem 8 1-2
clique-of-stars lower bound — as literal constants.  Every value was
computed with the seed implementation (``best_response_exact`` + full
Floyd–Warshall) and is asserted against both the exact and the incremental
engine, so any divergence between engines or drift across refactors fails
loudly here.
"""

from __future__ import annotations

import pytest

from repro.constructions.br_cycles import (
    FIG5_TREE_WEIGHTS,
    FIG8_POSITIONS,
    fig5_tree_cycle_host,
    fig8_geometric_cycle_host,
)
from repro.constructions.one_two_lower_bound import clique_of_stars_lower_bound
from repro.constructions.tree_star_lower_bound import tree_star_lower_bound
from repro.core import IncrementalEngine, StrategyProfile, best_response_exact

EXACT = pytest.approx


class TestTreeStarLowerBound:
    """Theorem 15 (Fig. 6): equilibrium star vs optimum star, exact ratios."""

    @pytest.mark.parametrize(
        "n, alpha, eq_cost, opt_cost, ratio",
        [
            (8, 2.0, 208.0, 112.0, 13.0 / 7.0),
            (12, 4.0, 416.0, 156.0, 8.0 / 3.0),
        ],
    )
    def test_frozen_costs_and_ratio(self, n, alpha, eq_cost, opt_cost, ratio):
        inst = tree_star_lower_bound(n, alpha)
        assert inst.equilibrium_cost == EXACT(eq_cost, abs=1e-9)
        assert inst.optimum_cost == EXACT(opt_cost, abs=1e-9)
        assert inst.measured_ratio == EXACT(ratio, abs=1e-12)
        assert inst.claimed_ratio == EXACT(ratio, abs=1e-12)

    def test_incremental_engine_reproduces_costs(self):
        inst = tree_star_lower_bound(8, 2.0)
        engine = IncrementalEngine(inst.game, inst.equilibrium)
        assert engine.social_cost() == EXACT(208.0, abs=1e-9)
        engine = IncrementalEngine(inst.game, inst.optimum)
        assert engine.social_cost() == EXACT(112.0, abs=1e-9)


class TestOneTwoLowerBound:
    """Theorem 8 (Fig. 3): clique-of-stars gadget, both alpha flavours."""

    @pytest.mark.parametrize(
        "N, alpha, eq_cost, opt_cost, ratio",
        [
            (2, 1.0, 85.0, 73.0, 85.0 / 73.0),
            (2, 0.75, 83.25, 81.25, 83.25 / 81.25),
            (3, 1.0, 351.0, 288.0, 1.21875),
        ],
    )
    def test_frozen_costs_and_ratio(self, N, alpha, eq_cost, opt_cost, ratio):
        inst = clique_of_stars_lower_bound(N, alpha)
        assert inst.equilibrium_cost == EXACT(eq_cost, abs=1e-9)
        assert inst.optimum_cost == EXACT(opt_cost, abs=1e-9)
        assert inst.measured_ratio == EXACT(ratio, abs=1e-12)


class TestFig5TreeCycleHost:
    """Theorem 14 (Fig. 5): the tree host carrying the published weight multiset."""

    def test_frozen_host_geometry(self):
        game = fig5_tree_cycle_host(alpha=1.0)
        assert sorted(FIG5_TREE_WEIGHTS) == [2.0, 2.0, 3.0, 5.0, 7.0, 9.0, 10.0, 11.0, 12.0]
        assert game.host.total_weight() == EXACT(725.0, abs=1e-9)

    def test_frozen_star_social_cost(self):
        game = fig5_tree_cycle_host(alpha=1.0)
        star = StrategyProfile.star(10, center=0)
        assert game.social_cost(star) == EXACT(2755.0, abs=1e-9)
        assert IncrementalEngine(game, star).social_cost() == EXACT(2755.0, abs=1e-9)

    def test_frozen_best_response_on_star(self):
        game = fig5_tree_cycle_host(alpha=1.0)
        star = StrategyProfile.star(10, center=0)
        exact = best_response_exact(game, star, 3)
        assert exact.cost == EXACT(156.0, abs=1e-9)
        assert sorted(exact.strategy) == [2, 4, 6, 7, 8, 9]
        incremental = IncrementalEngine(game, star).respond(3, "best")
        assert incremental.cost == EXACT(156.0, abs=1e-9)
        assert incremental.strategy == exact.strategy


class TestFig8GeometricCycleHost:
    """Theorem 17 (Fig. 8): the published R^2/1-norm coordinates."""

    def test_frozen_host_geometry(self):
        game = fig8_geometric_cycle_host(alpha=1.0)
        assert len(FIG8_POSITIONS) == 10
        assert game.host.total_weight() == EXACT(154.0, abs=1e-9)

    def test_frozen_star_social_cost(self):
        game = fig8_geometric_cycle_host(alpha=1.0)
        star = StrategyProfile.star(10, center=0)
        assert game.social_cost(star) == EXACT(608.0, abs=1e-9)
        assert IncrementalEngine(game, star).social_cost() == EXACT(608.0, abs=1e-9)

    def test_frozen_best_response_on_star(self):
        game = fig8_geometric_cycle_host(alpha=1.0)
        star = StrategyProfile.star(10, center=0)
        exact = best_response_exact(game, star, 4)
        assert exact.cost == EXACT(41.0, abs=1e-9)
        assert sorted(exact.strategy) == [1, 2, 3, 8, 9]
        incremental = IncrementalEngine(game, star).respond(4, "best")
        assert incremental.cost == EXACT(41.0, abs=1e-9)
        assert incremental.strategy == exact.strategy
