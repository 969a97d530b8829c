"""Theorem 12 and Corollary 3: structure of equilibria in the T–GNCG.

* Theorem 12 — every NE of a tree-metric host is a tree (n-1 edges).
* Corollary 3 — the defining tree is simultaneously a NE and a social
  optimum, so the Price of Stability is 1.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dynamics import run_dynamics
from repro.core.equilibria import is_nash_equilibrium, tree_profile_from_host
from repro.core.game import NetworkCreationGame
from repro.core.social_optimum import exact_social_optimum
from repro.core.session import SimulationConfig
from repro.core.strategy import StrategyProfile
from repro.metrics.generators import random_tree_host

ALPHA = 2.0


def _equilibrium_edge_counts(instances: int, alpha: float) -> list[int]:
    rng = np.random.default_rng(0)
    counts = []
    for _ in range(instances):
        game = NetworkCreationGame(random_tree_host(6, rng=rng), alpha)
        result = run_dynamics(
            game, StrategyProfile.empty(6), SimulationConfig(max_rounds=40)
        )
        if result.converged and is_nash_equilibrium(game, result.final_profile):
            counts.append(result.final_profile.num_edges())
    return counts


@pytest.mark.benchmark(group="thm12-tree-ne")
def test_thm12_equilibria_are_trees(benchmark, paper_report):
    counts = benchmark.pedantic(_equilibrium_edge_counts, args=(4, ALPHA), rounds=1, iterations=1)
    paper_report(
        "Thm. 12 — every NE of a T-GNCG is a tree (n=6)",
        [("edges in sampled equilibria", 5, max(counts) if counts else "n/a")],
    )
    assert counts
    assert all(c == 5 for c in counts)


@pytest.mark.benchmark(group="thm12-tree-ne")
def test_cor3_price_of_stability_one(benchmark, paper_report):
    rng = np.random.default_rng(3)
    game = NetworkCreationGame(random_tree_host(6, rng=rng), ALPHA)

    def verify():
        tree = tree_profile_from_host(game)
        opt = exact_social_optimum(game)
        return tree, opt

    tree, opt = benchmark.pedantic(verify, rounds=1, iterations=1)
    stable = is_nash_equilibrium(game, tree)
    paper_report(
        "Cor. 3 — the defining tree is optimal and stable (PoS = 1)",
        [
            ("tree is a NE", True, stable),
            ("tree cost / optimum cost", 1.0, game.social_cost(tree) / opt.cost),
        ],
    )
    assert stable
    assert game.social_cost(tree) == pytest.approx(opt.cost)
