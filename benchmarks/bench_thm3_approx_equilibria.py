"""Theorems 2, 3 and Corollary 2: the approximate-equilibrium chain.

* Theorem 2 — any Add-only Equilibrium is an (alpha+1)-approximate Greedy
  Equilibrium;
* Theorem 3 — any Greedy Equilibrium of a metric host is a 3-approximate NE
  (via the facility-location locality gap);
* Corollary 2 — hence any AE is a 3(alpha+1)-approximate NE.

The benchmark builds connected Add-only/Greedy Equilibria by single-move
dynamics on random Euclidean hosts and measures the worst per-agent deviation
factors, comparing them to the paper's guarantees.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bounds import ae_to_ne_factor, ge_to_ne_factor
from repro.core.dynamics import run_dynamics
from repro.core.equilibria import best_deviation_factor, is_greedy_equilibrium
from repro.core.game import NetworkCreationGame
from repro.core.session import SimulationConfig
from repro.core.strategy import StrategyProfile
from repro.metrics.generators import random_euclidean_host

ALPHA = 1.5


def _worst_factors(instances: int, alpha: float) -> tuple[float, float]:
    """Return (worst NE-approximation factor over GE profiles, worst GE factor)."""
    rng = np.random.default_rng(1)
    worst_ne_factor = 1.0
    worst_ge_factor = 1.0
    for _ in range(instances):
        game = NetworkCreationGame(random_euclidean_host(6, rng=rng), alpha)
        result = run_dynamics(
            game,
            StrategyProfile.star(6, center=0),
            SimulationConfig(response="greedy", max_rounds=40),
        )
        profile = result.final_profile
        if not (result.converged and game.is_connected(profile)):
            continue
        assert is_greedy_equilibrium(game, profile)
        ne_factor, _, _ = best_deviation_factor(game, profile)
        ge_factor, _, _ = best_deviation_factor(game, profile, single_move_only=True)
        worst_ne_factor = max(worst_ne_factor, ne_factor)
        worst_ge_factor = max(worst_ge_factor, ge_factor)
    return worst_ne_factor, worst_ge_factor


@pytest.mark.benchmark(group="thm3-approx-equilibria")
def test_approximation_chain(benchmark, paper_report):
    ne_factor, ge_factor = benchmark.pedantic(
        _worst_factors, args=(4, ALPHA), rounds=1, iterations=1
    )
    paper_report(
        "Thm. 2/3, Cor. 2 — approximate-equilibrium chain (alpha=1.5)",
        [
            ("GE profiles: worst NE-approx factor", f"<= {ge_to_ne_factor()}", ne_factor),
            ("GE profiles: worst single-move factor", 1.0, ge_factor),
            ("Cor. 2 envelope 3(alpha+1)", ae_to_ne_factor(ALPHA), ne_factor),
        ],
    )
    assert ge_factor == pytest.approx(1.0)
    assert ne_factor <= ge_to_ne_factor() + 1e-6
    assert ne_factor <= ae_to_ne_factor(ALPHA) + 1e-6
