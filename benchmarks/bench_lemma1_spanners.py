"""Lemmas 1 and 2: equilibria and optima are good spanners of the host graph.

For random Euclidean hosts and a sweep of alpha values the benchmark measures
the spanner stretch of sampled Nash equilibria (Lemma 1 bound: alpha+1) and of
exact social optima (Lemma 2 bound: alpha/2+1).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bounds import ne_spanner_factor, opt_spanner_factor
from repro.core.dynamics import run_dynamics
from repro.core.equilibria import is_nash_equilibrium
from repro.core.game import NetworkCreationGame
from repro.core.social_optimum import exact_social_optimum
from repro.core.spanner import spanner_stretch
from repro.core.session import SimulationConfig
from repro.core.strategy import StrategyProfile
from repro.metrics.generators import random_euclidean_host


def _stretches(alpha: float, instances: int) -> tuple[float, float]:
    rng = np.random.default_rng(7)
    worst_ne, worst_opt = 1.0, 1.0
    for _ in range(instances):
        game = NetworkCreationGame(random_euclidean_host(6, rng=rng), alpha)
        opt = exact_social_optimum(game)
        worst_opt = max(worst_opt, spanner_stretch(game.host, opt.profile))
        result = run_dynamics(
            game, StrategyProfile.empty(6), SimulationConfig(max_rounds=40)
        )
        if result.converged and is_nash_equilibrium(game, result.final_profile):
            worst_ne = max(worst_ne, spanner_stretch(game.host, result.final_profile))
    return worst_ne, worst_opt


@pytest.mark.benchmark(group="lemma1-spanners")
@pytest.mark.parametrize("alpha", [0.5, 2.0, 4.0])
def test_spanner_factors(benchmark, alpha, paper_report):
    worst_ne, worst_opt = benchmark.pedantic(_stretches, args=(alpha, 3), rounds=1, iterations=1)
    paper_report(
        f"Lemmas 1-2 — spanner stretch of equilibria and optima (alpha={alpha})",
        [
            ("worst NE stretch", f"<= {ne_spanner_factor(alpha)}", worst_ne),
            ("worst OPT stretch", f"<= {opt_spanner_factor(alpha)}", worst_opt),
        ],
    )
    assert worst_ne <= ne_spanner_factor(alpha) + 1e-6
    assert worst_opt <= opt_spanner_factor(alpha) + 1e-6
