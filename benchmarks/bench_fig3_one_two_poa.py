"""Figure 3 / Theorems 8 and 9: the 1-2–GNCG Price of Anarchy for alpha <= 1.

Regenerates the paper's rows: the clique-of-stars gadget yields equilibria
whose cost ratio grows towards 3/2 at alpha = 1 (and 3/(alpha+2) for
1/2 <= alpha < 1), while for alpha < 1/2 every equilibrium coincides with
the Algorithm 1 optimum, so the PoA is exactly 1 (Theorem 9).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.constructions import clique_of_stars_lower_bound
from repro.core.bounds import one_two_poa_lower, one_two_poa_upper
from repro.core.dynamics import run_dynamics
from repro.core.equilibria import is_greedy_equilibrium, is_nash_equilibrium
from repro.core.social_optimum import algorithm1_one_two
from repro.core.session import SimulationConfig
from repro.core.strategy import StrategyProfile
from repro.metrics.generators import random_one_two_host


def _gadget_ratio(N: int, alpha: float) -> float:
    instance = clique_of_stars_lower_bound(N, alpha)
    if instance.game.n <= 8:
        assert is_nash_equilibrium(instance.game, instance.equilibrium)
    else:
        assert is_greedy_equilibrium(instance.game, instance.equilibrium)
    return instance.measured_ratio


@pytest.mark.benchmark(group="fig3-one-two")
def test_fig3_alpha_one_ratio(benchmark, paper_report):
    ratio_small = benchmark.pedantic(_gadget_ratio, args=(2, 1.0), rounds=1, iterations=1)
    ratio_large = _gadget_ratio(3, 1.0)
    rows = [
        ("asymptotic ratio (alpha=1)", 1.5, ratio_large),
        ("gadget N=2 ratio", "<= 3/2", ratio_small),
        ("gadget N=3 ratio", "<= 3/2", ratio_large),
    ]
    paper_report("Fig. 3 / Thm. 8 — clique-of-stars lower bound", rows)
    assert ratio_small < ratio_large <= 1.5 + 1e-9


@pytest.mark.benchmark(group="fig3-one-two")
@pytest.mark.parametrize("alpha", [0.6, 0.8])
def test_fig3_small_alpha_ratio(benchmark, alpha, paper_report):
    ratio = benchmark.pedantic(_gadget_ratio, args=(2, alpha), rounds=1, iterations=1)
    paper_report(
        f"Fig. 3 / Thm. 7+8 — 1/2 <= alpha < 1 regime (alpha={alpha})",
        [
            ("tight PoA 3/(alpha+2)", one_two_poa_lower(alpha), ratio),
            ("upper bound respected", True, ratio <= one_two_poa_upper(alpha) + 1e-9),
        ],
    )
    assert ratio <= one_two_poa_upper(alpha) + 1e-9


def _theorem9_poa(seed: int, alpha: float) -> float:
    rng = np.random.default_rng(seed)
    host = random_one_two_host(6, rng=rng)
    from repro.core.game import NetworkCreationGame

    game = NetworkCreationGame(host, alpha)
    opt = algorithm1_one_two(game)
    result = run_dynamics(
        game, StrategyProfile.empty(6), SimulationConfig(max_rounds=40)
    )
    assert result.converged
    return game.social_cost(result.final_profile) / opt.cost


@pytest.mark.benchmark(group="fig3-one-two")
def test_theorem9_poa_is_one_below_half(benchmark, paper_report):
    ratio = benchmark.pedantic(_theorem9_poa, args=(0, 0.3), rounds=1, iterations=1)
    ratios = [_theorem9_poa(seed, 0.3) for seed in range(4)]
    paper_report(
        "Thm. 9 — PoA = 1 for alpha < 1/2 on random 1-2 hosts",
        [("PoA (4 random instances, max)", 1.0, max(ratios + [ratio]))],
    )
    assert max(ratios + [ratio]) == pytest.approx(1.0)
