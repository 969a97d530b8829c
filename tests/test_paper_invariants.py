"""Cross-cutting property-based tests of the paper's structural invariants.

These tests tie several modules together: random instances are generated,
equilibria are found by dynamics, and the paper's lemmas/theorems are checked
as executable properties:

* Lemma 1  — equilibria are (alpha+1)-spanners of the host graph;
* Lemma 2  — social optima are (alpha/2+1)-spanners;
* Theorem 1 — NE cost / OPT cost <= (alpha+2)/2 on metric hosts;
* Theorem 20 — the same ratio is <= ((alpha+2)/2)^2 on arbitrary hosts;
* Theorem 12 — Nash equilibria of tree hosts are trees;
* Theorem 2 / 3 / Corollary 2 — the AE -> GE -> NE approximation chain;
* footnote 1 — equilibria never contain an edge bought by both endpoints.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bounds import (
    general_poa_upper,
    metric_poa_upper,
    ne_spanner_factor,
    opt_spanner_factor,
)
from repro.core.dynamics import run_dynamics
from repro.core.equilibria import is_nash_equilibrium
from repro.core.game import NetworkCreationGame
from repro.core.poa import sample_equilibria
from repro.core.session import SimulationConfig
from repro.core.social_optimum import exact_social_optimum
from repro.core.spanner import is_k_spanner
from repro.core.strategy import StrategyProfile
from repro.metrics.generators import (
    random_euclidean_host,
    random_general_host,
    random_one_two_host,
    random_tree_host,
)

_SETTINGS = dict(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _find_equilibrium(game):
    result = run_dynamics(
        game, StrategyProfile.empty(game.n), SimulationConfig(max_rounds=40)
    )
    if not result.converged:
        return None
    profile = result.final_profile
    if not is_nash_equilibrium(game, profile):
        return None
    return profile


class TestSpannerInvariants:
    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 10_000), alpha=st.floats(min_value=0.3, max_value=4.0))
    def test_lemma1_equilibria_are_spanners(self, seed, alpha):
        rng = np.random.default_rng(seed)
        game = NetworkCreationGame(random_euclidean_host(5, rng=rng), alpha)
        eq = _find_equilibrium(game)
        if eq is None:
            return
        assert is_k_spanner(game.host, eq, ne_spanner_factor(alpha))

    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 10_000), alpha=st.floats(min_value=0.3, max_value=4.0))
    def test_lemma2_optima_are_spanners(self, seed, alpha):
        rng = np.random.default_rng(seed)
        game = NetworkCreationGame(random_euclidean_host(5, rng=rng), alpha)
        opt = exact_social_optimum(game)
        assert is_k_spanner(game.host, opt.profile, opt_spanner_factor(alpha))


class TestPriceOfAnarchyInvariants:
    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 10_000), alpha=st.floats(min_value=0.3, max_value=4.0))
    def test_theorem1_metric_ratio_bound(self, seed, alpha):
        rng = np.random.default_rng(seed)
        game = NetworkCreationGame(random_euclidean_host(5, rng=rng), alpha)
        eq = _find_equilibrium(game)
        if eq is None:
            return
        opt = exact_social_optimum(game)
        assert game.social_cost(eq) <= metric_poa_upper(alpha) * opt.cost + 1e-6

    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 10_000), alpha=st.floats(min_value=0.3, max_value=3.0))
    def test_theorem20_general_ratio_bound(self, seed, alpha):
        rng = np.random.default_rng(seed)
        game = NetworkCreationGame(random_general_host(5, rng=rng), alpha)
        eq = _find_equilibrium(game)
        if eq is None:
            return
        opt = exact_social_optimum(game)
        assert game.social_cost(eq) <= general_poa_upper(alpha) * opt.cost + 1e-6

    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 10_000), alpha=st.floats(min_value=0.55, max_value=0.95))
    def test_theorem7_one_two_ratio_bound(self, seed, alpha):
        """For 1/2 <= alpha < 1 on 1-2 hosts the PoA is at most 3/(alpha+2)."""
        rng = np.random.default_rng(seed)
        game = NetworkCreationGame(random_one_two_host(5, rng=rng), alpha)
        eq = _find_equilibrium(game)
        if eq is None:
            return
        opt = exact_social_optimum(game)
        assert game.social_cost(eq) <= (3.0 / (alpha + 2.0)) * opt.cost + 1e-6


class TestStructuralInvariants:
    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 10_000), alpha=st.floats(min_value=0.5, max_value=4.0))
    def test_theorem12_tree_equilibria_are_trees(self, seed, alpha):
        rng = np.random.default_rng(seed)
        game = NetworkCreationGame(random_tree_host(6, rng=rng), alpha)
        eq = _find_equilibrium(game)
        if eq is None:
            return
        assert eq.num_edges() == game.n - 1
        assert game.is_connected(eq)

    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 10_000), alpha=st.floats(min_value=0.3, max_value=4.0))
    def test_no_equilibrium_double_buys_edges(self, seed, alpha):
        rng = np.random.default_rng(seed)
        game = NetworkCreationGame(random_euclidean_host(5, rng=rng), alpha)
        equilibria = sample_equilibria(game, num_samples=2, rng=rng)
        for eq in equilibria:
            assert eq.double_bought_edges() == []

    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 10_000))
    def test_equilibria_of_connected_hosts_are_connected(self, seed):
        rng = np.random.default_rng(seed)
        game = NetworkCreationGame(random_euclidean_host(5, rng=rng), alpha=1.0)
        eq = _find_equilibrium(game)
        if eq is None:
            return
        assert game.is_connected(eq)

    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 10_000), alpha=st.floats(min_value=0.3, max_value=2.0))
    def test_optimum_cost_is_lower_bound_for_equilibria(self, seed, alpha):
        rng = np.random.default_rng(seed)
        game = NetworkCreationGame(random_euclidean_host(5, rng=rng), alpha)
        opt = exact_social_optimum(game)
        eq = _find_equilibrium(game)
        if eq is None:
            return
        assert game.social_cost(eq) >= opt.cost - 1e-9
