"""End-to-end integration tests spanning the whole library."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import HostGraph, NetworkCreationGame, StrategyProfile
from repro.analysis import poa_experiment
from repro.constructions import tree_star_lower_bound
from repro.core import (
    SimulationConfig,
    estimate_poa,
    is_nash_equilibrium,
    metric_poa_upper,
    run_dynamics,
    social_optimum,
)
from repro.core.equilibria import tree_profile_from_host
from repro.metrics import random_euclidean_host, random_tree_host
from repro.reductions.set_cover import (
    SetCoverInstance,
    exact_set_cover,
    tree_set_cover_reduction,
    u_best_response_cover,
)

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"


class TestFullPipelines:
    def test_euclidean_pipeline(self):
        """Generate -> optimise -> play -> certify -> compare against the bound."""
        rng = np.random.default_rng(2024)
        host = random_euclidean_host(6, rng=rng)
        alpha = 1.2
        game = NetworkCreationGame(host, alpha)

        opt = social_optimum(game)
        dynamics = run_dynamics(
            game, StrategyProfile.empty(6), SimulationConfig(max_rounds=50)
        )
        assert dynamics.converged
        equilibrium = dynamics.final_profile
        assert is_nash_equilibrium(game, equilibrium)

        ratio = game.social_cost(equilibrium) / opt.cost
        assert 1.0 - 1e-9 <= ratio <= metric_poa_upper(alpha) + 1e-6

    def test_tree_pipeline_price_of_stability(self):
        """On tree metrics the defining tree is optimal and stable (PoS = 1)."""
        rng = np.random.default_rng(7)
        host = random_tree_host(6, rng=rng)
        game = NetworkCreationGame(host, alpha=2.0)
        tree = tree_profile_from_host(game)
        opt = social_optimum(game)
        assert opt.cost == pytest.approx(game.social_cost(tree))
        assert is_nash_equilibrium(game, tree)

    def test_lower_bound_feeds_poa_estimate(self):
        """Injecting the Theorem 15 equilibrium raises the empirical PoA to its ratio."""
        instance = tree_star_lower_bound(6, 2.0)
        estimate = estimate_poa(
            instance.game,
            num_samples=2,
            extra_equilibria=[instance.equilibrium],
            rng=np.random.default_rng(0),
        )
        assert estimate.price_of_anarchy >= instance.measured_ratio - 1e-9
        assert estimate.price_of_anarchy <= metric_poa_upper(2.0) + 1e-9

    def test_hardness_pipeline(self):
        """Set-cover instance -> gadget -> exact best response -> minimum cover."""
        sc = SetCoverInstance.from_lists(4, [[0, 1], [1, 2], [2, 3]])
        gadget = tree_set_cover_reduction(sc)
        cover = u_best_response_cover(gadget)
        assert len(cover) == len(exact_set_cover(sc))

    def test_experiment_layer_smoke(self):
        summary = poa_experiment(
            "euclidean",
            5,
            1.0,
            SimulationConfig(seed=0),
            instances=1,
            samples_per_instance=2,
        )
        assert summary.bound_respected

    def test_public_api_surface(self):
        """The names promised by the README must be importable from the package roots."""
        import repro
        import repro.core as core

        for name in ("HostGraph", "NetworkCreationGame", "StrategyProfile", "ModelVariant"):
            assert hasattr(repro, name)
        for name in (
            "best_response_exact",
            "is_nash_equilibrium",
            "social_optimum",
            "run_dynamics",
            "estimate_poa",
            "metric_poa_upper",
        ):
            assert hasattr(core, name)


class TestExamples:
    """Every example script must run to completion."""

    @pytest.mark.parametrize(
        "script",
        ["quickstart.py", "tree_metric_peering.py", "hardness_gadgets.py"],
    )
    def test_example_runs(self, script):
        result = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / script)],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip()

    def test_examples_exist(self):
        expected = {
            "quickstart.py",
            "fiber_backbone_design.py",
            "tree_metric_peering.py",
            "price_of_anarchy_sweep.py",
            "hardness_gadgets.py",
        }
        present = {p.name for p in EXAMPLES_DIR.glob("*.py")}
        assert expected <= present
