"""Batched-schedule and decremental-repair property tests.

Two contracts are enforced here:

* the **batched activation schedule** (``schedule="batched"`` in
  :func:`repro.core.dynamics.run_dynamics`) must be indistinguishable from
  the sequential schedule — same moves, same social-cost trajectory, same
  final profile — on seeded random instances across every model variant of
  the paper, because its proposal cache only reuses responses whose
  residual rows are provably untouched;

* the **decremental distance repair**
  (:func:`repro.core.shortest_paths.decremental_distances`) that serves the
  incremental engine's residual cache misses must agree exactly with a
  from-scratch all-pairs recomputation, including when the affected
  frontier exceeds the threshold and the repair falls back to a full
  rebuild (removal-heavy hub instances force this path).

Both schedules are checked against the from-scratch reference loop, on
tie-heavy hosts too, in ``tests/test_reference_dynamics.py``.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

import repro.core.incremental as incremental
from repro.core import (
    IncrementalEngine,
    NetworkCreationGame,
    SimulationConfig,
    StrategyProfile,
    decremental_distances,
    run_dynamics,
)
from repro.core.residual_delta import dense_residual
from repro.core.shortest_paths import all_pairs_shortest_paths
from random_instances import VARIANTS, _random_game, _random_profile, _same_cost


def _same_matrix(a: np.ndarray, b: np.ndarray, tol: float = 1e-8) -> bool:
    fa, fb = np.isfinite(a), np.isfinite(b)
    return bool(np.array_equal(fa, fb) and np.allclose(a[fa], b[fb], atol=tol))


# ----------------------------------------------------------------------
# Batched schedule == sequential schedule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_batched_matches_sequential_social_cost(variant, property_budget):
    """Both schedules reach states with identical social cost (and profile)."""
    rng = np.random.default_rng(zlib.crc32(f"batched-{variant}".encode()) % 2**32)
    for trial in range(property_budget):
        n = int(rng.integers(3, 10))
        game = _random_game(variant, n, rng)
        start = _random_profile(n, rng, density=float(rng.uniform(0.1, 0.5)))
        response = ("best", "greedy", "single")[trial % 3]
        order = ("round_robin", "random")[trial % 2]
        seq = run_dynamics(
            game,
            start,
            SimulationConfig(
                response=response, order=order, max_rounds=25, schedule="sequential"
            ),
            rng=7,
        )
        bat = run_dynamics(
            game,
            start,
            SimulationConfig(
                response=response, order=order, max_rounds=25, schedule="batched"
            ),
            rng=7,
        )
        assert _same_cost(seq.final_social_cost, bat.final_social_cost, tol=1e-7)
        assert seq.converged == bat.converged
        assert seq.moves == bat.moves
        assert seq.steps == bat.steps
        assert seq.final_profile == bat.final_profile
        assert len(seq.social_costs) == len(bat.social_costs)
        for a, b in zip(seq.social_costs, bat.social_costs):
            assert _same_cost(a, b, tol=1e-7)


def test_batched_explicit_order_and_reuse():
    """Explicit activation sequences batch too, and converged sweeps hit the cache."""
    rng = np.random.default_rng(11)
    game = _random_game("euclidean", 7, rng)
    start = _random_profile(7, rng)
    order = [3, 1, 4, 1, 5, 2, 6, 0, 3]
    seq = run_dynamics(
        game,
        start,
        SimulationConfig(order=order, max_rounds=12, schedule="sequential"),
    )
    bat = run_dynamics(
        game, start, SimulationConfig(order=order, max_rounds=12, schedule="batched")
    )
    assert seq.final_profile == bat.final_profile
    assert seq.moves == bat.moves
    # Once converged, repeated sweeps must be served from the proposal cache.
    assert bat.schedule_hits > 0


def test_batched_rejects_max_gain_order():
    game = _random_game("metric", 5, np.random.default_rng(0))
    start = StrategyProfile.empty(5)
    with pytest.raises(ValueError, match="max_gain"):
        run_dynamics(
            game, start, SimulationConfig(order="max_gain", schedule="batched")
        )


def test_unknown_schedule_rejected():
    game = _random_game("metric", 4, np.random.default_rng(0))
    with pytest.raises(ValueError, match="schedule"):
        run_dynamics(game, StrategyProfile.empty(4), SimulationConfig(schedule="bulk"))


def test_respond_many_matches_per_agent_responses(property_budget):
    """The shared-snapshot scoring primitive equals per-agent engine calls."""
    rng = np.random.default_rng(23)
    for _ in range(property_budget):
        n = int(rng.integers(3, 9))
        game = _random_game("general", n, rng)
        profile = _random_profile(n, rng)
        results = IncrementalEngine(game, profile).respond_many(range(n), "best")
        fresh = IncrementalEngine(game, profile)
        for u, result in enumerate(results):
            expected = fresh.respond(u, "best")
            assert result.strategy == expected.strategy
            assert _same_cost(result.cost, expected.cost)


# ----------------------------------------------------------------------
# Decremental repair
# ----------------------------------------------------------------------
def test_decremental_repair_matches_oracle(property_budget):
    """Row repair equals a from-scratch APSP for random incident-edge removals."""
    rng = np.random.default_rng(31)
    for trial in range(property_budget * 4):
        n = int(rng.integers(3, 15))
        variant = ("metric", "general", "one_infinity")[trial % 3]
        host = VARIANTS[variant](n, rng)
        adj = np.triu(rng.random((n, n)) < rng.uniform(0.2, 0.8), k=1)
        adj |= adj.T
        weights = np.where(adj, host.weights, np.inf)
        np.fill_diagonal(weights, 0.0)
        dist = all_pairs_shortest_paths(weights)
        v = int(rng.integers(0, n))
        incident = np.nonzero(adj[v])[0]
        if incident.size == 0:
            continue
        drop = incident[rng.random(incident.size) < 0.6]
        removed = weights.copy()
        removed[v, drop] = np.inf
        removed[drop, v] = np.inf
        repair = decremental_distances(
            dist,
            removed,
            v,
            removed=drop,
            max_affected_fraction=float(rng.choice([0.0, 0.3, 0.5, 1.0])),
        )
        assert _same_matrix(repair.distances, all_pairs_shortest_paths(removed))


def test_engine_residuals_match_oracle_across_variants(property_budget, monkeypatch):
    """Engine residual matrices (repair path included) equal the slow oracle."""
    rng = np.random.default_rng(37)
    for trial in range(property_budget):
        variant = sorted(VARIANTS)[trial % len(VARIANTS)]
        n = int(rng.integers(4, 12))
        game = _random_game(variant, n, rng)
        profile = _random_profile(n, rng)
        threshold = float(rng.choice([0.1, 0.5, 1.0]))
        monkeypatch.setattr(incremental, "_REPAIR_THRESHOLD", threshold)
        engine = IncrementalEngine(game, profile)
        for u in range(n):
            assert _same_matrix(
                dense_residual(engine.residual(u)), game.residual_distances(profile, u)
            )


def test_removal_heavy_hub_forces_repair_fallback():
    """A hub owning every incident edge exceeds the frontier and rebuilds.

    Removing the centre's edges from a spanning star disconnects everything,
    so every vertex is affected and the repair must fall back to a full
    all-pairs rebuild — the counters record it and the result stays exact.
    """
    n = 12
    host = VARIANTS["metric"](n, np.random.default_rng(41))
    game = NetworkCreationGame(host, 1.0)
    star = StrategyProfile.star(n, center=0)
    engine = IncrementalEngine(game, star)
    d_rest = engine.residual(0)
    assert engine.stats.repair_fallbacks == 1
    assert engine.stats.residual_repairs == 0
    assert _same_matrix(d_rest, game.residual_distances(star, 0))
    # A leaf owning nothing is served straight from the network distances.
    assert engine.stats.residual_cache_hits == 0
    engine.residual(1)
    assert engine.stats.residual_cache_hits == 1


def test_leaf_removal_uses_cheap_repair():
    """Removing one peripheral edge repairs a small frontier, no rebuild."""
    n = 14
    host = VARIANTS["euclidean"](n, np.random.default_rng(43))
    game = NetworkCreationGame(host, 1.0)
    profile = StrategyProfile.complete(n).with_strategy(0, [1])
    engine = IncrementalEngine(game, profile)
    d_rest = dense_residual(engine.residual(0))
    assert engine.stats.residual_repairs == 1
    assert engine.stats.repair_fallbacks == 0
    assert _same_matrix(d_rest, game.residual_distances(profile, 0))


def test_batched_dynamics_on_removal_heavy_instance():
    """Batched == sequential on a star instance whose dynamics delete edges."""
    n = 9
    host = VARIANTS["metric"](n, np.random.default_rng(47))
    game = NetworkCreationGame(host, 2.5)
    start = StrategyProfile.star(n, center=0)
    seq = run_dynamics(
        game,
        start,
        SimulationConfig(response="single", max_rounds=30, schedule="sequential"),
    )
    bat = run_dynamics(
        game,
        start,
        SimulationConfig(response="single", max_rounds=30, schedule="batched"),
    )
    assert seq.final_profile == bat.final_profile
    assert _same_cost(seq.final_social_cost, bat.final_social_cost)
    assert bat.engine_stats is not None


def test_engine_residual_graph_matches_dense_residual_weights(property_budget):
    """The engine's O(m) residual CSR holds exactly the edges of the dense
    ``game.residual_weights`` the exact oracle uses, including on 1-inf hosts
    whose owned edges may have infinite host weight."""
    rng = np.random.default_rng(53)
    for trial in range(property_budget):
        variant = ("one_infinity", "one_two", "general")[trial % 3]
        n = int(rng.integers(3, 12))
        game = _random_game(variant, n, rng)
        profile = _random_profile(n, rng, density=float(rng.uniform(0.1, 0.6)))
        engine = IncrementalEngine(game, profile)
        for u in range(n):
            owns = profile.ownership
            graph = engine._residual_graph(u, owns[u] & ~owns[:, u])
            dense = np.full((n, n), np.inf)
            dense[np.repeat(np.arange(n), np.diff(graph.indptr)), graph.indices] = graph.data
            np.fill_diagonal(dense, 0.0)
            assert np.array_equal(dense, game.residual_weights(profile, u))
