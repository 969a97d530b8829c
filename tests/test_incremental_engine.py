"""Cross-oracle property tests: incremental engine vs the exact oracle.

The incremental best-response engine (:mod:`repro.core.incremental`) must be
*indistinguishable* from the from-scratch oracle
(:func:`repro.core.best_response.best_response_exact`) on every input: same
best-response strategies, same costs.  These tests enforce that with seeded
randomized sweeps across all model variants of the paper (NCG, 1-2, 1-∞,
tree, euclidean/Rd, metric, general) on instances up to ``n = 30``.
Budgets are small by default and grow under ``--slow`` (see
``tests/conftest.py``).  Whole dynamics trajectories are checked against
the from-scratch reference loop in ``tests/test_reference_dynamics.py``.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.core import (
    IncrementalEngine,
    NetworkCreationGame,
    StrategyProfile,
    best_response_exact,
    best_response_incremental,
)
from repro.core.best_response import (
    best_single_move,
    enumerate_single_moves,
    greedy_response,
)
from repro.core.residual_delta import dense_residual
from repro.metrics.generators import unit_host
from random_instances import (
    VARIANTS,
    _random_game,
    _random_profile,
    _same_cost,
    _same_matrix,
)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
class TestBestResponseEquality:
    def test_full_candidate_sets(self, variant, property_budget):
        """Exact and incremental best responses coincide on small instances."""
        rng = np.random.default_rng(zlib.crc32(variant.encode()) % 2**32)
        for _ in range(property_budget):
            n = int(rng.integers(3, 9))
            game = _random_game(variant, n, rng)
            profile = _random_profile(n, rng)
            engine = IncrementalEngine(game, profile)
            for u in range(n):
                exact = best_response_exact(game, profile, u)
                incremental = engine.respond(u, "best")
                assert exact.strategy == incremental.strategy
                assert _same_cost(exact.cost, incremental.cost)
                assert _same_cost(exact.current_cost, incremental.current_cost)

    def test_restricted_candidates_up_to_n30(self, variant, property_budget):
        """Equality also holds on larger hosts with restricted candidate sets."""
        rng = np.random.default_rng((zlib.crc32(variant.encode()) + 1) % 2**32)
        for _ in range(max(2, property_budget // 2)):
            n = int(rng.integers(12, 31))
            game = _random_game(variant, n, rng)
            profile = StrategyProfile.star(n, center=int(rng.integers(0, n)))
            engine = IncrementalEngine(game, profile)
            for u in rng.choice(n, size=5, replace=False):
                u = int(u)
                candidates = [int(v) for v in rng.choice(n, size=8, replace=False) if v != u]
                exact = best_response_exact(game, profile, u, candidates=candidates)
                incremental = best_response_incremental(
                    game, profile, u, d_rest=engine.residual(u), candidates=candidates
                )
                assert exact.strategy == incremental.strategy
                assert _same_cost(exact.cost, incremental.cost)


class TestEngineCaches:
    def test_distance_cache_matches_fresh_apsp_after_moves(self, property_budget):
        """The O(n^2) post-move update equals a from-scratch recomputation."""
        rng = np.random.default_rng(77)
        for _ in range(property_budget):
            n = int(rng.integers(4, 12))
            game = _random_game("metric", n, rng)
            engine = IncrementalEngine(game, _random_profile(n, rng))
            for u in list(range(n)) * 2:
                result = engine.respond(u, "best")
                if result.is_improving:
                    engine.apply(u, result.strategy)
                assert _same_matrix(engine.distances, game.distances(engine.profile))

    def test_residual_cache_invalidation_across_moves(self):
        """Cached residuals stay correct when other agents move between queries."""
        rng = np.random.default_rng(5)
        game = _random_game("euclidean", 7, rng)
        engine = IncrementalEngine(game, _random_profile(7, rng))
        for step in range(30):
            u = int(rng.integers(0, 7))
            assert _same_matrix(
                dense_residual(engine.residual(u)), game.residual_distances(engine.profile, u)
            )
            mover = int(rng.integers(0, 7))
            engine.apply(mover, engine.respond(mover, "best").strategy)

    def test_own_move_keeps_residual_valid(self):
        """An agent's residual is invariant under its own strategy changes."""
        rng = np.random.default_rng(9)
        game = _random_game("metric", 6, rng)
        engine = IncrementalEngine(game, _random_profile(6, rng))
        before = dense_residual(engine.residual(2))
        engine.apply(2, {0, 1})
        assert _same_matrix(dense_residual(engine.residual(2)), before)
        assert _same_matrix(
            dense_residual(engine.residual(2)), game.residual_distances(engine.profile, 2)
        )

    def test_move_update_matches_apsp(self, property_budget):
        """The engine's rank-1 move update equals the network's true APSP."""
        rng = np.random.default_rng(13)
        for _ in range(property_budget):
            n = int(rng.integers(3, 10))
            game = _random_game("general", n, rng)
            profile = _random_profile(n, rng)
            u = int(rng.integers(0, n))
            targets = [int(v) for v in rng.choice(n, size=min(3, n - 1), replace=False) if v != u]
            engine = IncrementalEngine(game, profile)
            engine.apply(u, targets)
            actual = game.distances(profile.with_strategy(u, targets))
            assert _same_matrix(engine.distances, actual, tol=1e-8)

    def test_infinite_edge_strategy_costs_inf_even_at_alpha_zero(self):
        """Buying an absent (inf-weight) host edge costs inf, never NaN.

        Regression: with alpha == 0 a naive ``alpha * w`` yields ``0 * inf =
        NaN``, silently de-synchronising the incremental engine's
        current-cost path from the exact oracle on 1-inf hosts.
        """
        rng = np.random.default_rng(3)
        host = VARIANTS["one_infinity"](6, rng)
        w = host.weights
        missing = [
            (u, v) for u in range(6) for v in range(6) if u != v and np.isinf(w[u, v])
        ]
        assert missing, "generator produced a complete host; pick another seed"
        u, v = missing[0]
        for alpha in (0.0, 1.0):
            game = NetworkCreationGame(host, alpha)
            profile = StrategyProfile.from_sets(6, {u: [v]})
            evaluator = game.candidate_evaluator(profile, u)
            assert np.isinf(evaluator.strategy_cost([v]))
            assert np.isinf(game.agent_cost(profile, u))
            exact = best_response_exact(game, profile, u)
            incremental = IncrementalEngine(game, profile).respond(u, "best")
            assert exact.strategy == incremental.strategy
            assert _same_cost(exact.current_cost, incremental.current_cost)
            assert not np.isnan(incremental.current_cost)

    def test_greedy_with_injected_residual_matches_fresh(self, property_budget):
        rng = np.random.default_rng(21)
        for _ in range(property_budget):
            n = int(rng.integers(3, 9))
            game = _random_game("tree", n, rng)
            profile = _random_profile(n, rng)
            u = int(rng.integers(0, n))
            d_rest = game.residual_distances(profile, u)
            fresh = greedy_response(game, profile, u)
            cached = greedy_response(game, profile, u, d_rest=d_rest)
            assert fresh.strategy == cached.strategy
            assert _same_cost(fresh.cost, cached.cost)
            fresh_move = best_single_move(game, profile, u)
            cached_move = best_single_move(game, profile, u, d_rest=d_rest)
            assert fresh_move.kind == cached_move.kind
            assert fresh_move.gain == pytest.approx(cached_move.gain)
            assert len(enumerate_single_moves(game, profile, u, d_rest=d_rest)) == len(
                enumerate_single_moves(game, profile, u)
            )


@pytest.mark.slow
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_slow_exhaustive_equality_sweep(variant):
    """Large-budget version of the equality sweep, run under ``--slow``."""
    rng = np.random.default_rng((zlib.crc32(variant.encode()) + 3) % 2**32)
    for _ in range(60):
        n = int(rng.integers(3, 10))
        game = _random_game(variant, n, rng)
        profile = _random_profile(n, rng, density=float(rng.uniform(0.1, 0.6)))
        engine = IncrementalEngine(game, profile)
        for u in range(n):
            exact = best_response_exact(game, profile, u)
            incremental = engine.respond(u, "best")
            assert exact.strategy == incremental.strategy
            assert _same_cost(exact.cost, incremental.cost)


@pytest.mark.parametrize("n", [2, 9, 40, 192, 193, 230])
def test_network_graph_from_owned_edges_equals_the_dense_build(n):
    """The engine's network graph, built from the owned edges, equals
    ``_as_graph(game.network_weights(profile))`` field for field, and the
    engine's distances equal ``game.distances(profile)`` bit for bit: random
    profiles with double-owned edges and owned edges whose host weight is
    ``inf`` in both directions (no edge) or, for the graph alone, in one
    (the edge weighs the other), on both sides of the Floyd–Warshall
    cutoff."""
    from repro.core.host_graph import HostGraph
    from repro.core.incremental import _network_graph
    from repro.core.shortest_paths import _as_graph

    rng = np.random.default_rng(n)
    for density in (0.0, 0.02, 0.3):
        host = np.round(rng.uniform(0.0, 4.0, size=(n, n)), 1)
        host[rng.random((n, n)) < 0.2] = np.inf  # owned edges that are no edges
        host = np.maximum(host, host.T)
        np.fill_diagonal(host, 0.0)
        owns = rng.random((n, n)) < density
        owns |= (rng.random((n, n)) < 0.5) & owns.T  # double-owned edges
        np.fill_diagonal(owns, False)
        game = NetworkCreationGame(HostGraph(host), 1.0)
        profile = StrategyProfile(owns)
        _assert_same_graph(
            _network_graph(host, profile.ownership), _as_graph(game.network_weights(profile))
        )
        engine = IncrementalEngine(game, profile)
        assert np.array_equal(
            engine.distances.view(np.int64), game.distances(profile).view(np.int64)
        )
        # A host weight inf in one direction only: the edge weighs the other.
        lopsided = host.copy()
        lopsided[np.triu(rng.random((n, n)) < 0.3, k=1)] = np.inf
        dense = np.where(profile.adjacency(), lopsided, np.inf)
        np.fill_diagonal(dense, 0.0)
        _assert_same_graph(_network_graph(lopsided, profile.ownership), _as_graph(dense))


def _assert_same_graph(got, want) -> None:
    assert got.n == want.n
    for field in ("indptr", "indices", "rows", "data"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


@pytest.mark.parametrize("n", [1, 7, 13, 200, 1000, 1003])
def test_residual_key_equals_the_packed_row_cleared_ownership(n):
    """``_residual_key(u)`` clears row ``u`` in the ownership matrix packed
    once per profile: byte for byte ``np.packbits`` of the matrix with row
    ``u`` cleared, for rows starting at every bit offset of a byte, and
    again after a move re-packs the new profile (up to n = 200, where the
    move's distances are cheap)."""
    rng = np.random.default_rng(n)
    engine = IncrementalEngine(NetworkCreationGame(unit_host(n), 1.0), _random_profile(n, rng))
    agents = range(n) if n <= 200 else [*range(16), *range(n // 2, n // 2 + 8), *range(n - 8, n)]

    def check():
        for u in agents:
            cleared = engine.profile.ownership.copy()
            cleared[u] = False
            assert engine._residual_key(u) == np.packbits(cleared).tobytes()

    check()
    if n <= 200:
        u = int(rng.integers(0, n))
        engine.apply(u, [v for v in range(min(n, 3)) if v != u])
        check()
