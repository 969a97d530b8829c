"""Tests for exact and greedy best-response computation."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.best_response as br
from repro.core.best_response import (
    best_response_exact,
    best_single_move,
    enumerate_single_moves,
    greedy_response,
)
from repro.core.game import NetworkCreationGame
from repro.core.host_graph import HostGraph
from repro.core.residual_delta import DeltaResidual, ResidualDelta
from repro.core.shortest_paths import (
    CandidateEvaluator,
    floyd_warshall,
    strategy_cost_from_residual,
)
from repro.core.strategy import StrategyProfile


def brute_force_best_response(game, profile, u):
    """Reference implementation: try every subset by rebuilding the profile."""
    others = [v for v in range(game.n) if v != u and np.isfinite(game.host.weights[u, v])]
    best_cost = np.inf
    best_set = frozenset()
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            candidate = profile.with_strategy(u, combo)
            cost = game.agent_cost(candidate, u)
            if cost < best_cost - 1e-12:
                best_cost = cost
                best_set = frozenset(combo)
    return best_set, best_cost


class TestResidualDistances:
    def test_residual_removes_only_owned_edges(self, small_euclidean_game):
        game = small_euclidean_game
        profile = StrategyProfile.from_sets(5, [[1, 2], [3], [], [], []])
        d_rest = game.residual_distances(profile, 0)
        # edges (0,1),(0,2) removed but (1,3) stays
        w13 = game.host.weight(1, 3)
        assert d_rest[1, 3] == pytest.approx(w13)
        assert np.isinf(d_rest[0, 1]) or d_rest[0, 1] > game.host.weight(0, 1)

    def test_residual_keeps_edges_bought_towards_agent(self, small_euclidean_game):
        game = small_euclidean_game
        profile = StrategyProfile.from_sets(5, [[1], [], [0], [], []])
        d_rest = game.residual_distances(profile, 0)
        # (2,0) is owned by 2 and must remain
        assert d_rest[0, 2] == pytest.approx(game.host.weight(0, 2))

    def test_strategy_cost_from_residual_matches_game(self, small_euclidean_game):
        game = small_euclidean_game
        profile = StrategyProfile.from_sets(5, [[1], [2], [3], [4], []])
        for u in range(5):
            d_rest = game.residual_distances(profile, u)
            current = set(profile.strategy(u))
            cost = strategy_cost_from_residual(
                d_rest, u, game.host.weights[u], game.alpha, current
            )
            assert cost == pytest.approx(game.agent_cost(profile, u))

    def test_strategy_cost_rejects_self(self, small_euclidean_game):
        game = small_euclidean_game
        profile = StrategyProfile.empty(5)
        d_rest = game.residual_distances(profile, 0)
        with pytest.raises(ValueError):
            strategy_cost_from_residual(d_rest, 0, game.host.weights[0], game.alpha, {0})


class TestExactBestResponse:
    @pytest.mark.parametrize("agent", [0, 2, 4])
    def test_matches_brute_force_euclidean(self, small_euclidean_game, agent):
        game = small_euclidean_game
        profile = StrategyProfile.from_sets(5, [[1], [2], [3], [], [0]])
        expected_set, expected_cost = brute_force_best_response(game, profile, agent)
        result = best_response_exact(game, profile, agent)
        assert result.cost == pytest.approx(expected_cost)
        # Tie-broken strategies may differ; the cost achieved must be identical.
        realized = game.agent_cost(profile.with_strategy(agent, result.strategy), agent)
        assert realized == pytest.approx(expected_cost)

    @pytest.mark.parametrize("agent", [0, 1, 3])
    def test_matches_brute_force_tree(self, small_tree_game, agent):
        game = small_tree_game
        profile = StrategyProfile.from_sets(5, [[], [0, 2], [], [4], []])
        expected_set, expected_cost = brute_force_best_response(game, profile, agent)
        result = best_response_exact(game, profile, agent)
        assert result.cost == pytest.approx(expected_cost)

    def test_improvement_non_negative(self, small_euclidean_game, rng):
        game = small_euclidean_game
        owns = np.triu(rng.random((5, 5)) < 0.5, k=1)
        profile = StrategyProfile(owns)
        for u in range(5):
            result = best_response_exact(game, profile, u)
            assert result.improvement >= -1e-9

    def test_disconnected_agent_buys_something(self):
        game = NetworkCreationGame(HostGraph.unit(4), alpha=1.0)
        profile = StrategyProfile.from_sets(4, [[], [2], [3], []])
        result = best_response_exact(game, profile, 0)
        assert result.strategy  # must buy at least one edge to connect
        assert np.isfinite(result.cost)

    def test_infinite_host_edges_excluded(self):
        host = HostGraph.one_infinity([(0, 1), (1, 2), (2, 3)], 4)
        game = NetworkCreationGame(host, alpha=1.0)
        profile = StrategyProfile.empty(4)
        result = best_response_exact(game, profile, 0)
        assert all(game.host.weight(0, v) < np.inf for v in result.strategy)

    def test_candidate_restriction(self, small_euclidean_game):
        game = small_euclidean_game
        profile = StrategyProfile.empty(5)
        result = best_response_exact(game, profile, 0, candidates=[1, 2])
        assert result.strategy <= {1, 2}

    def test_max_candidates_guard(self):
        game = NetworkCreationGame(HostGraph.unit(6), alpha=1.0)
        with pytest.raises(ValueError):
            best_response_exact(game, StrategyProfile.empty(6), 0, max_candidates=3)

    def test_empty_candidate_list(self, small_euclidean_game):
        game = small_euclidean_game
        profile = StrategyProfile.from_sets(5, [[], [0, 2, 3, 4], [], [], []])
        result = best_response_exact(game, profile, 0, candidates=[])
        assert result.strategy == frozenset()

    @pytest.mark.parametrize("bad", [[-1], [-5], [5], [1, 7]])
    def test_out_of_range_candidates_rejected(self, small_euclidean_game, bad):
        # [-1] used to wrap to node n-1 and [-n] to alias the agent itself.
        with pytest.raises(ValueError):
            best_response_exact(small_euclidean_game, StrategyProfile.empty(5), 0, candidates=bad)

    def test_duplicate_candidates_scanned_once(self, small_euclidean_game, monkeypatch):
        game = small_euclidean_game
        profile = StrategyProfile.from_sets(5, [[1], [2], [3], [], [0]])
        scored = []
        original = CandidateEvaluator.subset_costs

        def spy(self, start, bits):
            scored.append(1 << bits)
            return original(self, start, bits)

        monkeypatch.setattr(CandidateEvaluator, "subset_costs", spy)
        dup = best_response_exact(game, profile, 0, candidates=[3, 1, 3, 1, 0])
        assert sum(scored) == 4  # 2^2 subsets of {3, 1}, not 2^4
        assert dup == best_response_exact(game, profile, 0, candidates=[3, 1])
        # first-occurrence order fixes the subset indexing, hence tie-breaks
        evaluator = game.candidate_evaluator(profile, 0, candidates=[3, 1, 3, 1, 0])
        assert evaluator.candidates.tolist() == [3, 1]


class TestSingleMovesAndGreedy:
    def test_enumerate_single_moves_gains(self, small_euclidean_game):
        game = small_euclidean_game
        profile = StrategyProfile.star(5, center=0)
        moves = enumerate_single_moves(game, profile, 0)
        current_cost = game.agent_cost(profile, 0)
        for mv in moves:
            applied = mv.apply(profile, 0)
            assert game.agent_cost(applied, 0) == pytest.approx(current_cost - mv.gain)

    def test_best_single_move_none_at_equilibrium(self, small_tree_game):
        game = small_tree_game
        from repro.core.equilibria import tree_profile_from_host

        tree = tree_profile_from_host(game)
        for u in range(game.n):
            assert best_single_move(game, tree, u).kind == "none"

    def test_best_single_move_add_when_disconnected(self):
        game = NetworkCreationGame(HostGraph.unit(3), alpha=1.0)
        profile = StrategyProfile.from_sets(3, [[], [2], []])
        move = best_single_move(game, profile, 0)
        assert move.kind == "add"

    def test_greedy_never_worse_than_current(self, small_euclidean_game, rng):
        game = small_euclidean_game
        owns = np.triu(rng.random((5, 5)) < 0.5, k=1)
        profile = StrategyProfile(owns)
        for u in range(5):
            result = greedy_response(game, profile, u)
            assert result.cost <= game.agent_cost(profile, u) + 1e-9

    def test_greedy_upper_bounds_exact(self, small_euclidean_game, rng):
        game = small_euclidean_game
        owns = np.triu(rng.random((5, 5)) < 0.4, k=1)
        profile = StrategyProfile(owns)
        for u in range(5):
            exact = best_response_exact(game, profile, u)
            greedy = greedy_response(game, profile, u)
            assert greedy.cost >= exact.cost - 1e-9

    def test_single_move_dataclass_apply_none(self, small_euclidean_game):
        from repro.core.best_response import SingleMove

        profile = StrategyProfile.empty(5)
        assert SingleMove("none").apply(profile, 0) is profile


class TestBestResponseProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), alpha=st.floats(min_value=0.2, max_value=4.0))
    def test_exact_best_response_is_optimal(self, seed, alpha):
        """Property: the vectorized subset enumeration equals naive re-evaluation."""
        rng = np.random.default_rng(seed)
        host = HostGraph.from_points(rng.random((5, 2)))
        game = NetworkCreationGame(host, alpha)
        owns = np.triu(rng.random((5, 5)) < 0.5, k=1)
        profile = StrategyProfile(owns)
        agent = int(rng.integers(0, 5))
        _, expected_cost = brute_force_best_response(game, profile, agent)
        result = best_response_exact(game, profile, agent)
        assert result.cost == pytest.approx(expected_cost)


# ----------------------------------------------------------------------
# Subset-lattice scan vs. the masked-tensor formula it replaced
# ----------------------------------------------------------------------
_LATTICE_KINDS = ("metric-inf-price", "one-two", "unit", "tree", "disconnected", "delta")


def _lattice_instance(kind: str, m: int, seed: int) -> CandidateEvaluator:
    """An evaluator with exactly ``m`` explicit candidates on a ``kind`` host.

    ``metric-inf-price`` gives one candidate an infinite host weight,
    ``disconnected`` splits the residual into two components (inf entries),
    ``one-two``/``unit``/``tree`` are the tie-heavy paper regimes (integer
    weights and a dyadic alpha make many subset costs exactly equal), and
    ``delta`` serves the residual through a :class:`DeltaResidual` row-view.
    """
    rng = np.random.default_rng(seed)
    n = m + 1 + int(rng.integers(0, 4))
    if kind == "one-two":
        host = rng.choice([1.0, 2.0], size=(n, n))
    elif kind == "unit":
        host = np.ones((n, n))
    elif kind == "tree":
        edges = [(v, int(rng.integers(0, v)), float(rng.integers(1, 4))) for v in range(1, n)]
        host = HostGraph.from_tree(edges, n).weights.copy()
    else:
        host = rng.uniform(0.5, 5.0, size=(n, n))
    host = np.minimum(host, host.T)
    np.fill_diagonal(host, 0.0)
    network = np.where(rng.random((n, n)) < 0.3, host, np.inf)
    network = np.minimum(network, network.T)
    if kind == "disconnected":
        cut = n // 2
        network[:cut, cut:] = np.inf
        network[cut:, :cut] = np.inf
    np.fill_diagonal(network, 0.0)
    d_rest = floyd_warshall(network)
    u = int(rng.integers(n))
    weights = host[u].copy()
    candidates = [int(v) for v in rng.permutation([v for v in range(n) if v != u])[:m]]
    if kind == "metric-inf-price" and m:
        weights[candidates[int(rng.integers(m))]] = np.inf
    if kind == "delta":
        base = d_rest.copy()
        r = int(rng.integers(n))
        base[r, :] += 1.0
        base[:, r] = base[r, :]
        base[r, r] = 0.0
        d_rest = DeltaResidual(base, ResidualDelta([r], d_rest[[r]]))
    alpha = float(rng.choice([0.5, 1.0, 2.0]))
    ev = CandidateEvaluator(d_rest, u, weights, alpha, candidates)
    assert ev.num_candidates == m
    return ev


def _chunk_masks(start: int, bits: int, m: int) -> np.ndarray:
    return (((start + np.arange(1 << bits))[:, None] >> np.arange(m)) & 1).astype(bool)


def _masked_tensor_costs(ev: CandidateEvaluator, masks: np.ndarray) -> np.ndarray:
    """The pre-lattice ``(batch, m, n)`` masked-tensor formula, kept as the oracle."""
    selected = np.where(masks[:, :, None], ev.reach, np.inf)
    if ev.num_candidates:
        via = selected.min(axis=1)
    else:
        via = np.full((masks.shape[0], ev.base.shape[0]), np.inf)
    dist = np.minimum(ev.base, via)
    finite = np.isfinite(ev.prices)
    edge_costs = masks @ np.where(finite, ev.prices, 0.0)
    if not finite.all():
        edge_costs = np.where(masks[:, ~finite].any(axis=-1), np.inf, edge_costs)
    return edge_costs + dist.sum(axis=-1)


def _scan(ev: CandidateEvaluator) -> tuple[frozenset[int], float]:
    """``(strategy, cost)`` picked by ``_scan_candidate_subsets``."""
    result = br._scan_candidate_subsets(ev, ev.empty_cost, 22, "incremental")
    return result.strategy, result.cost


def _recorded_scan(ev: CandidateEvaluator, bits: int, monkeypatch) -> tuple:
    """``_scan_candidate_subsets`` under ``_BATCH_BITS = bits``, recording every chunk."""
    calls: list[tuple[int, int, np.ndarray]] = []
    original = CandidateEvaluator.subset_costs

    def spy(self, start, chunk_bits):
        costs = original(self, start, chunk_bits)
        calls.append((start, chunk_bits, costs))
        return costs

    with monkeypatch.context() as mp:
        mp.setattr(br, "_BATCH_BITS", bits)
        mp.setattr(CandidateEvaluator, "subset_costs", spy)
        result = _scan(ev)
    return result, calls


class TestSubsetLatticeScan:
    @pytest.mark.parametrize("m", range(16))
    def test_scan_costs_bitwise_equal_masked_tensor(self, m, monkeypatch):
        """Every chunk's cost vector is byte-equal to the masked-tensor formula,
        and the scan picks the same ``(strategy, cost)`` as the old loop."""
        kind = _LATTICE_KINDS[m % len(_LATTICE_KINDS)]
        ev = _lattice_instance(kind, m, seed=100 + m)
        full = min(m, 12)
        assert (
            ev.subset_costs(0, full).tobytes()
            == _masked_tensor_costs(ev, _chunk_masks(0, full, m)).tobytes()
        )
        for bits in (1, 2, 3, 12):
            result, calls = _recorded_scan(ev, bits, monkeypatch)
            chunk_bits = min(bits, m)
            starts = [start for start, _, _ in calls]
            assert starts == (list(range(0, 1 << m, 1 << chunk_bits)) if m else [])
            best_cost, best_mask = ev.empty_cost, np.zeros(m, dtype=bool)
            for start, used_bits, costs in calls:
                assert used_bits == chunk_bits
                masks = _chunk_masks(start, used_bits, m)
                expected = _masked_tensor_costs(ev, masks)
                assert costs.tobytes() == expected.tobytes(), (kind, m, bits, start)
                idx = int(np.argmin(expected))
                if expected[idx] < best_cost - 1e-15:
                    best_cost, best_mask = float(expected[idx]), masks[idx]
            oracle = frozenset(int(v) for v in ev.candidates[best_mask])
            assert result == (oracle, float(best_cost)), (kind, m, bits)

    @pytest.mark.parametrize("kind", _LATTICE_KINDS)
    def test_partition_invariance(self, kind, monkeypatch):
        """How the subsets are cut into chunks never changes the scan's answer."""
        ev = _lattice_instance(kind, 13, seed=7)
        results = set()
        for bits in range(1, 13):
            monkeypatch.setattr(br, "_BATCH_BITS", bits)
            results.add(_scan(ev))
        assert len(results) == 1, results

    def test_ties_keep_the_first_optimal_subset(self, monkeypatch):
        """Unit host, agent 0 cut off from a clique of the others, alpha = 1:
        buying k edges costs k + k + 2 (13 - k) = 26 for every k >= 1, so all
        2^13 - 1 nonempty subsets tie and every chunking must keep index 1."""
        n = 14
        network = np.ones((n, n))
        network[0, :] = network[:, 0] = np.inf
        np.fill_diagonal(network, 0.0)
        ev = CandidateEvaluator(floyd_warshall(network), 0, HostGraph.unit(n).weights[0], 1.0)
        costs = ev.subset_costs(0, 13)
        assert np.isinf(costs[0]) and np.all(costs[1:] == 26.0)
        for bits in range(1, 13):
            monkeypatch.setattr(br, "_BATCH_BITS", bits)
            assert _scan(ev) == (frozenset({1}), 26.0)
