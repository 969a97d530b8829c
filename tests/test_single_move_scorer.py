"""The single-move scorer against its stacked-partition reference, bit for bit.

:class:`~repro.core.shortest_paths.SingleMoveScorer` scores every add,
delete and swap of one agent from one gather of the rows it reads, a running
two-smallest selection over the bought-edge rows and one ``(k, k - 1)``
gather of the leave-one-out edge sums.  The reference below is the scorer it
replaced, frozen: it stacks the rows, takes ``m1``/``m2`` with
``np.partition`` and sums each leave-one-out set with ``np.delete``.  The
battery checks, bit for bit, ``current_cost``, the add, delete and swap cost
arrays, the flat scan of ``move_costs`` and the ``single`` and ``greedy``
responses, on tie-heavy hosts (unit, 1-2, zero weights: ``m1 == m2`` often),
tree and metric hosts, residuals that a spanning-tree network splits into
parts (``inf`` rows), current strategies with infinite host weights, ``k``
from 0 past numpy's unrolled pairwise-summation block, and repaired
:class:`~repro.core.residual_delta.DeltaResidual` views next to dense ones.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.best_response import (
    _gains_vec,
    _greedy_given,
    _single_given,
    score_response,
)
from repro.core.residual_delta import DeltaResidual, ResidualDelta
from repro.core.shortest_paths import SingleMoveScorer, _leave_one_out, apsp_scipy

from test_shortest_paths import _battery_host, _battery_network

MOVES = ("add", "delete", "swap")


def _gain(current_cost: float, new_cost: float) -> float:
    """Cost decrease of a move, treating an inf -> inf transition as no gain."""
    if np.isinf(current_cost) and np.isinf(new_cost):
        return 0.0
    if np.isinf(current_cost):
        return float("inf")
    return current_cost - new_cost


# ----------------------------------------------------------------------
# Frozen reference: the stacked-partition scorer and its scan
# ----------------------------------------------------------------------
class _StackedScorer:
    """The scorer before the running selection, kept as the oracle."""

    _SWAP_CHUNK = 1 << 21

    def __init__(self, d, source, w, alpha, current):
        d = np.asarray(d, dtype=float)
        w = np.asarray(w, dtype=float)
        n = d.shape[0]
        cur = sorted({int(v) for v in current})
        self.d_rest, self.source, self.alpha, self._w, self.current = d, source, alpha, w, cur
        base = d[source]
        k = len(cur)
        if k:
            reach_cur = w[cur][:, None] + d[cur]
            stacked = np.vstack([base[None, :], reach_cur])
            part = np.partition(stacked, 1, axis=0)
            m1, m2 = part[0], part[1]
            w_cur = w[cur]
            cur_sum = float(w_cur.sum()) if np.all(np.isfinite(w_cur)) else float("inf")
            sums_wo = np.empty(k)
            for i in range(k):
                rest = np.delete(w_cur, i)
                sums_wo[i] = float(rest.sum()) if np.all(np.isfinite(rest)) else float("inf")
        else:
            reach_cur = np.zeros((0, n))
            m1 = base
            m2 = np.full(n, np.inf)
            cur_sum = 0.0
            sums_wo = np.zeros(0)
        self._reach_cur, self._m1, self._m2 = reach_cur, m1, m2
        self._cur_edge_sum, self._edge_sum_wo = cur_sum, sums_wo
        self.current_cost = self._cost_of(cur_sum, float(m1.sum()))

    def _cost_of(self, edge_sum, dist_sum):
        edge_sum = np.asarray(edge_sum, dtype=float)
        finite = np.isfinite(edge_sum)
        cost = np.where(
            finite, self.alpha * np.where(finite, edge_sum, 0.0) + dist_sum, np.inf
        )
        return float(cost) if cost.ndim == 0 else cost

    def _delete_rows(self):
        return np.where(
            self._reach_cur == self._m1[None, :], self._m2[None, :], self._m1[None, :]
        )

    def default_add_targets(self):
        mask = np.isfinite(self._w)
        mask[self.source] = False
        mask[self.current] = False
        return np.flatnonzero(mask).astype(int)

    def add_costs(self, targets):
        t = np.asarray(targets, dtype=int)
        if t.size == 0:
            return np.zeros(0)
        reach_t = self._w[t][:, None] + self.d_rest[t]
        dist = np.minimum(self._m1[None, :], reach_t).sum(axis=1)
        return self._cost_of(self._cur_edge_sum + self._w[t], dist)

    def delete_costs(self):
        if not self.current:
            return np.zeros(0)
        return self._cost_of(self._edge_sum_wo, self._delete_rows().sum(axis=1))

    def swap_costs(self, targets):
        t = np.asarray(targets, dtype=int)
        k = len(self.current)
        if k == 0 or t.size == 0:
            return np.zeros((k, t.size))
        n = self.d_rest.shape[0]
        del_rows = self._delete_rows()
        reach_t = self._w[t][:, None] + self.d_rest[t]
        dist = np.empty((k, t.size))
        chunk = max(1, self._SWAP_CHUNK // max(1, k * n))
        for start in range(0, t.size, chunk):
            stop = min(start + chunk, t.size)
            block = np.minimum(del_rows[:, None, :], reach_t[None, start:stop, :])
            dist[:, start:stop] = block.sum(axis=2)
        edge = self._edge_sum_wo[:, None] + self._w[t][None, :]
        return self._cost_of(edge, dist)

    def scan(self, moves: Sequence[str]) -> tuple[np.ndarray, Callable[[int], set[int]]]:
        """Flat costs in scan order, and a decoder to the moved strategy."""
        adds = self.default_add_targets()
        cur, m = self.current, int(adds.size)
        parts, offsets, pos = [], [], 0
        if "add" in moves:
            offsets.append(("add", pos))
            parts.append(self.add_costs(adds))
            pos += m
        if "delete" in moves:
            offsets.append(("delete", pos))
            parts.append(self.delete_costs())
            pos += len(cur)
        if "swap" in moves:
            offsets.append(("swap", pos))
            parts.append(self.swap_costs(adds).ravel())
        costs = np.concatenate(parts) if parts else np.zeros(0)

        def moved(idx: int) -> set[int]:
            for kind, start in reversed(offsets):
                if idx >= start:
                    local = idx - start
                    if kind == "add":
                        return set(cur) | {int(adds[local])}
                    if kind == "delete":
                        return set(cur) - {cur[local]}
                    i, j = divmod(local, m)
                    return (set(cur) - {cur[i]}) | {int(adds[j])}
            raise IndexError(idx)

        return costs, moved


def _reference_response(d, u, w, alpha, current, response, moves=MOVES, tol=1e-9):
    """``(strategy, cost, current_cost)`` of the old single / greedy response."""
    scorer = _StackedScorer(d, u, w, alpha, current)
    start_cost = scorer.current_cost
    for _ in range(10_000):
        costs, moved = scorer.scan(moves)
        if not costs.size:
            break
        idx = int(np.argmax(_gains_vec(scorer.current_cost, costs)))
        if _gain(scorer.current_cost, float(costs[idx])) <= tol:
            break
        if response == "single":
            return frozenset(moved(idx)), float(costs[idx]), start_cost
        scorer = _StackedScorer(d, u, w, alpha, moved(idx))
    return frozenset(scorer.current), scorer.current_cost, start_cost


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------
def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64)).view(np.int64)


def _same(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


def _case(kind: str, n: int, k: int, seed: int, sparse: float):
    """``(d_rest, base, u, w, alpha, current)`` for one agent of a random network.

    ``d_rest`` is the residual of a network over the host (a spanning tree
    plus extras, so removing ``u``'s edges can split it: ``inf`` rows);
    ``base`` is the full network's distances, the matrix a repair would
    patch.  A ``sparse`` share of the host row goes to ``inf``, and the
    current strategy is drawn from every other vertex, so it can hold
    infinite-weight targets like a randomly seeded profile.
    """
    rng = np.random.default_rng(seed)
    host = _battery_host(kind, n, rng)
    network = _battery_network(host, rng)
    u = int(rng.integers(n))
    residual = network.copy()
    residual[u, :] = residual[:, u] = np.inf
    residual[u, u] = 0.0
    d_rest = apsp_scipy(residual)
    base = apsp_scipy(network)
    w = host[u].copy()
    w[rng.random(n) < sparse] = np.inf
    w[u] = 0.0
    others = np.delete(np.arange(n), u)
    current = rng.choice(others, size=k, replace=False).tolist()
    alpha = float(rng.choice([0.0, 0.3, 1.0, 2.5, 7.0]))
    return d_rest, base, u, w, alpha, current


@st.composite
def _cases(draw):
    kind = draw(st.sampled_from(("unit", "one_two", "zero", "tree", "metric", "general")))
    k = draw(st.sampled_from((0, 1, 2, 3, 9, 17, 20)))
    n = draw(st.integers(max(2, k + 1), k + 12))
    seed = draw(st.integers(0, 2**32 - 1))
    sparse = draw(st.sampled_from((0.0, 0.5, 0.9)))
    moves = draw(st.sampled_from((MOVES, ("add",), ("delete",), ("swap",), ("add", "swap"))))
    return kind, n, k, seed, sparse, moves


def _repair_view(base: np.ndarray, d_rest: np.ndarray, u: int) -> DeltaResidual:
    """``d_rest`` (bitwise symmetric) as a repair of ``base`` would hold it: the
    rows of ``u`` and of every pair that changed off ``u``'s column."""
    changed = base != d_rest
    changed[:, u] = False  # column u is row u's transpose, served from the delta
    rows = np.union1d([u], np.flatnonzero(changed.any(axis=1)))
    return DeltaResidual(base, ResidualDelta(rows, d_rest[rows]))


def _check(kind, n, k, seed, sparse, moves):
    d_rest, base, u, w, alpha, current = _case(kind, n, k, seed, sparse)
    ref = _StackedScorer(d_rest, u, w, alpha, current)
    view = _repair_view(base, d_rest, u)
    for d in (d_rest, view):
        scorer = SingleMoveScorer.for_agent(d, u, w, alpha, current)
        assert scorer.current[0].tolist() == ref.current
        assert _same(scorer.current_cost, [ref.current_cost])
        adds = ref.default_add_targets()
        assert np.array_equal(scorer.targets[0, scorer.k :], adds)
        assert _same(scorer.move_costs(("add",))[0], ref.add_costs(adds))
        assert _same(scorer.move_costs(("swap",))[0], ref.swap_costs(adds).ravel())
        assert _same(scorer.move_costs(("delete",))[0], ref.delete_costs())
        assert _same(scorer.move_costs(moves)[0], ref.scan(moves)[0])

        single = _single_given(d, u, w, alpha, current, moves=moves)
        strategy, cost, start = _reference_response(d_rest, u, w, alpha, current, "single", moves)
        assert single.strategy == strategy
        assert _same(single.cost, cost) and _same(single.current_cost, start)
        greedy = _greedy_given(d, u, w, alpha, current, moves=moves)
        strategy, cost, start = _reference_response(d_rest, u, w, alpha, current, "greedy", moves)
        assert greedy.strategy == strategy
        assert _same(greedy.cost, cost) and _same(greedy.current_cost, start)


_TIER1 = settings(derandomize=True, database=None, deadline=None, max_examples=60)
_SLOW = settings(derandomize=True, database=None, deadline=None, max_examples=400)


@_TIER1
@given(_cases())
def test_scorer_equals_the_stacked_reference(case):
    _check(*case)


@pytest.mark.slow
@_SLOW
@given(_cases())
def test_scorer_equals_the_stacked_reference_full_budget(case):
    _check(*case)


@pytest.mark.parametrize("kind", ["unit", "metric", "general"])
def test_past_the_pairwise_summation_block(kind):
    """``k - 1 > 128`` sends each leave-one-out sum through numpy's
    recursive pairwise branch; it must still match ``np.delete`` + sum."""
    _check(kind, 150, 140, 11, 0.0, MOVES)


@pytest.mark.parametrize("response", ["single", "greedy"])
def test_score_response_matches_the_reference(response):
    """The array entry point the engine and the pool call, on a sparse host."""
    for seed in range(20):
        d_rest, base, u, w, alpha, current = _case("metric", 24, 2, seed, 0.8)
        got = score_response(d_rest, u, w, alpha, current, response)
        strategy, cost, start = _reference_response(d_rest, u, w, alpha, current, response)
        assert got.strategy == strategy and got.method == response
        assert _same(got.cost, cost) and _same(got.current_cost, start)


def test_leave_one_out_sums_equal_the_delete_loop():
    rng = np.random.default_rng(3)
    for k in range(0, 301):
        w = rng.random(k) * rng.choice([1e-3, 1.0, 1e6], size=k)
        got = w[_leave_one_out(k)].sum(axis=1)
        want = np.array([np.delete(w, i).sum() for i in range(k)])
        assert _same(got, want), k
    assert not _leave_one_out(5).flags.writeable


def test_infinite_current_weights_give_infinite_sums():
    n = 6
    d = apsp_scipy(np.where(np.eye(n, dtype=bool), 0.0, 1.0))
    w = np.array([0.0, 1.0, np.inf, 2.0, np.inf, 3.0])
    for current in ([2], [1, 2], [2, 4], [1, 2, 3], [1, 3, 5]):
        scorer = SingleMoveScorer.for_agent(d, 0, w, 1.0, current)
        ref = _StackedScorer(d, 0, w, 1.0, current)
        assert _same(scorer.current_cost, [ref.current_cost])
        assert _same(scorer.move_costs(("delete",))[0], ref.delete_costs())
        assert _same(scorer.move_costs()[0], ref.scan(MOVES)[0])
