"""Stacked single-move scoring against one scorer per task, bit for bit.

:func:`~repro.core.best_response.score_tasks` scores two or more
``"single"`` tasks in stacks: tasks group by their current-strategy size
``k`` and add-pool size ``m``, and each group runs through one
:class:`~repro.core.shortest_paths.SingleMoveScorer` with a leading agent
axis (in consecutive stacks when the group outgrows the float budget).  The
battery checks that every result equals the task's own
:func:`~repro.core.best_response.score_response` in every field — agent,
strategy, method and the bits of ``cost`` and ``current_cost`` — and the
frozen reference scorer of ``tests/test_single_move_scorer.py``, which
shares no code with the kernel.

Batches mix shapes (``k`` = 0, ``m`` = 0, and ``k`` >= 9, where numpy's
pairwise summation unrolls), residuals that are one shared dense matrix,
per-task dense matrices, repaired
:class:`~repro.core.residual_delta.DeltaResidual` views over the shared
matrix and :class:`~repro.core.shortest_paths.PinnedResidual` views over raw
Dijkstra rows, infinite host weights (rows with an empty add pool, current
targets that make the current cost ``inf``), ``alpha = 0``, tie-heavy unit
and 1-2 hosts, and shrunken float budgets that split a group into several
stacks and chunk the swap grid.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.best_response import score_response, score_tasks
from repro.core.shortest_paths import (
    PinnedResidual,
    SingleMoveScorer,
    _as_graph,
    _dijkstra,
    apsp_scipy,
)

from test_shortest_paths import _battery_host, _battery_network
from test_single_move_scorer import _reference_response, _repair_view

RESIDUALS = ("shared", "dense", "delta", "pinned")


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def _fields(result) -> tuple:
    return (
        result.agent,
        result.strategy,
        result.method,
        _bits(result.cost),
        _bits(result.current_cost),
    )


@contextlib.contextmanager
def _float_budget(bits: int | None):
    """Run with ``SingleMoveScorer._SWAP_CHUNK`` set to ``2**bits`` floats."""
    if bits is None:
        yield
        return
    saved = SingleMoveScorer._SWAP_CHUNK
    SingleMoveScorer._SWAP_CHUNK = 1 << bits
    try:
        yield
    finally:
        SingleMoveScorer._SWAP_CHUNK = saved


def _batch(kind: str, n: int, seed: int, size: int, ks: tuple[int, ...], kinds: tuple[str, ...]):
    """``(tasks, weights, alpha)``: ``size`` tasks over one random network.

    Agents come from a small pool, so shapes repeat and groups form; each
    task's residual is the shared network matrix or the agent's own
    residual, dense or as a view.  Some host rows are wholly ``inf`` (an
    empty add pool, and ``inf`` current cost when the agent holds targets).
    """
    rng = np.random.default_rng(seed)
    host = _battery_host(kind, n, rng)
    network = _battery_network(host, rng)
    shared = apsp_scipy(network)
    weights = host.copy()
    for u in range(n):
        share = rng.choice([0.0, 0.3, 0.8, 1.0])
        weights[u, rng.random(n) < share] = np.inf
        weights[u, u] = 0.0
    alpha = float(rng.choice([0.0, 0.3, 1.0, 2.5]))
    pool = rng.choice(n, size=min(n, 5), replace=False)
    strategies: dict[int, list[int]] = {}
    own: dict[int, tuple] = {}
    tasks = []
    for _ in range(size):
        u = int(rng.choice(pool))
        if u not in strategies or rng.random() < 0.3:
            k = min(int(rng.choice(ks)), n - 1)
            others = np.delete(np.arange(n), u)
            strategies[u] = rng.choice(others, size=k, replace=False).tolist()
        if u not in own:
            cut = network.copy()
            cut[u, :] = cut[:, u] = np.inf
            cut[u, u] = 0.0
            raw = _dijkstra(_as_graph(cut))
            dense = np.minimum(raw, raw.T)
            own[u] = (
                dense,
                _repair_view(shared, dense, u),
                PinnedResidual(raw),
            )
        residual = str(rng.choice(kinds))
        d_rest = shared if residual == "shared" else own[u][RESIDUALS.index(residual) - 1]
        tasks.append((u, d_rest, strategies[u]))
    return tasks, weights, alpha


def _check(kind, n, seed, size, ks, kinds, budget_bits):
    tasks, weights, alpha = _batch(kind, n, seed, size, ks, kinds)
    with _float_budget(budget_bits):
        stacked = score_tasks(tasks, weights, alpha, "single")
        single = [
            score_response(d, u, weights[u], alpha, tuple(s), "single") for u, d, s in tasks
        ]
    assert len(stacked) == len(tasks)
    for got, want, (u, d, s) in zip(stacked, single, tasks):
        assert _fields(got) == _fields(want)
        dense = d.dense() if hasattr(d, "dense") else d
        strategy, cost, start = _reference_response(dense, u, weights[u], alpha, s, "single")
        assert got.strategy == strategy
        assert (_bits(got.cost), _bits(got.current_cost)) == (_bits(cost), _bits(start))


@st.composite
def _cases(draw):
    kind = draw(st.sampled_from(("unit", "one_two", "zero", "tree", "metric", "general")))
    n = draw(st.integers(4, 22))
    seed = draw(st.integers(0, 2**32 - 1))
    size = draw(st.integers(2, 24))
    ks = draw(st.sampled_from(((0, 1, 2), (1, 2, 3), (0, 9, 12), (1, 3, 9))))
    kinds = draw(st.sampled_from((RESIDUALS, ("shared",), ("shared", "delta"), ("dense", "pinned"))))
    budget_bits = draw(st.sampled_from((None, None, 7, 9, 11)))
    return kind, n, seed, size, ks, kinds, budget_bits


_TIER1 = settings(derandomize=True, database=None, deadline=None, max_examples=60)
_SLOW = settings(derandomize=True, database=None, deadline=None, max_examples=400)


@_TIER1
@given(_cases())
def test_stacked_scoring_equals_one_scorer_per_task(case):
    _check(*case)


@pytest.mark.slow
@_SLOW
@given(_cases())
def test_stacked_scoring_equals_one_scorer_per_task_full_budget(case):
    _check(*case)


@pytest.mark.parametrize("kind", ["unit", "one_two"])
def test_a_group_spans_several_stacks(kind):
    """Forty tasks of one shape on a tie-heavy host, with a budget that
    holds three agents per stack, score as forty single scorers do."""
    n, k = 16, 2
    rng = np.random.default_rng(7)
    host = _battery_host(kind, n, rng)
    shared = apsp_scipy(_battery_network(host, rng))
    current = [1, 2]
    tasks = [(0, shared, current)] * 40
    m = int(np.isfinite(host[0]).sum()) - 1 - k
    per_agent = n * (3 + 2 * k + 2 * m + k * m)
    with _float_budget(int(np.log2(3 * per_agent)) + 1):
        assert SingleMoveScorer.stack_size(k, m, n) >= 3
        assert SingleMoveScorer.stack_size(k, m, n) < len(tasks)
        stacked = score_tasks(tasks, host, 1.0, "single")
    single = score_response(shared, 0, host[0], 1.0, current, "single")
    assert all(_fields(r) == _fields(single) for r in stacked)


def test_stacks_are_exact_shapes_in_task_order():
    """Every stack holds one (k, m) shape, unpadded, and covers each task once."""
    tasks, weights, alpha = _batch("metric", 14, 3, 30, (0, 1, 2, 9), RESIDUALS)
    seen = []
    for stack, scorer in SingleMoveScorer.stacks(tasks, weights, alpha):
        g = len(stack)
        assert scorer.targets.shape[0] == g and scorer.current_cost.shape == (g,)
        for row, i in zip(scorer.current.tolist(), stack):
            assert row == sorted(tasks[i][2])
        m = scorer.targets.shape[1] - scorer.k
        for row, i in zip(scorer.targets[:, scorer.k :].tolist(), stack):
            u = tasks[i][0]
            pool = np.isfinite(weights[u])
            pool[u] = False
            pool[tasks[i][2]] = False
            assert row == np.flatnonzero(pool).tolist() and len(row) == m
        seen += stack
    assert sorted(seen) == list(range(len(tasks)))


def test_bad_tasks_raise():
    d = apsp_scipy(np.where(np.eye(4, dtype=bool), 0.0, 1.0))
    w = np.ones((4, 4))
    with pytest.raises(ValueError, match="itself"):
        score_tasks([(0, d, [0]), (1, d, [2])], w, 1.0, "single")
    with pytest.raises(ValueError, match="out of range"):
        score_tasks([(0, d, [7]), (1, d, [2])], w, 1.0, "single")
    with pytest.raises(ValueError, match="does not fit"):
        score_tasks([(0, d[:3, :3], [1]), (1, d, [2])], w, 1.0, "single")
