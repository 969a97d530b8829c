"""Best-response computation for single agents.

Computing an agent's best response in the GNCG is NP-hard for every variant
studied in the paper (Cor. 1, Thm. 13, Thm. 16), so this module provides the
two regimes the paper itself uses:

* :func:`best_response_exact` — exact optimisation by *vectorized subset
  enumeration*.  The key structural fact (also exploited by the reduction to
  facility location in Thm. 3) is that once the rest of the network is fixed,
  agent ``u``'s distance to ``x`` after buying the edge set ``S`` is
  ``min(d_rest(u, x), min_{v in S} w(u, v) + d_rest(v, x))``.  Hence the
  distance row of a subset ``S`` with top candidate ``t`` is
  ``min(row(S - {t}), row via t)``, and the rows of all ``2^m`` subsets of
  the ``m`` candidates fill a subset lattice with one ``O(n)`` minimum each:
  ``O(2^m n)`` work in chunks of ``2^B`` subsets that fix the high bits.
  This is exponential in ``n`` but practical for the gadget-sized instances
  of the paper.

* :func:`best_single_move` / :func:`greedy_response` — the single-edge moves
  (add / delete / swap) underlying Greedy Equilibria [Lenzner'12, used in
  Thm. 2/3], plus an iterated local search that repeats the best single move
  until none improves.

Both return :class:`BestResponseResult` records carrying the strategy, its
cost and the improvement over the current strategy.

Incremental evaluation
----------------------
All searches share the same structure: one residual all-pairs computation
per activation, then pure ``O(k n)`` relaxations per candidate strategy via
:class:`~repro.core.shortest_paths.CandidateEvaluator` — never a
shortest-path rerun per candidate.  The *exactness argument*: every
purchasable edge is incident to the deviating agent ``u``, so a shortest
path of the deviated network uses at most one bought edge before leaving
``u`` and never returns to ``u`` (a revisit could be shortcut by dropping
the path prefix).  Hence ``d(u, x) = min(d_rest(u, x), min_{v in S}
w(u, v) + d_rest(v, x))`` is exact, and with it every candidate cost.

:func:`best_response_exact` recomputes the residual (and the agent's
current cost) from scratch on every call — it is the trusted slow oracle.
:func:`best_response_incremental` produces the same result but accepts a
cached residual matrix (``d_rest``) and derives the current cost from it,
performing **zero** additional shortest-path computations when the caller
(e.g. :class:`repro.core.incremental.IncrementalEngine`) provides the
cache.  The two are cross-validated against each other by the property
tests in ``tests/test_incremental_engine.py``.

:meth:`~repro.core.incremental.IncrementalEngine.respond_many` scores a
whole set of agents against one shared profile snapshot through such an
engine.  In process, such a batch of single-move responses is scored by
:func:`score_tasks` in stacks: the agents that share a strategy shape go
through one :class:`~repro.core.shortest_paths.SingleMoveScorer` pass,
with results bit-identical to scoring each agent alone.  This
score-everyone-against-one-state pattern is what ``order="max_gain"``
activation performs every step and what the batched activation schedule
(``schedule="batched"`` in :func:`repro.core.dynamics.run_dynamics`)
amortizes across rounds by caching and re-validating the scored proposals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

from .game import NetworkCreationGame
from .residual_delta import DeltaResidual
from .shortest_paths import CandidateEvaluator, SingleMoveScorer
from .strategy import StrategyProfile

__all__ = [
    "BestResponseResult",
    "SingleMove",
    "score_response",
    "score_tasks",
    "best_response_exact",
    "best_response_incremental",
    "best_single_move",
    "greedy_response",
]

_TOL = 1e-9
_MOVES = ("add", "delete", "swap")
_MAX_EXACT_CANDIDATES = 22
# Enumerate subsets in batches of 2**_BATCH_BITS.  The scan keeps the first
# subset index attaining the minimum regardless of how batches are cut, so
# this bounds peak memory (2**bits * n floats per batch) without affecting
# results; 12 keeps a chunk's distance rows at ~6.5 MB even at n=200.
_BATCH_BITS = 12


@dataclass(frozen=True)
class BestResponseResult:
    """Outcome of a best-response computation for one agent."""

    agent: int
    strategy: frozenset[int]
    cost: float
    current_cost: float
    method: str

    @property
    def improvement(self) -> float:
        """Cost decrease relative to the agent's current strategy (>= 0)."""
        if not np.isfinite(self.current_cost):
            return float("inf") if np.isfinite(self.cost) else 0.0
        return self.current_cost - self.cost

    @property
    def is_improving(self) -> bool:
        return self.improvement > _TOL


@dataclass(frozen=True)
class SingleMove:
    """A single-edge strategy change: add, delete or swap one owned edge."""

    kind: Literal["add", "delete", "swap", "none"]
    target: int | None = None
    old_target: int | None = None
    gain: float = 0.0

    def apply(self, profile: StrategyProfile, agent: int) -> StrategyProfile:
        if self.kind == "none":
            return profile
        if self.kind == "add":
            return profile.add_edge(agent, self.target)
        if self.kind == "delete":
            return profile.delete_edge(agent, self.target)
        if self.kind == "swap":
            return profile.swap_edge(agent, self.old_target, self.target)
        raise ValueError(f"unknown move kind {self.kind!r}")


# ----------------------------------------------------------------------
# Exact best response (subset-lattice enumeration)
# ----------------------------------------------------------------------
def _scan_candidate_subsets(
    evaluator: CandidateEvaluator,
    current_cost: float,
    max_candidates: int,
    method: str,
) -> BestResponseResult:
    """Best subset of the evaluator's candidates by a chunked lattice scan.

    Seeds with the empty strategy so the search is well-defined even when
    every subset leaves the agent disconnected (cost infinity).  Ties keep
    the first subset index attaining the minimum.
    """
    m = evaluator.num_candidates
    if m > max_candidates:
        raise ValueError(
            f"exact best response would enumerate 2^{m} subsets; "
            f"raise max_candidates explicitly if this is intended"
        )
    best_cost = evaluator.empty_cost
    best_index = 0
    bits = min(_BATCH_BITS, m)
    # m == 0 leaves only the empty strategy: no chunk to scan.
    for start in range(0, (1 << m) if m else 0, 1 << bits):
        costs = evaluator.subset_costs(start, bits)
        idx = int(np.argmin(costs))
        if costs[idx] < best_cost - 1e-15:
            best_cost = float(costs[idx])
            best_index = start + idx
    chosen = ((best_index >> np.arange(m)) & 1).astype(bool)
    return BestResponseResult(
        agent=int(evaluator.source),
        strategy=frozenset(int(v) for v in evaluator.candidates[chosen]),
        cost=float(best_cost),
        current_cost=float(current_cost),
        method=method,
    )


def best_response_exact(
    game: NetworkCreationGame,
    profile: StrategyProfile,
    u: int,
    *,
    candidates: Sequence[int] | None = None,
    max_candidates: int = _MAX_EXACT_CANDIDATES,
) -> BestResponseResult:
    """Exact best response of agent ``u`` by enumerating all candidate subsets.

    This is the reference oracle: it recomputes the residual network and the
    agent's current cost from scratch on every call.  Use
    :func:`best_response_incremental` (same result, cached residuals) on hot
    paths.

    Parameters
    ----------
    candidates:
        Nodes agent ``u`` is allowed to buy edges towards.  Defaults to every
        other node with a finite host weight (buying an infinite-weight edge
        is never useful).
    max_candidates:
        Safety bound on the enumeration size (``2**m`` subsets are scanned).
    """
    evaluator = game.candidate_evaluator(profile, u, candidates=candidates)
    return _scan_candidate_subsets(
        evaluator, game.agent_cost(profile, u), max_candidates, "exact"
    )


def best_response_incremental(
    game: NetworkCreationGame,
    profile: StrategyProfile,
    u: int,
    *,
    d_rest: np.ndarray | None = None,
    candidates: Sequence[int] | None = None,
    max_candidates: int = _MAX_EXACT_CANDIDATES,
) -> BestResponseResult:
    """Best response of agent ``u`` via the incremental distance engine.

    Produces the same optimum as :func:`best_response_exact` (the two are
    cross-validated by randomized property tests) but performs at most one
    shortest-path computation — and none at all when the caller supplies a
    cached residual matrix ``d_rest``: the agent's current cost is derived
    from the residual instead of a fresh all-pairs run over the created
    network, and every candidate subset is scored by pure relaxation.
    """
    evaluator = game.candidate_evaluator(profile, u, d_rest=d_rest, candidates=candidates)
    current_cost = evaluator.strategy_cost(profile.strategy(u))
    return _scan_candidate_subsets(evaluator, current_cost, max_candidates, "incremental")


# ----------------------------------------------------------------------
# Pure scoring kernels
# ----------------------------------------------------------------------
# These functions are the single implementation of response scoring: they
# depend only on plain arrays (a residual matrix, a host-weight row) and
# scalars, never on game or profile objects.  The incremental engine calls
# them with its cached residuals, and the parallel evaluator
# (:mod:`repro.core.parallel`) calls them inside worker processes against
# shared-memory views of the same matrices — which is what makes serial and
# multiprocess evaluation bit-identical.


def _gains_vec(current_cost, costs: np.ndarray) -> np.ndarray:
    """Cost decrease of each move, an ``inf -> inf`` transition counting as
    no gain (never NaN); ``current_cost`` broadcasts against ``costs``."""
    costs = np.asarray(costs, dtype=float)
    current = np.asarray(current_cost, dtype=float)
    if np.inf not in current.ravel().tolist():
        return current - costs
    stuck = np.isinf(current)
    return np.where(
        stuck, np.where(np.isinf(costs), 0.0, np.inf), np.where(stuck, 0.0, current) - costs
    )


def _best_moves(
    scorer: SingleMoveScorer, moves: tuple[str, ...], tol: float
) -> tuple[list[bool], np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """Each stacked agent's first highest-gain single move.

    Returns, per agent, whether the move improves by more than ``tol``, its
    cost and gain, and the targets it adds and drops (``-1``: none).  The
    flat order is the historical scan order — adds by ascending target,
    deletes by ascending current target, swaps by ``(old asc, new asc)``
    (:meth:`~repro.core.shortest_paths.SingleMoveScorer.move_costs`) — so a
    first-maximum ``argmax`` breaks ties exactly like the old Python-loop
    implementation.
    """
    costs = scorer.move_costs(moves)
    g = costs.shape[0]
    if not costs.shape[1]:
        return [False] * g, scorer.current_cost, np.zeros(g), [(-1, -1)] * g
    gains = _gains_vec(scorer.current_cost[:, None], costs)
    best = gains.argmax(axis=1)
    agents = np.arange(g)
    gain = gains[agents, best]
    moved = scorer.decode(enumerate(best.tolist()), moves)
    return (gain > tol).tolist(), costs[agents, best], gain, moved


def _moved(current: Iterable[int], added: int, dropped: int) -> frozenset[int]:
    """``current`` after a move adding ``added`` and dropping ``dropped`` (``-1``: none)."""
    return frozenset(v for v in (*current, added) if v not in (dropped, -1))


def _single_results(
    scorer: SingleMoveScorer,
    agents: Sequence[int],
    moves: tuple[str, ...] = _MOVES,
    tol: float = _TOL,
) -> list[BestResponseResult]:
    """The best single add/delete/swap of each stacked agent as a response."""
    better, cost, _, moved = _best_moves(scorer, moves, tol)
    current_cost = scorer.current_cost
    return [
        BestResponseResult(
            agent=u,
            strategy=_moved(cur, *move) if b else frozenset(cur),
            cost=c if b else c0,
            current_cost=c0,
            method="single",
        )
        for u, cur, b, c, c0, move in zip(
            agents,
            scorer.current.tolist(),
            better,
            cost.tolist(),
            current_cost.tolist(),
            moved,
        )
    ]


def _single_given(
    d_rest: np.ndarray,
    u: int,
    edge_weights: np.ndarray,
    alpha: float,
    current,
    *,
    moves: tuple[str, ...] = _MOVES,
    tol: float = _TOL,
) -> BestResponseResult:
    """The best single add/delete/swap of ``u`` as a response, from raw arrays."""
    scorer = SingleMoveScorer.for_agent(d_rest, u, edge_weights, alpha, current)
    return _single_results(scorer, [u], moves, tol)[0]


def _greedy_given(
    d_rest: np.ndarray,
    u: int,
    edge_weights: np.ndarray,
    alpha: float,
    current,
    *,
    moves: tuple[str, ...] = _MOVES,
    max_iterations: int = 10_000,
    tol: float = _TOL,
) -> BestResponseResult:
    """Iterated best single move of ``u`` (greedy local optimum), from raw arrays."""
    scorer = SingleMoveScorer.for_agent(d_rest, u, edge_weights, alpha, current)
    start_cost = scorer.current_cost[0]
    for _ in range(max_iterations):
        better, _, _, moved = _best_moves(scorer, moves, tol)
        if not better[0]:
            break
        current = _moved(scorer.current[0].tolist(), *moved[0])
        scorer = SingleMoveScorer.for_agent(d_rest, u, edge_weights, alpha, current)
    return BestResponseResult(
        agent=int(u),
        strategy=frozenset(scorer.current[0].tolist()),
        cost=float(scorer.current_cost[0]),
        current_cost=float(start_cost),
        method="greedy",
    )


def score_response(
    d_rest: np.ndarray | DeltaResidual,
    u: int,
    edge_weights: np.ndarray,
    alpha: float,
    current: Sequence[int],
    response: str,
    *,
    max_candidates: int = _MAX_EXACT_CANDIDATES,
) -> BestResponseResult:
    """Score one agent's response against a fixed residual matrix.

    The array-only entry point behind :meth:`repro.core.incremental.
    IncrementalEngine.respond`, :func:`score_tasks` and the parallel
    evaluator's worker processes: ``d_rest`` and ``edge_weights`` may be
    (shared-memory) views — or a delta-encoded
    :class:`~repro.core.residual_delta.DeltaResidual` row-view, which every
    response path reads only row by row —
    ``current`` is the agent's current strategy, ``response`` is ``"best"``,
    ``"greedy"`` or ``"single"``.  No shortest-path computation happens
    here — every candidate is scored by pure relaxation.
    """
    if response == "best":
        evaluator = CandidateEvaluator(d_rest, u, edge_weights, alpha)
        current_cost = evaluator.strategy_cost(current)
        return _scan_candidate_subsets(evaluator, current_cost, max_candidates, "incremental")
    if response == "greedy":
        return _greedy_given(d_rest, u, edge_weights, alpha, current)
    if response == "single":
        return _single_given(d_rest, u, edge_weights, alpha, current)
    raise ValueError(f"unknown response kind {response!r}")


def score_tasks(
    tasks: Iterable[tuple[int, np.ndarray | DeltaResidual, Iterable[int]]],
    weights: np.ndarray,
    alpha: float,
    response: str,
    *,
    max_candidates: int = _MAX_EXACT_CANDIDATES,
) -> list[BestResponseResult]:
    """:func:`score_response` over ``(agent, d_rest, strategy)`` tasks, in order.

    The one in-process scoring loop: the engine's serial batches and the
    evaluator's in-process batches both run it, so every path scores
    exactly the same way.  ``weights`` is the full host-weight matrix; row
    ``agent`` is passed to the kernel.  Two or more ``"single"`` tasks are
    scored in stacks, one per strategy shape
    (:meth:`~repro.core.shortest_paths.SingleMoveScorer.stacks`), instead of
    one :func:`score_response` each: an agent's values do not depend on its
    stack, so each result equals the task's own :func:`score_response` bit
    for bit.
    """
    tasks = list(tasks)
    if response == "single" and len(tasks) > 1:
        agents = [int(u) for u, _, _ in tasks]
        results: list = [None] * len(tasks)
        for stack, scorer in SingleMoveScorer.stacks(
            [(u, d_rest, strategy) for u, (_, d_rest, strategy) in zip(agents, tasks)],
            weights,
            alpha,
        ):
            for i, result in zip(stack, _single_results(scorer, [agents[i] for i in stack])):
                results[i] = result
        return results
    return [
        score_response(
            d_rest,
            int(u),
            weights[int(u)],
            alpha,
            tuple(int(v) for v in strategy),
            response,
            max_candidates=max_candidates,
        )
        for u, d_rest, strategy in tasks
    ]


# ----------------------------------------------------------------------
# Greedy (single-move) responses
# ----------------------------------------------------------------------
def _single_move(added: int, dropped: int, gain: float) -> SingleMove:
    """The :class:`SingleMove` adding ``added`` and dropping ``dropped`` (``-1``: none)."""
    if dropped < 0:
        return SingleMove("add", target=added, gain=gain)
    if added < 0:
        return SingleMove("delete", target=dropped, gain=gain)
    return SingleMove("swap", target=added, old_target=dropped, gain=gain)


def _agent_scorer(
    game: NetworkCreationGame, profile: StrategyProfile, u: int, d_rest: np.ndarray | None
) -> SingleMoveScorer:
    if d_rest is None:
        d_rest = game.residual_distances(profile, u)
    return SingleMoveScorer.for_agent(
        d_rest, u, game.host.weights[u], game.alpha, profile.strategy(u)
    )


def enumerate_single_moves(
    game: NetworkCreationGame,
    profile: StrategyProfile,
    u: int,
    *,
    moves: tuple[str, ...] = _MOVES,
    d_rest: np.ndarray | None = None,
) -> list[SingleMove]:
    """All single-edge moves of agent ``u`` with their cost gains.

    Gains are computed against a fixed residual network, so the whole
    enumeration needs at most one all-pairs shortest-path computation (none
    when a cached ``d_rest`` is supplied), and all move costs come from one
    vectorized scan (:class:`~repro.core.shortest_paths.SingleMoveScorer`
    with a stack of one) instead of a Python loop per move.  Moves are
    listed adds first (ascending target), then deletes (ascending), then
    swaps (old ascending, new ascending).
    """
    scorer = _agent_scorer(game, profile, u, d_rest)
    costs = scorer.move_costs(moves)
    gains = _gains_vec(scorer.current_cost[:, None], costs)[0].tolist()
    moved = scorer.decode(((0, j) for j in range(costs.shape[1])), moves)
    return [_single_move(a, d, g) for (a, d), g in zip(moved, gains)]


def best_single_move(
    game: NetworkCreationGame,
    profile: StrategyProfile,
    u: int,
    *,
    moves: tuple[str, ...] = _MOVES,
    tol: float = _TOL,
    d_rest: np.ndarray | None = None,
) -> SingleMove:
    """The highest-gain single-edge move of agent ``u`` (or a no-op if none improves).

    Ties go to the first move in :func:`enumerate_single_moves` order.
    """
    better, _, gain, moved = _best_moves(_agent_scorer(game, profile, u, d_rest), moves, tol)
    if not better[0]:
        return SingleMove("none", gain=0.0)
    return _single_move(*moved[0], float(gain[0]))


def greedy_response(
    game: NetworkCreationGame,
    profile: StrategyProfile,
    u: int,
    *,
    moves: tuple[str, ...] = ("add", "delete", "swap"),
    max_iterations: int = 10_000,
    d_rest: np.ndarray | None = None,
) -> BestResponseResult:
    """Iterate the best single-edge move of ``u`` until a local optimum is reached.

    The result is a strategy from which no single add/delete/swap improves —
    exactly the per-agent condition of a Greedy Equilibrium.  A cached
    residual matrix can be injected via ``d_rest`` (the whole local search
    then runs without any shortest-path computation); every iteration scans
    all moves through one :class:`~repro.core.shortest_paths.SingleMoveScorer`,
    whose setup is one row gather and a running two-smallest selection.
    """
    if d_rest is None:
        d_rest = game.residual_distances(profile, u)
    return _greedy_given(
        d_rest,
        u,
        game.host.weights[u],
        game.alpha,
        profile.strategy(u),
        moves=moves,
        max_iterations=max_iterations,
    )

