"""From-scratch reference loop for response dynamics.

:func:`reference_dynamics` replays what
:func:`repro.core.dynamics.run_dynamics` decides, with nothing cached: every
activation recomputes the agent's response from the current profile
(:func:`~repro.core.best_response.best_response_exact`,
:func:`~repro.core.best_response.greedy_response`, or the best single move
applied), and every social cost is recomputed from scratch.  It keeps the
loop's activation orders (round robin, a fresh ``rng.permutation`` per
round, an explicit sequence, max gain), its ``improvement > tol`` rule and
its cycle detection on canonical profile keys, so a correct engine, schedule
or resume makes exactly the same moves.

``tests/test_reference_dynamics.py`` checks every session run against it;
``benchmarks/bench_incremental_engine.py`` times it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import NetworkCreationGame, StrategyProfile
from repro.core.best_response import (
    BestResponseResult,
    best_response_exact,
    best_single_move,
    greedy_response,
)


@dataclass
class ReferenceRun:
    """What the reference loop decided: the fields a session run must match."""

    converged: bool
    cycle_detected: bool
    cycle_length: int | None
    steps: int
    moves: int
    final_profile: StrategyProfile
    applied: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)
    social_costs: list[float] = field(default_factory=list)


def reference_response(
    game: NetworkCreationGame, profile: StrategyProfile, u: int, response: str,
    max_candidates: int = 22,
) -> BestResponseResult:
    """Agent ``u``'s response to ``profile``, computed from scratch."""
    if response == "best":
        return best_response_exact(game, profile, u, max_candidates=max_candidates)
    if response == "greedy":
        return greedy_response(game, profile, u)
    if response != "single":
        raise ValueError(f"unknown response kind {response!r}")
    current = game.agent_cost(profile, u)
    # ``apply`` returns ``profile`` itself when no single move improves.
    moved = best_single_move(game, profile, u).apply(profile, u)
    cost = current if moved is profile else game.agent_cost(moved, u)
    return BestResponseResult(u, moved.strategy(u), cost, current, "single")


def reference_dynamics(
    game: NetworkCreationGame,
    initial: StrategyProfile,
    *,
    response: str = "best",
    order="round_robin",
    max_rounds: int = 100,
    max_candidates: int = 22,
    rng: np.random.Generator | int = 0,
    tol: float = 1e-9,
    detect_cycles: bool = True,
) -> ReferenceRun:
    """Run response dynamics from ``initial`` with no caches at all."""
    n = game.n
    rng = np.random.default_rng(rng) if isinstance(rng, int) else rng
    run = ReferenceRun(False, False, None, 0, 0, initial, [], [game.social_cost(initial)])
    seen = {initial.canonical_key(): 0} if detect_cycles else {}

    def respond(u: int) -> BestResponseResult:
        return reference_response(game, run.final_profile, u, response, max_candidates)

    def play(u: int, strategy) -> bool:
        """Apply ``u``'s move; ``True`` when it closes a cycle."""
        run.final_profile = run.final_profile.with_strategy(u, strategy)
        run.applied.append((u, tuple(sorted(int(v) for v in strategy))))
        run.moves += 1
        run.social_costs.append(game.social_cost(run.final_profile))
        key = run.final_profile.canonical_key()
        if detect_cycles and key in seen:
            run.cycle_detected, run.cycle_length = True, run.moves - seen[key]
            return True
        seen[key] = run.moves
        return False

    for _ in range(max_rounds):
        improved = False
        if order == "max_gain":
            for _ in range(n):
                run.steps += 1
                best = None
                for u in range(n):
                    result = respond(u)
                    if result.improvement > tol and (
                        best is None or result.improvement > best.improvement
                    ):
                        best = result
                if best is None:
                    break
                improved = True
                if play(best.agent, best.strategy):
                    break
        else:
            if not isinstance(order, str):
                agents = [int(a) for a in order]
            elif order == "random":
                agents = list(rng.permutation(n))
            elif order == "round_robin":
                agents = list(range(n))
            else:
                raise ValueError(f"unknown order {order!r}")
            for u in agents:
                run.steps += 1
                result = respond(int(u))
                if result.improvement > tol:
                    improved = True
                    if play(int(u), result.strategy):
                        break
        if run.cycle_detected:
            break
        if not improved:
            run.converged = True
            break
    return run
