"""Figure 5 / Theorem 14: the T–GNCG is not a potential game.

The paper exhibits a best-response cycle on a ten-agent weighted tree.  The
exact cycle is published only graphically, so the benchmark exercises the
machine-checkable counterpart: an improving-response cycle search on the
reconstructed Fig. 5 host (and, as a fallback, on the Theorem 15 star host).
A found cycle is verified to be a genuine sequence of strictly improving
single-agent moves returning to its start — a certificate that the FIP fails.
"""

from __future__ import annotations

import pytest

from repro.constructions.br_cycles import (
    fig5_tree_cycle_host,
    search_improving_response_cycle,
)
from repro.core.dynamics import run_dynamics, verify_best_response_cycle
from repro.core.session import SimulationConfig
from repro.core.strategy import StrategyProfile


def _search(alpha: float, max_states: int):
    game = fig5_tree_cycle_host(alpha)
    return game, search_improving_response_cycle(
        game, response="single", max_states=max_states
    )


@pytest.mark.benchmark(group="fig5-tree-cycle")
def test_fig5_cycle_search(benchmark, paper_report):
    game, result = benchmark.pedantic(_search, args=(1.0, 400), rounds=1, iterations=1)
    rows = [
        ("host size (agents)", 10, game.n),
        ("cycle found within budget", "exists (Thm. 14)", result.found),
        ("states explored", "-", result.states_explored),
    ]
    if result.found:
        check = verify_best_response_cycle(game, list(result.cycle), require_best_response=False)
        rows.append(("cycle is strictly improving", True, check.violates_fip))
        assert check.violates_fip
    paper_report("Fig. 5 / Thm. 14 — improving-response cycle search on the tree host", rows)


@pytest.mark.benchmark(group="fig5-tree-cycle")
def test_fig5_best_response_dynamics_behaviour(benchmark, paper_report):
    """Round-robin best-response dynamics on the Fig. 5 host: report whether they
    converge or revisit a state (either outcome is consistent with Thm. 14,
    which only asserts the *existence* of a bad activation order)."""
    game = fig5_tree_cycle_host(1.0)

    def run():
        return run_dynamics(
            game,
            StrategyProfile.star(10, center=0),
            SimulationConfig(response="single", max_rounds=25),
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    paper_report(
        "Fig. 5 — round-robin dynamics on the reconstructed tree host",
        [
            ("converged", "-", result.converged),
            ("cycle detected", "-", result.cycle_detected),
            ("improving moves made", "-", result.moves),
        ],
    )
    assert result.converged or result.cycle_detected or result.moves > 0
