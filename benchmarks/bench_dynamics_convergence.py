"""Game dynamics: convergence behaviour of best-response dynamics per variant.

The paper shows no GNCG variant has the finite improvement property, yet its
positive results (constructive equilibria) suggest natural dynamics often
stabilise.  This benchmark measures convergence rates and move counts of
round-robin best-response dynamics across host classes — the empirical
counterpart of the paper's dynamics discussion.
"""

from __future__ import annotations

import pytest

from repro.analysis import dynamics_convergence_experiment
from repro.core import SimulationConfig

VARIANTS = ("one_two", "tree", "euclidean", "metric", "general")


@pytest.mark.benchmark(group="dynamics-convergence")
@pytest.mark.parametrize("variant", VARIANTS)
def test_convergence_per_variant(benchmark, variant, paper_report):
    summary = benchmark.pedantic(
        dynamics_convergence_experiment,
        args=(variant, 5, 1.0),
        kwargs={
            "config": SimulationConfig(max_rounds=30, seed=0),
            "instances": 2,
            "runs_per_instance": 2,
        },
        rounds=1,
        iterations=1,
    )
    paper_report(
        f"Dynamics — best-response convergence on {variant} hosts (n=5, alpha=1)",
        [
            ("convergence rate", "high (empirical)", summary.convergence_rate),
            ("mean moves to converge", "-", summary.mean_moves_to_converge),
            ("cycling runs", "possible (no FIP)", summary.cycling_runs),
        ],
    )
    assert summary.runs == 4
    assert summary.converged_runs + summary.cycling_runs <= summary.runs + summary.cycling_runs
    assert summary.converged_runs >= 1
