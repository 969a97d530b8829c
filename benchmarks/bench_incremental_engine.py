"""Incremental distance engine vs the exact from-scratch oracle.

The incremental best-response engine (:mod:`repro.core.incremental`) replaces
the up-to-three full all-pairs shortest-path recomputations per agent
activation with cached residual matrices, pure ``O(k n)`` candidate
relaxations and ``O(n^2)`` post-move distance updates.  This benchmark
quantifies the speedup on random metric hosts with ``n in {50, 100, 200}``
agents for the two hot paths:

* a *best-response sweep* — every agent computes its exact best response
  over its ``k`` nearest candidate targets against a spanning-star profile
  (the canonical activation pattern of PoA sweeps), and
* a *single-move dynamics run* — three round-robin rounds of best single
  moves through :func:`repro.core.run_dynamics`, against the test suite's
  from-scratch reference loop (``tests/reference_dynamics.py``), which
  additionally pays a full shortest-path recomputation for every
  social-cost sample.

Both sides provably play identical responses (see
``tests/test_incremental_engine.py`` and
``tests/test_reference_dynamics.py``); the sweep asserts result equality
next to the timing, and a >= 3x speedup at ``n = 100``; the dynamics run
asserts equal moves and final profiles, and a speedup above 1.

Run directly (``python benchmarks/bench_incremental_engine.py``) for a
plain-text report, or through pytest-benchmark like the other benchmarks.
Either way the script puts ``tests/`` on ``sys.path`` itself to import the
reference loop.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    IncrementalEngine,
    NetworkCreationGame,
    SimulationConfig,
    StrategyProfile,
    best_response_exact,
    best_response_incremental,
    run_dynamics,
)
from repro.metrics.generators import random_metric_host

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from reference_dynamics import reference_dynamics  # noqa: E402

SIZES = (50, 100, 200)
NUM_CANDIDATES = 8


def _instance(n: int) -> tuple[NetworkCreationGame, StrategyProfile, dict[int, list[int]]]:
    host = random_metric_host(n, rng=np.random.default_rng(1))
    game = NetworkCreationGame(host, 1.0)
    profile = StrategyProfile.star(n, center=0)
    w = host.weights.copy()
    np.fill_diagonal(w, np.inf)
    candidates = {u: [int(v) for v in np.argsort(w[u])[:NUM_CANDIDATES]] for u in range(n)}
    return game, profile, candidates


def _same_cost(a: float, b: float, tol: float = 1e-9) -> bool:
    if np.isinf(a) or np.isinf(b):
        return np.isinf(a) and np.isinf(b)
    return abs(a - b) <= tol * max(1.0, abs(a))


def best_response_sweep(n: int) -> dict[str, float]:
    """Time one best response per agent under both engines; verify equality."""
    game, profile, candidates = _instance(n)

    t0 = time.perf_counter()
    exact = [
        best_response_exact(game, profile, u, candidates=candidates[u]) for u in range(n)
    ]
    t_exact = time.perf_counter() - t0

    engine = IncrementalEngine(game, profile)
    t0 = time.perf_counter()
    incremental = [
        best_response_incremental(
            game, profile, u, d_rest=engine.residual(u), candidates=candidates[u]
        )
        for u in range(n)
    ]
    t_incremental = time.perf_counter() - t0

    agree = all(
        a.strategy == b.strategy and _same_cost(a.cost, b.cost)
        for a, b in zip(exact, incremental)
    )
    return {
        "exact_s": t_exact,
        "incremental_s": t_incremental,
        "speedup": t_exact / t_incremental,
        "agree": agree,
    }


def dynamics_run(n: int, reference: bool) -> tuple[float, object]:
    """Time three rounds of single-move round-robin dynamics from a star,
    through the from-scratch reference loop or through ``run_dynamics``."""
    game, profile, _ = _instance(n)
    t0 = time.perf_counter()
    if reference:
        result = reference_dynamics(game, profile, response="single", max_rounds=3)
    else:
        result = run_dynamics(
            game, profile, SimulationConfig(response="single", max_rounds=3)
        )
    return time.perf_counter() - t0, result


@pytest.mark.benchmark(group="incremental-engine")
@pytest.mark.parametrize("n", SIZES)
def test_best_response_sweep_speedup(benchmark, n, paper_report):
    stats = benchmark.pedantic(best_response_sweep, args=(n,), rounds=1, iterations=1)
    paper_report(
        f"Incremental engine — best-response sweep (n={n}, k={NUM_CANDIDATES})",
        [
            ("exact engine [s]", "-", stats["exact_s"]),
            ("incremental engine [s]", "-", stats["incremental_s"]),
            ("speedup", ">= 3 at n=100", stats["speedup"]),
            ("engines agree", "always", stats["agree"]),
        ],
    )
    assert stats["agree"]
    if n == 100:
        assert stats["speedup"] >= 3.0


@pytest.mark.benchmark(group="incremental-engine")
@pytest.mark.parametrize("n", (50, 100))
def test_single_move_dynamics_speedup(benchmark, n, paper_report):
    def run_both():
        t_ref, r_ref = dynamics_run(n, reference=True)
        t_incr, r_incr = dynamics_run(n, reference=False)
        return t_ref, t_incr, r_ref, r_incr

    t_ref, t_incr, r_ref, r_incr = benchmark.pedantic(run_both, rounds=1, iterations=1)
    paper_report(
        f"Incremental engine — single-move dynamics, 3 rounds (n={n})",
        [
            ("from-scratch reference loop [s]", "-", t_ref),
            ("incremental engine [s]", "-", t_incr),
            ("speedup", "> 1", t_ref / t_incr),
            ("identical trajectory", "always", r_ref.final_profile == r_incr.final_profile),
        ],
    )
    assert r_ref.moves == r_incr.moves
    assert r_ref.final_profile == r_incr.final_profile
    assert t_ref / t_incr > 1.0


def main() -> int:
    print(f"random metric hosts, star start, k={NUM_CANDIDATES} candidate targets per agent")
    ok = True
    for n in SIZES:
        stats = best_response_sweep(n)
        print(
            f"  n={n:>3}  best-response sweep: exact {stats['exact_s']:.3f}s  "
            f"incremental {stats['incremental_s']:.3f}s  "
            f"speedup {stats['speedup']:.2f}x  agree={stats['agree']}"
        )
        ok &= stats["agree"]
        if n == 100:
            ok &= stats["speedup"] >= 3.0
    for n in (50, 100):
        t_ref, r_ref = dynamics_run(n, reference=True)
        t_incr, r_incr = dynamics_run(n, reference=False)
        same = r_ref.moves == r_incr.moves and r_ref.final_profile == r_incr.final_profile
        print(
            f"  n={n:>3}  single-move dynamics (3 rounds, {r_incr.moves} moves): "
            f"reference {t_ref:.3f}s  incremental {t_incr:.3f}s  "
            f"speedup {t_ref / t_incr:.2f}x  identical={same}"
        )
        ok &= same and t_ref / t_incr > 1.0
    print("OK" if ok else "FAILED: engines disagree or speedup below target")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
