"""Session-scoped worker-pool reuse vs. per-run pool creation.

Before the session layer, every :func:`repro.core.dynamics.run_dynamics`
call with ``workers > 1`` created — and tore down in its ``finally`` — its
own :class:`~repro.core.parallel.ParallelEvaluator`, so an
equilibrium-sampling sweep over one instance paid worker-pool start-up once
*per dynamics run*; at small ``n`` that start-up dominates the actual
scoring (the ROADMAP-flagged pool-churn issue).  A
:class:`~repro.core.session.GameSession` owns a single evaluator and
injects it into every run's engine, so the same sweep pays start-up once
per *instance*.

This benchmark replays one small-``n`` equilibrium-sampling sweep — a set
of structurally diverse starting profiles converged with batched
best-response dynamics at ``workers=2`` — two ways:

* **per-run pools** — one one-shot ``run_dynamics`` call per start, i.e.
  one pool creation + teardown per run (the pre-session behaviour, still
  what a caller gets when not using a session);
* **shared session** — the same runs through one ``GameSession``.

Both paths must produce bit-identical trajectories and
:class:`~repro.core.incremental.EngineStats` per start (asserted always),
the session must create exactly **one** evaluator and start its pool at
most once (asserted always via ``SessionStats``/``pools_started``
instrumentation), and the session path must beat per-run pool creation
(speedup asserted only with >= 2 CPUs available — on a single-CPU
container the timings are still reported).  Both paths send every batch
to the pool (``repro.core.parallel.pool_always``): the serial-first
evaluator would otherwise keep this small instance's batches in process
and start no pool at all.

Run directly (``python benchmarks/bench_session_reuse.py``) for a
plain-text report plus ``BENCH_session_reuse.json``, or through
pytest-benchmark like the other benchmarks.  Setting
``BENCH_SKIP_SPEEDUP_ASSERT=1`` reports the speedup without asserting it
(for smoke jobs on noisy shared runners); the identity and
single-evaluator checks are always enforced.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import (
    GameSession,
    NetworkCreationGame,
    SimulationConfig,
    StrategyProfile,
    default_workers,
    run_dynamics,
)
from repro.core.host_graph import HostGraph
from repro.core.parallel import pool_always

N = 28
ALPHA = 1.8
MESH_DEGREE = 8  # keeps exact best responses within the subset-scan budget
WORKERS = 2
MAX_ROUNDS = 40
SEED = 9
SPEEDUP_TARGET = 1.1

CONFIG = SimulationConfig(
    schedule="batched", workers=WORKERS, max_rounds=MAX_ROUNDS, seed=SEED
)


def mesh_host(n: int, seed: int = SEED) -> HostGraph:
    """A degree-bounded geometric mesh (kNN graph, symmetrized)."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2)) * np.sqrt(n)
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff**2).sum(-1))
    order = np.argsort(d, axis=1)
    allowed = np.zeros((n, n), dtype=bool)
    for u in range(n):
        allowed[u, order[u, 1 : MESH_DEGREE + 1]] = True
    allowed |= allowed.T
    w = np.where(allowed, d, np.inf)
    np.fill_diagonal(w, 0.0)
    return HostGraph(w)


def sweep_instance() -> tuple[NetworkCreationGame, list[StrategyProfile]]:
    """One small instance plus the diverse starts of a sampling sweep."""
    rng = np.random.default_rng(SEED)
    game = NetworkCreationGame(mesh_host(N), ALPHA)
    finite = np.isfinite(game.host.weights) & ~np.eye(N, dtype=bool)
    starts: list[StrategyProfile] = [StrategyProfile.empty(N)]
    for _ in range(9):
        owns = np.triu(rng.random((N, N)) < rng.uniform(0.1, 0.5), k=1) & finite
        starts.append(StrategyProfile(owns, copy=False, validate=False))
    return game, starts


def run_per_run_pools(game, starts):
    """The pre-session sweep: every run builds and tears down its own pool."""
    t0 = time.perf_counter()
    results = [run_dynamics(game, start, CONFIG) for start in starts]
    return time.perf_counter() - t0, results


def run_shared_session(game, starts):
    """The same sweep through one session: one evaluator for every run."""
    t0 = time.perf_counter()
    with GameSession(game, CONFIG) as session:
        results = [session.run(start) for start in starts]
        stats = session.stats()
    return time.perf_counter() - t0, results, stats


def compare_paths(game, starts) -> dict:
    # The serial-first evaluator would keep this small instance's batches
    # in process and never start a pool: force the pool so both paths pay
    # for the pool start-up this benchmark compares.
    with pool_always():
        per_run_s, per_run_results = run_per_run_pools(game, starts)
        session_s, session_results, stats = run_shared_session(game, starts)
    identical = all(
        a.converged == b.converged
        and a.moves == b.moves
        and a.steps == b.steps
        and a.final_profile == b.final_profile
        and a.social_costs == b.social_costs  # exact float equality
        and a.engine_stats == b.engine_stats
        for a, b in zip(per_run_results, session_results)
    )
    return {
        "per_run_s": per_run_s,
        "session_s": session_s,
        "speedup": per_run_s / session_s if session_s > 0 else float("nan"),
        "identical": identical,
        "runs": len(starts),
        "converged": sum(r.converged for r in session_results),
        "evaluators_created": stats.evaluators_created,
        "pools_started": stats.evaluator_pools_started,
    }


def _report_rows(stats, cpus):
    return [
        ("runs in sweep", "-", stats["runs"]),
        ("per-run pools [s]", "-", stats["per_run_s"]),
        ("shared session [s]", "-", stats["session_s"]),
        ("speedup (session)", f">= {SPEEDUP_TARGET} with >= 2 CPUs", stats["speedup"]),
        ("evaluators created (session)", 1, stats["evaluators_created"]),
        ("pools started (session)", "<= 1", stats["pools_started"]),
        ("byte-identical runs", "always", stats["identical"]),
        ("available CPUs", "-", cpus),
    ]


def _speedup_asserted(cpus: int) -> bool:
    """Timing is asserted only with >= 2 CPUs and outside smoke jobs."""
    return cpus >= 2 and os.environ.get("BENCH_SKIP_SPEEDUP_ASSERT", "") != "1"


def _check(stats, cpus) -> None:
    assert stats["converged"] == stats["runs"], "sweep runs did not all converge"
    assert stats["identical"], "session path diverged from per-run path"
    assert stats["evaluators_created"] == 1
    assert stats["pools_started"] <= 1
    if _speedup_asserted(cpus):
        assert stats["speedup"] >= SPEEDUP_TARGET, (
            f"session reuse speedup {stats['speedup']:.2f}x below "
            f"{SPEEDUP_TARGET}x with {cpus} CPUs"
        )


@pytest.mark.benchmark(group="session-reuse")
def test_session_pool_reuse_beats_per_run_pools(benchmark, paper_report):
    game, starts = sweep_instance()
    stats = benchmark.pedantic(
        lambda: compare_paths(game, starts), rounds=1, iterations=1
    )
    cpus = default_workers()
    paper_report(
        f"Session-scoped pool reuse — sampling sweep (n={N})",
        _report_rows(stats, cpus),
        n=N,
        seed=SEED,
        alpha=ALPHA,
        workers=WORKERS,
        cpus=cpus,
        per_run_s=stats["per_run_s"],
        session_s=stats["session_s"],
        speedup=stats["speedup"],
    )
    _check(stats, cpus)
    if not _speedup_asserted(cpus):
        pytest.skip(
            f"speedup assertion skipped ({cpus} CPUs available, "
            f"BENCH_SKIP_SPEEDUP_ASSERT={os.environ.get('BENCH_SKIP_SPEEDUP_ASSERT', '')!r}); "
            "identity and single-evaluator checks passed"
        )


def main() -> int:
    from conftest import _jsonable, write_bench_json

    cpus = default_workers()
    game, starts = sweep_instance()
    stats = compare_paths(game, starts)
    print(
        f"geometric mesh host (degree {MESH_DEGREE}) n={N}, alpha={ALPHA}, batched schedule, "
        f"workers={WORKERS}, {stats['runs']} runs per sweep, {cpus} CPUs"
    )
    print(
        f"  per-run pools {stats['per_run_s']:6.2f}s   shared session "
        f"{stats['session_s']:6.2f}s   speedup {stats['speedup']:.2f}x   "
        f"evaluators={stats['evaluators_created']}  "
        f"identical={stats['identical']}"
    )
    entries = [
        {
            "title": f"Session-scoped pool reuse — sampling sweep (n={N})",
            "rows": [
                {"label": lbl, "paper": _jsonable(paper), "measured": _jsonable(measured)}
                for lbl, paper, measured in _report_rows(stats, cpus)
            ],
            "meta": _jsonable(
                {
                    "n": N,
                    "seed": SEED,
                    "alpha": ALPHA,
                    "workers": WORKERS,
                    "cpus": cpus,
                    "per_run_s": stats["per_run_s"],
                    "session_s": stats["session_s"],
                    "speedup": stats["speedup"],
                }
            ),
        }
    ]
    path = write_bench_json("bench_session_reuse", entries)
    print(f"wrote {path}")
    try:
        _check(stats, cpus)
    except AssertionError as exc:
        print(f"FAILED: {exc}")
        return 1
    if not _speedup_asserted(cpus):
        print(
            f"(speedup target unasserted: {cpus} CPUs available, "
            "or BENCH_SKIP_SPEEDUP_ASSERT set; identity and "
            "single-evaluator checks enforced)"
        )
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
