"""Multiprocess batched-proposal evaluation vs. serial batched dynamics.

The parallel evaluator (``workers=k`` in
:func:`repro.core.dynamics.run_dynamics`) fans the batched schedule's round
prefill — the scoring of every cache-missing agent against one shared
distance snapshot — out to ``k`` persistent worker processes over
shared-memory matrices (:mod:`repro.core.parallel`).  This benchmark
quantifies the effect on two workloads over a degree-bounded geometric
mesh host (every agent has ~9-16 finite-weight neighbours, so one exact
best response enumerates up to tens of thousands of candidate subsets —
substantial per-agent work with zero coupling between agents):

* **equilibrium certification** — the headline workload.  The game is
  first converged with exact best responses (untimed); the timed runs
  replay batched dynamics from the converged profile with a cold proposal
  cache.  The single round scores all ``n`` agents against one snapshot,
  no move invalidates anything, the speculation window doubles to
  full-round batches, and virtually all work is the independent candidate
  scans the worker pool parallelizes.  This is exactly the
  "missed proposals within a batched round are independent given the
  shared snapshot" shape from the large-neighborhood-search literature.

* **scattered ownership outage** — the heaviest edge-owners lose their
  strategies (each wipe keeps the network connected) and the timed runs
  re-converge.  Real moves interleave with re-scoring here, so the
  speculation window oscillates and a larger serial fraction (residual
  repairs, move application) remains; the speedup is reported but only
  the certification number is asserted.

Because residual computation stays in the main process and workers execute
the same pure scoring kernel, the runs must be **byte-identical**: same
moves, same social-cost trajectory (exact float equality), same final
profile, same engine stats.  That is asserted for every size, workload
and worker count, and against a two-worker run that sends every batch to
the pool.  The evaluator is serial-first (it sends a batch to the pool
only when the pool saves more scoring than it costs), so each case also
reports how many batches the pool ran.  The headline speedup assertion —
>= 1.8x for ``workers=4`` over ``workers=1`` certification at ``n=200``
— additionally requires >= 4 available CPUs (on smaller machines the
identity checks still run and the speedup is reported unasserted).  It
predates the faster scoring kernel and the dispatch rule, and now fails
on every host with >= 4 CPUs: scoring is about a fifth of the ``n=200``
certification run (0.31 of 1.42 s on a 2-CPU x86-64 container), which
bounds any 4-worker speedup near 1.2x, and the rule keeps every batch of
the four cases in process at 4 and 8 usable CPUs alike (each agent has
its own residual matrix and only ~2^10 subsets to score, too little to
pay for the matrix's slot).

A third part, the **break-even sweep**, measures the two constants of
the dispatch rule (``repro.core.parallel``).  It times synthetic batches
— exact best responses on mesh hosts at ``n in {64, 100, 200}``, single
moves on the ``n = 200`` mesh and complete host and on the localized
tree of ``bench_large_n.py`` at ``n = 1000`` — in process and on a fresh
two-worker pool whose workers sat idle first (as between the pool
batches of a dynamics run).  It fits the pool's per-batch and
per-matrix costs to the best-response batches, in units of in-process
scoring work, and reports the fit next to the committed constants and
the best pool speedup of any single-move batch (the rule never sends
those to the pool).  Pool results must equal in-process results bit for
bit (always asserted).  With >= 2 CPUs, the rule's picks summed over the
sweep must be no slower than always scoring in process and no slower
than always using the pool; its wrong picks among batches whose two
timings differ by more than ``SWEEP_CLEAR_MARGIN`` are reported.

``BENCH_SKIP_SPEEDUP_ASSERT=1`` reports every timing without asserting
it (for smoke jobs on noisy shared runners); identity checks always run.
Run directly (``python benchmarks/bench_parallel_dynamics.py``) for a
plain-text report plus ``BENCH_parallel_dynamics.json``, or through
pytest-benchmark like the other benchmarks.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import deque

import numpy as np
import pytest

from repro.core import (
    GameSession,
    IncrementalEngine,
    NetworkCreationGame,
    ParallelEvaluator,
    SimulationConfig,
    StrategyProfile,
    default_workers,
    run_dynamics,
)
from repro.core import parallel
from repro.core.best_response import score_tasks
from repro.core.host_graph import HostGraph

SIZES = (100, 200)
WORKER_COUNTS = (1, 2, 4)
ALPHA = 3.0
MESH_DEGREE = 9
OUTAGE_COUNT = 8  # heaviest owners wiped (connectivity permitting)
SEED = 5
SPEEDUP_TARGET = 1.8

SWEEP_REPEATS = 3  # each timing is the median of this many
SWEEP_WORKERS = 2
SWEEP_CLEAR_MARGIN = 1.25  # a batch is "clear" when one path wins by this
SWEEP_IDLE_S = 0.05  # workers idle this long before each timed pool batch


def _available_cpus() -> int:
    """CPUs available to this process — the evaluator's own pool sizing."""
    return default_workers()


def _timing_asserted() -> bool:
    """Timings are asserted unless a smoke job opts out."""
    return os.environ.get("BENCH_SKIP_SPEEDUP_ASSERT", "") != "1"


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
    degrees = np.isfinite(w).sum(axis=1) - 1
    assert degrees.max() <= 20, "mesh degree too high for exact best responses"
    return HostGraph(w)


def spanning_tree_profile(host: HostGraph) -> StrategyProfile:
    """A BFS spanning tree over the finite host edges, owned by the parents."""
    n = host.n
    finite = np.isfinite(host.weights) & ~np.eye(n, dtype=bool)
    owns = np.zeros((n, n), dtype=bool)
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in np.nonzero(finite[u])[0]:
            if int(v) not in seen:
                seen.add(int(v))
                owns[u, v] = True
                queue.append(int(v))
    if len(seen) != n:
        raise ValueError("host support is disconnected; pick another seed")
    return StrategyProfile(owns, copy=False, validate=False)


def equilibrium_instance(n: int) -> tuple[NetworkCreationGame, StrategyProfile]:
    """A converged equilibrium of the mesh (the certification start state)."""
    host = mesh_host(n)
    game = NetworkCreationGame(host, ALPHA)
    warm = run_dynamics(
        game,
        spanning_tree_profile(host),
        SimulationConfig(
            response="best", order="round_robin", max_rounds=80, schedule="batched"
        ),
        rng=0,
    )
    assert warm.converged, "warm-up dynamics did not converge"
    return game, warm.final_profile


def outage_start(
    game: NetworkCreationGame, equilibrium: StrategyProfile
) -> StrategyProfile:
    """The equilibrium after a scattered ownership outage.

    The heaviest edge-owners (up to ``OUTAGE_COUNT`` of them) lose their
    strategies one by one, each wipe accepted only if the created network
    stays connected — so every cost remains finite, the wiped agents have
    genuinely improving rebuild moves, and the repairs are scattered local
    re-optimizations across the mesh.
    """
    profile = equilibrium
    owned_counts = profile.ownership.sum(axis=1)
    wiped = 0
    for u in np.argsort(-owned_counts):
        if owned_counts[u] == 0 or wiped >= OUTAGE_COUNT:
            break
        trial = profile.with_strategy(int(u), [])
        if np.isfinite(game.distances(trial)).all():
            profile = trial
            wiped += 1
    assert wiped > 0, "no agent's strategy could be wiped without disconnecting"
    return profile


def _timed_run(game, start, workers: int, force_pool: bool = False):
    """One run; returns its time, result and the batches its pool ran."""
    config = SimulationConfig(
        response="best",
        order="round_robin",
        max_rounds=80,
        schedule="batched",
        workers=workers,
    )
    t0 = time.perf_counter()
    forced = parallel.pool_always() if force_pool else contextlib.nullcontext()
    with forced, GameSession(game, config) as session:
        result = session.run(start, rng=0)
        pool = session.stats().evaluator_stats
    elapsed = time.perf_counter() - t0
    pool_batches = 0 if pool is None else pool.batches - pool.in_process_batches
    return elapsed, result, pool_batches


def compare_workers(game, start, worker_counts=WORKER_COUNTS) -> dict:
    """Re-converge with every worker count; collect timings and identity.

    A last run sends every batch of a two-worker session to the pool, so
    the identity check covers the pool even when the dispatch rule keeps
    all of a case's batches in process.
    """
    timings: dict[int, float] = {}
    pool_batches: dict[int, int] = {}
    results = {}
    for workers in worker_counts:
        timings[workers], results[workers], pool_batches[workers] = _timed_run(
            game, start, workers
        )
    forced_s, results["pool"], _ = _timed_run(game, start, 2, force_pool=True)
    base = results[worker_counts[0]]
    identical = all(
        r.converged == base.converged
        and r.moves == base.moves
        and r.steps == base.steps
        and r.final_profile == base.final_profile
        and r.social_costs == base.social_costs  # exact float equality
        and r.engine_stats == base.engine_stats
        for r in results.values()
    )
    return {
        "timings": timings,
        "forced_pool_s": forced_s,
        "pool_batches": pool_batches,
        "converged": base.converged,
        "identical": identical,
        "moves": base.moves,
        "final_cost": base.final_social_cost,
        "speedup2": timings[worker_counts[0]] / timings[2] if 2 in timings else float("nan"),
        "speedup4": timings[worker_counts[0]] / timings[4] if 4 in timings else float("nan"),
    }


def _scenarios(n: int):
    """``(label, game, start, asserted)`` rows for one instance size."""
    game, equilibrium = equilibrium_instance(n)
    return [
        ("certification", game, equilibrium, n == 200),
        ("outage re-convergence", game, outage_start(game, equilibrium), False),
    ]


def _report_rows(stats, cpus):
    return [
        ("workers=1 [s]", "-", stats["timings"][1]),
        ("workers=2 [s]", "-", stats["timings"][2]),
        ("workers=4 [s]", "-", stats["timings"][4]),
        ("workers=2, every batch on the pool [s]", "-", stats["forced_pool_s"]),
        ("pool batches (workers=2)", "-", stats["pool_batches"][2]),
        ("pool batches (workers=4)", "-", stats["pool_batches"][4]),
        ("speedup (2 workers)", "reported only", stats["speedup2"]),
        (
            "speedup (4 workers)",
            f">= {SPEEDUP_TARGET} for certification at n=200",
            stats["speedup4"],
        ),
        ("byte-identical runs", "always", stats["identical"]),
        ("available CPUs", "-", cpus),
    ]


@pytest.mark.benchmark(group="parallel-dynamics")
@pytest.mark.parametrize("n", SIZES)
def test_parallel_workers_speedup(benchmark, n, paper_report):
    scenarios = _scenarios(n)
    all_stats = benchmark.pedantic(
        lambda: {
            label: compare_workers(game, start)
            for label, game, start, _ in scenarios
        },
        rounds=1,
        iterations=1,
    )
    cpus = _available_cpus()
    skip_reason = None
    for label, _, _, asserted in scenarios:
        stats = all_stats[label]
        paper_report(
            f"Parallel batched evaluation — {label} (n={n})",
            _report_rows(stats, cpus),
            n=n,
            seed=SEED,
            alpha=ALPHA,
            scenario=label,
            timings_s=stats["timings"],
            speedup_4_over_1=stats["speedup4"],
        )
        assert stats["converged"]
        assert stats["identical"], f"{label}: worker counts disagreed on the trajectory"
        if asserted:
            if cpus >= 4 and _timing_asserted():
                assert stats["speedup4"] >= SPEEDUP_TARGET
            else:
                skip_reason = (
                    f"speedup assertion needs >= 4 CPUs (have {cpus}) and "
                    "BENCH_SKIP_SPEEDUP_ASSERT unset; identity checks passed"
                )
    if skip_reason is not None:
        pytest.skip(skip_reason)


# ----------------------------------------------------------------------
# Break-even sweep: the measurements behind the dispatch constants
# ----------------------------------------------------------------------
def _sweep_cases():
    """``(label, response, game, profile, agent batches)`` of the sweep.

    Exact best responses on the mesh take the highest-degree agents (heavy
    subset scans), the lowest-degree ones (light scans) and every agent
    (the shape of a certification prefill).  Single moves take the first
    agents of the mesh, of a complete host (the densest candidate sets)
    and of the localized tree, plus batches of mesh spanning-tree leaves,
    which own no edge and so share one residual matrix.
    """
    from bench_large_n import localized_instance

    cases = []
    for n in (64, 100, 200):
        host = mesh_host(n)
        by_degree = np.argsort(-np.isfinite(host.weights).sum(axis=1), kind="stable")
        batches = [sorted(by_degree[:c].tolist()) for c in (2, 8, 32)]
        batches += [sorted(by_degree[-c:].tolist()) for c in (8, 32)]
        batches.append(list(range(n)))
        game = NetworkCreationGame(host, ALPHA)
        cases.append(("best mesh", "best", game, spanning_tree_profile(host), batches))
    host = mesh_host(200)
    tree = spanning_tree_profile(host)
    leaves = [u for u in range(host.n) if not tree.strategy(u)]
    cases.append(
        (
            "single mesh",
            "single",
            NetworkCreationGame(host, ALPHA),
            tree,
            [list(range(c)) for c in (4, 16, 100)] + [leaves[:c] for c in (16, 64)],
        )
    )
    complete = HostGraph.unit(200)
    owns = np.random.default_rng(SEED).random((200, 200)) < 0.04
    np.fill_diagonal(owns, False)
    cases.append(
        (
            "single full",
            "single",
            NetworkCreationGame(complete, ALPHA),
            StrategyProfile(owns & ~owns.T),
            [list(range(c)) for c in (16, 64)],
        )
    )
    game, profile = localized_instance(1000)
    cases.append(
        ("single tree", "single", game, profile, [list(range(c)) for c in (4, 16, 100, 333)])
    )
    return cases


def _timed(fn) -> tuple[float, object]:
    t0 = time.perf_counter()
    value = fn()
    return time.perf_counter() - t0, value


def _measure_batch(game, tasks, response) -> dict:
    """Median in-process and pool times of one batch.

    Each repeat starts a fresh pool (untimed, on a one-task batch), scores
    the batch in process, lets the workers sit idle for ``SWEEP_IDLE_S``
    and then times the batch on the pool: in a dynamics run the workers
    meet a batch cold, after the owner's own in-process work, so a pool
    timed on back-to-back repeats of one batch would flatter it.
    """
    serial_times, pool_times = [], []
    identical = True
    for _ in range(SWEEP_REPEATS):
        with ParallelEvaluator.for_game(game, workers=SWEEP_WORKERS) as evaluator:
            with parallel.pool_always():
                evaluator.evaluate([(0, tasks[0][1], ())], "single")
                elapsed, serial = _timed(
                    lambda: score_tasks(tasks, game.host.weights, game.alpha, response)
                )
                serial_times.append(elapsed)
                time.sleep(SWEEP_IDLE_S)
                elapsed, pooled = _timed(lambda: evaluator.evaluate(tasks, response))
                pool_times.append(elapsed)
        identical &= pooled == serial
    return {
        "serial_s": float(np.median(serial_times)),
        "pool_s": float(np.median(pool_times)),
        "identical": identical,
    }


def _fit_constants(rows, parallelism: int) -> dict:
    """Fit the dispatch rule's two constants to the best-response rows.

    The pool's own cost of a batch — its time minus the in-process time
    shared among ``parallelism`` CPUs, or the longest task's if that is
    longer — is fitted non-negatively on ``[1, matrices]`` and converted
    to scoring work at the measured in-process rate (total time over
    total work).
    """
    from scipy.optimize import nnls

    best = [r for r in rows if r["response"] == "best"]
    rate = sum(r["serial_s"] for r in best) / sum(r["work"] for r in best)
    design = np.array([[1.0, r["matrices"]] for r in best])
    own_cost = np.array(
        [
            r["pool_s"] - r["serial_s"] * max(1 / parallelism, r["longest"] / r["work"])
            for r in best
        ]
    )
    (batch_s, matrix_s), _ = nnls(design, own_cost)
    return {
        "pool_batch_work": batch_s / rate,
        "pool_matrix_work": matrix_s / rate,
        "serial_s_per_work": rate,
    }


def committed_constants() -> dict:
    """The dispatch constants the evaluator runs with."""
    return {
        "pool_batch_work": parallel._POOL_BATCH_WORK,
        "pool_matrix_work": parallel._POOL_MATRIX_WORK,
    }


def break_even_sweep() -> dict:
    """Serial vs. the pool across scoring work, for both response kinds.

    Every batch is timed in process (``score_tasks``) and on a fresh
    ``SWEEP_WORKERS``-worker pool (:func:`_measure_batch`); the rule's own
    pick under the committed constants is recorded next to the measured
    winner.
    """
    rows = []
    identical = True
    for label, response, game, profile, batches in _sweep_cases():
        engine = IncrementalEngine(game, profile)
        # Never started: it only applies the rule for this game's degrees.
        evaluator = ParallelEvaluator.for_game(game, workers=SWEEP_WORKERS)
        parallelism = evaluator._parallelism
        for agents in batches:
            tasks = [(u, engine.residual(u), profile.strategy(u)) for u in agents]
            timing = _measure_batch(game, tasks, response)
            identical &= timing.pop("identical")
            work = parallel._scoring_work(evaluator._degree, tasks, 22)
            if response != "best":  # the rule weighs best-response work only
                work = np.full(len(tasks), np.nan)
            rows.append(
                {
                    "case": label,
                    "response": response,
                    "n": game.n,
                    "tasks": len(tasks),
                    "matrices": len({id(t[1]) for t in tasks}),
                    "work": float(work.sum()),
                    "longest": float(work.max()),
                    **timing,
                    "picks_pool": evaluator._pool_pays(tasks, response, 22),
                }
            )
    misses = [
        r
        for r in rows
        if max(r["serial_s"], r["pool_s"]) > SWEEP_CLEAR_MARGIN * min(r["serial_s"], r["pool_s"])
        and r["picks_pool"] != (r["pool_s"] < r["serial_s"])
    ]
    return {
        "rows": rows,
        "identical": identical,
        "misses": misses,
        "serial_total_s": sum(r["serial_s"] for r in rows),
        "pool_total_s": sum(r["pool_s"] for r in rows),
        "rule_total_s": sum(r["pool_s" if r["picks_pool"] else "serial_s"] for r in rows),
        "oracle_total_s": sum(min(r["serial_s"], r["pool_s"]) for r in rows),
        "best_single_speedup": max(
            r["serial_s"] / r["pool_s"] for r in rows if r["response"] == "single"
        ),
        "parallelism": parallelism,
        "fitted": _fit_constants(rows, parallelism),
        "committed": committed_constants(),
    }


def print_sweep(sweep: dict) -> None:
    print(
        f"break-even sweep: in process vs. a fresh {SWEEP_WORKERS}-worker pool "
        f"(median of {SWEEP_REPEATS}; scoring shared by {sweep['parallelism']} CPUs)"
    )
    print(
        f"  {'case':<12} {'n':>5} {'tasks':>5} {'mats':>4} {'work':>9} "
        f"{'serial':>9} {'pool':>9} {'speedup':>7}  pick"
    )
    for r in sweep["rows"]:
        print(
            f"  {r['case']:<12} {r['n']:>5} {r['tasks']:>5} {r['matrices']:>4} "
            f"{r['work']:>9.3g} {r['serial_s'] * 1e3:>7.2f}ms {r['pool_s'] * 1e3:>7.2f}ms "
            f"{r['serial_s'] / r['pool_s']:>6.2f}x  "
            f"{'pool' if r['picks_pool'] else 'serial'}"
        )
    fitted = sweep["fitted"]
    print("  constant               committed      fitted")
    for key, value in sweep["committed"].items():
        print(f"  {key:<20} {value:>11.3g} {fitted[key]:>11.3g}")
    print(f"  (in-process scoring: {fitted['serial_s_per_work']:.3g} s per unit of work)")
    print(
        f"  sweep total: always in process {sweep['serial_total_s']:.3f}s, always "
        f"pool {sweep['pool_total_s']:.3f}s, the rule {sweep['rule_total_s']:.3f}s, "
        f"the faster path each time {sweep['oracle_total_s']:.3f}s"
    )
    print(
        f"  best single-move pool speedup {sweep['best_single_speedup']:.2f}x; "
        f"wrong picks among clear batches (> {SWEEP_CLEAR_MARGIN}x apart): "
        f"{len(sweep['misses'])}; pool == in process: {sweep['identical']}"
    )


def _rule_wins(sweep: dict) -> bool:
    """Over the whole sweep, the rule beats always-serial and always-pool."""
    return sweep["rule_total_s"] <= min(sweep["serial_total_s"], sweep["pool_total_s"])


def _sweep_asserted(cpus: int) -> bool:
    """The rule's picks are timing claims: asserted with >= 2 CPUs only."""
    return cpus >= 2 and _timing_asserted()


def _sweep_rows(sweep: dict):
    rows = [
        (f"{key} (fitted)", value, sweep["fitted"][key])
        for key, value in sweep["committed"].items()
    ]
    rows += [
        ("sweep batches", "-", len(sweep["rows"])),
        ("batches sent to the pool", "-", sum(r["picks_pool"] for r in sweep["rows"])),
        ("always in process [s]", "-", sweep["serial_total_s"]),
        ("always pool [s]", "-", sweep["pool_total_s"]),
        ("the rule [s]", "<= both, with >= 2 CPUs", sweep["rule_total_s"]),
        ("faster path each time [s]", "-", sweep["oracle_total_s"]),
        ("best single-move pool speedup", "reported only", sweep["best_single_speedup"]),
        (
            f"wrong picks (> {SWEEP_CLEAR_MARGIN}x apart)",
            "reported only",
            len(sweep["misses"]),
        ),
        ("pool == in process", "always", sweep["identical"]),
    ]
    return rows


def _sweep_entry(sweep: dict) -> dict:
    from conftest import _jsonable

    return {
        "title": "Serial-first dispatch — break-even sweep",
        "rows": [
            {"label": lbl, "paper": _jsonable(paper), "measured": _jsonable(measured)}
            for lbl, paper, measured in _sweep_rows(sweep)
        ],
        "meta": _jsonable(
            {
                "batches": sweep["rows"],
                **{k: sweep[k] for k in ("parallelism", "fitted", "committed")},
            }
        ),
    }


@pytest.mark.benchmark(group="parallel-dynamics")
def test_break_even_sweep(benchmark, paper_report):
    sweep = benchmark.pedantic(break_even_sweep, rounds=1, iterations=1)
    print_sweep(sweep)
    cpus = _available_cpus()
    paper_report(
        "Serial-first dispatch — break-even sweep",
        _sweep_rows(sweep),
        batches=sweep["rows"],
        parallelism=sweep["parallelism"],
        fitted=sweep["fitted"],
        committed=sweep["committed"],
    )
    assert sweep["identical"], "the pool disagreed with in-process scoring"
    if _sweep_asserted(cpus):
        assert _rule_wins(sweep), "the dispatch rule lost to a fixed policy"


def main() -> int:
    from conftest import _jsonable, write_bench_json

    cpus = _available_cpus()
    entries: list[dict] = []
    ok = True
    print(
        f"geometric mesh hosts (degree {MESH_DEGREE}, alpha={ALPHA}), exact "
        f"best responses, batched schedule, {OUTAGE_COUNT} heaviest owners "
        f"wiped in the outage scenario, {cpus} CPUs available"
    )
    for n in SIZES:
        for label, game, start, asserted in _scenarios(n):
            stats = compare_workers(game, start)
            t = stats["timings"]
            pb = stats["pool_batches"]
            print(
                f"  n={n:>3} {label:>21}: workers=1 {t[1]:6.2f}s  "
                f"workers=2 {t[2]:6.2f}s  workers=4 {t[4]:6.2f}s  "
                f"all-pool(2) {stats['forced_pool_s']:6.2f}s  "
                f"speedup(2) {stats['speedup2']:.2f}x  "
                f"speedup(4) {stats['speedup4']:.2f}x  "
                f"pool batches {pb[2]}/{pb[4]}  "
                f"identical={stats['identical']}  moves={stats['moves']}"
            )
            entries.append(
                {
                    "title": f"Parallel batched evaluation — {label} (n={n})",
                    "rows": [
                        {"label": lbl, "paper": _jsonable(paper), "measured": _jsonable(measured)}
                        for lbl, paper, measured in _report_rows(stats, cpus)
                    ],
                    "meta": _jsonable(
                        {
                            "n": n,
                            "seed": SEED,
                            "alpha": ALPHA,
                            "cpus": cpus,
                            "scenario": label,
                            "timings_s": {str(w): t[w] for w in WORKER_COUNTS},
                            "forced_pool_s": stats["forced_pool_s"],
                            "pool_batches": {str(w): pb[w] for w in WORKER_COUNTS},
                            "speedup_2_over_1": stats["speedup2"],
                            "speedup_4_over_1": stats["speedup4"],
                        }
                    ),
                }
            )
            ok &= stats["converged"] and stats["identical"]
            if asserted and cpus >= 4 and _timing_asserted():
                ok &= stats["speedup4"] >= SPEEDUP_TARGET
            elif asserted:
                print(
                    f"  (speedup target unasserted: {cpus} CPUs available, "
                    "needs >= 4 and BENCH_SKIP_SPEEDUP_ASSERT unset; "
                    "identity checks still enforced)"
                )
    sweep = break_even_sweep()
    print_sweep(sweep)
    entries.append(_sweep_entry(sweep))
    ok &= sweep["identical"]
    if _sweep_asserted(cpus):
        ok &= _rule_wins(sweep)
    else:
        print("  (break-even picks unasserted: needs >= 2 CPUs and "
              "BENCH_SKIP_SPEEDUP_ASSERT unset; identity still enforced)")
    path = write_bench_json("bench_parallel_dynamics", entries)
    print(f"wrote {path}")
    print("OK" if ok else "FAILED: worker counts disagree or speedup below target")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
