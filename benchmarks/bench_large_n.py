"""Large-n localized dynamics: delta residual slots on the pool.

The pool writes a repaired residual as the rows its repair re-solved,
packed (:mod:`repro.core.residual_delta`), over its base — the round's
distance snapshot — written dense once per chunk.  Residual matrices are
near copies of that snapshot, so writing each distinct one as a dense
``(n, n)`` float64 slot — 8 MB at ``n = 1000`` — would spend almost all
of the slot writes on bytes the workers already hold.  This benchmark
measures the effect on a *localized-dynamics* workload built to mirror
the shape the packed deltas target:

* the created network is a doubly-owned BFS spanning tree of a
  degree-bounded geometric mesh — an agent owning no edge solely has a
  residual *identical* to the snapshot, so all of them share one matrix;

* a few dozen **hub** agents (tree leaves) each solely buy one shortcut
  to a sibling leaf.  Removing that shortcut reroutes only paths *ending
  at the two leaves* (geometric triangle inequality keeps through
  traffic off it), so each hub's repair re-solves one or two rows — the
  delta packs ``O(n)`` bytes instead of ``O(n^2)``.

A batched prefill at ``n = 1000`` therefore writes one dense base per
chunk plus tiny per-hub deltas where dense slots would write every
distinct residual as a full matrix.  The benchmark counts the pool's slot
writes itself and compares ``EvaluatorStats.bytes_sent`` with the dense
bytes of the same writes (``slot writes * n * n * 8``): that reduction
must be **>= 5x at n = 1000, asserted unconditionally** — alongside
bit-identical trajectories *and* engine stats between the serial run and
the two-worker pool.  The evaluator is serial-first and would keep these
single-move batches in process, so the pool run sends every batch to
the pool (``repro.core.parallel.pool_always``).  The wall-clock ratio
of the two runs is reported, not asserted.  The ``n = 2000`` instance
runs only on machines with >= 4 CPUs, to keep small-runner memory
bounded.

Run directly (``python benchmarks/bench_large_n.py``) for a plain-text
report plus ``BENCH_large_n.json``, or through pytest-benchmark like the
other benchmarks.
"""

from __future__ import annotations

import contextlib
import time
from collections import deque

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
from repro.core.parallel import SharedSnapshot, pool_always

SIZES = (1000, 2000)
HUBS = {1000: 48, 2000: 56}
ALPHA = 0.0  # edges are free: no strictly improving move exists (see below)
MESH_DEGREE = 9
ROUNDS = 2
SEED = 5
POOL_WORKERS = 2
BYTES_TARGET = 5.0  # asserted unconditionally at n=1000


def _available_cpus() -> int:
    return default_workers()


def localized_instance(n: int) -> tuple[NetworkCreationGame, StrategyProfile]:
    """A doubly-owned geometric spanning tree plus solely-owned shortcuts.

    The host support *equals* the created network (tree edges plus
    ``HUBS[n]`` shortcuts) and ``alpha = 0``: every candidate single move
    either duplicates an existing edge (zero gain), drops a doubly-owned
    copy (zero gain — edges are free), or drops a load-bearing edge
    (negative gain), so the profile is single-response stable and the
    measured traffic is exactly one clean batched prefill per run — the
    shape the packed deltas target.

    Every tree edge is bought by *both* endpoints, so a non-hub agent has
    no solely-owned edge and its residual is the distance snapshot itself
    (one shared matrix).  Each hub is a tree leaf buying the shortcut to a
    *sibling* leaf: strictly shorter than the two-hop tree path through
    the shared parent (so the residual genuinely differs) but never on a
    through route — both endpoints are leaves and the parent edges beat
    any detour by the triangle inequality — so the difference is confined
    to the two leaves' row/column pairs.  Each leaf joins at most one
    shortcut, keeping the deltas independent.
    """
    rng = np.random.default_rng(SEED)
    pts = rng.random((n, 2)) * np.sqrt(n)
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff**2).sum(-1))
    # A degree-bounded kNN scaffold, used only to pick geometrically short
    # tree edges and sibling shortcuts; the host keeps just those edges.
    order = np.argsort(d, axis=1)
    allowed = np.zeros((n, n), dtype=bool)
    for u in range(n):
        allowed[u, order[u, 1 : MESH_DEGREE + 1]] = True
    allowed |= allowed.T
    owns = np.zeros((n, n), dtype=bool)
    support = np.zeros((n, n), dtype=bool)
    parent: dict[int, int] = {}
    children: dict[int, list[int]] = {u: [] for u in range(n)}
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in np.nonzero(allowed[u])[0]:
            v = int(v)
            if v not in seen:
                seen.add(v)
                parent[v] = u
                children[u].append(v)
                owns[u, v] = owns[v, u] = True  # doubly owned
                support[u, v] = support[v, u] = True
                queue.append(v)
    if len(seen) != n:
        raise ValueError("kNN scaffold is disconnected; pick another seed")
    leaves = {u for u in range(n) if u in parent and not children[u]}
    hubs: list[int] = []
    used: set[int] = set()
    for u in sorted(leaves):
        if len(hubs) >= HUBS[n]:
            break
        if u in used:
            continue
        p = parent[u]
        for v in sorted(leaves):
            if v == u or v in used or parent[v] != p or not allowed[u, v]:
                continue
            if d[u, v] >= d[u, p] + d[p, v]:
                continue  # the shortcut must actually carry the leaves' paths
            owns[u, v] = True  # solely owned: only this residual removes it
            support[u, v] = support[v, u] = True
            used.update((u, v))
            hubs.append(u)
            break
    if len(hubs) < HUBS[n] // 2:
        raise ValueError(f"only {len(hubs)} usable leaf hubs at n={n}")
    w = np.where(support, d, np.inf)
    np.fill_diagonal(w, 0.0)
    return NetworkCreationGame(HostGraph(w), ALPHA), StrategyProfile(
        owns, copy=False, validate=False
    )


def _base_config(**overrides) -> SimulationConfig:
    return SimulationConfig(
        schedule="batched",
        response="single",
        max_rounds=ROUNDS,
        **overrides,
    )


@contextlib.contextmanager
def _counting_slot_writes():
    """Count the pool's slot writes, dense or packed, while active."""
    writes = [0]
    originals = {
        name: getattr(SharedSnapshot, name)
        for name in ("write_slot", "write_slot_packed")
    }

    def counted(original):
        def write(snapshot, slot, data):
            writes[0] += 1
            return original(snapshot, slot, data)

        return write

    for name, original in originals.items():
        setattr(SharedSnapshot, name, counted(original))
    try:
        yield writes
    finally:
        for name, original in originals.items():
            setattr(SharedSnapshot, name, original)


def _pool_run(game, start):
    """The two-worker run, every batch on the pool.

    Single-move batches never pay for the pool, so the serial-first
    evaluator would keep them all in process; ``pool_always`` sends them
    to the pool to measure its slot writes.
    """
    config = _base_config(workers=POOL_WORKERS)
    with pool_always(), _counting_slot_writes() as writes:
        t0 = time.perf_counter()
        with GameSession(game, config) as session:
            result = session.run(start, rng=0)
            stats = session.stats().evaluator_stats
        elapsed = time.perf_counter() - t0
    return elapsed, result, stats, writes[0]


def _identical(runs) -> bool:
    base = runs[0]
    return all(
        r.converged == base.converged
        and r.steps == base.steps
        and r.moves == base.moves
        and r.final_profile == base.final_profile
        and r.social_costs == base.social_costs  # exact float equality
        and r.engine_stats == base.engine_stats
        for r in runs[1:]
    )


def compare_slot_bytes(n: int) -> dict:
    """Serial oracle vs. the pool; slot bytes against dense writes, timings."""
    game, start = localized_instance(n)
    t0 = time.perf_counter()
    serial = run_dynamics(
        game,
        start,
        SimulationConfig(response="single", schedule="batched", max_rounds=ROUNDS),
        rng=0,
    )
    serial_s = time.perf_counter() - t0
    pool_s, pooled, stats, writes = _pool_run(game, start)
    dense_bytes = writes * n * n * 8
    return {
        "n": n,
        "identical": _identical([serial, pooled]),
        "slot_writes": writes,
        "dense_bytes": dense_bytes,
        "pool_bytes": stats.bytes_sent,
        "pool_reduction": dense_bytes / stats.bytes_sent,
        "serial_s": serial_s,
        "pool_s": pool_s,
        "speedup": serial_s / pool_s,
        "moves": serial.moves,
    }


def _report_rows(stats, cpus):
    return [
        ("slot writes", "-", stats["slot_writes"]),
        ("dense bytes of those writes", "-", stats["dense_bytes"]),
        ("pool bytes_sent", "-", stats["pool_bytes"]),
        (
            "slot-write reduction",
            f">= {BYTES_TARGET} at n=1000 (always)",
            stats["pool_reduction"],
        ),
        ("serial [s]", "-", stats["serial_s"]),
        ("pool [s]", "-", stats["pool_s"]),
        ("speedup (pool over serial)", "reported only", stats["speedup"]),
        ("byte-identical runs", "always", stats["identical"]),
        ("available CPUs", "-", cpus),
    ]


@pytest.mark.benchmark(group="large-n")
@pytest.mark.parametrize("n", SIZES)
def test_delta_transport_unlocks_large_n(benchmark, n, paper_report):
    cpus = _available_cpus()
    if n > 1000 and cpus < 4:
        pytest.skip(f"n={n} instance needs >= 4 CPUs (have {cpus})")
    stats = benchmark.pedantic(lambda: compare_slot_bytes(n), rounds=1, iterations=1)
    paper_report(
        f"Sparse residual deltas — localized dynamics (n={n})",
        _report_rows(stats, cpus),
        n=n,
        seed=SEED,
        alpha=ALPHA,
        hubs=HUBS[n],
        rounds=ROUNDS,
        pool_reduction=stats["pool_reduction"],
        speedup_pool_over_serial=stats["speedup"],
    )
    assert stats["identical"], "pool and serial disagreed on the trajectory or stats"
    assert stats["pool_reduction"] >= BYTES_TARGET


def main() -> int:
    from conftest import _jsonable, write_bench_json

    cpus = _available_cpus()
    entries: list[dict] = []
    ok = True
    print(
        f"localized dynamics on geometric mesh hosts (degree {MESH_DEGREE}, "
        f"alpha={ALPHA}), doubly-owned spanning tree + solely-owned leaf "
        f"shortcuts, batched single-response schedule, {ROUNDS} rounds, "
        f"{POOL_WORKERS}-worker pool, {cpus} CPUs available"
    )
    for n in SIZES:
        if n > 1000 and cpus < 4:
            print(f"  n={n}: skipped (needs >= 4 CPUs, have {cpus})")
            continue
        stats = compare_slot_bytes(n)
        print(
            f"  n={n:>4}: {stats['slot_writes']} slot writes, dense "
            f"{stats['dense_bytes']/1e6:8.1f} MB -> sent "
            f"{stats['pool_bytes']/1e6:7.1f} MB "
            f"({stats['pool_reduction']:.1f}x)  "
            f"time serial {stats['serial_s']:6.2f}s, pool {stats['pool_s']:6.2f}s "
            f"({stats['speedup']:.2f}x)  identical={stats['identical']}  "
            f"moves={stats['moves']}"
        )
        entries.append(
            {
                "title": f"Sparse residual deltas — localized dynamics (n={n})",
                "rows": [
                    {"label": lbl, "paper": _jsonable(paper), "measured": _jsonable(measured)}
                    for lbl, paper, measured in _report_rows(stats, cpus)
                ],
                "meta": _jsonable(
                    {
                        "n": n,
                        "seed": SEED,
                        "alpha": ALPHA,
                        "hubs": HUBS[n],
                        "rounds": ROUNDS,
                        "cpus": cpus,
                        "pool_reduction": stats["pool_reduction"],
                        "speedup_pool_over_serial": stats["speedup"],
                    }
                ),
            }
        )
        ok &= stats["identical"] and stats["pool_reduction"] >= BYTES_TARGET
    path = write_bench_json("bench_large_n", entries)
    print(f"wrote {path}")
    print("OK" if ok else "FAILED: pool and serial disagree or reduction below target")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
