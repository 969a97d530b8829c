"""Batched vs. sequential activation schedules for response dynamics.

The batched activation scheduler (``schedule="batched"`` in
:func:`repro.core.dynamics.run_dynamics`) scores each round of agents
against a shared distance snapshot and re-scores only the agents whose
residual matrices an applied move invalidated, while following the exact
same trajectory as the sequential schedule.  This benchmark quantifies the
effect on two workloads at ``n in {50, 100, 200}``:

* **district outage re-convergence** — the scheduler's headline workload.
  The host is a geometric mesh plus a small *district* of agents reachable
  only through one gateway that owns equal-weight direct links to every
  district node.  The game is converged to an equilibrium (untimed), the
  district's internal strategies are wiped, and the timed runs re-converge.
  Because every non-district agent is provably equidistant to all district
  nodes (all routes go through the gateway), district-internal moves can
  never invalidate the periphery's cached proposals: sequential round-robin
  re-scores all ``n`` agents every round, batched re-scores only the
  district.  Expected speedup grows with the stable-periphery fraction
  (>= 1.5x at n=100 is asserted, ~4-5x typical).

* **cold-start dynamics** — round-robin single-move dynamics from a
  spanning tree of the mesh, where early moves shortcut a high-stretch
  network and genuinely invalidate most proposals.  Batching is expected
  to be roughly neutral here (~1.0-1.2x); the benchmark asserts it is
  never significantly slower.

Both workloads assert that the two schedules converge with identical move
counts and identical final social cost — the trajectory-equality property
that the batched scheduler's row-level invalidation tests guarantee (see
``tests/test_batched_dynamics.py`` for the randomized version).

Run directly (``python benchmarks/bench_batched_dynamics.py``) for a
plain-text report, or through pytest-benchmark like the other benchmarks.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np
import pytest

from repro.core import (
    NetworkCreationGame,
    SimulationConfig,
    StrategyProfile,
    run_dynamics,
)
from repro.core.host_graph import HostGraph

SIZES = (50, 100, 200)
ALPHA = 0.3
MESH_DEGREE = 6
GATEWAY_WEIGHT = 2.0


def gateway_host(n: int, seed: int = 3) -> tuple[HostGraph, int]:
    """A geometric mesh plus a district reachable only through one gateway.

    Agents ``0..n_mesh-1`` are mesh nodes (finite host weights only towards
    their ``MESH_DEGREE`` nearest neighbours), agent ``n_mesh`` is the
    gateway (a mesh node with additional weight-``GATEWAY_WEIGHT`` links to
    every district node) and the remaining agents form the district with
    internal weights in ``[1, 2]``.  The weights satisfy the invariants the
    benchmark relies on: district-internal routes never undercut the
    gateway's direct links (``2 * GATEWAY_WEIGHT >`` any internal weight)
    and at ``alpha = 0.3`` keeping the direct links is strictly optimal for
    the gateway (``alpha * GATEWAY_WEIGHT <`` the cheapest internal detour).
    """
    n_cluster = max(6, n // 12)
    n_mesh = n - 1 - n_cluster
    rng = np.random.default_rng(seed)
    gw = n_mesh
    pts = rng.random((n_mesh + 1, 2)) * np.sqrt(n_mesh)
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff**2).sum(-1))
    order = np.argsort(d, axis=1)
    allowed = np.zeros((n_mesh + 1, n_mesh + 1), dtype=bool)
    for u in range(n_mesh + 1):
        allowed[u, order[u, 1 : MESH_DEGREE + 1]] = True
    allowed |= allowed.T
    w = np.full((n, n), np.inf)
    w[: n_mesh + 1, : n_mesh + 1] = np.where(allowed, d, np.inf)
    w[gw, n_mesh + 1 :] = GATEWAY_WEIGHT
    w[n_mesh + 1 :, gw] = GATEWAY_WEIGHT
    wc = rng.uniform(1.0, 2.0, (n_cluster, n_cluster))
    w[n_mesh + 1 :, n_mesh + 1 :] = (wc + wc.T) / 2
    np.fill_diagonal(w, 0.0)
    return HostGraph(w), gw


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


def outage_instance(n: int) -> tuple[NetworkCreationGame, StrategyProfile]:
    """Equilibrium of the gateway host with the district's strategies wiped."""
    host, gw = gateway_host(n)
    game = NetworkCreationGame(host, ALPHA)
    warm = run_dynamics(
        game,
        spanning_tree_profile(host),
        SimulationConfig(response="single", order="round_robin", max_rounds=300),
        rng=0,
    )
    assert warm.converged, "warm-up dynamics did not converge"
    start = warm.final_profile
    for u in range(gw + 1, n):
        start = start.with_strategy(u, [t for t in start.strategy(u) if t <= gw])
    return game, start


def _timed_run(game, start, schedule: str, order: str):
    t0 = time.perf_counter()
    result = run_dynamics(
        game,
        start,
        SimulationConfig(
            response="single", order=order, max_rounds=100, schedule=schedule
        ),
        rng=0,
    )
    return time.perf_counter() - t0, result


def compare_schedules(game, start, order: str) -> dict[str, float]:
    """Run both schedules on one instance and collect timing + equality."""
    t_seq, seq = _timed_run(game, start, "sequential", order)
    t_bat, bat = _timed_run(game, start, "batched", order)
    hit_total = bat.schedule_hits + bat.schedule_misses
    return {
        "sequential_s": t_seq,
        "batched_s": t_bat,
        "speedup": t_seq / t_bat,
        "converged": seq.converged and bat.converged,
        "same_moves": seq.moves == bat.moves,
        "same_cost": seq.final_social_cost == pytest.approx(bat.final_social_cost, rel=1e-9),
        "hit_rate": bat.schedule_hits / hit_total if hit_total else 0.0,
        "moves": seq.moves,
    }


@pytest.mark.benchmark(group="batched-dynamics")
@pytest.mark.parametrize("order", ("round_robin", "random"))
@pytest.mark.parametrize("n", SIZES)
def test_district_outage_speedup(benchmark, n, order, paper_report):
    game, start = outage_instance(n)
    stats = benchmark.pedantic(
        compare_schedules, args=(game, start, order), rounds=1, iterations=1
    )
    paper_report(
        f"Batched schedule — district outage re-convergence (n={n}, {order})",
        [
            ("sequential [s]", "-", stats["sequential_s"]),
            ("batched [s]", "-", stats["batched_s"]),
            ("speedup", ">= 1.5 at n=100 (round robin)", stats["speedup"]),
            ("proposal-cache hit rate", "-", stats["hit_rate"]),
            ("identical converged cost", "always", stats["same_cost"]),
        ],
    )
    assert stats["converged"]
    assert stats["same_moves"] and stats["same_cost"]
    if n == 100 and order == "round_robin":
        assert stats["speedup"] >= 1.5


@pytest.mark.benchmark(group="batched-dynamics")
@pytest.mark.parametrize("n", (50, 100))
def test_cold_start_not_slower(benchmark, n, paper_report):
    host, _ = gateway_host(n)
    game = NetworkCreationGame(host, ALPHA)
    start = spanning_tree_profile(host)
    stats = benchmark.pedantic(
        compare_schedules, args=(game, start, "round_robin"), rounds=1, iterations=1
    )
    paper_report(
        f"Batched schedule — cold start from a spanning tree (n={n})",
        [
            ("sequential [s]", "-", stats["sequential_s"]),
            ("batched [s]", "-", stats["batched_s"]),
            ("speedup", "~1 (batching is free)", stats["speedup"]),
            ("identical converged cost", "always", stats["same_cost"]),
        ],
    )
    assert stats["same_moves"] and stats["same_cost"]
    # Batching must never cost more than a modest constant overhead.
    assert stats["speedup"] >= 0.75


def main() -> int:
    ok = True
    print(
        f"gateway hosts (mesh degree {MESH_DEGREE}, alpha={ALPHA}), "
        "single-move round-robin dynamics"
    )
    print("district outage re-convergence (timed runs start from the wiped district):")
    for n in SIZES:
        game, start = outage_instance(n)
        for order in ("round_robin", "random"):
            stats = compare_schedules(game, start, order)
            print(
                f"  n={n:>3} {order:>11}: sequential {stats['sequential_s']:6.2f}s  "
                f"batched {stats['batched_s']:6.2f}s  speedup {stats['speedup']:.2f}x  "
                f"hit rate {stats['hit_rate']:.2f}  moves={stats['moves']}  "
                f"identical={stats['same_moves'] and stats['same_cost']}"
            )
            ok &= stats["converged"] and stats["same_moves"] and stats["same_cost"]
            if n == 100 and order == "round_robin":
                ok &= stats["speedup"] >= 1.5
    print("cold start from a spanning tree:")
    for n in (50, 100):
        host, _ = gateway_host(n)
        game = NetworkCreationGame(host, ALPHA)
        stats = compare_schedules(game, spanning_tree_profile(host), "round_robin")
        print(
            f"  n={n:>3} round_robin: sequential {stats['sequential_s']:6.2f}s  "
            f"batched {stats['batched_s']:6.2f}s  speedup {stats['speedup']:.2f}x  "
            f"identical={stats['same_moves'] and stats['same_cost']}"
        )
        ok &= stats["same_moves"] and stats["same_cost"]
    print("OK" if ok else "FAILED: schedules disagree or speedup below target")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
