"""The four named dynamics workloads, their instance generators and checks.

The generators are frozen copies of the ones in
``benchmarks/bench_parallel_dynamics.py`` (geometric mesh, BFS spanning
tree), ``benchmarks/bench_batched_dynamics.py`` (gateway host) and
``benchmarks/bench_large_n.py`` (localized tree), so later edits to those
modules cannot move the workloads.

A workload seed never changes the instance's structure: seed 0 is the base
instance, and any other seed relabels its agents by a seeded permutation
and activates them in the relabeled round-robin order.  The relabeled run
is isomorphic to the base run, so every seed does the same amount of work
while the program still sees different inputs (host rows, candidate
order, matrix layout).
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core import NetworkCreationGame, StrategyProfile
from repro.core.host_graph import HostGraph

DEFAULT_SEED = 0
MESH_DEGREE = 9
GATEWAY_MESH_DEGREE = 6
GATEWAY_WEIGHT = 2.0
LOCALIZED_HUBS = 48
CHECK_AGENTS = 6  # agents whose stability the benchmark re-checks from scratch


# ----------------------------------------------------------------------
# Instance generators (frozen copies, see the module docstring)
# ----------------------------------------------------------------------
def mesh_host(n: int, seed: int = 5) -> HostGraph:
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


def gateway_host(n: int, seed: int = 3) -> tuple[HostGraph, int]:
    """A geometric mesh plus a district reachable only through one gateway."""
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
        allowed[u, order[u, 1 : GATEWAY_MESH_DEGREE + 1]] = True
    allowed |= allowed.T
    w = np.full((n, n), np.inf)
    w[: n_mesh + 1, : n_mesh + 1] = np.where(allowed, d, np.inf)
    w[gw, n_mesh + 1 :] = GATEWAY_WEIGHT
    w[n_mesh + 1 :, gw] = GATEWAY_WEIGHT
    wc = rng.uniform(1.0, 2.0, (n_cluster, n_cluster))
    w[n_mesh + 1 :, n_mesh + 1 :] = (wc + wc.T) / 2
    np.fill_diagonal(w, 0.0)
    return HostGraph(w), gw


def localized_instance(n: int, seed: int = 5) -> tuple[NetworkCreationGame, StrategyProfile]:
    """A doubly-owned geometric spanning tree plus solely-owned leaf shortcuts (alpha = 0)."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2)) * np.sqrt(n)
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff**2).sum(-1))
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
                owns[u, v] = owns[v, u] = True
                support[u, v] = support[v, u] = True
                queue.append(v)
    if len(seen) != n:
        raise ValueError("kNN scaffold is disconnected; pick another seed")
    leaves = {u for u in range(n) if u in parent and not children[u]}
    hubs: list[int] = []
    used: set[int] = set()
    for u in sorted(leaves):
        if len(hubs) >= LOCALIZED_HUBS:
            break
        if u in used:
            continue
        p = parent[u]
        for v in sorted(leaves):
            if v == u or v in used or parent[v] != p or not allowed[u, v]:
                continue
            if d[u, v] >= d[u, p] + d[p, v]:
                continue
            owns[u, v] = True
            support[u, v] = support[v, u] = True
            used.update((u, v))
            hubs.append(u)
            break
    if len(hubs) < LOCALIZED_HUBS // 2:
        raise ValueError(f"only {len(hubs)} usable leaf hubs at n={n}")
    w = np.where(support, d, np.inf)
    np.fill_diagonal(w, 0.0)
    return NetworkCreationGame(HostGraph(w), 0.0), StrategyProfile(
        owns, copy=False, validate=False
    )


# ----------------------------------------------------------------------
# Seeded relabeling
# ----------------------------------------------------------------------
def permutation(n: int, seed: int) -> np.ndarray:
    """``perm[old] = new`` label; the identity for the default seed."""
    if seed == DEFAULT_SEED:
        return np.arange(n)
    return np.random.default_rng(seed).permutation(n)


def relabel(
    game: NetworkCreationGame, profile: StrategyProfile, perm: np.ndarray
) -> tuple[NetworkCreationGame, StrategyProfile]:
    weights = np.empty_like(game.host.weights)
    weights[np.ix_(perm, perm)] = game.host.weights
    owns = np.zeros_like(profile.ownership)
    owns[np.ix_(perm, perm)] = profile.ownership
    return (
        NetworkCreationGame(HostGraph(weights), game.alpha),
        StrategyProfile(owns, copy=False, validate=False),
    )


def base_ownership(profile: StrategyProfile, perm: np.ndarray) -> np.ndarray:
    """The profile's ownership matrix in the base instance's labels."""
    return profile.ownership[np.ix_(perm, perm)]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Instance:
    """What one repetition runs: the game, the start state and the activation order."""

    game: NetworkCreationGame
    start: StrategyProfile
    perm: np.ndarray

    @property
    def order(self) -> tuple[int, ...]:
        """Round robin over the base labels, in the relabeled instance."""
        return tuple(int(v) for v in self.perm)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[], tuple[NetworkCreationGame, StrategyProfile]]
    config: dict  # SimulationConfig fields besides order/seed/checkpoints
    converged: bool  # the expected outcome
    checkpoint: bool = False

    def instance(self, seed: int) -> Instance:
        game, start = self.build()
        perm = permutation(game.n, seed)
        game, start = relabel(game, start, perm)
        return Instance(game, start, perm)


def _mesh_tree(n: int, alpha: float) -> tuple[NetworkCreationGame, StrategyProfile]:
    host = mesh_host(n)
    return NetworkCreationGame(host, alpha), spanning_tree_profile(host)


def _gateway_outage(n: int) -> tuple[NetworkCreationGame, StrategyProfile]:
    """Gateway host at equilibrium, then the district's own strategies wiped.

    The warm-up to equilibrium runs the same program under test (a batched
    single-move run, trajectory-identical to the sequential one), so it is
    part of the measured set-up time.
    """
    from repro.core import GameSession, SimulationConfig

    host, gw = gateway_host(n)
    game = NetworkCreationGame(host, 0.3)
    warm_config = SimulationConfig(response="single", schedule="batched", max_rounds=300)
    with GameSession(game, warm_config) as session:
        warm = session.run(spanning_tree_profile(host))
    if not warm.converged:
        raise RuntimeError("gateway warm-up did not converge")
    start = warm.final_profile
    for u in range(gw + 1, n):
        start = start.with_strategy(u, [t for t in start.strategy(u) if t <= gw])
    return game, start


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="mesh-best",
            build=lambda: _mesh_tree(64, 3.0),
            config=dict(response="best", schedule="batched", workers=1, max_rounds=80),
            converged=True,
        ),
        Workload(
            name="gateway-outage",
            build=lambda: _gateway_outage(200),
            config=dict(response="single", schedule="sequential", workers=1, max_rounds=100),
            converged=True,
        ),
        Workload(
            name="tree-certify-pool",
            build=lambda: localized_instance(1000),
            config=dict(response="single", schedule="batched", workers=2, max_rounds=1),
            converged=True,
        ),
        Workload(
            name="mesh-cold-ckpt",
            build=lambda: _mesh_tree(200, 3.0),
            config=dict(response="single", schedule="batched", workers=2, max_rounds=3),
            converged=False,
            checkpoint=True,
        ),
    )
}


# ----------------------------------------------------------------------
# Result checks
# ----------------------------------------------------------------------
def digest(result, perm: np.ndarray, *, exact: bool = True) -> str:
    """Digest of a ``DynamicsResult``, in the base instance's labels.

    Covers convergence, cycle detection, steps, moves, the final ownership,
    the social-cost trajectory, ``EngineStats`` and the proposal-cache
    counters.  ``exact=False`` rounds the costs to 12 significant digits,
    which a relabeled run reproduces even where summation order moves the
    last ulp.
    """
    h = hashlib.sha256()
    stats = result.engine_stats
    head = (
        result.converged,
        result.cycle_detected,
        result.cycle_length,
        result.steps,
        result.moves,
        result.schedule_hits,
        result.schedule_misses,
        None if stats is None else tuple(sorted(vars(stats).items())),
    )
    h.update(repr(head).encode())
    h.update(np.packbits(base_ownership(result.final_profile, perm)).tobytes())
    costs = np.asarray(result.social_costs, dtype=np.float64)
    if exact:
        h.update(costs.tobytes())
    else:
        h.update(",".join(f"{c:.11e}" for c in costs).encode())
    return h.hexdigest()[:16]


def check_result(workload: Workload, inst: Instance, result, seed: int) -> list[str]:
    """Independent checks of a finished run; returns the failures found."""
    from repro.core.best_response import best_response_exact, best_single_move

    game = inst.game
    problems = []
    if result.converged != workload.converged or result.cycle_detected:
        problems.append(
            f"expected converged={workload.converged}, got converged={result.converged} "
            f"cycle={result.cycle_detected}"
        )
    if len(result.social_costs) != result.moves + 1:
        problems.append("social-cost trajectory length differs from moves + 1")
    recomputed = game.social_cost(result.final_profile)
    if not np.isclose(recomputed, result.final_social_cost, rtol=1e-9, atol=0.0):
        problems.append(
            f"final social cost {result.final_social_cost!r} != recomputed {recomputed!r}"
        )
    if result.converged:
        # A converged run left no agent an improving response: re-check a
        # seeded sample of agents with the from-scratch oracle.
        agents = np.random.default_rng(seed).choice(game.n, CHECK_AGENTS, replace=False)
        profile = result.final_profile
        for u in (int(a) for a in agents):
            if workload.config["response"] == "best":
                br = best_response_exact(game, profile, u)
                improving = br.improvement > 1e-9
            else:
                improving = best_single_move(game, profile, u).kind != "none"
            if improving:
                problems.append(f"agent {u} still has an improving response")
    return problems
