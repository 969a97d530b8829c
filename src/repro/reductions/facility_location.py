"""Theorem 3: the best-response problem as Uncapacitated Metric Facility Location.

For a fixed agent ``u`` in a metric GNCG, fix the rest of the created
network ``G' = G`` minus ``u``'s owned edges and let ``Z`` be the set of
agents owning an edge towards ``u``.  Theorem 3 builds the UMFL instance

* facilities = clients = ``V \\ {u}``,
* opening cost ``c(f) = 0`` for ``f ∈ Z`` and ``alpha * w(f, u)`` otherwise,
* connection cost ``d(f, j) = d_{G'}(f, j) + w(f, u)``,

and shows that the map ``S ↦ S ∪ Z`` is a cost-preserving bijection between
``u``'s strategies and UMFL solutions containing ``Z``.  Since the local
search of Arya et al. (open / close / swap one facility) has locality gap 3,
any Greedy Equilibrium of the M–GNCG is a 3-approximate Nash equilibrium.

This module implements the instance construction, the cost-preserving
mappings (used by the tests to verify the bijection numerically) and the
Arya et al. local-search solver, which doubles as a polynomial-time
approximate best-response oracle for large instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..core.game import NetworkCreationGame
from ..core.strategy import StrategyProfile

__all__ = [
    "UMFLInstance",
    "umfl_cost",
    "umfl_local_search",
    "umfl_from_agent",
    "strategy_to_facility_solution",
    "facility_solution_to_strategy",
    "best_response_via_facility_location",
]


@dataclass(frozen=True)
class UMFLInstance:
    """An Uncapacitated Facility Location instance.

    Attributes
    ----------
    opening_costs:
        ``(m,)`` array of facility opening costs.
    distances:
        ``(m, c)`` array of facility-to-client connection costs.
    forced_open:
        Indices of facilities that must be open in every considered solution
        (the set ``Z`` of the Theorem 3 reduction, whose opening cost is 0).
    """

    opening_costs: np.ndarray
    distances: np.ndarray
    forced_open: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        oc = np.asarray(self.opening_costs, dtype=float)
        d = np.asarray(self.distances, dtype=float)
        if oc.ndim != 1 or d.ndim != 2 or d.shape[0] != oc.shape[0]:
            raise ValueError("opening_costs must be (m,) and distances (m, c)")
        object.__setattr__(self, "opening_costs", oc)
        object.__setattr__(self, "distances", d)

    @property
    def num_facilities(self) -> int:
        return int(self.opening_costs.shape[0])

    @property
    def num_clients(self) -> int:
        return int(self.distances.shape[1])


def umfl_cost(instance: UMFLInstance, open_facilities: Iterable[int]) -> float:
    """Total cost (opening + connection) of a set of open facilities."""
    open_list = sorted(set(int(f) for f in open_facilities))
    if not open_list:
        return float("inf")
    opening = float(instance.opening_costs[open_list].sum())
    connection = float(instance.distances[open_list].min(axis=0).sum())
    return opening + connection


def umfl_local_search(
    instance: UMFLInstance,
    initial: Iterable[int] | None = None,
    *,
    max_iterations: int = 10_000,
    tol: float = 1e-9,
) -> set[int]:
    """Arya et al. local search: open, close or swap one facility while improving.

    The returned solution always contains ``instance.forced_open``; by the
    locality-gap theorem its cost is at most 3 times the optimum over
    solutions containing the forced facilities.
    """
    m = instance.num_facilities
    forced = set(instance.forced_open)
    if initial is None:
        current = set(forced) if forced else {int(np.argmin(instance.opening_costs))}
    else:
        current = set(int(f) for f in initial) | forced
    if not current:
        current = {0}
    cost = umfl_cost(instance, current)

    for _ in range(max_iterations):
        best_cost = cost
        best_sol: set[int] | None = None
        # open
        for f in range(m):
            if f in current:
                continue
            cand = current | {f}
            c = umfl_cost(instance, cand)
            if c < best_cost - tol:
                best_cost, best_sol = c, cand
        # close
        for f in list(current):
            if f in forced or len(current) == 1:
                continue
            cand = current - {f}
            c = umfl_cost(instance, cand)
            if c < best_cost - tol:
                best_cost, best_sol = c, cand
        # swap
        for f_out in list(current):
            if f_out in forced:
                continue
            for f_in in range(m):
                if f_in in current:
                    continue
                cand = (current - {f_out}) | {f_in}
                c = umfl_cost(instance, cand)
                if c < best_cost - tol:
                    best_cost, best_sol = c, cand
        if best_sol is None:
            break
        current, cost = best_sol, best_cost
    return current


def umfl_from_agent(
    game: NetworkCreationGame, profile: StrategyProfile, u: int
) -> tuple[UMFLInstance, list[int]]:
    """Build the Theorem 3 UMFL instance for agent ``u``.

    Returns the instance together with the list mapping facility index to the
    original node id (facilities and clients are ``V \\ {u}`` in that order).
    """
    n = game.n
    nodes = [v for v in range(n) if v != u]
    d_rest = game.residual_distances(profile, u)
    w_u = game.host.weights[u]
    owners_towards_u = {int(v) for v in np.nonzero(profile.ownership[:, u])[0] if v != u}

    opening = np.array(
        [0.0 if v in owners_towards_u else game.alpha * w_u[v] for v in nodes]
    )
    distances = np.empty((len(nodes), len(nodes)))
    for fi, f in enumerate(nodes):
        distances[fi] = d_rest[f, nodes] + w_u[f]
    forced = frozenset(i for i, v in enumerate(nodes) if v in owners_towards_u)
    return UMFLInstance(opening, distances, forced_open=forced), nodes


def strategy_to_facility_solution(
    strategy: Iterable[int], node_order: Sequence[int], forced_open: Iterable[int]
) -> set[int]:
    """The Theorem 3 map ``pi(S) = S ∪ Z`` in facility-index space."""
    index = {node: i for i, node in enumerate(node_order)}
    solution = {index[v] for v in strategy}
    solution |= set(forced_open)
    return solution


def facility_solution_to_strategy(
    solution: Iterable[int], node_order: Sequence[int], forced_open: Iterable[int]
) -> frozenset[int]:
    """The inverse map ``pi^{-1}(F) = F \\ Z`` back to a strategy of agent ``u``."""
    forced = set(forced_open)
    return frozenset(node_order[f] for f in solution if f not in forced)


def best_response_via_facility_location(
    game: NetworkCreationGame, profile: StrategyProfile, u: int
) -> frozenset[int]:
    """An approximate best response of agent ``u`` obtained by UMFL local search.

    By Theorem 3 the returned strategy cannot be improved by any single
    add/delete/swap of agent ``u`` and its cost is within a factor 3 of
    ``u``'s true best response on metric hosts.
    """
    instance, nodes = umfl_from_agent(game, profile, u)
    initial = strategy_to_facility_solution(profile.strategy(u), nodes, instance.forced_open)
    solution = umfl_local_search(instance, initial)
    return facility_solution_to_strategy(solution, nodes, instance.forced_open)
