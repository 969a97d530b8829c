#!/usr/bin/env python
"""Fiber backbone design by selfish ISPs (the paper's motivating scenario).

A set of cities is scattered in the plane.  Each city hosts an ISP that can
lay fiber to any other city at a cost proportional to the geographic
distance (``alpha`` per unit length) and wants low latency — modelled as the
summed shortest-path distance — to every other city.

The script sweeps the price parameter ``alpha`` and reports, for each value:

* the decentralised outcome reached by best-response dynamics (edges built,
  total fiber length, social cost),
* the centrally designed optimum (the Network Design Problem analogue),
* the efficiency loss (cost ratio) against the paper's ``(alpha+2)/2`` bound.

Low ``alpha`` (cheap fiber) yields dense, near-optimal networks; high
``alpha`` yields sparse tree-like networks where selfishness costs more —
exactly the qualitative behaviour the paper's bounds describe.

Run with ``python examples/fiber_backbone_design.py``.
"""

from __future__ import annotations

import numpy as np

from repro import HostGraph, NetworkCreationGame, StrategyProfile
from repro.core import (
    SimulationConfig,
    is_nash_equilibrium,
    metric_poa_upper,
    run_dynamics,
    social_optimum,
)


def city_positions(num_cities: int, seed: int = 11) -> np.ndarray:
    """A reproducible scatter of cities with a couple of dense clusters."""
    rng = np.random.default_rng(seed)
    clusters = rng.random((3, 2)) * 8.0
    assignments = rng.integers(0, 3, size=num_cities)
    return clusters[assignments] + rng.normal(scale=0.8, size=(num_cities, 2))


def total_fiber_length(game: NetworkCreationGame, profile: StrategyProfile) -> float:
    return sum(game.host.weight(u, v) for u, v in profile.edges())


def main() -> None:
    num_cities = 8
    positions = city_positions(num_cities)
    host = HostGraph.from_points(positions, p=2)

    print(f"{num_cities} cities, pairwise distances from Euclidean geometry\n")
    header = (f"{'alpha':>6} | {'edges':>5} {'fiber':>8} {'NE cost':>10} | "
              f"{'OPT cost':>10} {'ratio':>7} {'bound':>7} | {'is NE':>5}")
    print(header)
    print("-" * len(header))

    for alpha in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        game = NetworkCreationGame(host, alpha=alpha)
        dynamics = run_dynamics(
            game, StrategyProfile.empty(num_cities), SimulationConfig(max_rounds=60)
        )
        network = dynamics.final_profile
        opt = social_optimum(game)
        ne_cost = game.social_cost(network)
        ratio = ne_cost / opt.cost
        print(
            f"{alpha:>6.2f} | {network.num_edges():>5d} "
            f"{total_fiber_length(game, network):>8.2f} {ne_cost:>10.2f} | "
            f"{opt.cost:>10.2f} {ratio:>7.3f} {metric_poa_upper(alpha):>7.2f} | "
            f"{str(is_nash_equilibrium(game, network)):>5}"
        )

    print(
        "\nCheap fiber (small alpha) lets selfish ISPs build near-optimal dense"
        "\nnetworks; expensive fiber pushes the outcome towards sparse spanning"
        "\nstructures whose efficiency loss grows with alpha, but always stays"
        "\nwithin the (alpha+2)/2 bound of Theorem 1."
    )


if __name__ == "__main__":
    main()
