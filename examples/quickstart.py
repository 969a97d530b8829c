#!/usr/bin/env python
"""Quickstart: build a geometric network creation game and inspect its equilibria.

Eight agents are placed in the unit square; each agent may buy edges towards
any other agent at a price of ``alpha`` times the Euclidean distance and pays
its total shortest-path distance to everyone.  The script

1. computes the social optimum network,
2. runs best-response dynamics from the empty network until they stabilise,
3. certifies whether the reached state is a Nash equilibrium,
4. compares its social cost to the optimum and to the paper's
   ``(alpha + 2)/2`` Price-of-Anarchy upper bound for metric host graphs.

Run with ``python examples/quickstart.py``.
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
    spanner_stretch,
)


def main() -> None:
    rng = np.random.default_rng(7)
    points = rng.random((8, 2))
    alpha = 1.5

    host = HostGraph.from_points(points, p=2)
    game = NetworkCreationGame(host, alpha=alpha)
    print(f"Host graph: {host.n} agents in the unit square, alpha = {alpha}")
    print(f"Model variant: {host.classify().value}")

    opt = social_optimum(game)
    print(f"\nSocial optimum ({opt.method}): cost = {opt.cost:.4f}, "
          f"{opt.profile.num_edges()} edges")

    result = run_dynamics(
        game, StrategyProfile.empty(host.n), SimulationConfig(max_rounds=50)
    )
    final = result.final_profile
    print(f"\nBest-response dynamics: converged = {result.converged} "
          f"after {result.moves} improving moves")
    print(f"Reached network: {final.num_edges()} edges, "
          f"social cost = {game.social_cost(final):.4f}")
    print(f"Is it a Nash equilibrium?  {is_nash_equilibrium(game, final)}")
    print(f"Spanner stretch w.r.t. the host metric: {spanner_stretch(host, final):.4f}")

    ratio = game.social_cost(final) / opt.cost
    print(f"\nEquilibrium cost / optimum cost = {ratio:.4f}")
    print(f"Paper's PoA upper bound for metric hosts (Thm. 1): "
          f"(alpha+2)/2 = {metric_poa_upper(alpha):.4f}")
    assert ratio <= metric_poa_upper(alpha) + 1e-9, "the Theorem 1 bound must hold"
    print("The measured ratio respects the Theorem 1 bound, as expected.")


if __name__ == "__main__":
    main()
