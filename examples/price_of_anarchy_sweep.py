#!/usr/bin/env python
"""Price-of-Anarchy sweep across model variants and alpha values.

For every host-graph class of the paper (1-2 graphs, tree metrics, points in
the plane, general metrics) and a range of ``alpha`` values, the script

* samples equilibria of random instances with best-response dynamics,
* measures the worst equilibrium-vs-optimum ratio found,
* evaluates the paper's lower-bound constructions at the same ``alpha``,
* prints everything next to the closed-form upper bounds of Table 1.

The measured random-instance ratios are typically far below the worst case,
while the constructions track their closed forms exactly — the same picture
the paper paints analytically.

The sweep demonstrates the composition of the two parallelism levels,
driven by one :class:`repro.SimulationConfig`: the independent
``(variant, alpha)`` cells are distributed across a
:func:`repro.analysis.run_parallel` process pool with per-cell seeds
derived via :func:`repro.analysis.spawn_seeds`, while each cell runs its
instances through game sessions that share the config's intra-round
workers (``run_parallel(config=...)`` caps its own pool at
``cpu_count // config.workers`` so the machine is not oversubscribed).

Run with ``python examples/price_of_anarchy_sweep.py`` (takes ~a minute).
"""

from __future__ import annotations

from repro import SimulationConfig
from repro.analysis import poa_experiment, run_parallel, spawn_seeds
from repro.constructions import cross_polytope_lower_bound, tree_star_lower_bound
from repro.core.bounds import metric_poa_upper, one_two_poa_upper

VARIANTS = ("one_two", "tree", "euclidean", "metric")
# One config drives every cell: raise workers= to fan each cell's batched
# evaluations out intra-round (run_parallel caps its own pool to match).
CONFIG = SimulationConfig(max_rounds=60, workers=1)


def _cell(variant: str, n: int, alpha: float, seed: int):
    return poa_experiment(
        variant,
        n,
        alpha,
        CONFIG.replace(seed=seed),
        instances=3,
        samples_per_instance=4,
    )


def main() -> None:
    alphas = (0.5, 1.0, 2.0, 4.0)
    n = 6

    header = (f"{'variant':>10} {'alpha':>6} | {'random max ratio':>17} "
              f"{'construction ratio':>19} {'upper bound':>12}")
    print(header)
    print("-" * len(header))

    cells = [(variant, alpha) for alpha in alphas for variant in VARIANTS]
    seeds = spawn_seeds(42, len(cells))
    summaries = run_parallel(
        [
            (_cell, (variant, n, alpha, seed))
            for (variant, alpha), seed in zip(cells, seeds)
        ],
        config=CONFIG,
    )
    by_cell = dict(zip(cells, summaries))

    for alpha in alphas:
        for variant in VARIANTS:
            summary = by_cell[(variant, alpha)]
            if variant == "tree":
                construction = tree_star_lower_bound(n, alpha).measured_ratio
                bound = metric_poa_upper(alpha)
            elif variant == "euclidean":
                construction = cross_polytope_lower_bound(2, alpha).measured_ratio
                bound = metric_poa_upper(alpha)
            elif variant == "one_two":
                construction = float("nan")
                bound = one_two_poa_upper(alpha)
            else:
                construction = tree_star_lower_bound(n, alpha).measured_ratio
                bound = metric_poa_upper(alpha)
            print(
                f"{variant:>10} {alpha:>6.2f} | {summary.max_ratio:>17.4f} "
                f"{construction:>19.4f} {bound:>12.4f}"
            )
        print()

    print("Random instances stay far from the worst case; the paper's explicit")
    print("constructions achieve ratios matching their closed forms and approach")
    print("the (alpha+2)/2 bound as the instances grow.")


if __name__ == "__main__":
    main()
