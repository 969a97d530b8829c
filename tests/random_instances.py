"""Random game instances and tolerant comparisons shared by the test-suite.

``VARIANTS`` maps each model variant of the paper (NCG, 1-2, 1-∞, tree,
euclidean/Rd, metric, general) to a host generator; ``_random_game`` and
``_random_profile`` draw an instance and a starting profile from a
caller-owned generator, so every test that seeds its generator the same
way sees the same instances.  ``_same_cost`` and ``_same_matrix`` compare
costs and distance matrices up to the floating-point slack that separates
a cached computation from a from-scratch one.
"""

from __future__ import annotations

import numpy as np

from repro.core import NetworkCreationGame, StrategyProfile
from repro.metrics.generators import (
    random_euclidean_host,
    random_general_host,
    random_metric_host,
    random_one_infinity_host,
    random_one_two_host,
    random_tree_host,
    unit_host,
)

VARIANTS = {
    "ncg": lambda n, rng: unit_host(n),
    "one_two": lambda n, rng: random_one_two_host(n, rng=rng),
    "one_infinity": lambda n, rng: random_one_infinity_host(n, rng=rng),
    "tree": lambda n, rng: random_tree_host(n, rng=rng),
    "euclidean": lambda n, rng: random_euclidean_host(n, rng=rng),
    "metric": lambda n, rng: random_metric_host(n, rng=rng),
    "general": lambda n, rng: random_general_host(n, rng=rng),
}


def _random_profile(n: int, rng: np.random.Generator, density: float = 0.35) -> StrategyProfile:
    owns = rng.random((n, n)) < density
    np.fill_diagonal(owns, False)
    return StrategyProfile(owns, copy=False, validate=False)


def _random_game(variant: str, n: int, rng: np.random.Generator) -> NetworkCreationGame:
    host = VARIANTS[variant](n, rng)
    return NetworkCreationGame(host, float(rng.uniform(0.2, 3.0)))


def _same_cost(a: float, b: float, tol: float = 1e-9) -> bool:
    """Equality treating two infinities (disconnected agents) as equal."""
    if np.isinf(a) or np.isinf(b):
        return np.isinf(a) and np.isinf(b)
    return abs(a - b) <= tol * max(1.0, abs(a))


def _same_matrix(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """Same finite pattern, and the finite entries equal up to ``tol``."""
    fa, fb = np.isfinite(a), np.isfinite(b)
    return bool(np.array_equal(fa, fb) and np.allclose(a[fa], b[fb], atol=tol))
