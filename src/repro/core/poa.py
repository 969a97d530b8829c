"""Price of Anarchy estimation.

The Price of Anarchy (PoA) of an instance is the worst social-cost ratio of
any Nash equilibrium against the social optimum.  Since enumerating all
equilibria is infeasible beyond toy sizes, the library follows the paper's
own methodology:

* the *lower-bound constructions* of the paper are verified directly (their
  equilibria are known in closed form — see :mod:`repro.constructions`);
* for random instances, equilibria are *sampled* by running best-response
  dynamics from many starting profiles (and from structurally extreme
  profiles such as stars and spanning trees); the worst stable state found
  gives an empirical PoA lower bound while the closed forms in
  :mod:`repro.core.bounds` provide the matching upper bounds.

:func:`enumerate_nash_equilibria` additionally performs exhaustive
equilibrium enumeration for very small instances, which the test-suite uses
to validate the sampling machinery.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .equilibria import is_nash_equilibrium
from .game import NetworkCreationGame
from .social_optimum import OptimumResult
from .strategy import StrategyProfile

if TYPE_CHECKING:  # import cycle: the session imports this module
    from .session import SimulationConfig

__all__ = [
    "PoAEstimate",
    "ratio",
    "sample_equilibria",
    "enumerate_nash_equilibria",
    "estimate_poa",
]

_TOL = 1e-9


@dataclass
class PoAEstimate:
    """Result of an empirical PoA study on one instance."""

    optimum: OptimumResult
    worst_equilibrium: StrategyProfile | None
    worst_equilibrium_cost: float
    best_equilibrium_cost: float
    equilibria_found: int
    equilibrium_kind: str
    samples: int

    @property
    def price_of_anarchy(self) -> float:
        """Worst found equilibrium cost over the optimum cost (empirical lower bound)."""
        if self.worst_equilibrium is None or self.optimum.cost <= _TOL:
            return float("nan")
        return self.worst_equilibrium_cost / self.optimum.cost

    @property
    def price_of_stability(self) -> float:
        """Best found equilibrium cost over the optimum cost (empirical upper bound on PoS)."""
        if self.equilibria_found == 0 or self.optimum.cost <= _TOL:
            return float("nan")
        return self.best_equilibrium_cost / self.optimum.cost


def ratio(game: NetworkCreationGame, equilibrium: StrategyProfile, optimum: StrategyProfile) -> float:
    """Social-cost ratio of an equilibrium profile against an optimum profile."""
    opt_cost = game.social_cost(optimum)
    if opt_cost <= _TOL:
        return float("nan")
    return game.social_cost(equilibrium) / opt_cost


def _initial_profiles(
    game: NetworkCreationGame, num_random: int, rng: np.random.Generator
) -> list[StrategyProfile]:
    """Structurally diverse starting points for equilibrium sampling."""
    n = game.n
    profiles: list[StrategyProfile] = [StrategyProfile.empty(n)]
    for center in range(min(n, 3)):
        profiles.append(StrategyProfile.star(n, center=center))
    profiles.append(StrategyProfile.complete(n))
    from .social_optimum import mst_profile

    try:
        profiles.append(mst_profile(game))
    except ValueError:
        pass
    for _ in range(num_random):
        density = rng.uniform(0.1, 0.6)
        owns = rng.random((n, n)) < density
        np.fill_diagonal(owns, False)
        # avoid double-bought edges in the seed: keep only one direction
        owns &= ~np.tril(np.ones((n, n), dtype=bool))
        extra = rng.random((n, n)) < density / 2
        owns |= np.tril(extra, k=-1)
        profiles.append(StrategyProfile(owns, copy=False, validate=False))
    return profiles


def sample_equilibria(
    game: NetworkCreationGame,
    config: "SimulationConfig | None" = None,
    *,
    num_samples: int = 10,
    verify: str = "nash",
    rng: np.random.Generator | int | None = None,
) -> list[StrategyProfile]:
    """Sample stable profiles by running response dynamics from varied seeds.

    ``verify`` selects the acceptance test for a converged profile:
    ``"nash"`` (exact NE check), ``"greedy"`` (GE check) or ``"none"``.
    The runs are configured by ``config`` and share the engine and worker
    pool of one one-shot :class:`~repro.core.session.GameSession`; every
    configuration reaches the same equilibria — see
    :meth:`repro.core.session.GameSession.sample_equilibria`, which a
    caller holding an open session calls directly.
    """
    from .session import GameSession

    with GameSession(game, config) as one_shot:
        return one_shot.sample_equilibria(
            num_samples=num_samples, verify=verify, rng=rng
        )


def enumerate_nash_equilibria(
    game: NetworkCreationGame,
    *,
    max_nodes: int = 4,
    max_candidates: int = 22,
) -> list[StrategyProfile]:
    """Exhaustively enumerate all pure NE of a very small instance.

    The strategy space has ``(2^(n-1))^n`` profiles, so this is restricted to
    ``n <= max_nodes`` (default 4, i.e. at most 4096 profiles).
    """
    n = game.n
    if n > max_nodes:
        raise ValueError(
            f"exhaustive NE enumeration requested for n={n} > max_nodes={max_nodes}"
        )
    per_agent: list[list[frozenset[int]]] = []
    for u in range(n):
        others = [v for v in range(n) if v != u and np.isfinite(game.host.weights[u, v])]
        subsets = []
        for r in range(len(others) + 1):
            subsets.extend(frozenset(c) for c in itertools.combinations(others, r))
        per_agent.append(subsets)
    equilibria = []
    for combo in itertools.product(*per_agent):
        profile = StrategyProfile.from_sets(n, list(combo))
        if is_nash_equilibrium(game, profile, max_candidates=max_candidates):
            equilibria.append(profile)
    return equilibria


def estimate_poa(
    game: NetworkCreationGame,
    config: "SimulationConfig | None" = None,
    *,
    num_samples: int = 10,
    verify: str = "nash",
    optimum_method: str = "auto",
    extra_equilibria: Iterable[StrategyProfile] = (),
    rng: np.random.Generator | int | None = None,
) -> PoAEstimate:
    """Empirical Price-of-Anarchy estimate for one instance.

    ``extra_equilibria`` lets callers inject known equilibria (e.g. the
    paper's constructions) so the estimate is at least as large as the
    constructions imply.  The estimate runs under ``config`` through one
    one-shot :class:`~repro.core.session.GameSession`, so all sampling runs
    share one engine and worker pool — see
    :meth:`repro.core.session.GameSession.poa`, which a caller holding an
    open session calls directly.
    """
    from .session import GameSession

    with GameSession(game, config) as one_shot:
        return one_shot.poa(
            num_samples=num_samples,
            verify=verify,
            optimum_method=optimum_method,
            extra_equilibria=extra_equilibria,
            rng=rng,
        )
