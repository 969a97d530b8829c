"""Empirical experiments: PoA sweeps and dynamics-convergence studies.

The experiments follow the methodology implied by the paper: equilibria are
sampled with best-response dynamics (the paper's own notion of natural game
play), their social costs are compared against exact or structural optima,
and the measured ratios are reported next to the closed-form bounds of
:mod:`repro.core.bounds`.

Independent instances are embarrassingly parallel, so :func:`run_parallel`
executes experiment callables across processes with
:class:`concurrent.futures.ProcessPoolExecutor`; every experiment function
is also usable serially (``workers=0``), which the test-suite relies on.

Two levels of parallelism compose here.  *Instance-level*: independent
``(callable, args)`` tasks across a :func:`run_parallel` process pool.
*Intra-round*: a config's ``workers`` field fans the batched evaluations
of a single dynamics run out to worker processes over shared-memory
snapshots (:mod:`repro.core.parallel`).  When composing the two, pass the
tasks' config to :func:`run_parallel` so the instance-level pool is capped
at ``cpu_count // config.workers`` and the machine is never
oversubscribed.  Per-instance seeds for parallel sweeps should come from
:func:`spawn_seeds` (``numpy.random.SeedSequence.spawn``), which makes the
streams independent and reproducible regardless of scheduling order.

Every sweep is configured by one
:class:`~repro.core.session.SimulationConfig` (``config=``; its ``seed``
is the sweep's root seed) and executes its per-instance dynamics runs
through one
:class:`~repro.core.session.GameSession` per instance, so the runs of an
instance share a single incremental engine and, for ``workers > 1``, a
single shared-memory worker pool instead of paying pool start-up per run.
The engines compute identical best responses, the schedules follow
identical trajectories and the worker counts produce bit-identical
results — all of these switches trade nothing but time; see
:mod:`repro.core.session`, :mod:`repro.core.incremental`,
:mod:`repro.core.parallel` and :mod:`repro.core.dynamics`.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..core.bounds import general_poa_upper, metric_poa_upper
from ..core.parallel import default_workers
from ..core.game import NetworkCreationGame
from ..core.host_graph import HostGraph, ModelVariant
from ..core.session import (
    MAX_ROUNDS_CONVERGENCE,
    GameSession,
    SimulationConfig,
    spawn_seeds,
)
from ..core.strategy import StrategyProfile
from ..metrics.generators import (
    random_euclidean_host,
    random_general_host,
    random_metric_host,
    random_one_two_host,
    random_tree_host,
)

__all__ = [
    "PoASummary",
    "DynamicsSummary",
    "host_factory",
    "poa_experiment",
    "sweep_alpha",
    "dynamics_convergence_experiment",
    "spawn_seeds",
    "run_parallel",
]


@dataclass
class PoASummary:
    """Aggregated PoA measurements for one (variant, n, alpha) cell."""

    variant: str
    n: int
    alpha: float
    instances: int
    max_ratio: float
    mean_ratio: float
    upper_bound: float
    bound_respected: bool
    equilibria_found: int


@dataclass
class DynamicsSummary:
    """Aggregated convergence statistics of best-response dynamics."""

    variant: str
    n: int
    alpha: float
    instances: int
    runs: int
    converged_runs: int
    cycling_runs: int
    mean_moves_to_converge: float
    max_moves_to_converge: int

    @property
    def convergence_rate(self) -> float:
        return self.converged_runs / self.runs if self.runs else float("nan")


def host_factory(variant: str, n: int, rng: np.random.Generator) -> HostGraph:
    """Generate a random host of the requested variant (by Table 1 row name)."""
    variant = variant.lower()
    if variant in ("ncg", "unit"):
        return HostGraph.unit(n)
    if variant in ("1-2", "one_two", "1-2-gncg"):
        return random_one_two_host(n, rng=rng)
    if variant in ("tree", "t-gncg"):
        return random_tree_host(n, rng=rng)
    if variant in ("euclidean", "rd", "rd-gncg", "r2"):
        return random_euclidean_host(n, rng=rng)
    if variant in ("metric", "m-gncg"):
        return random_metric_host(n, rng=rng)
    if variant in ("general", "gncg"):
        return random_general_host(n, rng=rng)
    raise ValueError(f"unknown host variant {variant!r}")


def _upper_bound_for(host: HostGraph, alpha: float) -> float:
    if host.classify().is_special_case_of(ModelVariant.METRIC):
        return metric_poa_upper(alpha)
    return general_poa_upper(alpha)


def poa_experiment(
    variant: str,
    n: int,
    alpha: float,
    config: SimulationConfig | None = None,
    *,
    instances: int = 5,
    samples_per_instance: int = 6,
) -> PoASummary:
    """Measure the empirical PoA of random instances of one variant.

    Each instance contributes the worst ratio over all sampled equilibria;
    the summary reports the maximum and mean over instances and whether the
    relevant closed-form upper bound was respected by every measurement.
    Instances are drawn from the config's seed policy
    (:meth:`~repro.core.session.SimulationConfig.rng`) and every instance
    runs through one :class:`~repro.core.session.GameSession` opened on
    ``config``, so all ``samples_per_instance`` dynamics runs of an
    instance share a single engine and worker pool.
    """
    cfg = SimulationConfig() if config is None else config
    rng = cfg.rng()
    ratios: list[float] = []
    found = 0
    bound_ok = True
    bound_val = float("nan")
    for i in range(instances):
        host = host_factory(variant, n, rng)
        game = NetworkCreationGame(host, alpha)
        bound_val = _upper_bound_for(host, alpha)
        with GameSession(game, cfg) as session:
            estimate = session.poa(num_samples=samples_per_instance, rng=rng)
        found += estimate.equilibria_found
        poa = estimate.price_of_anarchy
        if np.isnan(poa):
            continue
        ratios.append(poa)
        if estimate.optimum.exact and poa > bound_val + 1e-6:
            bound_ok = False
    return PoASummary(
        variant=variant,
        n=n,
        alpha=alpha,
        instances=instances,
        max_ratio=float(np.max(ratios)) if ratios else float("nan"),
        mean_ratio=float(np.mean(ratios)) if ratios else float("nan"),
        upper_bound=bound_val,
        bound_respected=bound_ok,
        equilibria_found=found,
    )


def sweep_alpha(
    variant: str,
    n: int,
    alphas: Sequence[float],
    config: SimulationConfig | None = None,
    *,
    instances: int = 3,
    samples_per_instance: int = 4,
) -> list[PoASummary]:
    """Run :func:`poa_experiment` for every alpha in a sweep.

    Per-alpha seeds are derived from the config's root seed with
    :meth:`~repro.core.session.SimulationConfig.spawn_seeds`, so the cells
    of the sweep are statistically independent and may be distributed
    across a :func:`run_parallel` pool without changing any result.
    """
    cfg = SimulationConfig() if config is None else config
    seeds = cfg.spawn_seeds(len(alphas))
    return [
        poa_experiment(
            variant,
            n,
            float(alpha),
            cfg.replace(seed=cell_seed),
            instances=instances,
            samples_per_instance=samples_per_instance,
        )
        for alpha, cell_seed in zip(alphas, seeds)
    ]


def dynamics_convergence_experiment(
    variant: str,
    n: int,
    alpha: float,
    config: SimulationConfig | None = None,
    *,
    instances: int = 5,
    runs_per_instance: int = 4,
) -> DynamicsSummary:
    """Measure how often best-response dynamics converge on random instances.

    Configured like :func:`poa_experiment` (an unset ``max_rounds`` means
    40 rounds); all ``runs_per_instance`` runs of an instance share one
    :class:`~repro.core.session.GameSession` (and hence one worker pool).
    """
    cfg = SimulationConfig() if config is None else config
    if cfg.max_rounds is None:
        cfg = cfg.replace(max_rounds=MAX_ROUNDS_CONVERGENCE)
    rng = cfg.rng()
    converged = 0
    cycling = 0
    total_runs = 0
    moves: list[int] = []
    for _ in range(instances):
        host = host_factory(variant, n, rng)
        game = NetworkCreationGame(host, alpha)
        with GameSession(game, cfg) as session:
            for _ in range(runs_per_instance):
                total_runs += 1
                density = rng.uniform(0.1, 0.5)
                owns = np.triu(rng.random((n, n)) < density, k=1)
                start = StrategyProfile(owns, copy=False, validate=False)
                result = session.run(start, rng=rng)
                if result.converged:
                    converged += 1
                    moves.append(result.moves)
                if result.cycle_detected:
                    cycling += 1
    return DynamicsSummary(
        variant=variant,
        n=n,
        alpha=alpha,
        instances=instances,
        runs=total_runs,
        converged_runs=converged,
        cycling_runs=cycling,
        mean_moves_to_converge=float(np.mean(moves)) if moves else float("nan"),
        max_moves_to_converge=int(np.max(moves)) if moves else 0,
    )


def run_parallel(
    tasks: Iterable[tuple[Callable, tuple]],
    *,
    workers: int | None = None,
    config: SimulationConfig | None = None,
):
    """Execute ``(callable, args)`` tasks, optionally across processes.

    ``workers=0`` (or a single task) runs serially in-process; otherwise a
    :class:`ProcessPoolExecutor` with ``workers`` processes (default: CPU
    count capped at 8) is used.  Results are returned in task order.

    When the tasks run under a :class:`~repro.core.session.SimulationConfig`,
    pass it as ``config``: each task spawns ``config.workers`` processes of
    its own (1 without a config), so the instance-level pool is capped at
    ``cpu_count // config.workers`` (at least 1) and composing the two
    levels of parallelism never oversubscribes the machine.  Task seeds
    should be pre-derived with :func:`spawn_seeds` and passed through
    ``args``, which keeps the sweep reproducible no matter how tasks land
    on processes.
    """
    workers_per_task = config.workers if config is not None else 1
    task_list = list(tasks)
    if workers == 0 or len(task_list) <= 1:
        return [fn(*args) for fn, args in task_list]
    # Cap by the CPUs actually available to this process (sched_getaffinity,
    # i.e. cgroup/affinity aware) — the same count the intra-round evaluator
    # sizes its pools by — not by the machine-wide os.cpu_count().
    available = default_workers()
    cap = max(1, available // workers_per_task)
    explicit = workers is not None
    if workers is None:
        workers = min(available, 8)
    workers = max(1, min(int(workers), cap))
    if workers == 1 and not explicit:
        # Nothing to gain from a single-process pool; an *explicit* request
        # still runs in child processes below (callers may rely on process
        # isolation), it is only narrowed to the capped worker count.
        return [fn(*args) for fn, args in task_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args) for fn, args in task_list]
        return [f.result() for f in futures]
