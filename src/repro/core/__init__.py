"""Core engine of the Generalized Network Creation Game reproduction.

The sub-modules are organised bottom-up:

* :mod:`repro.core.shortest_paths` — dense shortest-path kernels,
* :mod:`repro.core.host_graph`     — weighted host graphs and model variants,
* :mod:`repro.core.strategy`       — immutable strategy profiles,
* :mod:`repro.core.game`           — the cost model (agent and social costs),
* :mod:`repro.core.best_response`  — exact and greedy best responses,
* :mod:`repro.core.incremental`    — cached-distance incremental BR engine,
* :mod:`repro.core.parallel`       — shared-memory worker pool,
* :mod:`repro.core.equilibria`     — NE / GE / AE / β-approximate checks,
* :mod:`repro.core.checkpoint`     — versioned run checkpoints, atomic writes,
* :mod:`repro.core.dynamics`       — response dynamics and cycle detection,
* :mod:`repro.core.social_optimum` — exact / heuristic optima, Algorithm 1,
* :mod:`repro.core.spanner`        — k-spanners (Lemmas 1, 2, Theorem 5),
* :mod:`repro.core.poa`            — Price-of-Anarchy estimation,
* :mod:`repro.core.bounds`         — closed-form bounds of Table 1,
* :mod:`repro.core.session`        — simulation config + game sessions.
"""

from .best_response import (
    BestResponseResult,
    SingleMove,
    best_response_exact,
    best_response_incremental,
    best_single_move,
    greedy_response,
    score_response,
)
from .bounds import (
    ae_to_ne_factor,
    general_poa_upper,
    metric_poa_upper,
    ne_spanner_factor,
    opt_spanner_factor,
    rd_one_norm_poa_lower,
    rd_pnorm_poa_lower_4node,
    tree_poa_tight,
)
from .checkpoint import (
    TRAJECTORY_FIELDS,
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from .dynamics import (
    CycleCheckResult,
    DynamicsResult,
    run_dynamics,
    verify_best_response_cycle,
)
from .equilibria import (
    EquilibriumReport,
    equilibrium_report,
    is_add_only_equilibrium,
    is_approx_greedy_equilibrium,
    is_approx_nash_equilibrium,
    is_greedy_equilibrium,
    is_nash_equilibrium,
)
from .game import AgentCostBreakdown, NetworkCreationGame
from .host_graph import HostGraph, MetricViolation, ModelVariant
from .incremental import EngineStats, IncrementalEngine
from .parallel import (
    EvaluatorStats,
    ParallelEvaluator,
    SharedSnapshot,
    default_workers,
)
from .shortest_paths import (
    CandidateEvaluator,
    DecrementalRepair,
    SingleMoveScorer,
    decremental_distances,
)
from .poa import PoAEstimate, enumerate_nash_equilibria, estimate_poa, sample_equilibria
from .session import (
    GameSession,
    SessionStats,
    SimulationConfig,
    resume_dynamics,
    spawn_seeds,
)
from .social_optimum import (
    OptimumResult,
    algorithm1_one_two,
    exact_social_optimum,
    local_search_social_optimum,
    social_optimum,
)
from .spanner import SpannerResult, greedy_spanner, is_k_spanner, minimum_weight_spanner, spanner_stretch
from .strategy import StrategyProfile

__all__ = [
    "AgentCostBreakdown",
    "BestResponseResult",
    "CandidateEvaluator",
    "Checkpoint",
    "CheckpointError",
    "CycleCheckResult",
    "DecrementalRepair",
    "DynamicsResult",
    "EngineStats",
    "EquilibriumReport",
    "EvaluatorStats",
    "GameSession",
    "HostGraph",
    "IncrementalEngine",
    "MetricViolation",
    "ModelVariant",
    "NetworkCreationGame",
    "OptimumResult",
    "ParallelEvaluator",
    "PoAEstimate",
    "SessionStats",
    "SharedSnapshot",
    "SimulationConfig",
    "SingleMove",
    "SingleMoveScorer",
    "SpannerResult",
    "StrategyProfile",
    "TRAJECTORY_FIELDS",
    "ae_to_ne_factor",
    "algorithm1_one_two",
    "best_response_exact",
    "best_response_incremental",
    "best_single_move",
    "decremental_distances",
    "default_workers",
    "enumerate_nash_equilibria",
    "equilibrium_report",
    "estimate_poa",
    "exact_social_optimum",
    "general_poa_upper",
    "greedy_response",
    "greedy_spanner",
    "is_add_only_equilibrium",
    "is_approx_greedy_equilibrium",
    "is_approx_nash_equilibrium",
    "is_greedy_equilibrium",
    "is_k_spanner",
    "is_nash_equilibrium",
    "load_checkpoint",
    "local_search_social_optimum",
    "metric_poa_upper",
    "minimum_weight_spanner",
    "ne_spanner_factor",
    "opt_spanner_factor",
    "rd_one_norm_poa_lower",
    "rd_pnorm_poa_lower_4node",
    "resume_dynamics",
    "run_dynamics",
    "sample_equilibria",
    "save_checkpoint",
    "score_response",
    "social_optimum",
    "spanner_stretch",
    "spawn_seeds",
    "tree_poa_tight",
    "verify_best_response_cycle",
]
