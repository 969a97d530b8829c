"""Simulation configuration and the session that owns engines, caches and pools.

Every knob of a run lives in one :class:`SimulationConfig`, and a
:class:`GameSession` owns the machinery that runs it.  For sweeps that run
dynamics dozens of times on one instance (equilibrium sampling, PoA
estimation) the worker-pool start-up dominates at small ``n``, so a
session builds its engine and pool once and reuses them across runs:

``SimulationConfig``
    A frozen dataclass bundling every knob of a dynamics run — activation
    ``schedule``, ``workers``, ``response`` kind,
    activation ``order``, ``max_rounds``, ``max_candidates``, the ``seed``
    policy and the checkpoint policy.  It
    validates its cross-field rules (``__post_init__``), supports
    functional update (:meth:`SimulationConfig.replace`) and round-trips
    through plain dicts (:meth:`SimulationConfig.to_dict` /
    :meth:`SimulationConfig.from_dict`) so the CLI can load it from JSON.
    The seed policy lives here too: :meth:`SimulationConfig.rng` derives the
    default per-run generator and :meth:`SimulationConfig.spawn_seeds`
    derives independent child seeds (:class:`numpy.random.SeedSequence`),
    so every entry point draws randomness the same way.

``GameSession``
    A context manager scoped to ``(game, config)`` that lazily builds and
    **owns** the incremental engine, the batched schedule's proposal cache
    and — the point of the exercise — a *single* shared
    :class:`~repro.core.parallel.ParallelEvaluator`, reused across every
    run of the session.  ``run``, ``sample_equilibria`` and ``poa`` are the
    session-native equivalents of :func:`repro.core.dynamics.run_dynamics`,
    :func:`repro.core.poa.sample_equilibria` and
    :func:`repro.core.poa.estimate_poa`; :meth:`GameSession.stats` reports
    how many engines/evaluators the session actually created (exactly one
    each, however many runs are made) plus cumulative engine counters.

The free entry points (:func:`~repro.core.dynamics.run_dynamics`,
:func:`~repro.core.poa.sample_equilibria`,
:func:`~repro.core.poa.estimate_poa` and the sweeps of
:mod:`repro.analysis.experiments`) take a ``config`` and open a one-shot
session, so everything a call creates, the call closes; session users
amortize the pool across all runs of an instance.  A run through a session
is *bit-identical* — same trajectory, same
:class:`~repro.core.incremental.EngineStats` — to the same one-shot run,
because the session resets (never reuses) engine state between runs; only
the worker pool survives.  With ``workers > 1`` the session injects its one
:class:`~repro.core.parallel.ParallelEvaluator` worker pool into the
engine; a pool that breaks beyond its one in-place rebuild falls back to
in-process scoring, bit-identically.

Ownership rules (the invariants every layer must preserve):

1. **Whoever creates an engine or evaluator closes it — and nobody
   else.**  A one-shot entry point builds its own session and cleans up on
   return; a run through an explicit session closes nothing.
2. **The session is the only pool owner.**  It alone builds engines and
   always injects its evaluator; an engine scores serially or through the
   injected evaluator and never closes it, so per-run engine resets never
   churn the session's pool.
3. **Sessions reset — never rebuild — engine state between runs**, so a
   session run is bit-identical (trajectory *and* stats) to a one-shot
   run; only pool start-up is amortized.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, NamedTuple

import numpy as np

from .checkpoint import (
    TRAJECTORY_FIELDS,
    Checkpoint,
    load_checkpoint,
    rng_from_state,
)
from .dynamics import (
    _TOL,
    DynamicsResult,
    _ProposalCache,
    _ResumeState,
    _run_session_loop,
)
from .equilibria import is_greedy_equilibrium, is_nash_equilibrium
from .game import NetworkCreationGame
from .incremental import EngineStats, IncrementalEngine
from .parallel import EvaluatorStats, ParallelEvaluator
from .poa import PoAEstimate, _initial_profiles
from .social_optimum import social_optimum
from .strategy import StrategyProfile

if TYPE_CHECKING:
    from .faults import FaultPlan, PoolFaultHook

__all__ = [
    "SimulationConfig",
    "GameSession",
    "SessionStats",
    "spawn_seeds",
    "resume_dynamics",
]


_SCHEDULES = ("sequential", "batched")
_RESPONSES = ("best", "greedy", "single")
_ORDERS = ("round_robin", "random", "max_gain")

# Config fields a session cannot change per run: they shape the owned
# worker pool, so changing them needs a fresh session.  A per-run
# "override" that equals the session's value is accepted (no-op).
_SESSION_SCOPED = ("workers",)

# Fields whose None means "unset" (the entry point's default), with the
# type any other value is coerced to.
_OPTIONAL_FIELD_TYPES: tuple[tuple[str, Callable[[Any], Any]], ...] = (
    ("max_rounds", int),
    ("seed", int),
    ("checkpoint_every", int),
    ("checkpoint_path", lambda path: str(os.fspath(path))),
)

# Marks a retired field that is dropped whatever its value.
_ANY_VALUE = object()


class _Retired(NamedTuple):
    """A config field older releases wrote, and why it is gone."""

    old_default: Any
    reason: str


_FLEET = (
    "configured the remote evaluator backend and its failover, which were "
    "removed; score on the local worker pool with workers=N instead"
)

# Fields older releases wrote into every dumped config and checkpoint and
# that no longer exist, each with the default those files hold.  from_dict
# drops a retired key that holds its old default, so the files still load;
# any other value asked for behaviour that is gone and raises with the
# entry's reason.
RETIRED_FIELDS: dict[str, _Retired] = {
    "engine": _Retired(
        "incremental",
        "selected the from-scratch 'exact' engine, which replayed the "
        "incremental engine's trajectories more slowly; every run now uses "
        "the incremental engine",
    ),
    "buffering": _Retired(
        _ANY_VALUE, "chose one or two shared-memory slot banks, which scored identically"
    ),
    "residual_encoding": _Retired(
        _ANY_VALUE, "chose dense or delta slot writes, which scored identically"
    ),
    "backend": _Retired("local", _FLEET),
    "endpoints": _Retired([], _FLEET),
    "batch_timeout": _Retired(None, _FLEET),
    "max_retries": _Retired(None, _FLEET),
    "failover": _Retired("ladder", _FLEET),
    "auth_token": _Retired(None, _FLEET),
    "breaker_trip_after": _Retired(None, _FLEET),
    "breaker_base_delay": _Retired(None, _FLEET),
    "breaker_max_delay": _Retired(None, _FLEET),
    "breaker_jitter": _Retired(None, _FLEET),
    "repair_threshold": _Retired(
        0.5,
        "bounded the incremental engine's decremental repair, which now falls "
        "back to a full rebuild once more than half the sources are affected",
    ),
}

# Entry-point round budgets applied when ``max_rounds`` is None ("not
# configured"): each entry point keeps its historical budget.
MAX_ROUNDS_RUN = 100  # run_dynamics / GameSession.run
MAX_ROUNDS_SAMPLING = 60  # sample_equilibria / estimate_poa / poa_experiment
MAX_ROUNDS_CONVERGENCE = 40  # dynamics_convergence_experiment
MAX_ROUNDS_SIMULATE = 60  # repro simulate


def spawn_seeds(seed: int, count: int) -> list[int]:
    """Derive ``count`` independent child seeds from one root seed.

    Uses :meth:`numpy.random.SeedSequence.spawn`, whose children carry
    NumPy's documented statistical-independence guarantee (ad-hoc
    ``seed + i`` derivation offers no such guarantee, and collides outright
    when two sweeps use overlapping base-seed ranges).  Each child is
    rendered as a full 128-bit integer — not a truncated word, which would
    reintroduce birthday-bound collisions across large sweeps — and
    ``numpy.random.default_rng`` consumes integers of any size, so the
    guarantee survives the round-trip.  Each child is a pure function of
    ``(seed, index)``, so a parallel sweep seeded this way is reproducible
    regardless of how its tasks are scheduled across processes.
    """
    parent = np.random.SeedSequence(int(seed))
    return [
        int.from_bytes(child.generate_state(4, dtype=np.uint32).tobytes(), "little")
        for child in parent.spawn(int(count))
    ]


@dataclass(frozen=True)
class SimulationConfig:
    """Every knob of a dynamics run, validated and serializable.

    ``SimulationConfig()`` is the configuration of a bare
    ``run_dynamics(game, initial)`` call.  The fields:

    * ``schedule`` — ``"sequential"`` re-scores every agent at every
      activation; ``"batched"`` replays cached proposals an applied move
      provably left valid (identical trajectory, see
      :mod:`repro.core.dynamics`).
    * ``workers`` — worker processes for batched evaluations (the batched
      schedule's prefill and every ``max_gain`` step; the sequential
      schedule scores one agent per activation and gains nothing); the
      trajectory and every counter are bit-identical for every count.
    * ``response`` — ``"best"`` (exact best response), ``"greedy"``
      (single-move local optimum) or ``"single"`` (one best single move).
    * ``max_candidates`` — the candidate budget of an exact best response.
    * ``order``, ``max_rounds``, ``seed`` and the checkpoint policy —
      described below.

    ``order`` is one of the named activation orders (``"round_robin"``,
    ``"random"``, ``"max_gain"`` — the agent with the largest available
    improvement) or an explicit activation sequence, which is normalized to
    a tuple of ints so configs stay hashable and equality-comparable.  A
    round activates every agent once (for an explicit sequence, one pass
    over it).  ``max_rounds=None`` (the default) means "the
    entry point's historical budget" — 100 for a plain dynamics run, 60
    for equilibrium sampling, 40 for the convergence study — so one config
    serves every entry point without silently changing any budget; set an
    integer to pin the budget everywhere the config is used.  ``seed`` is
    the root of the config's seed policy:
    :meth:`rng` builds the default per-run generator from it and
    :meth:`spawn_seeds` derives independent child seeds for sweep cells;
    ``seed=None`` means "the fixed default stream" (seed 0 — never OS
    entropy, so two equal configs always replay identical trajectories).

    ``checkpoint_every``/``checkpoint_path`` set the run's checkpoint
    policy (see :mod:`repro.core.checkpoint`): every
    ``checkpoint_every``-th round boundary the complete loop/engine/cache
    state is atomically serialized to ``checkpoint_path`` — a ``{round}``
    placeholder in the path keeps one file per boundary, otherwise the file
    always holds the latest boundary.  ``checkpoint_path`` alone implies
    ``checkpoint_every=1``; ``checkpoint_every`` without a path is an
    error.  A checkpointed run resumed via :meth:`GameSession.resume`,
    :func:`resume_dynamics` or ``repro resume`` continues byte-identically
    — trajectories, converged costs and stats — even in a fresh process and
    even onto a different worker count, and honors the *remaining* round
    budget, never a restarted one.
    """

    schedule: str = "sequential"
    workers: int = 1
    response: str = "best"
    order: str | tuple[int, ...] = "round_robin"
    max_rounds: int | None = None
    max_candidates: int = 22
    seed: int | None = 0
    checkpoint_every: int | None = None
    checkpoint_path: str | None = None

    def __post_init__(self) -> None:
        if self.schedule not in _SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.response not in _RESPONSES:
            raise ValueError(f"unknown response kind {self.response!r}")
        # Coercion failures (e.g. {"workers": null} or {"order": 5} in a JSON
        # config file) must surface as ValueError — the error type callers
        # like the CLI catch — never as a raw TypeError traceback.
        try:
            if isinstance(self.order, str):
                if self.order not in _ORDERS:
                    raise ValueError(f"unknown order {self.order!r}")
            else:
                object.__setattr__(self, "order", tuple(int(a) for a in self.order))
            object.__setattr__(self, "workers", int(self.workers))
            object.__setattr__(self, "max_candidates", int(self.max_candidates))
            for name, convert in _OPTIONAL_FIELD_TYPES:
                value = getattr(self, name)
                if value is not None:
                    object.__setattr__(self, name, convert(value))
        except TypeError as exc:
            raise ValueError(f"invalid SimulationConfig field value: {exc}") from exc
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_rounds is not None and self.max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.checkpoint_every is not None and self.checkpoint_path is None:
            raise ValueError(
                "checkpoint_every without checkpoint_path: there is nowhere "
                "to write the checkpoints"
            )
        if self.checkpoint_path is not None and self.checkpoint_every is None:
            # A path alone means "checkpoint every round boundary".
            object.__setattr__(self, "checkpoint_every", 1)
        if self.schedule == "batched" and self.order == "max_gain":
            raise ValueError(
                "schedule='batched' does not support order='max_gain' "
                "(max-gain activation already re-scores every agent per step)"
            )

    # ------------------------------------------------------------------
    # Functional update and serialization
    # ------------------------------------------------------------------
    def replace(self, **changes: Any) -> "SimulationConfig":
        """A new validated config with ``changes`` applied (the original is untouched)."""
        if not changes:
            return self
        unknown = set(changes) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise ValueError(
                f"unknown SimulationConfig field(s): {sorted(unknown)}"
            )
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON-safe dict; inverse of :meth:`from_dict`."""
        data = dataclasses.asdict(self)
        if not isinstance(self.order, str):
            data["order"] = list(self.order)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationConfig":
        """Build a validated config from a dict (e.g. parsed from JSON).

        Unknown keys are rejected so a typo in a config file fails loudly
        instead of silently falling back to a default.  The
        :data:`RETIRED_FIELDS` of older configs and checkpoints are dropped
        when they hold their old default; any other value raises, naming
        the field.
        """
        if not isinstance(data, Mapping):
            raise ValueError(
                f"config must be a mapping of field names, got {type(data).__name__}"
            )
        for key, (old_default, reason) in RETIRED_FIELDS.items():
            value = data.get(key, old_default)
            if old_default is not _ANY_VALUE and value != old_default:
                raise ValueError(
                    f"SimulationConfig field {key!r} {reason} "
                    f"(only the old default {old_default!r} still loads)"
                )
        data = {key: value for key, value in data.items() if key not in RETIRED_FIELDS}
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown SimulationConfig field(s): {sorted(unknown)}")
        return cls(**data)

    # ------------------------------------------------------------------
    # Seed policy
    # ------------------------------------------------------------------
    def root_seed(self) -> int:
        """The effective root seed: ``seed``, with ``None`` meaning the fixed stream 0."""
        return 0 if self.seed is None else self.seed

    def rng(self) -> np.random.Generator:
        """The config's default per-run generator (fixed seed, never OS entropy)."""
        return np.random.default_rng(self.root_seed())

    def spawn_seeds(self, count: int) -> list[int]:
        """``count`` independent child seeds of the config's root seed (see :func:`spawn_seeds`)."""
        return spawn_seeds(self.root_seed(), count)


@dataclass(frozen=True)
class SessionStats:
    """What a :class:`GameSession` built and did over its lifetime.

    ``engines_created``/``evaluators_created`` count actual constructions —
    a session reuses both across runs, so they stay at (at most) 1 however
    many runs are made, which is exactly what the pool-amortization tests
    assert.  ``evaluator_pools_started`` counts worker-pool launches of the
    shared evaluator (lazy: 0 until a batch is sent to the pool) and
    ``engine_stats`` accumulates the per-run
    :class:`~repro.core.incremental.EngineStats` counters.

    ``evaluator_stats`` is the shared evaluator's own
    :class:`~repro.core.parallel.EvaluatorStats`, including the pool's
    failure/rebuild/fallback counters.  It is ``None`` until an evaluator
    exists, and :meth:`GameSession.close` snapshots it, so the counters
    survive session teardown.
    """

    runs: int
    engines_created: int
    evaluators_created: int
    evaluator_pools_started: int
    evaluator_running: bool
    engine_stats: EngineStats
    schedule_hits: int
    schedule_misses: int
    evaluator_stats: "EvaluatorStats | None" = None


class GameSession:
    """Context manager owning the simulation machinery for one ``(game, config)``.

    The session lazily builds the
    :class:`~repro.core.incremental.IncrementalEngine` (reset — never
    rebuilt — between runs), the batched schedule's proposal cache and,
    with ``workers > 1``, a single shared
    :class:`~repro.core.parallel.ParallelEvaluator` worker pool injected
    into the engine, so every run of the session reuses one pool
    (``SessionStats.evaluator_pools_started`` stays at 1 however many runs
    a sweep makes).  A pool that breaks beyond its one in-place rebuild
    falls back to in-process scoring with bit-identical results (see
    :meth:`~repro.core.parallel.ParallelEvaluator.evaluate`).
    :meth:`close` (or context-manager exit) tears all of it down; engines
    never close the evaluator, so nothing a session owns is destroyed by
    the runs inside it.

    Per-run keyword overrides may change ``response``, ``order``,
    ``schedule``, ``max_rounds``, ``max_candidates``, ``seed`` and the
    checkpoint policy; the session-scoped field ``workers`` is fixed for
    the session's lifetime because it shapes the owned evaluator (open a
    new session — or :meth:`SimulationConfig.replace` the config — to
    change it).
    """

    def __init__(
        self, game: NetworkCreationGame, config: SimulationConfig | None = None
    ) -> None:
        self._game = game
        self._config = SimulationConfig() if config is None else config
        self._engine: IncrementalEngine | None = None
        self._evaluator: ParallelEvaluator | None = None
        self._cache: _ProposalCache | None = None
        self._closed = False
        self._runs = 0
        self._engines_created = 0
        self._evaluators_created = 0
        self._pools_started = 0  # snapshot surviving close() of the evaluator
        self._final_evaluator_stats: EvaluatorStats | None = None
        self._cum_stats = EngineStats()
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------
    # State and lifecycle
    # ------------------------------------------------------------------
    @property
    def game(self) -> NetworkCreationGame:
        return self._game

    @property
    def config(self) -> SimulationConfig:
        return self._config

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def evaluator(self) -> ParallelEvaluator | None:
        """The session's shared evaluator, if one exists yet (else ``None``).

        The session owns it: do **not** ``close()`` it.
        """
        return self._evaluator

    def close(self) -> None:
        """Drop the engine and proposal cache, tear down the pool (idempotent)."""
        self._closed = True
        self._engine = None
        evaluator, self._evaluator = self._evaluator, None
        if evaluator is not None:
            self._pools_started = evaluator.pools_started
            self._final_evaluator_stats = evaluator.stats
            evaluator.close()
        self._cache = None

    def __enter__(self) -> "GameSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"runs={self._runs}"
        return f"GameSession(n={self._game.n}, {state}, config={self._config!r})"

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("GameSession is closed; open a new session")

    # ------------------------------------------------------------------
    # Owned resources
    # ------------------------------------------------------------------
    def _shared_evaluator(self) -> ParallelEvaluator | None:
        """The session's single shared worker pool (created once, lazily).

        ``None`` unless the config sets ``workers > 1``.
        """
        cfg = self._config
        if cfg.workers <= 1:
            return None
        if self._evaluator is None:
            self._evaluator = ParallelEvaluator.for_game(
                self._game, workers=cfg.workers
            )
            self._evaluators_created += 1
        return self._evaluator

    def arm_faults(self, plan: "FaultPlan") -> "PoolFaultHook | None":
        """Arm a :class:`~repro.core.faults.FaultPlan`'s pool faults (test seam).

        Builds the shared evaluator if needed, installs the plan's
        ``kill_pool_worker`` hook on it (an armed evaluator sends every
        batch to its pool) and returns the hook, whose ``fired`` list
        records the faults that actually fired.  Returns ``None`` when the
        config runs serial in-process (there is no pool to kill).
        """
        from .faults import pool_fault_hook

        evaluator = self._shared_evaluator()
        if evaluator is None:
            return None
        evaluator.fault_hook = pool_fault_hook(plan)
        return evaluator.fault_hook

    def _engine_for(self, initial: StrategyProfile) -> IncrementalEngine:
        """The owned incremental engine, pointed at ``initial``.

        The engine object is created once and *reset* for every later run —
        distance caches, residuals and stats start fresh (runs stay
        bit-identical to one-shot engines) while the injected evaluator's
        worker pool survives.
        """
        if self._engine is None:
            self._engine = IncrementalEngine(
                self._game,
                initial,
                evaluator=self._shared_evaluator(),
            )
            self._engines_created += 1
        else:
            self._engine.reset(initial)
        return self._engine

    def _cache_for(self, cfg: SimulationConfig) -> _ProposalCache | None:
        if cfg.schedule != "batched":
            return None
        if self._cache is None:
            self._cache = _ProposalCache(self._game)
        else:
            # Proposals are tied to the run's evolving profile: cleared per
            # run (the row-index table survives; it depends only on the
            # static host weights).
            self._cache.clear()
        return self._cache

    def _run_config(self, overrides: Mapping[str, Any]) -> SimulationConfig:
        if not overrides:
            return self._config
        cfg = self._config.replace(**overrides)
        changed = [
            name
            for name in _SESSION_SCOPED
            if getattr(cfg, name) != getattr(self._config, name)
        ]
        if changed:
            raise ValueError(
                f"cannot override {changed} per run: the session owns the "
                "worker pool they shape; use "
                "SimulationConfig.replace() and open a new GameSession"
            )
        return cfg

    @staticmethod
    def _coerce_rng(
        rng: np.random.Generator | int | None, cfg: SimulationConfig
    ) -> np.random.Generator:
        if rng is None:
            return cfg.rng()
        if isinstance(rng, (int, np.integer)):
            return np.random.default_rng(int(rng))
        return rng

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(
        self,
        initial: StrategyProfile,
        *,
        rng: np.random.Generator | int | None = None,
        record_history: bool = False,
        detect_cycles: bool = True,
        tol: float = _TOL,
        **overrides: Any,
    ) -> DynamicsResult:
        """Run response dynamics from ``initial`` through the session.

        Equivalent to :func:`repro.core.dynamics.run_dynamics` with the
        session's config, except that the engine and worker pool are the
        session-owned ones.  ``rng`` defaults to the config's seed policy
        (:meth:`SimulationConfig.rng`); ``overrides`` are per-run config
        overrides (see the class docstring for which fields are allowed).
        """
        self._ensure_open()
        cfg = self._run_config(overrides)
        if cfg.max_rounds is None:
            cfg = cfg.replace(max_rounds=MAX_ROUNDS_RUN)
        generator = self._coerce_rng(rng, cfg)
        engine = self._engine_for(initial)
        cache = self._cache_for(cfg)
        result = _run_session_loop(
            self._game,
            initial,
            cfg=cfg,
            inc=engine,
            cache=cache,
            rng=generator,
            record_history=record_history,
            detect_cycles=detect_cycles,
            tol=tol,
        )
        return self._account(result)

    def _account(self, result: DynamicsResult) -> DynamicsResult:
        """Fold one finished run into the session's cumulative counters."""
        self._runs += 1
        for f in dataclasses.fields(EngineStats):
            setattr(
                self._cum_stats,
                f.name,
                getattr(self._cum_stats, f.name) + getattr(result.engine_stats, f.name),
            )
        self._hits += result.schedule_hits
        self._misses += result.schedule_misses
        return result

    def resume(self, source: "Checkpoint | str | os.PathLike", **overrides: Any) -> DynamicsResult:
        """Continue a checkpointed run through this session, byte-identically.

        ``source`` is a checkpoint file path or an already-loaded
        :class:`~repro.core.checkpoint.Checkpoint`.  The session rebuilds
        the run exactly as the checkpoint left it — profile, engine caches,
        proposal cache and speculation window, RNG stream, counters, cost
        trajectory and cycle table — and runs the *remaining* round budget
        (``rounds_total - rounds_completed``; the budget is never
        restarted).  The returned :class:`~repro.core.dynamics
        .DynamicsResult` is byte-identical — trajectory, converged costs,
        run, whatever worker count this session uses: placement
        fields are free to differ from the checkpointing run, the
        trajectory-shaping fields (:data:`~repro.core.checkpoint
        .TRAJECTORY_FIELDS`) must match and are validated.

        ``record_history``, ``detect_cycles``, ``tol`` and the RNG state are
        taken from the checkpoint — they are part of the run being resumed.
        ``overrides`` are per-run config overrides (e.g. a new
        ``checkpoint_path``/``checkpoint_every`` policy, or ``None`` for
        both to stop checkpointing); session-scoped fields cannot change
        per run, same as :meth:`run`.
        """
        self._ensure_open()
        ckpt = source if isinstance(source, Checkpoint) else load_checkpoint(source)
        if (
            ckpt.n != self._game.n
            or not np.array_equal(ckpt.host_weights, self._game.host.weights)
            or float(ckpt.alpha) != float(self._game.alpha)
        ):
            raise ValueError(
                "checkpoint was written for a different game instance "
                "(host weights or alpha differ from this session's game)"
            )
        cfg = self._run_config(overrides)
        if cfg.max_rounds is None:
            # An unset budget adopts the checkpointed run's resolved one, so
            # the continuation finishes the original budget — the resumed
            # run executes only the remaining rounds.
            cfg = cfg.replace(max_rounds=ckpt.rounds_total)
        ck_cfg = ckpt.simulation_config()
        mismatched = [
            name
            for name in TRAJECTORY_FIELDS
            if getattr(cfg, name) != getattr(ck_cfg, name)
        ]
        if mismatched:
            raise ValueError(
                f"cannot resume with different trajectory-shaping field(s) "
                f"{mismatched}: the continuation would not be the same run "
                "(workers may change freely; these may not)"
            )
        initial = ckpt.profile()
        engine = self._engine_for(initial)
        engine.restore_state(
            distances=ckpt.engine_distances,
            residuals=ckpt.engine_residuals,
            stats=ckpt.engine_stats,
        )
        cache = self._cache_for(cfg)
        if cache is not None and ckpt.cache_state is not None:
            cache.restore_state(
                ckpt.proposals(),
                hits=ckpt.cache_state["hits"],
                misses=ckpt.cache_state["misses"],
            )
        resume_state = _ResumeState(
            rounds_completed=ckpt.rounds_completed,
            steps=ckpt.steps,
            moves=ckpt.moves,
            social_costs=[float(c) for c in ckpt.social_costs],
            seen=ckpt.seen(),
            history=ckpt.history_profiles(),
            prefill_window=(
                ckpt.cache_state["prefill_window"]
                if ckpt.cache_state is not None
                else None
            ),
            floor_misses=(
                ckpt.cache_state["floor_misses"]
                if ckpt.cache_state is not None
                else 0
            ),
            speculated=(
                set(ckpt.cache_state["speculated"])
                if ckpt.cache_state is not None
                else set()
            ),
        )
        result = _run_session_loop(
            self._game,
            initial,
            cfg=cfg,
            inc=engine,
            cache=cache,
            rng=rng_from_state(ckpt.rng_state),
            record_history=ckpt.record_history,
            detect_cycles=ckpt.detect_cycles,
            tol=ckpt.tol,
            resume=resume_state,
        )
        return self._account(result)

    def sample_equilibria(
        self,
        *,
        num_samples: int = 10,
        verify: str = "nash",
        rng: np.random.Generator | int | None = None,
    ) -> list[StrategyProfile]:
        """Sample stable profiles by running dynamics from varied seed profiles.

        The session-native form of
        :func:`repro.core.poa.sample_equilibria`: every run shares the
        session's engine and worker pool, so a sweep through one session
        creates exactly one :class:`~repro.core.parallel.ParallelEvaluator`
        however many starting profiles it explores.  Activation order is
        always round-robin (matching the sampling methodology) and an unset
        ``max_rounds`` means 60 rounds; ``verify`` selects the acceptance
        test (``"nash"``, ``"greedy"`` or ``"none"``) applied to converged
        profiles.
        """
        self._ensure_open()
        if verify not in ("nash", "greedy", "none"):
            raise ValueError(f"unknown verify mode {verify!r}")
        overrides: dict[str, Any] = {"order": "round_robin"}
        if self._config.max_rounds is None:
            overrides["max_rounds"] = MAX_ROUNDS_SAMPLING
        cfg = self._run_config(overrides)
        generator = self._coerce_rng(rng, cfg)
        found: dict[bytes, StrategyProfile] = {}
        for seed_profile in _initial_profiles(self._game, num_samples, generator):
            result = self.run(seed_profile, rng=generator, **overrides)
            if not result.converged:
                continue
            profile = result.final_profile
            if verify == "nash":
                ok = is_nash_equilibrium(
                    self._game, profile, max_candidates=cfg.max_candidates
                )
            elif verify == "greedy":
                ok = is_greedy_equilibrium(self._game, profile)
            else:
                ok = True
            if ok:
                found[profile.canonical_key()] = profile
        return list(found.values())

    def poa(
        self,
        *,
        num_samples: int = 10,
        verify: str = "nash",
        optimum_method: str = "auto",
        extra_equilibria: Iterable[StrategyProfile] = (),
        rng: np.random.Generator | int | None = None,
    ) -> PoAEstimate:
        """Empirical Price-of-Anarchy estimate through the session.

        The session-native form of :func:`repro.core.poa.estimate_poa`:
        the social optimum is computed once, equilibria are sampled via
        :meth:`sample_equilibria` (sharing the session's pool) and
        ``extra_equilibria`` — e.g. the paper's constructions — are folded
        into the worst/best-cost aggregation.
        """
        self._ensure_open()
        opt = social_optimum(self._game, method=optimum_method)
        equilibria = self.sample_equilibria(
            num_samples=num_samples, verify=verify, rng=rng
        )
        equilibria.extend(extra_equilibria)
        worst: StrategyProfile | None = None
        worst_cost = -np.inf
        best_cost = np.inf
        for eq in equilibria:
            cost = self._game.social_cost(eq)
            if cost > worst_cost:
                worst_cost = cost
                worst = eq
            best_cost = min(best_cost, cost)
        return PoAEstimate(
            optimum=opt,
            worst_equilibrium=worst,
            worst_equilibrium_cost=float(worst_cost) if worst is not None else float("nan"),
            best_equilibrium_cost=float(best_cost) if equilibria else float("nan"),
            equilibria_found=len(equilibria),
            equilibrium_kind=verify,
            samples=num_samples,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> SessionStats:
        """Construction counts and cumulative engine counters (see :class:`SessionStats`)."""
        return SessionStats(
            runs=self._runs,
            engines_created=self._engines_created,
            evaluators_created=self._evaluators_created,
            evaluator_pools_started=(
                self._evaluator.pools_started
                if self._evaluator is not None
                else self._pools_started
            ),
            evaluator_running=(
                self._evaluator.is_running if self._evaluator is not None else False
            ),
            engine_stats=dataclasses.replace(self._cum_stats),
            schedule_hits=self._hits,
            schedule_misses=self._misses,
            evaluator_stats=(
                self._evaluator.stats
                if self._evaluator is not None
                else self._final_evaluator_stats
            ),
        )


def resume_dynamics(
    source: "Checkpoint | str | os.PathLike",
    *,
    game: NetworkCreationGame | None = None,
    **overrides: Any,
) -> DynamicsResult:
    """One-shot resume of a checkpointed dynamics run (fresh-process entry point).

    ``source`` is a checkpoint file path or a loaded
    :class:`~repro.core.checkpoint.Checkpoint`.  Without a ``game`` the
    exact instance is rebuilt from the checkpoint itself (host weights +
    alpha travel in the file), so a fresh process needs nothing but the
    file; pass ``game`` to skip the rebuild when the instance is already in
    hand.  To resume through an open session, call
    :meth:`GameSession.resume`.

    ``overrides`` replace fields of the checkpointed config for the
    continuation — the placement field ``workers`` and the checkpoint
    policy may change freely (``checkpoint_every=None,
    checkpoint_path=None`` stops further checkpointing); the
    trajectory-shaping fields (:data:`~repro.core.checkpoint
    .TRAJECTORY_FIELDS`) may not, and ``None`` is applied literally, not
    treated as "unset".  The continuation is byte-identical to the
    straight-through run and executes only the remaining round budget.
    """
    ckpt = source if isinstance(source, Checkpoint) else load_checkpoint(source)
    if game is None:
        game = ckpt.build_game()
    cfg = ckpt.simulation_config().replace(**overrides)
    with GameSession(game, cfg) as one_shot:
        return one_shot.resume(ckpt)
