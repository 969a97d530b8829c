"""SimulationConfig + GameSession contracts.

Four guarantees of the session layer (:mod:`repro.core.session`) are
enforced here:

* **config round-trip and validation** — ``SimulationConfig`` rejects
  invalid field combinations, and ``from_dict(to_dict(c)) == c`` holds for
  every valid config (explicit activation orders included);

* **one-shot equivalence** — the free ``config=`` entry points
  (:func:`repro.core.dynamics.run_dynamics`,
  :func:`repro.core.poa.sample_equilibria`,
  :func:`repro.core.poa.estimate_poa`) produce bit-identical trajectories
  *and* :class:`~repro.core.incremental.EngineStats` versus the same call
  on an open session, across every model variant, both schedules and
  ``workers in {1, 2}``; no entry point repeats a config field as a
  keyword;

* **pool amortization** — an equilibrium-sampling sweep through one
  session creates exactly one
  :class:`~repro.core.parallel.ParallelEvaluator` and starts its worker
  pool at most once, however many dynamics runs the sweep makes;

* **ownership/lifecycle** — a run only ever closes engines and evaluators
  it created itself: session-injected evaluators survive
  :meth:`~repro.core.session.GameSession.run` calls and die with the
  session, never with a run (the pool-churn leak regression).
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import multiprocessing as mp
import zlib

import numpy as np
import pytest

from repro.core import (
    EngineStats,
    GameSession,
    IncrementalEngine,
    ParallelEvaluator,
    SimulationConfig,
    StrategyProfile,
    estimate_poa,
    run_dynamics,
    sample_equilibria,
)
from repro.analysis import experiments
from repro.core import session as session_module
from random_instances import VARIANTS, _random_game, _random_profile


def _assert_identical(a, b) -> None:
    """Bit-identical DynamicsResults: trajectory, stats and cache counters."""
    assert a.converged == b.converged
    assert a.moves == b.moves
    assert a.steps == b.steps
    assert a.final_profile == b.final_profile
    assert a.social_costs == b.social_costs  # exact float equality
    assert a.engine_stats == b.engine_stats
    assert a.schedule_hits == b.schedule_hits
    assert a.schedule_misses == b.schedule_misses


# ----------------------------------------------------------------------
# SimulationConfig: validation, replace, dict round-trip
# ----------------------------------------------------------------------
class TestSimulationConfig:
    def test_defaults_match_legacy_run_dynamics_surface(self):
        cfg = SimulationConfig()
        assert cfg.schedule == "sequential"
        assert cfg.workers == 1
        assert cfg.response == "best"
        assert cfg.order == "round_robin"
        assert cfg.max_rounds is None  # = each entry point's historical budget
        assert cfg.max_candidates == 22
        assert cfg.seed == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"schedule": "batched"},
            {"schedule": "batched", "workers": 4},
            {"order": (2, 0, 1, 0), "response": "greedy"},
            {"order": "random", "seed": 123, "max_rounds": 7},
            {"seed": None, "max_candidates": 5},
            {"response": "single", "workers": 2, "schedule": "batched"},
            {"checkpoint_path": "run-{round}.ckpt", "checkpoint_every": 3},
            {"workers": 2, "max_candidates": 3},
            {
                "order": [4, 1, 3],
                "workers": 3,
                "schedule": "batched",
                "max_rounds": 0,
            },
        ],
    )
    def test_dict_round_trip(self, kwargs):
        cfg = SimulationConfig(**kwargs)
        data = cfg.to_dict()
        assert json.loads(json.dumps(data)) == data  # JSON-safe
        assert SimulationConfig.from_dict(data) == cfg

    @pytest.mark.parametrize("value", ["single", "double"])
    def test_from_dict_drops_retired_fields(self, value):
        # Every config dumped before the field was retired carries it, and
        # any buffering value is dropped: both slot banks scored alike.
        data = {**SimulationConfig(workers=2).to_dict(), "buffering": value}
        assert "buffering" in session_module.RETIRED_FIELDS
        assert SimulationConfig.from_dict(data) == SimulationConfig(workers=2)
        with pytest.raises(ValueError, match="unknown SimulationConfig field"):
            SimulationConfig.from_dict({**data, "bufering": value})
        with pytest.raises(ValueError, match="unknown SimulationConfig field"):
            SimulationConfig().replace(buffering=value)

    def test_explicit_order_normalized_to_tuple(self):
        cfg = SimulationConfig(order=[3, 1, 2])
        assert cfg.order == (3, 1, 2)
        assert cfg == SimulationConfig(order=np.array([3, 1, 2]))
        assert cfg.to_dict()["order"] == [3, 1, 2]

    def test_replace_validates_and_preserves(self):
        cfg = SimulationConfig()
        batched = cfg.replace(schedule="batched", workers=2)
        assert batched.workers == 2 and cfg.workers == 1
        assert cfg.replace() is cfg
        with pytest.raises(ValueError, match="unknown SimulationConfig field"):
            cfg.replace(worker=2)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"order": [0, None]}, "invalid SimulationConfig field value"),
            ({"schedule": "bulk"}, "unknown schedule"),
            ({"response": "bogus"}, "unknown response"),
            ({"order": "bogus"}, "unknown order"),
            ({"workers": 0}, "workers"),
            ({"max_rounds": -1}, "max_rounds"),
            ({"max_candidates": 0}, "max_candidates"),
            ({"workers": -1}, "workers must be >= 1"),
            ({"schedule": "batched", "order": "max_gain", "workers": 2}, "max_gain"),
            ({"schedule": "batched", "order": "max_gain"}, "max_gain"),
            ({"workers": None}, "invalid SimulationConfig field value"),
            ({"max_candidates": "0"}, "max_candidates"),
            ({"checkpoint_every": 2}, "checkpoint_every without checkpoint_path"),
            ({"checkpoint_every": 0}, "checkpoint_every must be >= 1"),
            ({"workers": "0"}, "workers"),
            (
                {"checkpoint_path": "run.ckpt", "checkpoint_every": 0},
                "checkpoint_every must be >= 1",
            ),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SimulationConfig(**kwargs)

    def test_nine_fields(self):
        assert [f.name for f in dataclasses.fields(SimulationConfig)] == [
            "schedule", "workers", "response",
            "order", "max_rounds", "max_candidates", "seed",
            "checkpoint_every", "checkpoint_path",
        ]

    def test_from_dict_loads_an_eleven_field_dump(self):
        # `repro config dump` as written while the repair frontier bound was
        # a field: eleven fields, the bound at its only loadable value.
        old_dump = {
            "engine": "incremental",
            "schedule": "sequential",
            "workers": 1,
            "repair_threshold": 0.5,
            "response": "best",
            "order": "round_robin",
            "max_rounds": None,
            "max_candidates": 22,
            "seed": 0,
            "checkpoint_every": None,
            "checkpoint_path": None,
        }
        assert SimulationConfig.from_dict(json.loads(json.dumps(old_dump))) == SimulationConfig()

    def test_from_dict_loads_a_ten_field_dump_with_the_engine(self):
        # `repro config dump --schedule batched --workers 2` as written while
        # the engine was a field: ten fields, the engine at its only loadable
        # value.
        old_dump = {
            "engine": "incremental",
            "schedule": "batched",
            "workers": 2,
            "response": "best",
            "order": "round_robin",
            "max_rounds": None,
            "max_candidates": 22,
            "seed": 0,
            "checkpoint_every": None,
            "checkpoint_path": None,
        }
        assert SimulationConfig.from_dict(json.loads(json.dumps(old_dump))) == SimulationConfig(
            schedule="batched", workers=2
        )

    def test_from_dict_rejects_the_exact_engine_naming_the_field(self):
        data = {**SimulationConfig().to_dict(), "engine": "exact"}
        with pytest.raises(ValueError, match="'engine'") as excinfo:
            SimulationConfig.from_dict(data)
        assert "'incremental'" in str(excinfo.value)
        with pytest.raises(TypeError):
            SimulationConfig(engine="incremental")

    def test_from_dict_rejects_a_repair_threshold_off_its_default(self):
        data = {**SimulationConfig().to_dict(), "repair_threshold": 0.25}
        with pytest.raises(ValueError, match="'repair_threshold'") as excinfo:
            SimulationConfig.from_dict(data)
        message = str(excinfo.value)
        assert "decremental repair" in message and "0.5" in message
        assert "remote evaluator" not in message

    @pytest.mark.parametrize("encoding", ["dense", "delta"])
    def test_from_dict_loads_a_twelve_field_dump_with_either_encoding(self, encoding):
        # `repro config dump --schedule batched --workers 2` as written while
        # the slot encoding was a knob: twelve fields, and both encodings
        # replayed identical trajectories, so either value is dropped.
        old_dump = {
            "engine": "incremental",
            "schedule": "batched",
            "workers": 2,
            "repair_threshold": 0.5,
            "response": "best",
            "order": "round_robin",
            "max_rounds": None,
            "max_candidates": 22,
            "seed": 0,
            "residual_encoding": encoding,
            "checkpoint_every": None,
            "checkpoint_path": None,
        }
        assert SimulationConfig.from_dict(old_dump) == SimulationConfig(
            schedule="batched", workers=2
        )

    def test_from_dict_loads_a_full_config_dumped_before_the_fleet_was_removed(self):
        # `repro config dump --schedule batched --workers 2` as written
        # while the remote backend existed: all 22 fields, every retired
        # one at its old default.
        old_dump = {
            "engine": "incremental",
            "schedule": "batched",
            "workers": 2,
            "repair_threshold": 0.5,
            "response": "best",
            "order": "round_robin",
            "max_rounds": None,
            "max_candidates": 22,
            "seed": 0,
            "backend": "local",
            "endpoints": [],
            "residual_encoding": "dense",
            "batch_timeout": None,
            "max_retries": None,
            "checkpoint_every": None,
            "checkpoint_path": None,
            "failover": "ladder",
            "auth_token": None,
            "breaker_trip_after": None,
            "breaker_base_delay": None,
            "breaker_max_delay": None,
            "breaker_jitter": None,
        }
        assert SimulationConfig.from_dict(old_dump) == SimulationConfig(
            schedule="batched", workers=2
        )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("backend", "remote"),
            ("endpoints", ["127.0.0.1:7601"]),
            ("batch_timeout", 30.0),
            ("max_retries", 3),
            ("failover", "strict"),
            ("auth_token", "sesame"),
            ("breaker_trip_after", 2),
            ("breaker_base_delay", 0.5),
            ("breaker_max_delay", 10.0),
            ("breaker_jitter", 0.0),
        ],
    )
    def test_from_dict_rejects_a_retired_remote_field_off_its_default(self, key, value):
        data = {**SimulationConfig().to_dict(), key: value}
        with pytest.raises(ValueError, match=f"'{key}'") as excinfo:
            SimulationConfig.from_dict(data)
        message = str(excinfo.value)
        assert "remote evaluator backend" in message and "removed" in message
        assert "workers=N" in message
        assert "sesame" not in message  # a retired secret is never echoed

    @pytest.mark.parametrize(
        "key",
        sorted(
            key
            for key, retired in session_module.RETIRED_FIELDS.items()
            if retired.old_default is not session_module._ANY_VALUE
        ),
    )
    def test_from_dict_drops_a_retired_remote_field_at_its_old_default(self, key):
        old_default = session_module.RETIRED_FIELDS[key].old_default
        cfg = SimulationConfig(schedule="batched", workers=3, seed=5)
        data = json.loads(json.dumps({**cfg.to_dict(), key: old_default}))
        assert SimulationConfig.from_dict(data) == cfg
        # An old file that never wrote the field loads the same way.
        assert key not in cfg.to_dict()
        assert SimulationConfig.from_dict(cfg.to_dict()) == cfg

    def test_retired_remote_fields_are_not_constructor_arguments(self):
        with pytest.raises(TypeError):
            SimulationConfig(backend="remote")
        with pytest.raises(ValueError, match="unknown SimulationConfig field"):
            SimulationConfig().replace(endpoints=("h:1",))

    def test_from_dict_rejects_unknown_keys_and_non_mappings(self):
        with pytest.raises(ValueError, match="worker"):
            SimulationConfig.from_dict({"worker": 2})
        with pytest.raises(ValueError, match="mapping"):
            SimulationConfig.from_dict([("workers", 2)])

    @pytest.mark.parametrize(
        "data", [{"workers": None}, {"order": 5}, {"max_rounds": "many"}]
    )
    def test_wrong_typed_values_raise_value_error_not_type_error(self, data):
        """Hand-edited JSON configs must fail as ValueError (what the CLI catches)."""
        with pytest.raises(ValueError):
            SimulationConfig.from_dict(data)

    def test_seed_policy(self):
        a = SimulationConfig(seed=9).rng().random(4)
        assert np.array_equal(a, np.random.default_rng(9).random(4))
        # seed=None means the fixed default stream, not OS entropy
        assert np.array_equal(
            SimulationConfig(seed=None).rng().random(4),
            SimulationConfig(seed=0).rng().random(4),
        )
        assert SimulationConfig(seed=5).spawn_seeds(3) == session_module.spawn_seeds(5, 3)
        assert len(set(SimulationConfig().spawn_seeds(8))) == 8


# ----------------------------------------------------------------------
# One-shot equivalence: a config= call == the session call, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("pool_always")
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_one_shot_config_matches_session_path(variant, property_budget):
    """run_dynamics(config=) == GameSession.run for all variants/schedules/workers."""
    rng = np.random.default_rng(zlib.crc32(f"session-{variant}".encode()) % 2**32)
    trials = max(1, property_budget // 4)
    for trial in range(trials):
        n = int(rng.integers(4, 9))
        game = _random_game(variant, n, rng)
        start = _random_profile(n, rng, density=float(rng.uniform(0.1, 0.5)))
        response = ("best", "greedy", "single")[trial % 3]
        order = ("round_robin", "random")[trial % 2]
        workers = (1, 2)[trial % 2]
        for schedule in ("sequential", "batched"):
            cfg = SimulationConfig(
                response=response,
                order=order,
                max_rounds=10,
                schedule=schedule,
                workers=workers,
            )
            one_shot = run_dynamics(game, start, cfg, rng=7)
            with GameSession(game, cfg.replace(seed=7)) as session:
                via_seed = session.run(start)
                via_rng = session.run(start, rng=7)
            _assert_identical(one_shot, via_seed)
            _assert_identical(one_shot, via_rng)


@pytest.mark.usefixtures("pool_always")
def test_sample_equilibria_one_shot_matches_session():
    game = _random_game("euclidean", 7, np.random.default_rng(23))
    keys = []
    for cfg in (
        SimulationConfig(),
        SimulationConfig(schedule="batched"),
        SimulationConfig(schedule="batched", workers=2),
    ):
        one_shot = sample_equilibria(
            game, cfg, num_samples=3, rng=np.random.default_rng(0)
        )
        with GameSession(game, cfg.replace(max_rounds=60)) as session:
            via_session = session.sample_equilibria(
                num_samples=3, rng=np.random.default_rng(0)
            )
        assert [p.canonical_key() for p in one_shot] == [
            p.canonical_key() for p in via_session
        ]
        keys.append([p.canonical_key() for p in one_shot])
    # schedule and workers trade nothing but time: same equilibria
    assert keys[0] == keys[1] == keys[2]


def test_poa_experiment_config_paths_agree():
    """An unset budget with workers=2 equals the pinned 60-round serial sweep."""
    from repro.analysis.experiments import poa_experiment

    unset = poa_experiment(
        "euclidean", 5, 1.0, SimulationConfig(workers=2, seed=3),
        instances=2, samples_per_instance=2,
    )
    pinned = poa_experiment(
        "euclidean", 5, 1.0, SimulationConfig(max_rounds=60, seed=3),
        instances=2, samples_per_instance=2,
    )
    assert unset == pinned


def test_estimate_poa_one_shot_matches_session():
    game = _random_game("metric", 6, np.random.default_rng(31))
    one_shot = estimate_poa(game, num_samples=3, rng=np.random.default_rng(0))
    with GameSession(game, SimulationConfig(max_rounds=60)) as session:
        via_session = session.poa(num_samples=3, rng=np.random.default_rng(0))
    assert one_shot.worst_equilibrium_cost == via_session.worst_equilibrium_cost
    assert one_shot.best_equilibrium_cost == via_session.best_equilibrium_cost
    assert one_shot.equilibria_found == via_session.equilibria_found
    assert one_shot.optimum.cost == via_session.optimum.cost


# ----------------------------------------------------------------------
# One configuration path: no entry point repeats a config field
# ----------------------------------------------------------------------
FREE_ENTRY_POINTS = (
    run_dynamics,
    sample_equilibria,
    estimate_poa,
    experiments.poa_experiment,
    experiments.sweep_alpha,
    experiments.dynamics_convergence_experiment,
    session_module.resume_dynamics,
)
SESSION_ENTRY_POINTS = (
    GameSession.__init__,
    GameSession.sample_equilibria,
    GameSession.poa,
)


@pytest.mark.parametrize(
    "entry_point",
    FREE_ENTRY_POINTS + SESSION_ENTRY_POINTS,
    ids=lambda fn: fn.__qualname__,
)
def test_no_signature_repeats_a_config_field(entry_point):
    params = set(inspect.signature(entry_point).parameters)
    assert not params & {f.name for f in dataclasses.fields(SimulationConfig)}
    if entry_point in FREE_ENTRY_POINTS:
        assert "session" not in params


def test_removed_keyword_paths_fail_loudly():
    game = _random_game("euclidean", 4, np.random.default_rng(62))
    with pytest.raises(TypeError):
        run_dynamics(game, StrategyProfile.empty(4), engine="exact")
    with pytest.raises(TypeError):
        GameSession(game, engine="exact")
    with pytest.raises(ImportError):
        from repro.core import best_response_dynamics  # noqa: F401


# ----------------------------------------------------------------------
# Pool amortization: one evaluator per session, shared across runs
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("pool_always")
def test_sampling_sweep_creates_exactly_one_evaluator():
    game = _random_game("euclidean", 8, np.random.default_rng(41))
    cfg = SimulationConfig(max_rounds=60, schedule="batched", workers=2)
    with GameSession(game, cfg) as session:
        equilibria = session.sample_equilibria(num_samples=4)
        stats = session.stats()
        assert stats.runs >= 8  # structural seeds + random seeds
        assert stats.engines_created == 1
        assert stats.evaluators_created == 1
        assert stats.evaluator_pools_started <= 1  # lazy, started at most once
        assert stats.evaluator_running or stats.evaluator_pools_started == 0
        # The same pool keeps serving runs after the sweep.
        session.run(StrategyProfile.empty(8))
        assert session.stats().evaluators_created == 1
    assert equilibria  # the sweep did find equilibria
    closed_stats = session.stats()
    assert not closed_stats.evaluator_running
    # close() snapshots the pool counter: post-exit inspection still sees it.
    assert closed_stats.evaluator_pools_started == stats.evaluator_pools_started


def test_session_engine_is_reset_not_rebuilt():
    game = _random_game("tree", 6, np.random.default_rng(5))
    start = _random_profile(6, np.random.default_rng(6))
    with GameSession(game, SimulationConfig(max_rounds=15)) as session:
        first = session.run(start)
        second = session.run(start)
        stats = session.stats()
    # Same work per run: reset wipes caches, so runs are independent...
    assert first.engine_stats == second.engine_stats
    _assert_identical(first, second)
    # ...but the engine object is built once and the counters accumulate.
    assert stats.engines_created == 1
    assert stats.runs == 2
    assert stats.engine_stats.move_updates == 2 * first.engine_stats.move_updates


@pytest.mark.usefixtures("pool_always")
def test_engine_reset_keeps_evaluator_and_replaces_stats():
    game = _random_game("euclidean", 6, np.random.default_rng(8))
    profile = _random_profile(6, np.random.default_rng(9))
    with ParallelEvaluator.for_game(game, workers=2) as evaluator:
        engine = IncrementalEngine(game, profile, evaluator=evaluator)
        engine.respond_many(range(6), "single")
        old_stats = engine.stats
        assert evaluator.pools_started == 1
        engine.reset(profile)
        assert engine.stats is not old_stats and engine.stats == EngineStats()
        engine.respond_many(range(6), "single")
        assert evaluator.pools_started == 1  # pool survived the reset
        with pytest.raises(ValueError, match="agents"):
            engine.reset(StrategyProfile.empty(7))


# ----------------------------------------------------------------------
# Ownership / lifecycle (the ROADMAP pool-churn leak regression)
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("pool_always")
def test_run_never_closes_session_injected_evaluator():
    """A run through a session must leave the session's pool running."""
    game = _random_game("euclidean", 7, np.random.default_rng(51))
    start = _random_profile(7, np.random.default_rng(52))
    cfg = SimulationConfig(schedule="batched", workers=2, max_rounds=8)
    session = GameSession(game, cfg)
    try:
        session.run(start)
        stats = session.stats()
        assert stats.evaluators_created == 1
        assert stats.evaluator_running  # the run did not tear the pool down
        session.run(start)
        assert session.stats().evaluator_pools_started == 1  # started once, ever
    finally:
        session.close()
    assert not session.stats().evaluator_running
    assert mp.active_children() == []  # close() reaped the workers


@pytest.mark.usefixtures("pool_always")
def test_one_shot_run_still_cleans_up_after_itself():
    """Without a session, run_dynamics owns — and closes — what it creates."""
    game = _random_game("euclidean", 7, np.random.default_rng(53))
    start = _random_profile(7, np.random.default_rng(54))
    run_dynamics(
        game, start, SimulationConfig(schedule="batched", workers=2, max_rounds=6)
    )
    assert mp.active_children() == []


@pytest.mark.usefixtures("pool_always")
def test_engine_never_closes_injected_evaluator():
    game = _random_game("metric", 5, np.random.default_rng(55))
    profile = _random_profile(5, np.random.default_rng(56))
    with ParallelEvaluator.for_game(game, workers=2) as evaluator:
        engine = IncrementalEngine(game, profile, evaluator=evaluator)
        engine.respond_many(range(5), "single")
        assert evaluator.is_running
        del engine
        assert evaluator.is_running  # not owned by the engine
    assert not evaluator.is_running  # the owner's context manager closed it


def test_closed_session_refuses_work_and_close_is_idempotent():
    game = _random_game("tree", 5, np.random.default_rng(57))
    session = GameSession(game)
    session.close()
    session.close()
    assert session.closed
    for call in (
        lambda: session.run(StrategyProfile.empty(5)),
        lambda: session.sample_equilibria(num_samples=1),
        lambda: session.poa(num_samples=1),
    ):
        with pytest.raises(RuntimeError, match="closed"):
            call()


def test_session_scoped_fields_cannot_change_per_run():
    game = _random_game("euclidean", 5, np.random.default_rng(58))
    start = StrategyProfile.empty(5)
    with GameSession(game) as session:
        assert session_module._SESSION_SCOPED == ("workers",)
        with pytest.raises(ValueError, match="workers"):
            session.run(start, workers=2)
        # the retired engine field is no override at all, whatever its value
        for value in ("exact", "incremental"):
            with pytest.raises(ValueError, match="unknown SimulationConfig field"):
                session.run(start, engine=value)
        # a "change" to the value the session already has is a no-op
        session.run(start, workers=1, max_rounds=3)
        # run-scoped overrides are fine and still validated
        session.run(start, schedule="batched", max_rounds=3)
        with pytest.raises(ValueError, match="max_gain"):
            session.run(start, schedule="batched", order="max_gain")


def test_entry_points_resolve_historical_round_budgets(monkeypatch):
    """max_rounds=None resolves per entry point: run 100, sampling 60, study 40."""
    from repro.analysis.experiments import dynamics_convergence_experiment

    seen: list[int] = []
    real_loop = session_module._run_session_loop

    def spy(game, initial, *, cfg, **kwargs):
        seen.append(cfg.max_rounds)
        return real_loop(game, initial, cfg=cfg, **kwargs)

    monkeypatch.setattr(session_module, "_run_session_loop", spy)
    game = _random_game("euclidean", 5, np.random.default_rng(61))
    with GameSession(game) as session:
        session.run(StrategyProfile.empty(5))
        assert seen[-1] == 100
        session.sample_equilibria(num_samples=1)
        assert set(seen[1:]) == {60}
        session.run(StrategyProfile.empty(5), max_rounds=7)
        assert seen[-1] == 7
    # pinned in the session config: used by every entry point
    with GameSession(game, SimulationConfig(max_rounds=12)) as session:
        session.run(StrategyProfile.empty(5))
        session.sample_equilibria(num_samples=1)
        assert set(seen[-2:]) == {12}
    seen.clear()
    dynamics_convergence_experiment(
        "euclidean", 5, 1.0, instances=1, runs_per_instance=1
    )
    assert seen == [40]


def test_convergence_experiment_honors_config_order(monkeypatch):
    """A config's activation order must not be silently forced to round_robin."""
    from repro.analysis.experiments import dynamics_convergence_experiment

    seen: list[object] = []
    real_loop = session_module._run_session_loop

    def spy(game, initial, *, cfg, **kwargs):
        seen.append(cfg.order)
        return real_loop(game, initial, cfg=cfg, **kwargs)

    monkeypatch.setattr(session_module, "_run_session_loop", spy)
    dynamics_convergence_experiment(
        "euclidean", 5, 1.0, SimulationConfig(order="random"),
        instances=1, runs_per_instance=1,
    )
    assert seen == ["random"]


def test_session_rejects_unknown_verify_mode():
    game = _random_game("euclidean", 4, np.random.default_rng(59))
    with GameSession(game) as session:
        with pytest.raises(ValueError, match="verify"):
            session.sample_equilibria(num_samples=1, verify="bogus")


# ----------------------------------------------------------------------
# CLI: --config files and `repro config dump`
# ----------------------------------------------------------------------
class TestCLIConfig:
    def test_config_dump_round_trips(self, capsys):
        from repro.cli import main

        assert main(["config", "dump", "--schedule", "batched", "--workers", "3",
                     "--seed", "11", "--max-rounds", "50"]) == 0
        dumped = json.loads(capsys.readouterr().out)
        cfg = SimulationConfig.from_dict(dumped)
        assert cfg == SimulationConfig(
            schedule="batched", workers=3, seed=11, max_rounds=50
        )

    @pytest.mark.parametrize(
        "flags",
        [
            ["--backend", "remote"],
            ["--endpoint", "h:1"],
            ["--batch-timeout", "30"],
            ["--max-retries", "2"],
            ["--failover", "strict"],
            ["--auth-token", "sesame"],
            ["--breaker-trip-after", "2"],
            ["--breaker-base-delay", "0.5"],
            ["--breaker-max-delay", "10"],
            ["--breaker-jitter", "0"],
        ],
    )
    def test_removed_remote_flags_exit_with_usage_error(self, flags):
        from repro.cli import main

        for command in (["config", "dump"], ["resume", "run.ckpt"]):
            with pytest.raises(SystemExit) as excinfo:
                main(command + flags)
            assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["worker", "serve"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("value", ["incremental", "exact"])
    @pytest.mark.parametrize(
        "command", [["poa"], ["dynamics"], ["simulate"], ["config", "dump"]]
    )
    def test_engine_flag_exits_with_usage_error(self, command, value):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--engine", value])
        assert excinfo.value.code == 2

    def test_ten_field_config_file_with_the_engine_drives_simulate(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        args = ["simulate", "--variant", "metric", "--n", "5", "--seed", "4"]
        assert main(args) == 0
        fresh = capsys.readouterr().out
        path = tmp_path / "old.json"
        old_dump = {**SimulationConfig(seed=4).to_dict(), "engine": "incremental"}
        path.write_text(json.dumps(old_dump))
        assert main(args + ["--config", str(path)]) == 0
        assert capsys.readouterr().out == fresh
        path.write_text(json.dumps({**old_dump, "engine": "exact"}))
        with pytest.raises(SystemExit) as excinfo:
            main(args + ["--config", str(path)])
        assert excinfo.value.code == 2
        assert "'engine'" in capsys.readouterr().err

    def test_config_file_selecting_the_remote_backend_is_a_usage_error(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        path = tmp_path / "remote.json"
        path.write_text(json.dumps({"backend": "remote", "endpoints": ["h:1"]}))
        with pytest.raises(SystemExit) as excinfo:
            main(["config", "dump", "--config", str(path)])
        assert excinfo.value.code == 2
        assert "'backend'" in capsys.readouterr().err

    def test_config_file_drives_poa_and_flags_override(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            SimulationConfig(schedule="batched", workers=2, seed=3).to_dict()
        ))
        args = ["poa", "--variant", "euclidean", "--n", "5", "--alpha", "1.0",
                "--instances", "1", "--samples", "2", "--config", str(path)]
        assert main(args + ["--workers", "1"]) == 0
        overridden = capsys.readouterr().out
        assert main(args) == 0
        from_file = capsys.readouterr().out
        # workers trades nothing but time: identical report either way
        assert overridden == from_file
        assert "bound respected  : True" in from_file

    def test_cli_resolution_is_command_uniform(self, tmp_path):
        """config dump freezes exactly what every command resolves to."""
        from repro.cli import build_parser, resolve_config

        parser = build_parser()
        for argv in (["poa"], ["dynamics"], ["simulate"], ["config", "dump"]):
            # max_rounds stays unset; entry points apply their own budget
            assert resolve_config(parser.parse_args(argv)) == SimulationConfig()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(SimulationConfig(max_rounds=200).to_dict()))
        for argv in (["poa"], ["dynamics"], ["simulate"], ["config", "dump"]):
            args = parser.parse_args(argv + ["--config", str(path)])
            assert resolve_config(args).max_rounds == 200

    def test_config_dump_reads_back_its_own_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "cfg.json"
        assert main(["config", "dump", "--response", "greedy", "--seed", "5"]) == 0
        path.write_text(capsys.readouterr().out)
        assert main(["config", "dump", "--config", str(path)]) == 0
        assert SimulationConfig.from_dict(
            json.loads(capsys.readouterr().out)
        ) == SimulationConfig(response="greedy", seed=5)

    @pytest.mark.parametrize(
        "argv",
        [
            ["poa", "--config", "/definitely/not/here.json"],
            ["dynamics", "--workers", "0"],
            ["simulate", "--checkpoint-every", "2"],
            ["config", "dump", "--schedule", "batched", "--order", "max_gain"],
        ],
    )
    def test_invalid_configs_exit_with_usage_error(self, argv, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_config_file_with_unknown_field_is_rejected(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text('{"worker": 2}')
        with pytest.raises(SystemExit):
            main(["poa", "--config", str(path)])
        path.write_text("not json")
        with pytest.raises(SystemExit):
            main(["poa", "--config", str(path)])
        # wrong-typed values exit cleanly too (no raw TypeError traceback)
        path.write_text('{"workers": null}')
        with pytest.raises(SystemExit) as excinfo:
            main(["poa", "--config", str(path)])
        assert excinfo.value.code == 2
