"""Serial-first dispatch: the worker pool takes only batches it speeds up.

:meth:`repro.core.parallel.ParallelEvaluator.evaluate` weighs the
scoring work the pool would save on a batch of exact best responses (the
tracer's subset counts) against the pool's per-batch and per-matrix
costs, and runs the batch on its pool only when the saving is larger.
These tests pin the rule under its real constants (this module does not
use the ``pool_always`` fixture):

* a ``workers=2`` session whose batches are all below break-even never
  starts the pool and never allocates shared memory;
* :func:`~repro.core.parallel.pool_always` sends the same session's
  batches to the pool;
* an armed ``fault_hook`` always uses the pool;
* the work prediction matches the benchmark tracer's ``subsets_scored``
  formula.

Every path is checked bit-identical against serial ``score_tasks``.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    GameSession,
    IncrementalEngine,
    ParallelEvaluator,
    SimulationConfig,
    run_dynamics,
)
from repro.core.best_response import score_tasks
from repro.core.game import NetworkCreationGame
from repro.core.parallel import _scoring_work, pool_always
from repro.metrics.generators import unit_host
from random_instances import _random_game, _random_profile
from test_parallel_evaluator import _assert_identical_runs

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _shm_segments() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _session_run(game, start, config):
    with GameSession(game, config) as session:
        result = session.run(start, rng=7)
        evaluator = session.evaluator
        stats = session.stats().evaluator_stats
        snapshot = evaluator._snapshot if evaluator is not None else None
    return result, stats, snapshot


def test_light_batches_stay_in_process_and_never_start_the_pool():
    rng = np.random.default_rng(71)
    game = _random_game("euclidean", 9, rng)
    start = _random_profile(9, rng)
    serial = run_dynamics(
        game, start, SimulationConfig(schedule="batched", max_rounds=10), rng=7
    )
    before = _shm_segments()
    config = SimulationConfig(schedule="batched", workers=2, max_rounds=10)
    pooled, stats, snapshot = _session_run(game, start, config)
    _assert_identical_runs([serial, pooled])
    assert stats.batches > 0
    assert stats.in_process_batches == stats.batches
    assert (stats.pools_started, stats.bytes_sent, stats.fallbacks) == (0, 0, 0)
    assert snapshot is None
    assert _shm_segments() == before


def test_pool_always_sends_the_same_session_to_the_pool():
    rng = np.random.default_rng(71)
    game = _random_game("euclidean", 9, rng)
    start = _random_profile(9, rng)
    serial = run_dynamics(
        game, start, SimulationConfig(schedule="batched", max_rounds=10), rng=7
    )
    config = SimulationConfig(schedule="batched", workers=2, max_rounds=10)
    with pool_always():
        pooled, stats, _ = _session_run(game, start, config)
    _assert_identical_runs([serial, pooled])
    assert stats.pools_started == 1
    assert stats.in_process_batches == 0
    assert stats.bytes_sent > 0


def test_armed_fault_hook_forces_the_pool():
    rng = np.random.default_rng(73)
    n = 7
    game = _random_game("metric", n, rng)
    profile = _random_profile(n, rng)
    engine = IncrementalEngine(game, profile)
    tasks = [(u, engine.residual(u), profile.strategy(u)) for u in range(n)]
    seen: list[int] = []
    with ParallelEvaluator.for_game(game, workers=2) as evaluator:
        assert not evaluator._pool_pays(tasks, "single", 22)
        evaluator.fault_hook = lambda ev, batch: seen.append(batch)
        for response in ("best", "greedy", "single"):
            expected = score_tasks(tasks, game.host.weights, game.alpha, response)
            assert evaluator.evaluate(tasks, response) == expected
        stats = evaluator.stats
    assert seen == [0, 1, 2]
    assert (stats.pools_started, stats.in_process_batches) == (1, 0)


def test_rule_follows_predicted_work():
    """Heavy exact best responses pay for the pool; light ones, single
    moves, a lone task and work spread over too many distinct matrices
    do not; a one-worker evaluator never does."""
    n = 24  # complete unit host: every agent has 23 candidates
    game = NetworkCreationGame(unit_host(n), 1.0)
    d = game.distances(_random_profile(n, np.random.default_rng(5), 0.3))
    heavy = [(u, d, ()) for u in range(n)]
    with ParallelEvaluator.for_game(game, workers=2) as evaluator:
        if evaluator._parallelism < 2:
            pytest.skip("the pool cannot pay with fewer than two CPUs")
        assert evaluator._pool_pays(heavy, "best", 22)
        assert not evaluator._pool_pays(heavy, "best", 4)
        assert not evaluator._pool_pays(heavy[:1], "best", 22)  # nothing to split
        assert not evaluator._pool_pays(heavy, "single", 22)
        assert not evaluator._pool_pays(heavy, "greedy", 22)
        # 2^14 subsets per agent pay for one shared matrix, not for 24.
        assert evaluator._pool_pays(heavy, "best", 14)
        own_matrices = [(u, d.copy(), ()) for u in range(n)]
        assert not evaluator._pool_pays(own_matrices, "best", 14)
        assert not evaluator.is_running  # predicting starts nothing
    with ParallelEvaluator.for_game(game, workers=1) as evaluator:
        assert not evaluator._pool_pays(heavy, "best", 22)


def test_work_prediction_matches_the_tracer_counts(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer_module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer_module)  # for its dataclasses
    spec.loader.exec_module(tracer_module)
    rng = np.random.default_rng(79)
    for variant in ("euclidean", "one_infinity", "tree", "general"):
        n = 9
        game = _random_game(variant, n, rng)
        profile = _random_profile(n, rng, density=0.4)
        engine = IncrementalEngine(game, profile)
        tasks = [(u, engine.residual(u), profile.strategy(u)) for u in range(n)]
        degree = ParallelEvaluator.for_game(game, workers=2)._degree  # no pool yet
        tracer = tracer_module.Tracer(game.host.weights)
        for (u, _, strategy), work in zip(tasks, _scoring_work(degree, tasks, 22)):
            before = tracer.counts["subsets_scored"]
            tracer._scored("best", u, len(strategy))
            assert work == (tracer.counts["subsets_scored"] - before) * n
