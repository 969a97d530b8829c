"""Parallel-evaluation contracts: determinism, shared memory, lifecycle.

Three guarantees of the multiprocess evaluation subsystem
(:mod:`repro.core.parallel`) are enforced here:

* **worker-count invariance** — ``workers in {1, 2, 4}`` produce
  bit-identical :class:`~repro.core.dynamics.DynamicsResult` trajectories
  (moves, steps, social costs, final profile, proposal-cache counters) and
  identical :class:`~repro.core.incremental.EngineStats` across every model
  variant of the paper and both activation schedules, because residuals are
  computed in the owning process and workers run the same pure scoring
  kernel against bitwise matrix copies;

* **shared-memory snapshot round-trip** — the
  :class:`~repro.core.parallel.SharedSnapshot` encoding preserves matrices
  (including ``inf`` non-edges) bit-exactly between create/attach views,
  and segments are unlinked on close;

* **pool lifecycle** — the worker pool is created lazily, reused across
  evaluations, and torn down by ``close()`` / context-manager exit without
  leaking worker processes or shared-memory segments (the regression tests
  for CLI runs and pytest sessions).

A regression test also pins the proposal-cache fix for double-bought
edges: a mover toggling its copy of a co-owned edge changes no network
edge but does change the co-owner's residual, which must invalidate the
co-owner's cached proposal.
"""

from __future__ import annotations

import multiprocessing as mp
import zlib
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core import (
    IncrementalEngine,
    NetworkCreationGame,
    ParallelEvaluator,
    SharedSnapshot,
    SimulationConfig,
    StrategyProfile,
    run_dynamics,
)
from repro.core.best_response import score_tasks
from repro.core.host_graph import HostGraph
from repro.core.residual_delta import dense_residual
from random_instances import VARIANTS, _random_game, _random_profile

# Every test here exercises the worker pool, so every batch goes to it:
# the serial-first dispatch rule would keep these small batches in process.
pytestmark = pytest.mark.usefixtures("pool_always")

WORKER_COUNTS = (1, 2, 4)


def _assert_identical_runs(results) -> None:
    """Bit-identical trajectories and engine stats across all runs."""
    base = results[0]
    for other in results[1:]:
        assert other.converged == base.converged
        assert other.steps == base.steps
        assert other.moves == base.moves
        assert other.cycle_detected == base.cycle_detected
        assert other.cycle_length == base.cycle_length
        assert other.final_profile == base.final_profile
        assert other.social_costs == base.social_costs  # exact float equality
        assert other.schedule_hits == base.schedule_hits
        assert other.schedule_misses == base.schedule_misses
        assert other.engine_stats == base.engine_stats


# ----------------------------------------------------------------------
# Worker-count invariance
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_workers_produce_identical_dynamics(variant, property_budget):
    """workers in {1, 2, 4} follow bit-identical trajectories on both schedules."""
    rng = np.random.default_rng(zlib.crc32(f"workers-{variant}".encode()) % 2**32)
    trials = max(1, property_budget // 4)
    for trial in range(trials):
        n = int(rng.integers(4, 10))
        game = _random_game(variant, n, rng)
        start = _random_profile(n, rng, density=float(rng.uniform(0.1, 0.5)))
        response = ("best", "greedy", "single")[trial % 3]
        order = ("round_robin", "random")[trial % 2]
        for schedule in ("sequential", "batched"):
            runs = [
                run_dynamics(
                    game,
                    start,
                    SimulationConfig(
                        response=response,
                        order=order,
                        max_rounds=12,
                        schedule=schedule,
                        workers=workers,
                    ),
                    rng=7,
                )
                for workers in WORKER_COUNTS
            ]
            _assert_identical_runs(runs)


def test_max_gain_workers_identical():
    """max_gain re-scores everyone per step — exactly what workers parallelize."""
    rng = np.random.default_rng(5)
    game = _random_game("euclidean", 8, rng)
    start = _random_profile(8, rng)
    runs = [
        run_dynamics(
            game,
            start,
            SimulationConfig(order="max_gain", max_rounds=8, workers=workers),
        )
        for workers in (1, 2)
    ]
    _assert_identical_runs(runs)


def test_respond_many_matches_respond():
    """Pool respond_many and the evaluator's in-process fallback from a
    broken pool equal fresh per-agent serial scoring bit-exactly."""

    def broken(evaluator, batch_index):
        raise BrokenProcessPool("injected")

    rng = np.random.default_rng(17)
    for response in ("best", "greedy", "single"):
        n = 7
        game = _random_game("general", n, rng)
        profile = _random_profile(n, rng)
        with ParallelEvaluator.for_game(game, workers=2) as evaluator:
            parallel_engine = IncrementalEngine(game, profile, evaluator=evaluator)
            batch = parallel_engine.respond_many(range(n), response)
        serial_engine = IncrementalEngine(game, profile)
        with ParallelEvaluator.for_game(game, workers=2) as fallback:
            fallback.fault_hook = broken
            fallback_engine = IncrementalEngine(game, profile, evaluator=fallback)
            fallback_batch = fallback_engine.respond_many(range(n), response)
        assert fallback.stats.tasks == n and fallback.stats.fallbacks == 1
        for u, (result, fallback_result) in enumerate(zip(batch, fallback_batch)):
            expected = serial_engine.respond(u, response)
            for got in (result, fallback_result):
                assert got.agent == expected.agent
                assert got.strategy == expected.strategy
                assert got.cost == expected.cost
                assert got.current_cost == expected.current_cost
                assert got.method == expected.method


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("response", ("best", "greedy", "single"))
def test_pool_evaluate_matches_engine_respond(response, variant):
    """ParallelEvaluator.evaluate equals serial score_tasks bit-exactly on
    every model variant, and counts what it did."""
    rng = np.random.default_rng(
        zlib.crc32(f"evaluate-{response}-{variant}".encode()) % 2**32
    )
    n = 7
    game = _random_game(variant, n, rng)
    profile = _random_profile(n, rng)
    engine = IncrementalEngine(game, profile)
    tasks = [(u, engine.residual(u), profile.strategy(u)) for u in range(n)]
    with ParallelEvaluator.for_game(game, workers=2) as evaluator:
        batch = evaluator.evaluate(tasks, response)
        stats = evaluator.stats
    assert batch == score_tasks(tasks, game.host.weights, game.alpha, response)
    assert (stats.batches, stats.tasks, stats.pools_started) == (1, n, 1)
    assert 0 < stats.bytes_sent <= n * n * n * 8
    assert (stats.failures, stats.retries, stats.fallbacks) == (0, 0, 0)


def test_empty_batch_is_a_noop():
    """Zero tasks: no pool, no shared memory, no counters, no results."""
    game = _random_game("euclidean", 4, np.random.default_rng(97))
    with ParallelEvaluator.for_game(game, workers=2) as evaluator:
        assert evaluator.evaluate([], "best") == []
        assert not evaluator.is_running
        stats = evaluator.stats
    assert (stats.batches, stats.tasks, stats.pools_started, stats.bytes_sent) == (
        0, 0, 0, 0,
    )


def test_fewer_tasks_than_workers_matches_serial():
    """A one-task batch on a four-worker pool scores like the serial engine."""
    rng = np.random.default_rng(89)
    game = _random_game("tree", 6, rng)
    profile = _random_profile(6, rng)
    engine = IncrementalEngine(game, profile)
    with ParallelEvaluator.for_game(game, workers=4) as evaluator:
        for u in range(6):
            task = [(u, engine.residual(u), profile.strategy(u))]
            assert evaluator.evaluate(task, "best") == [engine.respond(u, "best")]
        assert evaluator.stats.batches == 6 and evaluator.pools_started == 1
    assert _no_pool_children()


def test_workers_validation():
    game = _random_game("metric", 5, np.random.default_rng(0))
    start = StrategyProfile.empty(5)
    with pytest.raises(ValueError, match="workers"):
        run_dynamics(game, start, SimulationConfig(workers=0))
    with pytest.raises(TypeError):  # only a session-injected evaluator fans out
        IncrementalEngine(game, start, workers=2)
    with pytest.raises(ValueError, match="workers"):
        ParallelEvaluator.for_game(game, workers=0)


# ----------------------------------------------------------------------
# Chunked snapshots
# ----------------------------------------------------------------------
def test_slot_pressure_chunks_stay_bit_exact():
    """Chunked dispatch (more distinct matrices than slots) stays bit-exact.

    With ``slots=2`` and seven distinct residual matrices the batch spans
    four chunks, and a slot must never be rewritten before its chunk is
    gathered, which the equality against the serial engine would expose
    immediately.  Each task's residual is a dense array, so each is
    written dense, once.
    """
    rng = np.random.default_rng(53)
    n = 7
    game = _random_game("general", n, rng)
    profile = _random_profile(n, rng, density=0.6)
    engine = IncrementalEngine(game, profile)
    # force distinct matrix objects per agent (copies break identity sharing)
    tasks = [
        (u, np.array(dense_residual(engine.residual(u))), profile.strategy(u))
        for u in range(n)
    ]
    serial = [engine.respond(u, "best", d_rest=tasks[u][1]) for u in range(n)]
    with ParallelEvaluator.for_game(game, workers=2, slots=2) as evaluator:
        assert evaluator.evaluate(tasks, "best") == serial
        stats = evaluator.stats
        assert stats.batches == 1 and stats.tasks == n
    assert stats.bytes_sent == n * n * n * 8  # every matrix written once


# ----------------------------------------------------------------------
# Shared-memory snapshot round-trip
# ----------------------------------------------------------------------
def test_snapshot_roundtrip():
    """Create/attach views see bit-identical matrices, and close() unlinks."""
    rng = np.random.default_rng(3)
    n = 9
    weights = rng.uniform(0.5, 2.0, (n, n))
    weights[rng.random((n, n)) < 0.3] = np.inf  # inf non-edges must survive
    np.fill_diagonal(weights, 0.0)
    owner = SharedSnapshot.create(weights, slots=2)
    names = owner.meta()
    attached = SharedSnapshot.attach(names)
    assert np.array_equal(attached.weights, weights)  # inf-exact comparison
    residual = rng.uniform(0.0, 5.0, (n, n))
    residual[0, 1] = np.inf
    owner.write_slot(1, residual)
    assert np.array_equal(attached.slot_matrices[1], residual)
    assert attached.slot_matrices[1].tobytes() == residual.tobytes()
    attached.close()
    owner.close()
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=names["weights_name"])
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=names["slots_name"])


def test_snapshot_create_partial_failure_releases_first_segment(monkeypatch):
    """If the slots allocation fails, the weights segment must not leak.

    ``SharedSnapshot.create`` allocates two segments; the first has no
    owner until both exist, so a failure in between (e.g. /dev/shm
    exhaustion) must close *and unlink* it before re-raising.
    """
    real = shared_memory.SharedMemory
    created: list[str] = []
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise OSError("injected: no space left on /dev/shm")
        segment = real(*args, **kwargs)
        created.append(segment.name)
        return segment

    monkeypatch.setattr(shared_memory, "SharedMemory", flaky)
    with pytest.raises(OSError, match="injected"):
        SharedSnapshot.create(np.zeros((4, 4)), slots=2)
    assert len(created) == 1  # the weights segment was allocated...
    with pytest.raises(FileNotFoundError):  # ...and did not outlive the failure
        real(name=created[0])


def test_snapshot_attach_partial_failure_closes_first_segment(monkeypatch):
    """A half-attached snapshot must not pin the weights segment in a worker."""
    owner = SharedSnapshot.create(np.zeros((4, 4)), slots=1)
    names = owner.meta()
    real = shared_memory.SharedMemory
    closed: list[str] = []
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise FileNotFoundError("injected: slots segment vanished")
        segment = real(*args, **kwargs)
        original_close = segment.close

        def recording_close():
            closed.append(segment.name)
            original_close()

        segment.close = recording_close
        return segment

    monkeypatch.setattr(shared_memory, "SharedMemory", flaky)
    with pytest.raises(FileNotFoundError, match="injected"):
        SharedSnapshot.attach(names)
    assert closed == [names["weights_name"]]
    monkeypatch.undo()
    owner.close()


# ----------------------------------------------------------------------
# Pool lifecycle
# ----------------------------------------------------------------------
def _no_pool_children() -> bool:
    """No live worker processes remain (shutdown joins them synchronously)."""
    return mp.active_children() == []


def test_pool_lifecycle_lazy_reuse_teardown():
    """Pool appears on first use, is reused, and close() reaps it and the shm."""
    rng = np.random.default_rng(11)
    game = _random_game("euclidean", 6, rng)
    profile = _random_profile(6, rng)
    engine = IncrementalEngine(game, profile)
    tasks = [(u, engine.residual(u), profile.strategy(u)) for u in range(6)]

    evaluator = ParallelEvaluator.for_game(game, workers=2)
    assert not evaluator.is_running  # lazy: nothing started yet
    evaluator.evaluate(tasks, "single")
    assert evaluator.is_running
    pool_before = evaluator._pool
    names = evaluator._snapshot.meta()
    evaluator.evaluate(tasks, "single")
    assert evaluator._pool is pool_before  # reused, not re-created
    evaluator.close()
    assert not evaluator.is_running
    assert _no_pool_children()
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=names["weights_name"])
    evaluator.close()  # idempotent


def test_spawn_start_method_parity_and_cleanup():
    """The spawn start method yields the same results and clean teardown.

    Spawn children inherit the owner's resource tracker (the fd ships in
    the spawn preparation data), so attach-side registration stays a
    set-level no-op and close() unlinks each segment exactly once.
    """
    rng = np.random.default_rng(29)
    game = _random_game("euclidean", 6, rng)
    profile = _random_profile(6, rng)
    engine = IncrementalEngine(game, profile)
    tasks = [(u, engine.residual(u), profile.strategy(u)) for u in range(6)]
    with ParallelEvaluator.for_game(game, workers=2, start_method="spawn") as evaluator:
        batch = evaluator.evaluate(tasks, "single")
        names = evaluator._snapshot.meta()
    serial = [engine.respond(u, "single") for u in range(6)]
    assert batch == serial
    assert _no_pool_children()
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=names["weights_name"])


def test_evaluator_context_manager_reaps_injected_pool():
    rng = np.random.default_rng(13)
    game = _random_game("metric", 6, rng)
    profile = _random_profile(6, rng)
    with ParallelEvaluator.for_game(game, workers=2) as evaluator:
        engine = IncrementalEngine(game, profile, evaluator=evaluator)
        engine.respond_many(range(6), "single")
        assert evaluator.is_running
    assert _no_pool_children()


def test_run_dynamics_never_leaks_workers():
    """A parallel dynamics run (converged or not) leaves no worker behind."""
    rng = np.random.default_rng(19)
    game = _random_game("euclidean", 8, rng)
    start = _random_profile(8, rng)
    run_dynamics(
        game, start, SimulationConfig(schedule="batched", workers=2, max_rounds=6)
    )
    assert _no_pool_children()


# ----------------------------------------------------------------------
# Proposal-cache regression: double-bought edges
# ----------------------------------------------------------------------
def test_double_owned_edge_drop_invalidates_co_owner():
    """Dropping one copy of a double-bought edge must re-score the co-owner.

    Agents 0 and 2 both buy the edge {0, 2}.  When agent 0 drops its copy
    the created network keeps the edge (agent 2 still buys it), so no
    network-level diff exists — but agent 2 is now the *sole* owner, its
    residual loses the edge, and its cached proposal (scored while the
    edge was co-owned) is stale.  The batched schedule must therefore
    follow the sequential trajectory exactly.
    """
    weights = np.array(
        [
            [0.0, 0.604, 0.677],
            [0.604, 0.0, 0.808],
            [0.677, 0.808, 0.0],
        ]
    )
    game = NetworkCreationGame(HostGraph(weights), 2.198)
    start = StrategyProfile.from_sets(3, [{2}, {0}, {0, 1}])
    order = [0, 2, 1, 0, 2, 1]
    seq = run_dynamics(
        game,
        start,
        SimulationConfig(
            response="single", order=order, max_rounds=10, schedule="sequential"
        ),
    )
    bat = run_dynamics(
        game,
        start,
        SimulationConfig(
            response="single", order=order, max_rounds=10, schedule="batched"
        ),
    )
    assert seq.final_profile == bat.final_profile
    assert seq.moves == bat.moves
    assert seq.social_costs == bat.social_costs


# ----------------------------------------------------------------------
# Pool-worker failure recovery (the SIGKILL regression)
# ----------------------------------------------------------------------
def test_pool_worker_sigkill_mid_batch_recovers_bit_identically():
    """SIGKILL a pool worker between batches: rebuild once, results unchanged.

    The regression this pins: a dead pool worker used to surface as an
    unrecoverable ``BrokenProcessPool`` that killed the whole sweep.  The
    evaluator must now detect the break, rebuild the pool exactly once,
    resubmit the in-flight chunks in order, and return results that are
    bit-identical to the serial engine.
    """
    import os
    import signal

    from repro.core.faults import Fault, FaultPlan, pool_fault_hook

    rng = np.random.default_rng(29)
    game = _random_game("euclidean", 7, rng)
    profile = _random_profile(7, rng)
    engine = IncrementalEngine(game, profile)
    tasks = [(u, engine.residual(u), profile.strategy(u)) for u in range(7)]
    serial = [engine.respond(u, "best") for u in range(7)]
    plan = FaultPlan(seed=3, faults=(Fault(kind="kill_pool_worker", at_batch=1),))
    with ParallelEvaluator.for_game(game, workers=2) as evaluator:
        evaluator.fault_hook = pool_fault_hook(plan)
        batches = [evaluator.evaluate(tasks, "best") for _ in range(5)]
        for batch in batches:
            assert batch == serial
        stats = evaluator.stats
        assert stats.retries >= 1  # the rebuild-and-resubmit path ran
        assert evaluator.pools_started >= 2  # original pool + one rebuild
        assert evaluator.is_running
    assert _no_pool_children()


def test_pool_kill_during_dynamics_is_bit_identical():
    """An armed pool-kill plan does not perturb a dynamics trajectory."""
    from repro.core.faults import preset
    from repro.core.session import GameSession

    rng = np.random.default_rng(37)
    game = _random_game("euclidean", 8, rng)
    start = _random_profile(8, rng)
    serial = run_dynamics(
        game, start, SimulationConfig(schedule="batched", max_rounds=10), rng=7
    )
    cfg = SimulationConfig(schedule="batched", workers=2, max_rounds=10)
    with GameSession(game, cfg) as session:
        session.arm_faults(preset("pool-kill"))
        chaotic = session.run(start, rng=7)
        stats = session.stats()
    _assert_identical_runs([serial, chaotic])
    pool = stats.evaluator_stats
    assert pool is not None and pool.retries >= 1
    assert pool.fallbacks == 0  # the pool healed in place: no in-process rescue
    assert _no_pool_children()


def test_pool_broken_twice_falls_back_in_process(monkeypatch):
    """A pool that breaks again right after its one rebuild is abandoned.

    The rebuild-and-resubmit path retries exactly once per batch; if the
    rebuilt pool is broken too, the evaluator must re-run the whole batch
    on in-process ``score_tasks`` — bit-identically, without looping or
    hanging — count one fallback, and keep every later batch in process.
    """
    import os
    import signal
    import time

    rng = np.random.default_rng(43)
    game = _random_game("metric", 6, rng)
    profile = _random_profile(6, rng)
    engine = IncrementalEngine(game, profile)
    tasks = [(u, engine.residual(u), profile.strategy(u)) for u in range(6)]
    serial = [engine.respond(u, "single") for u in range(6)]

    class _BrokenPool:
        def submit(self, *args, **kwargs):
            raise BrokenProcessPool("pool is broken")

        def shutdown(self, *args, **kwargs):
            pass

    def sabotage(self):
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        self._pool = _BrokenPool()
        self.pools_started += 1

    evaluator = ParallelEvaluator.for_game(game, workers=2)
    try:
        assert evaluator.evaluate(tasks, "single") == serial
        monkeypatch.setattr(ParallelEvaluator, "_rebuild_pool", sabotage)
        victim = evaluator.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        assert evaluator.wait_worker_exit(victim)
        assert evaluator.evaluate(tasks, "single") == serial
        assert evaluator.evaluate(tasks, "single") == serial  # stays in process
        stats = evaluator.stats
        assert (stats.batches, stats.tasks) == (3, 18)
        assert (stats.failures, stats.retries, stats.fallbacks) == (1, 1, 1)
        assert stats.pools_started == 2  # the original pool and one rebuild
    finally:
        evaluator.close()
    # The sabotaged shutdown joined the survivors of the SIGKILLed pool,
    # but a freshly reaped child can linger in active_children() briefly.
    deadline = time.monotonic() + 5.0
    while mp.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _no_pool_children()
