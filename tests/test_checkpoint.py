"""Checkpoint/resume property harness: resumed == straight-through, bit-identically.

The headline guarantee of :mod:`repro.core.checkpoint` is enforced here,
not asserted in prose: a run checkpointed at **any** round boundary and
resumed — in the same process or a fresh one (the SIGKILL crash-injection
test), onto the same placement or a different one (serial or the
shared-memory pool) — produces byte-identical
trajectories, converged costs, :class:`~repro.core.incremental.EngineStats`
and proposal-cache counters versus the straight-through run.

Also covered: the atomic write-then-rename contract (a failed rename —
and a torn payload — can never cost the previous checkpoint), exact
round-trip of the numpy bit-generator state, loud
:class:`~repro.core.checkpoint.CheckpointError` failures for corrupted or
version-mismatched files, and the ``max_rounds`` accounting fix — a
resumed run honors the *remaining* round budget, never a restarted one,
with the per-entry-point historical budgets (run 100, sampling 60,
convergence study 40, CLI ``simulate`` 60) pinned by regression.  The
save path shares the engine's read-only residuals and streams them: a
save allocates about one ``(n, n)`` matrix beyond its header, a snapshot
holding row views writes the bytes of its dense form, and an in-process
restore of views resumes bit-identically.

The randomized sweeps reuse the small-budget/``--slow`` split from
``tests/conftest.py`` via the ``property_budget`` fixture.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import struct
import subprocess
import sys
import textwrap
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro.core.checkpoint as checkpoint_mod
import repro.core.session as session_mod
from repro.analysis.experiments import dynamics_convergence_experiment
from repro.core import (
    CheckpointError,
    GameSession,
    SimulationConfig,
    load_checkpoint,
    resume_dynamics,
    save_checkpoint,
)
from repro.core.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    TRAJECTORY_FIELDS,
    rng_from_state,
    rng_state_to_dict,
)
from repro.core.dynamics import DynamicsResult, _ProposalCache
from repro.core.game import NetworkCreationGame
from repro.core.host_graph import HostGraph
from repro.core.incremental import IncrementalEngine
from repro.core.residual_delta import DeltaResidual, dense_residual
from repro.core.shortest_paths import PinnedResidual
from repro.core.strategy import StrategyProfile
from repro.core.session import (
    MAX_ROUNDS_CONVERGENCE,
    MAX_ROUNDS_RUN,
    MAX_ROUNDS_SAMPLING,
    MAX_ROUNDS_SIMULATE,
)

from random_instances import VARIANTS, _random_game, _random_profile
from test_parallel_evaluator import _assert_identical_runs


def _boundary_files(tmp_path: Path, tag: str) -> tuple[str, Path]:
    """A per-test ``{round}`` checkpoint template and its directory."""
    directory = tmp_path / tag
    directory.mkdir(parents=True, exist_ok=True)
    return str(directory / "ckpt-{round}.bin"), directory


def _written_boundaries(directory: Path) -> list[Path]:
    return sorted(directory.glob("ckpt-*.bin"), key=lambda p: int(p.stem.split("-")[1]))


def _run_straight(game, start, cfg, **kwargs) -> DynamicsResult:
    with GameSession(game, cfg) as session:
        return session.run(start, **kwargs)


NO_CHECKPOINTING = {"checkpoint_every": None, "checkpoint_path": None}


# ----------------------------------------------------------------------
# The headline property: checkpoint at every boundary + resume ==
# straight-through, across variants x schedules (serial backend)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_every_boundary_resume_matches_straight_through(
    variant, property_budget, tmp_path
):
    """For every boundary r: checkpoint-at-r + resume is bit-identical."""
    rng = np.random.default_rng(zlib.crc32(f"ckpt-{variant}".encode()) % 2**32)
    trials = max(1, property_budget // 8)
    for trial in range(trials):
        n = int(rng.integers(5, 10))
        game = _random_game(variant, n, rng)
        start = _random_profile(n, rng, density=float(rng.uniform(0.1, 0.5)))
        schedule = ("sequential", "batched")[trial % 2]
        order = ("round_robin", "random")[(trial // 2) % 2]
        cfg = SimulationConfig(
            schedule=schedule, order=order, seed=int(rng.integers(0, 1000))
        )
        straight = _run_straight(game, start, cfg)
        template, directory = _boundary_files(tmp_path, f"{variant}-{trial}")
        checkpointing = _run_straight(
            game, start, cfg.replace(checkpoint_path=template, checkpoint_every=1)
        )
        # Writing checkpoints only *reads* state: it must not perturb the run.
        _assert_identical_runs([straight, checkpointing])
        boundaries = _written_boundaries(directory)
        assert len(boundaries) >= 1, "instance converged before any boundary"
        for path in boundaries:
            # Fresh one-shot resume; the game is rebuilt from the file alone,
            # exactly as a fresh process would.
            resumed = resume_dynamics(str(path), **NO_CHECKPOINTING)
            _assert_identical_runs([straight, resumed])


# ----------------------------------------------------------------------
# Placement crossing: a serial checkpoint resumed on the shared-memory pool
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("pool_always")
def test_resume_crosses_backends_and_worker_counts(tmp_path):
    """Every boundary of a serial run resumes bit-identically on workers
    {1, 2, 3} — placement never changes a trajectory."""
    rng = np.random.default_rng(424242)
    game = _random_game("metric", 10, rng)
    start = _random_profile(10, rng, 0.3)
    cfg = SimulationConfig(schedule="batched", order="random", seed=3)
    straight = _run_straight(game, start, cfg)
    template, directory = _boundary_files(tmp_path, "backends")
    _run_straight(game, start, cfg.replace(checkpoint_path=template))
    boundaries = _written_boundaries(directory)
    assert len(boundaries) >= 2
    for path in boundaries:
        for workers in (1, 2, 3):
            resumed = resume_dynamics(str(path), workers=workers, **NO_CHECKPOINTING)
            _assert_identical_runs([straight, resumed])


@pytest.mark.usefixtures("pool_always")
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_pool_checkpoints_resume_serially(tmp_path, variant):
    """Every boundary written by a two-worker pool resumes bit-identically
    in process: the pool leaves no trace in the file."""
    rng = np.random.default_rng(zlib.crc32(f"pool-ckpt-{variant}".encode()) % 2**32)
    game = _random_game(variant, 8, rng)
    start = _random_profile(8, rng, 0.3)
    cfg = SimulationConfig(schedule="batched", seed=2, max_rounds=6)
    straight = _run_straight(game, start, cfg)
    template, directory = _boundary_files(tmp_path, "pool")
    on_pool = cfg.replace(workers=2, checkpoint_path=template)
    _assert_identical_runs([straight, _run_straight(game, start, on_pool)])
    boundaries = _written_boundaries(directory)
    assert boundaries
    for path in boundaries:
        resumed = resume_dynamics(str(path), workers=1, **NO_CHECKPOINTING)
        _assert_identical_runs([straight, resumed])


@pytest.mark.usefixtures("pool_always")
def test_resume_through_an_open_session_reuses_its_machinery(tmp_path):
    """GameSession.resume continues through the session's own engine/pool."""
    rng = np.random.default_rng(77)
    game = _random_game("euclidean", 9, rng)
    start = _random_profile(9, rng, 0.3)
    cfg = SimulationConfig(schedule="batched", seed=1)
    straight = _run_straight(game, start, cfg)
    template, directory = _boundary_files(tmp_path, "session")
    _run_straight(game, start, cfg.replace(checkpoint_path=template))
    boundaries = _written_boundaries(directory)
    with GameSession(game, cfg) as session:
        for path in boundaries:
            resumed = session.resume(str(path), **NO_CHECKPOINTING)
            _assert_identical_runs([straight, resumed])
        stats = session.stats()
        assert stats.runs == len(boundaries)
        assert stats.engines_created <= 1  # one engine, reset per resume


def test_resume_preserves_recorded_history(tmp_path):
    rng = np.random.default_rng(55)
    game = _random_game("one_two", 8, rng)
    start = _random_profile(8, rng, 0.3)
    cfg = SimulationConfig(seed=2)
    straight = _run_straight(game, start, cfg, record_history=True)
    template, directory = _boundary_files(tmp_path, "history")
    _run_straight(
        game, start, cfg.replace(checkpoint_path=template), record_history=True
    )
    for path in _written_boundaries(directory):
        resumed = resume_dynamics(str(path), **NO_CHECKPOINTING)
        _assert_identical_runs([straight, resumed])
        assert resumed.history is not None
        assert len(resumed.history) == len(straight.history)
        assert all(a == b for a, b in zip(resumed.history, straight.history))


# ----------------------------------------------------------------------
# Crash injection: SIGKILL mid-run, resume in a fresh process
# ----------------------------------------------------------------------
CRASH_SEED = 1  # euclidean n=14 below runs ~5 rounds: plenty of boundaries


def _crash_instance():
    """The deterministic instance the crash-injection child and parent share."""
    rng = np.random.default_rng(CRASH_SEED)
    game = _random_game("euclidean", 14, rng)
    start = _random_profile(14, rng, 0.3)
    cfg = SimulationConfig(schedule="batched", order="random", seed=9, max_rounds=80)
    return game, start, cfg


def test_sigkill_mid_run_then_fresh_process_resume(tmp_path):
    """SIGKILL a checkpointing subprocess mid-run; a fresh process resumes
    from the surviving checkpoint to the exact straight-through result."""
    ckpt_path = tmp_path / "crash.bin"
    tests_dir = str(Path(__file__).resolve().parent)
    src_dir = str(Path(__file__).resolve().parent.parent / "src")
    # The child slows every save down so the kill reliably lands mid-run;
    # save_checkpoint is intercepted through the module attribute, which is
    # exactly how the dynamics loop invokes it.
    child = textwrap.dedent(
        f"""
        import sys, time
        sys.path.insert(0, {src_dir!r})
        sys.path.insert(0, {tests_dir!r})
        import repro.core.checkpoint as ckpt_mod
        _orig = ckpt_mod.save_checkpoint
        def slow_save(ckpt, path):
            _orig(ckpt, path)
            print("SAVED", ckpt.rounds_completed, flush=True)
            time.sleep(5.0)
        ckpt_mod.save_checkpoint = slow_save
        from test_checkpoint import _crash_instance
        from repro.core import GameSession
        game, start, cfg = _crash_instance()
        with GameSession(game, cfg.replace(checkpoint_path={str(ckpt_path)!r})) as s:
            s.run(start)
        print("DONE", flush=True)
        """
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", child],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        first = proc.stdout.readline().strip()
        assert first.startswith("SAVED"), f"child failed before checkpointing: {first}"
        proc.kill()  # SIGKILL — no cleanup handlers run
        remaining = proc.communicate(timeout=60)[0]
    finally:
        if proc.poll() is None:  # pragma: no cover - defensive teardown
            proc.kill()
            proc.wait()
    assert proc.returncode == -signal.SIGKILL
    assert "DONE" not in remaining, "child finished before the kill landed"
    assert ckpt_path.exists()

    game, start, cfg = _crash_instance()
    straight = _run_straight(game, start, cfg)
    ckpt = load_checkpoint(ckpt_path)
    assert 0 < ckpt.rounds_completed < straight.steps  # genuinely mid-run
    resumed = resume_dynamics(ckpt, **NO_CHECKPOINTING)
    _assert_identical_runs([straight, resumed])


def test_failed_rename_leaves_previous_checkpoint_loadable(tmp_path, monkeypatch):
    """The atomic-rename contract: a crash between temp-write and rename
    (simulated by a failing os.replace) costs nothing — the previous
    checkpoint survives byte-for-byte, and no temp litter is left behind."""
    rng = np.random.default_rng(8)
    game = _random_game("euclidean", 8, rng)
    start = _random_profile(8, rng, 0.3)
    template, directory = _boundary_files(tmp_path, "torn")
    _run_straight(
        game, start, SimulationConfig(seed=4, checkpoint_path=template)
    )
    boundaries = _written_boundaries(directory)
    assert len(boundaries) >= 2
    target = boundaries[0]
    original_bytes = target.read_bytes()
    later = load_checkpoint(boundaries[1])

    def failing_replace(src, dst):
        raise OSError("simulated crash between temp write and rename")

    monkeypatch.setattr(checkpoint_mod, "_os_replace", failing_replace)
    with pytest.raises(OSError, match="simulated crash"):
        save_checkpoint(later, target)
    monkeypatch.undo()
    assert target.read_bytes() == original_bytes
    assert not list(directory.glob("*.tmp")), "temp file not cleaned up"
    reloaded = load_checkpoint(target)  # still loadable, still round 1
    assert reloaded.rounds_completed == 1


# ----------------------------------------------------------------------
# RNG state round-trip
# ----------------------------------------------------------------------
def test_rng_state_round_trips_exactly_through_json():
    rng = np.random.default_rng(12345)
    rng.random(17)  # advance to a mid-stream state
    state = json.loads(json.dumps(rng_state_to_dict(rng)))
    clone = rng_from_state(state)
    assert clone.bit_generator.state == rng.bit_generator.state
    assert np.array_equal(clone.random(100), rng.random(100))
    assert np.array_equal(clone.permutation(50), rng.permutation(50))


def test_rng_from_state_rejects_unknown_bit_generator():
    with pytest.raises(CheckpointError, match="bit generator"):
        rng_from_state({"bit_generator": "NoSuchGenerator"})


def test_spawn_seeds_continue_identically_from_a_checkpointed_config(tmp_path):
    """spawn_seeds is a pure function of the config seed, so a config
    rebuilt from a checkpoint derives the identical child-seed sweep."""
    rng = np.random.default_rng(31)
    game = _random_game("tree", 8, rng)
    start = _random_profile(8, rng, 0.3)
    cfg = SimulationConfig(seed=99, checkpoint_path=str(tmp_path / "s.bin"))
    _run_straight(game, start, cfg)
    ckpt = load_checkpoint(tmp_path / "s.bin")
    assert ckpt.simulation_config().spawn_seeds(16) == cfg.spawn_seeds(16)


# ----------------------------------------------------------------------
# Corruption and version mismatch fail loudly
# ----------------------------------------------------------------------
@pytest.fixture
def valid_checkpoint_bytes(tmp_path) -> bytes:
    rng = np.random.default_rng(6)
    game = _random_game("metric", 7, rng)
    start = _random_profile(7, rng, 0.3)
    path = tmp_path / "valid.bin"
    _run_straight(game, start, SimulationConfig(seed=5, checkpoint_path=str(path)))
    return path.read_bytes()


def _expect_load_failure(tmp_path, data: bytes, match: str) -> None:
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def test_missing_file_fails_clearly(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        load_checkpoint(tmp_path / "nope.bin")


def test_truncated_file_fails_clearly(tmp_path, valid_checkpoint_bytes):
    _expect_load_failure(
        tmp_path, valid_checkpoint_bytes[: len(valid_checkpoint_bytes) - 11],
        "truncated checkpoint",
    )


def test_bad_magic_fails_clearly(tmp_path, valid_checkpoint_bytes):
    data = b"NOTACKPT" + valid_checkpoint_bytes[len(CHECKPOINT_MAGIC):]
    _expect_load_failure(tmp_path, data, "not a repro checkpoint")


def test_version_mismatch_fails_clearly(tmp_path, valid_checkpoint_bytes):
    future = struct.pack("<I", CHECKPOINT_VERSION + 1)
    data = (
        valid_checkpoint_bytes[: len(CHECKPOINT_MAGIC)]
        + future
        + valid_checkpoint_bytes[len(CHECKPOINT_MAGIC) + 4 :]
    )
    _expect_load_failure(tmp_path, data, "unsupported checkpoint version")


def test_corrupted_payload_fails_checksum(tmp_path, valid_checkpoint_bytes):
    data = bytearray(valid_checkpoint_bytes)
    data[-5] ^= 0xFF  # flip payload bits, CRC must catch it
    _expect_load_failure(tmp_path, bytes(data), "failed its checksum")


def _edit_header(data: bytes, edit) -> bytes:
    """``data`` with its JSON header passed through ``edit`` (payload kept)."""
    start = len(CHECKPOINT_MAGIC) + 4
    (length,) = struct.unpack("<Q", data[start : start + 8])
    header = json.loads(data[start + 8 : start + 8 + length])
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    return data[:start] + struct.pack("<Q", len(raw)) + raw + data[start + 8 + length :]


def test_file_without_engine_distances_fails_clearly(tmp_path, valid_checkpoint_bytes):
    data = _edit_header(
        valid_checkpoint_bytes, lambda header: header["arrays"].pop("engine_distances")
    )
    _expect_load_failure(tmp_path, data, "lacks the 'engine_distances' array")


def test_file_without_engine_stats_fails_clearly(tmp_path, valid_checkpoint_bytes):
    data = _edit_header(
        valid_checkpoint_bytes, lambda header: header["state"].pop("engine_stats")
    )
    _expect_load_failure(tmp_path, data, "lacks 'engine_stats'")


def test_corrupted_header_fails_clearly(tmp_path, valid_checkpoint_bytes):
    header_start = len(CHECKPOINT_MAGIC) + 4 + 8
    data = bytearray(valid_checkpoint_bytes)
    data[header_start] = 0xFF  # JSON can no longer parse
    _expect_load_failure(tmp_path, bytes(data), "corrupted checkpoint header")


# ----------------------------------------------------------------------
# max_rounds accounting: the remaining budget, never a restarted one
# ----------------------------------------------------------------------
def test_resume_honors_remaining_round_budget(tmp_path):
    """A budget-bound (non-converged) run resumed from any boundary executes
    only the remaining rounds: identical steps, never max_rounds more."""
    rng = np.random.default_rng(4)
    game = _random_game("general", 12, rng)
    start = _random_profile(12, rng, 0.3)
    cfg = SimulationConfig(order="round_robin", max_rounds=3)
    straight = _run_straight(game, start, cfg)
    assert not straight.converged  # the budget, not convergence, ended it
    assert straight.steps == 12 * 3
    template, directory = _boundary_files(tmp_path, "budget")
    _run_straight(game, start, cfg.replace(checkpoint_path=template))
    boundaries = _written_boundaries(directory)
    assert [int(p.stem.split("-")[1]) for p in boundaries] == [1, 2]
    for path in boundaries:
        resumed = resume_dynamics(str(path), **NO_CHECKPOINTING)
        _assert_identical_runs([straight, resumed])
        # The regression this pins: a budget-restarting resume would run
        # 3 extra rounds from the boundary and overshoot the step count.
        assert resumed.steps == straight.steps


def test_entry_point_budgets_are_pinned(monkeypatch, capsys):
    """Regression pin of the historical per-surface budgets a checkpoint's
    rounds_total must record: run 100, sampling 60, convergence study 40,
    CLI simulate 60."""
    assert MAX_ROUNDS_RUN == 100
    assert MAX_ROUNDS_SAMPLING == 60
    assert MAX_ROUNDS_CONVERGENCE == 40
    assert MAX_ROUNDS_SIMULATE == 60
    captured: list[int] = []
    real_loop = session_mod._run_session_loop

    def spying_loop(game, initial, *, cfg, **kwargs):
        captured.append(cfg.max_rounds)
        return real_loop(game, initial, cfg=cfg, **kwargs)

    monkeypatch.setattr(session_mod, "_run_session_loop", spying_loop)
    rng = np.random.default_rng(2)
    game = _random_game("euclidean", 5, rng)
    start = _random_profile(5, rng, 0.3)
    with GameSession(game) as session:
        session.run(start)
    assert captured[-1] == 100
    with GameSession(game) as session:
        session.sample_equilibria(num_samples=2, verify="none")
    assert captured[-1] == 60
    dynamics_convergence_experiment("euclidean", 5, 1.0, instances=1, runs_per_instance=1)
    assert captured[-1] == 40
    from repro.cli import main

    assert main(["simulate", "--variant", "euclidean", "--n", "5"]) == 0
    capsys.readouterr()
    assert captured[-1] == 60


def test_checkpoint_records_resolved_budget_as_rounds_total(tmp_path):
    """max_rounds=None resolves to the entry point's budget *before* the
    checkpoint is written, so a fresh-process resume knows the true total."""
    rng = np.random.default_rng(21)
    game = _random_game("general", 10, rng)
    start = _random_profile(10, rng, 0.3)
    path = tmp_path / "budget.bin"
    _run_straight(game, start, SimulationConfig(checkpoint_path=str(path)))
    ckpt = load_checkpoint(path)
    assert ckpt.rounds_total == MAX_ROUNDS_RUN
    assert ckpt.simulation_config().max_rounds == MAX_ROUNDS_RUN


# ----------------------------------------------------------------------
# Config validation, serialization, and the trajectory-field guard
# ----------------------------------------------------------------------
def test_checkpoint_config_fields_validate():
    with pytest.raises(ValueError, match="checkpoint_every without checkpoint_path"):
        SimulationConfig(checkpoint_every=2)
    with pytest.raises(ValueError, match="checkpoint_every must be >= 1"):
        SimulationConfig(checkpoint_every=0, checkpoint_path="x.bin")
    cfg = SimulationConfig(checkpoint_path="x.bin")
    assert cfg.checkpoint_every == 1  # a path alone means every boundary
    cfg = SimulationConfig(checkpoint_every="3", checkpoint_path="x.bin")
    assert cfg.checkpoint_every == 3  # JSON-style coercion


def test_checkpoint_config_fields_round_trip_through_json():
    cfg = SimulationConfig(
        schedule="batched", checkpoint_every=2, checkpoint_path="run-{round}.bin"
    )
    assert SimulationConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_checkpoint_with_a_retired_config_field_still_resumes(tmp_path):
    """Checkpoints written before a config field was retired carry it in
    their embedded config; they load and resume bit-identically."""
    import dataclasses

    rng = np.random.default_rng(23)
    game = _random_game("euclidean", 8, rng)
    start = _random_profile(8, rng, 0.3)
    cfg = SimulationConfig(max_rounds=4)
    straight = _run_straight(game, start, cfg)
    template, directory = _boundary_files(tmp_path, "retired")
    _run_straight(game, start, cfg.replace(checkpoint_path=template))
    ckpt = load_checkpoint(_written_boundaries(directory)[0])
    old = tmp_path / "old.bin"
    save_checkpoint(
        dataclasses.replace(ckpt, config={**ckpt.config, "buffering": "single"}), old
    )
    loaded = load_checkpoint(old)
    assert loaded.config["buffering"] == "single"
    assert loaded.simulation_config() == ckpt.simulation_config()
    _assert_identical_runs([straight, resume_dynamics(str(old), **NO_CHECKPOINTING)])


@pytest.mark.usefixtures("pool_always")
@pytest.mark.parametrize("encoding", ["dense", "delta"])
def test_checkpoint_with_the_retired_residual_encoding_still_resumes(
    tmp_path, encoding
):
    """A checkpoint whose embedded config still names a slot encoding —
    either value — resumes bit-identically, serially and on the pool."""
    import dataclasses

    rng = np.random.default_rng(zlib.crc32(f"encoding-{encoding}".encode()) % 2**32)
    game = _random_game("metric", 8, rng)
    start = _random_profile(8, rng, 0.3)
    cfg = SimulationConfig(schedule="batched", workers=2, max_rounds=5)
    straight = _run_straight(game, start, cfg.replace(workers=1))
    template, directory = _boundary_files(tmp_path, encoding)
    _run_straight(game, start, cfg.replace(checkpoint_path=template))
    ckpt = load_checkpoint(_written_boundaries(directory)[0])
    old = tmp_path / "old.bin"
    save_checkpoint(
        dataclasses.replace(
            ckpt, config={**ckpt.config, "residual_encoding": encoding}
        ),
        old,
    )
    loaded = load_checkpoint(old)
    assert loaded.config["residual_encoding"] == encoding
    assert loaded.simulation_config() == ckpt.simulation_config()
    for workers in (1, 2):
        resumed = resume_dynamics(str(old), workers=workers, **NO_CHECKPOINTING)
        _assert_identical_runs([straight, resumed])


def test_checkpoint_written_with_the_remote_fleet_fields_still_resumes(tmp_path):
    """Checkpoints written while the remote backend existed embed its ten
    fields at their defaults; they load and resume bit-identically, while
    one that ran on the remote backend fails to load its config clearly."""
    import dataclasses

    rng = np.random.default_rng(29)
    game = _random_game("metric", 8, rng)
    start = _random_profile(8, rng, 0.3)
    cfg = SimulationConfig(schedule="batched", workers=2, max_rounds=4)
    straight = _run_straight(game, start, cfg)
    template, directory = _boundary_files(tmp_path, "fleet")
    _run_straight(game, start, cfg.replace(checkpoint_path=template))
    ckpt = load_checkpoint(_written_boundaries(directory)[0])
    fleet_defaults = {
        "backend": "local",
        "endpoints": [],
        "batch_timeout": None,
        "max_retries": None,
        "failover": "ladder",
        "auth_token": None,
        "breaker_trip_after": None,
        "breaker_base_delay": None,
        "breaker_max_delay": None,
        "breaker_jitter": None,
        "buffering": "single",
    }
    old = tmp_path / "old.bin"
    save_checkpoint(
        dataclasses.replace(ckpt, config={**ckpt.config, **fleet_defaults}), old
    )
    assert load_checkpoint(old).simulation_config() == ckpt.simulation_config()
    _assert_identical_runs([straight, resume_dynamics(str(old), **NO_CHECKPOINTING)])
    remote = tmp_path / "remote.bin"
    save_checkpoint(
        dataclasses.replace(
            ckpt,
            config={**ckpt.config, **fleet_defaults, "backend": "remote",
                    "endpoints": ["127.0.0.1:7601"], "workers": 1},
        ),
        remote,
    )
    with pytest.raises(ValueError, match="'backend'.*workers=N"):
        resume_dynamics(str(remote), **NO_CHECKPOINTING)


def test_checkpoint_written_with_a_repair_threshold_still_resumes(tmp_path):
    """Checkpoints written while the repair frontier bound was a config
    field embed it at 0.5; they save, load and resume bit-identically, and
    one that configured another bound is refused naming the field."""
    import dataclasses

    rng = np.random.default_rng(43)
    game = _random_game("metric", 8, rng)
    start = _random_profile(8, rng, 0.4)
    cfg = SimulationConfig(response="single", max_rounds=4)
    straight = _run_straight(game, start, cfg)
    assert straight.engine_stats.residual_repairs + straight.engine_stats.repair_fallbacks > 0
    template, directory = _boundary_files(tmp_path, "threshold")
    _run_straight(game, start, cfg.replace(checkpoint_path=template))
    ckpt = load_checkpoint(_written_boundaries(directory)[0])
    assert "repair_threshold" not in ckpt.config
    old = tmp_path / "old.bin"
    save_checkpoint(
        dataclasses.replace(ckpt, config={**ckpt.config, "repair_threshold": 0.5}), old
    )
    loaded = load_checkpoint(old)
    assert loaded.config["repair_threshold"] == 0.5
    assert loaded.simulation_config() == ckpt.simulation_config()
    _assert_identical_runs([straight, resume_dynamics(str(old), **NO_CHECKPOINTING)])
    other = tmp_path / "other.bin"
    save_checkpoint(
        dataclasses.replace(ckpt, config={**ckpt.config, "repair_threshold": 0.25}), other
    )
    with pytest.raises(ValueError, match="'repair_threshold'"):
        resume_dynamics(str(other), **NO_CHECKPOINTING)


def test_checkpoint_written_with_the_engine_field_still_resumes(tmp_path, capsys):
    """Checkpoints written while the engine was a config field embed it as
    ``"incremental"``; they save, load and resume bit-identically, proposal
    cache included, and one that asked for the exact engine is refused
    naming the field, by the API and by the CLI."""
    import dataclasses

    from repro.cli import main

    rng = np.random.default_rng(47)
    game = _random_game("metric", 8, rng)
    start = _random_profile(8, rng, 0.4)
    cfg = SimulationConfig(schedule="batched", response="single", max_rounds=4)
    straight = _run_straight(game, start, cfg)
    template, directory = _boundary_files(tmp_path, "engine")
    _run_straight(game, start, cfg.replace(checkpoint_path=template))
    ckpt = load_checkpoint(_written_boundaries(directory)[0])
    assert "engine" not in ckpt.config and ckpt.cache_state is not None
    old = tmp_path / "old.bin"
    save_checkpoint(
        dataclasses.replace(ckpt, config={**ckpt.config, "engine": "incremental"}), old
    )
    loaded = load_checkpoint(old)
    assert loaded.config["engine"] == "incremental"
    assert loaded.simulation_config() == ckpt.simulation_config()
    _assert_identical_runs([straight, resume_dynamics(str(old), **NO_CHECKPOINTING)])
    exact = tmp_path / "exact.bin"
    save_checkpoint(
        dataclasses.replace(ckpt, config={**ckpt.config, "engine": "exact"}), exact
    )
    with pytest.raises(ValueError, match="'engine'"):
        resume_dynamics(str(exact), **NO_CHECKPOINTING)
    assert main(["resume", str(exact), "--no-checkpoint"]) == 2
    assert "'engine'" in capsys.readouterr().err


@pytest.fixture(scope="module")
def boundary_checkpoint(tmp_path_factory):
    """One checkpoint boundary of a short serial run."""
    rng = np.random.default_rng(31)
    game = _random_game("euclidean", 7, rng)
    start = _random_profile(7, rng, 0.3)
    template, directory = _boundary_files(tmp_path_factory.mktemp("ckpt"), "one")
    _run_straight(game, start, SimulationConfig(max_rounds=3, checkpoint_path=template))
    return load_checkpoint(_written_boundaries(directory)[0])


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
def test_checkpoint_with_a_remote_field_off_its_default_is_refused(
    tmp_path, boundary_checkpoint, capsys, key, value
):
    """A checkpoint of a run that configured the removed fleet does not
    resume: the API raises naming the field, the CLI exits with a usage
    error instead of a traceback."""
    import dataclasses

    from repro.cli import main

    path = tmp_path / "fleet.bin"
    save_checkpoint(
        dataclasses.replace(
            boundary_checkpoint, config={**boundary_checkpoint.config, key: value}
        ),
        path,
    )
    with pytest.raises(ValueError, match=f"'{key}'.*workers=N"):
        resume_dynamics(str(path), **NO_CHECKPOINTING)
    assert main(["resume", str(path), "--no-checkpoint"]) == 2
    captured = capsys.readouterr()
    assert f"'{key}'" in captured.err and captured.out == ""


def test_resume_rejects_trajectory_field_changes(tmp_path):
    rng = np.random.default_rng(13)
    game = _random_game("euclidean", 8, rng)
    start = _random_profile(8, rng, 0.3)
    path = tmp_path / "guard.bin"
    _run_straight(game, start, SimulationConfig(seed=1, checkpoint_path=str(path)))
    assert "response" in TRAJECTORY_FIELDS and "max_rounds" in TRAJECTORY_FIELDS
    with pytest.raises(ValueError, match="trajectory-shaping"):
        resume_dynamics(str(path), response="greedy", **NO_CHECKPOINTING)
    with pytest.raises(ValueError, match="trajectory-shaping"):
        resume_dynamics(str(path), max_rounds=7, **NO_CHECKPOINTING)
    # Placement fields stay free (exercised for real in the crossing test).
    resume_dynamics(str(path), workers=2, **NO_CHECKPOINTING)


def test_resume_rejects_a_different_game(tmp_path):
    rng = np.random.default_rng(14)
    game = _random_game("euclidean", 8, rng)
    other = _random_game("euclidean", 8, rng)
    start = _random_profile(8, rng, 0.3)
    path = tmp_path / "wrong-game.bin"
    _run_straight(game, start, SimulationConfig(seed=1, checkpoint_path=str(path)))
    with GameSession(other) as session:
        with pytest.raises(ValueError, match="different game"):
            session.resume(str(path))


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_simulate_checkpoint_then_resume_matches(tmp_path, capsys):
    from repro.cli import main

    path = str(tmp_path / "cli.bin")
    args = ["simulate", "--variant", "euclidean", "--n", "16", "--seed", "1"]
    assert main(args) == 0
    reference = capsys.readouterr().out
    assert main(args + ["--checkpoint", path, "--checkpoint-every", "2"]) == 0
    assert capsys.readouterr().out == reference  # checkpointing changes nothing
    assert main(["resume", path, "--no-checkpoint"]) == 0
    resumed = capsys.readouterr().out
    wanted = [
        line
        for line in reference.splitlines()
        if line.startswith(("dynamics converged", "equilibrium cost"))
    ]
    assert wanted and all(line in resumed for line in wanted)


def test_cli_config_dump_round_trips_checkpoint_fields(tmp_path, capsys):
    from repro.cli import main

    assert (
        main(["config", "dump", "--checkpoint", "r-{round}.bin", "--checkpoint-every", "3"])
        == 0
    )
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["checkpoint_path"] == "r-{round}.bin"
    assert dumped["checkpoint_every"] == 3
    assert SimulationConfig.from_dict(dumped).checkpoint_every == 3


def test_cli_resume_reports_unreadable_checkpoint(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "garbage.bin"
    bad.write_bytes(b"this is not a checkpoint")
    assert main(["resume", str(bad)]) == 1
    assert "not a repro checkpoint" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The save path: shared read-only residuals, streamed to disk
# ----------------------------------------------------------------------
def _mesh_game(n: int = 200, degree: int = 6, seed: int = 7):
    """A random geometric mesh past the Floyd–Warshall cutoff (so fallbacks
    are Dijkstra row views), and a BFS spanning tree owned by the parents."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2)) * np.sqrt(n)
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    allowed = np.zeros((n, n), dtype=bool)
    nearest = np.argsort(d, axis=1)[:, 1 : degree + 1]
    allowed[np.repeat(np.arange(n), degree), nearest.ravel()] = True
    allowed |= allowed.T
    weights = np.where(allowed, d, np.inf)
    np.fill_diagonal(weights, 0.0)
    owns = np.zeros((n, n), dtype=bool)
    seen, frontier = {0}, [0]
    while frontier:
        u = frontier.pop(0)
        for v in np.flatnonzero(allowed[u]):
            if int(v) not in seen:
                seen.add(int(v))
                owns[u, v] = True
                frontier.append(int(v))
    assert len(seen) == n
    return NetworkCreationGame(HostGraph(weights), 1.0), StrategyProfile(owns)


class _StopAtBoundary(Exception):
    pass


@pytest.fixture(scope="module")
def round_one_snapshot(tmp_path_factory):
    """The in-memory round-1 checkpoint of a single-move run on the n = 200
    mesh, as ``save_checkpoint`` receives it, and the straight-through run."""
    game, start = _mesh_game()
    cfg = SimulationConfig(response="single", schedule="batched", max_rounds=2)
    straight = _run_straight(game, start, cfg)
    captured = []

    def capture(ckpt, path):
        captured.append(ckpt)
        raise _StopAtBoundary

    directory = tmp_path_factory.mktemp("snapshot")
    checkpointed = cfg.replace(
        checkpoint_path=str(directory / "ckpt-{round}.bin"), checkpoint_every=1
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checkpoint_mod, "save_checkpoint", capture)
        with pytest.raises(_StopAtBoundary):
            _run_straight(game, start, checkpointed)
    (ckpt,) = captured
    return game, cfg, ckpt, straight


def _with_proposals(ckpt):
    """``ckpt`` with proposals holding the engine's own residual objects,
    a repair view and a fallback view among them."""
    by_kind: dict[type, int] = {}
    for u, (_, matrix) in sorted(ckpt.engine_residuals.items()):
        by_kind.setdefault(type(matrix), u)
    assert {DeltaResidual, PinnedResidual} <= set(by_kind)
    proposals = {
        u: {
            "agent": u,
            "strategy": [int(v) for v in np.flatnonzero(ckpt.ownership[u])],
            "cost": 1.5,
            "current_cost": 2.5,
            "method": "single",
            "d_rest": ckpt.engine_residuals[u][1],
        }
        for u in by_kind.values()
    }
    cache_state = {
        "hits": 3, "misses": 4, "prefill_window": 2, "floor_misses": 1,
        "speculated": [], "proposals": proposals,
    }
    return dataclasses.replace(ckpt, cache_state=cache_state)


def _densified(ckpt):
    """``ckpt`` with every residual a dense array."""
    cache_state = dict(ckpt.cache_state)
    cache_state["proposals"] = {
        u: {**entry, "d_rest": dense_residual(entry["d_rest"])}
        for u, entry in ckpt.cache_state["proposals"].items()
    }
    return dataclasses.replace(
        ckpt,
        engine_residuals={
            u: (key, dense_residual(matrix)) for u, (key, matrix) in ckpt.engine_residuals.items()
        },
        cache_state=cache_state,
    )


def test_save_allocates_about_one_matrix_not_the_file(round_one_snapshot, tmp_path):
    """A save streams the payload: its traced peak stays within a few
    ``(n, n)`` matrices plus the header, far below the file size."""
    game, _, ckpt, _ = round_one_snapshot
    n = game.n
    kinds = [type(matrix) for _, matrix in ckpt.engine_residuals.values()]
    assert len(kinds) >= 20 and {DeltaResidual, PinnedResidual} <= set(kinds)
    path = tmp_path / "ckpt.bin"
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        save_checkpoint(ckpt, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<Q", raw[12:20])
    assert len(raw) > 20 * n * n * 8
    assert peak < 4 * n * n * 8 + 3 * header_len, (peak, len(raw), header_len)


def test_load_allocates_about_the_payload_not_twice(tmp_path):
    """A load reads the payload once and hands out views into it: loading
    the round-2 file of a batched single-move run on the n = 200 mesh
    peaks under 1.2 times its payload (one copy per array would be two)."""
    game, start = _mesh_game()
    cfg = SimulationConfig(
        response="single",
        schedule="batched",
        max_rounds=3,
        checkpoint_path=str(tmp_path / "ckpt-{round}.bin"),
        checkpoint_every=1,
    )
    _run_straight(game, start, cfg)
    path = tmp_path / "ckpt-2.bin"
    with open(path, "rb") as handle:
        (header_len,) = struct.unpack("<Q", handle.read(20)[12:])
    payload = path.stat().st_size - 20 - header_len
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        ckpt = load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ckpt.engine_residuals) >= 20
    assert payload > 20 * game.n * game.n * 8
    assert peak < 1.2 * payload, (peak, payload)


@pytest.mark.parametrize("n", [8, 9])
def test_loaded_arrays_are_aligned(tmp_path, n):
    """Every loaded array is aligned for its dtype.  With n = 8 the payload
    layout aligns them all, and the residuals are views into the one payload
    buffer; with n = 9 the 81-byte ownership matrix leaves the float arrays
    after it off the 8-byte grid, and those load as aligned copies."""
    rng = np.random.default_rng(n)
    game = _random_game("metric", n, rng)
    start = _random_profile(n, rng, 0.4)
    path = tmp_path / "ckpt.bin"
    _run_straight(game, start, SimulationConfig(seed=3, checkpoint_path=str(path)))
    ckpt = load_checkpoint(path)
    residuals = [matrix for _, matrix in ckpt.engine_residuals.values()]
    assert residuals
    arrays = [ckpt.host_weights, ckpt.ownership, ckpt.social_costs, ckpt.engine_distances]
    assert all(a.flags.aligned for a in arrays + residuals)
    assert all(m.flags.owndata == (n % 2 == 1) for m in residuals)


def test_views_write_the_bytes_of_their_dense_forms(round_one_snapshot, tmp_path):
    _, _, ckpt, _ = round_one_snapshot
    views = _with_proposals(ckpt)
    dense = _densified(views)
    save_checkpoint(views, tmp_path / "views.bin")
    save_checkpoint(dense, tmp_path / "dense.bin")
    assert (tmp_path / "views.bin").read_bytes() == (tmp_path / "dense.bin").read_bytes()
    loaded = load_checkpoint(tmp_path / "views.bin")
    expected = {u: matrix for u, (_, matrix) in dense.engine_residuals.items()}
    expected.update(
        {("proposal", u): entry["d_rest"] for u, entry in dense.cache_state["proposals"].items()}
    )
    got = {u: matrix for u, (_, matrix) in loaded.engine_residuals.items()}
    got.update({("proposal", u): d for u, (_, d) in loaded.proposals().items()})
    assert got.keys() == expected.keys()
    for name, matrix in got.items():
        assert type(matrix) is np.ndarray and not matrix.flags.writeable
        assert np.array_equal(matrix.view(np.int64), expected[name].view(np.int64))


def test_in_process_restore_of_views_resumes_bit_identically(round_one_snapshot):
    """``restore_state(**export_state())`` with views: a session resumes
    from the in-memory snapshot (row views and all) bit-identically."""
    game, cfg, ckpt, straight = round_one_snapshot
    with GameSession(game, cfg) as session:
        resumed = session.resume(ckpt, checkpoint_path=None, checkpoint_every=None)
    _assert_identical_runs([straight, resumed])

    views = _with_proposals(ckpt)
    engine = IncrementalEngine(game, ckpt.profile())
    engine.restore_state(
        distances=views.engine_distances,
        residuals=views.engine_residuals,
        stats=views.engine_stats,
    )
    cache = _ProposalCache(game)
    cache.restore_state(views.proposals(), hits=3, misses=4)
    again = engine.export_state()
    assert again["stats"] == views.engine_stats
    for u, (key, matrix) in views.engine_residuals.items():
        got_key, got = again["residuals"][u]
        assert got_key == key and type(got) is np.ndarray and not got.flags.writeable
        assert np.array_equal(got.view(np.int64), dense_residual(matrix).view(np.int64))
    for u, entry in cache.export_state()["proposals"].items():
        assert not entry["d_rest"].flags.writeable
        expected = dense_residual(views.cache_state["proposals"][u]["d_rest"])
        assert np.array_equal(entry["d_rest"].view(np.int64), expected.view(np.int64))
