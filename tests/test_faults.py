"""Chaos certification: the worker pool and its in-process fallback under faults.

:mod:`repro.core.faults` turns failure into a reproducible input — a
JSON-round-trippable :class:`~repro.core.faults.FaultPlan` injected into
the local pool.  This suite certifies the recovery acceptance properties
against those plans:

* **declarative layer** — plans and faults validate their fields, reject
  unknown keys, and round-trip through dicts and JSON exactly; the
  ``repro chaos --preset`` catalog is well-formed;

* **pool recovery** — a SIGKILLed pool worker is absorbed by the pool's
  one in-place rebuild, and a pool that breaks beyond it (or never
  starts) falls back to in-process scoring; either way sweeps complete
  *bit-identically* to serial runs across the model variants, with the
  ``fallbacks`` counter telling the story;

* **last-resort durability** — when the in-process fallback fails too, the
  terminal failure still flushes an emergency checkpoint at the last
  completed round boundary, and resuming it matches the straight-through
  run.
"""

from __future__ import annotations

import json
import zlib
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core import (
    GameSession,
    SimulationConfig,
    resume_dynamics,
    run_dynamics,
)
from repro.cli import _VARIANTS as CLI_VARIANTS
from repro.cli import main
from repro.core import parallel as parallel_module
from repro.core.faults import (
    FAULT_KINDS,
    Fault,
    FaultPlan,
    preset,
    preset_names,
)
from repro.core.parallel import EvaluatorError, SharedSnapshot
from random_instances import _random_game, _random_profile
from test_parallel_evaluator import _assert_identical_runs

# Every test here exercises the worker pool, so every batch goes to it:
# the serial-first dispatch rule would keep these small batches in process.
pytestmark = pytest.mark.usefixtures("pool_always")

LADDER_VARIANTS = (
    "euclidean", "metric", "tree", "one_two", "general", "ncg", "one_infinity"
)

# Fault kinds and presets that targeted the deleted remote worker fleet.
RETIRED_FAULT_KINDS = ("kill", "hang", "hang_mid_frame", "error", "garbage")
RETIRED_PRESETS = ("fleet-kill", "worker-kill", "flaky-worker")


def _break_pool_at(batch: int):
    """A pool fault hook: from ``batch`` on, the pool is broken beyond rebuild."""

    def hook(evaluator, batch_index: int) -> None:
        if batch_index >= batch:
            raise BrokenProcessPool("worker pool broke twice in one batch (injected)")

    return hook


# ----------------------------------------------------------------------
# Declarative layer: Fault / FaultPlan / presets
# ----------------------------------------------------------------------
def test_fault_validates_fields():
    with pytest.raises(ValueError, match="unknown fault kind"):
        Fault(kind="segfault", at_batch=0)
    with pytest.raises(ValueError, match="at_batch"):
        Fault(kind="kill_pool_worker", at_batch=-1)
    assert FAULT_KINDS == ("kill_pool_worker",)


def test_fault_dict_round_trip_is_exact_and_strict():
    fault = Fault(kind="kill_pool_worker", at_batch=2)
    assert Fault.from_dict(fault.to_dict()) == fault
    with pytest.raises(ValueError, match="unknown Fault key"):
        Fault.from_dict({"kind": "kill_pool_worker", "at_batch": 0, "sigkill": True})
    with pytest.raises(ValueError, match="needs"):
        Fault.from_dict({"kind": "kill_pool_worker"})


def test_plan_json_round_trip_and_dict_coercion():
    plan = FaultPlan(
        seed=7,
        faults=(
            Fault(kind="kill_pool_worker", at_batch=1),
            Fault(kind="kill_pool_worker", at_batch=3),
        ),
    )
    assert FaultPlan.from_json(plan.to_json()) == plan
    assert FaultPlan.from_json(plan.to_json(indent=2)) == plan
    # Dicts coerce to Fault instances at construction.
    coerced = FaultPlan(seed=7, faults=({"kind": "kill_pool_worker", "at_batch": 1},))
    assert coerced.faults[0] == plan.faults[0]
    with pytest.raises(ValueError, match="object"):
        FaultPlan.from_json("[1, 2, 3]")
    with pytest.raises(ValueError, match="unknown FaultPlan key"):
        FaultPlan.from_dict({"seed": 0, "chaos": True})


def test_preset_catalog_is_well_formed():
    assert preset_names() == ("pool-kill",)
    for name in preset_names():
        plan = preset(name)
        assert FaultPlan.from_json(plan.to_json()) == plan
    with pytest.raises(ValueError, match="unknown fault preset"):
        preset("meteor-strike")


@pytest.mark.parametrize("kind", RETIRED_FAULT_KINDS)
def test_retired_worker_fault_kinds_are_rejected(kind, tmp_path, capsys):
    """A plan written for the deleted fleet fails loudly, never silently.

    Neither the fault itself, nor a plan carrying it, nor ``repro chaos
    --plan`` replaying it may quietly run a fault-free sweep.
    """
    with pytest.raises(ValueError, match="unknown fault kind"):
        Fault(kind=kind, at_batch=0)
    old_plan = {
        "seed": 3,
        "faults": [{"kind": kind, "at_batch": 1, "endpoint": 0, "duration": 0.0}],
    }
    with pytest.raises(ValueError, match="unknown Fault key"):
        FaultPlan.from_dict(old_plan)
    old_plan["faults"][0] = {"kind": kind, "at_batch": 1}
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultPlan.from_dict(old_plan)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(old_plan))
    assert main(["chaos", "--plan", str(path), "--n", "5"]) == 2
    assert "unknown fault kind" in capsys.readouterr().err


@pytest.mark.parametrize("name", RETIRED_PRESETS)
def test_retired_fleet_presets_are_unknown(name, capsys):
    with pytest.raises(ValueError, match="unknown fault preset"):
        preset(name)
    assert name not in preset_names()
    assert main(["chaos", "--preset", name, "--n", "5"]) == 2
    assert "unknown fault preset" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Pool recovery: chaos property sweeps
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", LADDER_VARIANTS)
def test_broken_pool_rescue_completes_bit_identically(variant, property_budget):
    """A pool broken beyond its rebuild mid-run: the fallback finishes in process.

    From its second batch on the pool raises ``BrokenProcessPool`` past
    its rebuild.  The evaluator must re-run the very batch that failed on
    in-process scoring, keep going there, and complete the sweep
    bit-identically to a serial run.
    """
    rng = np.random.default_rng(zlib.crc32(f"faults-{variant}".encode()) % 2**32)
    trials = max(1, property_budget // 8)
    for trial in range(trials):
        n = int(rng.integers(5, 8))
        game = _random_game(variant, n, rng)
        start = _random_profile(n, rng, density=0.35)
        schedule = ("batched", "sequential")[trial % 2]
        serial = run_dynamics(
            game,
            start,
            SimulationConfig(max_rounds=8, schedule=schedule, workers=1),
            rng=7,
        )
        config = SimulationConfig(workers=2, max_rounds=8, schedule=schedule)
        with GameSession(game, config) as session:
            session._shared_evaluator().fault_hook = _break_pool_at(1)
            chaotic = session.run(start, rng=7)
            stats = session.stats()
        _assert_identical_runs([serial, chaotic])
        pool = stats.evaluator_stats
        assert pool is not None
        if pool.batches >= 2:
            # The batched schedule drives the evaluator, so once the run
            # reached the broken batch the evaluator must have fallen back
            # (sequential scores in-process; a run that converged after a
            # single batch never reached the fault).
            assert pool.fallbacks == 1


@pytest.mark.parametrize("variant", LADDER_VARIANTS)
def test_pool_kill_sweep_is_bit_identical(variant, property_budget):
    """A SIGKILLed pool worker mid-sweep never perturbs the trajectory."""
    rng = np.random.default_rng(zlib.crc32(f"poolkill-{variant}".encode()) % 2**32)
    trials = max(1, property_budget // 8)
    for trial in range(trials):
        n = int(rng.integers(5, 9))
        game = _random_game(variant, n, rng)
        start = _random_profile(n, rng, density=0.35)
        serial = run_dynamics(
            game,
            start,
            SimulationConfig(schedule="batched", max_rounds=8, workers=1),
            rng=7,
        )
        config = SimulationConfig(schedule="batched", workers=2, max_rounds=8)
        with GameSession(game, config) as session:
            session.arm_faults(preset("pool-kill"))
            chaotic = session.run(start, rng=7)
        _assert_identical_runs([serial, chaotic])


@pytest.mark.parametrize("variant", CLI_VARIANTS)
def test_cli_chaos_pool_kill_is_identical_to_serial(variant, capsys):
    """``repro chaos --preset pool-kill`` reports the faulted run unchanged."""
    # alpha < 1 keeps even the unit host busy past the faulted batch.
    code = main(
        ["chaos", "--preset", "pool-kill", "--variant", variant, "--n", "7",
         "--seed", "2", "--alpha", "0.8"]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "trajectory        : IDENTICAL" in out
    assert "faulted backend   : 2-process pool" in out
    assert "pool_rebuilds=1" in out  # the kill fired and the pool rebuilt


def test_cli_chaos_replays_a_plan_file(tmp_path, capsys):
    plan = FaultPlan(
        seed=5,
        faults=(
            Fault(kind="kill_pool_worker", at_batch=0),
            Fault(kind="kill_pool_worker", at_batch=2),
        ),
    )
    path = tmp_path / "plan.json"
    path.write_text(plan.to_json(indent=2))
    assert main(["chaos", "--plan", str(path), "--n", "7", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "(2 fault(s), seed=5)" in out and "IDENTICAL" in out
    assert main(["chaos", "--plan", str(tmp_path / "missing.json")]) == 2
    assert "cannot read --plan" in capsys.readouterr().err


def test_cli_chaos_on_the_sequential_schedule_is_not_exercised(capsys):
    """The sequential schedule dispatches no batch, so no fault can fire:
    the replay must fail instead of reporting a vacuous IDENTICAL."""
    code = main(
        ["chaos", "--preset", "pool-kill", "--n", "10", "--schedule", "sequential"]
    )
    out = capsys.readouterr().out
    assert code == 1, out
    assert "trajectory        : NOT EXERCISED (0 of 1 fault(s) fired)" in out
    assert "pool_rebuilds=0 faults_fired=0" in out


def test_cli_chaos_fault_past_the_last_batch_is_not_exercised(tmp_path, capsys):
    """A fault planned for a batch the run never reaches did not fire."""
    plan = FaultPlan(seed=0, faults=(Fault(kind="kill_pool_worker", at_batch=999),))
    path = tmp_path / "late.json"
    path.write_text(plan.to_json())
    code = main(["chaos", "--plan", str(path), "--n", "10"])
    out = capsys.readouterr().out
    assert code == 1, out
    assert "trajectory        : NOT EXERCISED (0 of 1 fault(s) fired)" in out


def test_rescue_survives_a_pool_that_never_started(monkeypatch):
    """Shared memory refused from batch zero: the fallback still delivers."""
    rng = np.random.default_rng(139)
    game = _random_game("euclidean", 6, rng)
    start = _random_profile(6, rng)
    serial = run_dynamics(
        game, start, SimulationConfig(schedule="batched", max_rounds=6), rng=7
    )

    def refuse(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(SharedSnapshot, "create", refuse)
    config = SimulationConfig(workers=2, max_rounds=6, schedule="batched")
    with GameSession(game, config) as session:
        chaotic = session.run(start, rng=7)
        stats = session.stats()
    _assert_identical_runs([serial, chaotic])
    assert stats.evaluator_stats.fallbacks == 1
    assert stats.evaluator_pools_started == 0


# ----------------------------------------------------------------------
# Last-resort durability: the emergency checkpoint
# ----------------------------------------------------------------------
def test_terminal_failure_flushes_emergency_checkpoint(tmp_path, monkeypatch):
    """A terminal evaluator failure leaves a resumable boundary checkpoint.

    The pool breaks beyond its rebuild at its third batch and the
    in-process fallback raises too, so the run re-raises the evaluator
    error — but first flushes the last completed round boundary to
    ``checkpoint_path`` (the cadence here is too sparse to have written
    anything).  Resuming that emergency file must match the
    straight-through serial run bit-identically.
    """
    rng = np.random.default_rng(157)
    game = _random_game("euclidean", 8, rng)
    start = _random_profile(8, rng)
    serial = run_dynamics(
        game, start, SimulationConfig(schedule="batched", max_rounds=12), rng=7
    )
    assert serial.steps > 2  # the instance survives past the first boundary

    def fallback_fails(*args, **kwargs):
        raise EvaluatorError("in-process fallback failed (injected)")

    monkeypatch.setattr(parallel_module, "score_tasks", fallback_fails)
    directory = tmp_path / "emergency"
    directory.mkdir()
    config = SimulationConfig(
        workers=2,
        max_rounds=12,
        schedule="batched",
        checkpoint_path=str(directory / "ckpt-{round}.bin"),
        checkpoint_every=1000,  # the cadence never fires on its own
    )
    with GameSession(game, config) as session:
        session._shared_evaluator().fault_hook = _break_pool_at(2)
        with pytest.raises(EvaluatorError, match="fallback failed"):
            session.run(start, rng=7)
    written = sorted(directory.glob("ckpt-*.bin"))
    assert len(written) == 1, "expected exactly the emergency flush"
    monkeypatch.undo()
    # Resume serially: placement fields may change freely on resume.
    resumed = resume_dynamics(
        str(written[0]), workers=1, checkpoint_every=None, checkpoint_path=None
    )
    _assert_identical_runs([serial, resumed])
