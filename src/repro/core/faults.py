"""Deterministic, declarative fault injection for the worker pool.

The pool's rebuild-and-resubmit recovery and its in-process fallback
are only trustworthy if their invariants are *certified* — which
means failures must be reproducible, not demonstrated by ad-hoc kill
scripts.  This module makes failure a first-class, seeded input:

``Fault``
    One failure at one injection point: a ``kind`` from :data:`FAULT_KINDS`
    and the 0-based batch index at which it fires.  ``kill_pool_worker``
    fires inside a :class:`~repro.core.parallel.ParallelEvaluator` via
    :func:`pool_fault_hook` and SIGKILLs one pool worker; the hook records
    each fault it fired, so a replay can tell a fault that never fired
    from one that was absorbed.

``FaultPlan``
    An immutable, JSON-round-trippable set of faults plus a seed.  The
    seed drives every choice the injector makes (*which* pool worker
    dies), so a plan replayed against the same run produces the same
    failure sequence — the chaos property tests and the ``repro chaos``
    CLI subcommand rely on this.

The injection site is a test-only seam that is inert in production: a
``ParallelEvaluator`` without a ``fault_hook`` never consults this module.
"""

from __future__ import annotations

import json
import os
import signal
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # import cycle: parallel's pools are this module's targets
    from .parallel import ParallelEvaluator

__all__ = [
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "PoolFaultHook",
    "pool_fault_hook",
    "preset",
    "preset_names",
]

FAULT_KINDS = ("kill_pool_worker",)
"""Supported failure modes.

``kill_pool_worker``
    One local shared-memory pool worker is SIGKILLed (via
    :func:`pool_fault_hook`) — the ``BrokenProcessPool`` recovery path.
"""


@dataclass(frozen=True)
class Fault:
    """One failure: ``kind`` fired at the ``at_batch``-th batch (0-based)."""

    kind: str
    at_batch: int

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (expected one of {FAULT_KINDS})"
            )
        object.__setattr__(self, "at_batch", int(self.at_batch))
        if self.at_batch < 0:
            raise ValueError("at_batch must be >= 0")

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "at_batch": self.at_batch}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Fault":
        unknown = set(data) - {"kind", "at_batch"}
        if unknown:
            raise ValueError(f"unknown Fault key(s): {sorted(unknown)}")
        if "kind" not in data or "at_batch" not in data:
            raise ValueError("a fault needs 'kind' and 'at_batch'")
        return cls(kind=data["kind"], at_batch=data["at_batch"])


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, immutable set of :class:`Fault` injections.

    JSON-round-trippable (``to_json``/``from_json``) so plans can live in
    files, CLI flags and CI jobs; the ``seed`` makes every injector choice
    deterministic (see :func:`pool_fault_hook`).
    """

    seed: int = 0
    faults: tuple[Fault, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(
            self,
            "faults",
            tuple(
                f if isinstance(f, Fault) else Fault.from_dict(dict(f))
                for f in self.faults
            ),
        )

    def to_dict(self) -> dict[str, Any]:
        return {"seed": self.seed, "faults": [f.to_dict() for f in self.faults]}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultPlan":
        unknown = set(data) - {"seed", "faults"}
        if unknown:
            raise ValueError(f"unknown FaultPlan key(s): {sorted(unknown)}")
        return cls(seed=data.get("seed", 0), faults=tuple(data.get("faults", ())))

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a FaultPlan JSON document must be an object")
        return cls.from_dict(data)


# ----------------------------------------------------------------------
# Named presets (the `repro chaos --preset` catalog)
# ----------------------------------------------------------------------
_PRESETS: dict[str, FaultPlan] = {
    # One local shared-memory pool worker is SIGKILLed mid-sweep: the
    # pool-rebuild path.
    "pool-kill": FaultPlan(
        seed=0, faults=(Fault(kind="kill_pool_worker", at_batch=1),)
    ),
}


def preset_names() -> tuple[str, ...]:
    """The named fault-plan presets, in catalog order."""
    return tuple(_PRESETS)


def preset(name: str) -> FaultPlan:
    """Look up a named preset plan (see ``repro chaos --preset``)."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown fault preset {name!r} (expected one of {preset_names()})"
        ) from None


class PoolFaultHook:
    """A ``ParallelEvaluator.fault_hook`` replaying a plan's pool faults.

    Build it with :func:`pool_fault_hook`.  ``fired`` lists the faults it
    fired so far, in order.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.fired: list[Fault] = []

    def __call__(self, evaluator: "ParallelEvaluator", batch_index: int) -> None:
        due = [f for f in self.plan.faults if f.at_batch == batch_index]
        pids = evaluator.worker_pids() if due else []
        if not pids:
            return
        victim = pids[self.plan.seed % len(pids)]
        try:
            os.kill(victim, signal.SIGKILL)
        except ProcessLookupError:  # pragma: no cover - already gone
            pass
        # Return only once the victim is gone, so the break surfaces in
        # this batch however quickly the survivors could score it.
        evaluator.wait_worker_exit(victim)
        self.fired.extend(due)


def pool_fault_hook(plan: FaultPlan) -> PoolFaultHook:
    """Build a ``ParallelEvaluator.fault_hook`` driving the plan's pool faults.

    The evaluator invokes the hook with ``(evaluator, batch_index)``
    before it dispatches a batch to the pool (an armed hook sends every
    batch there); at each planned ``kill_pool_worker`` batch one live pool
    worker — chosen deterministically from the plan's seed — is
    SIGKILLed, which breaks the executor and exercises the
    rebuild-and-resubmit path.  The hook's ``fired`` list records each
    fault it fired, in order: a planned batch the run never reached (a
    sequential schedule, which dispatches no batch, or a run that
    converged first) leaves its fault out.
    """
    return PoolFaultHook(plan)
