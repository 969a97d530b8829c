"""Deterministic, declarative fault injection for the evaluator stack.

The degradation ladder (``SimulationConfig.failover``) and the circuit
breaker are only trustworthy if their invariants are *certified* — which
means failures must be reproducible, not demonstrated by ad-hoc kill
scripts.  This module makes failure a first-class, seeded input:

``Fault``
    One failure at one injection point: a ``kind`` from :data:`FAULT_KINDS`
    and the 0-based batch index at which it fires.  Worker-side kinds
    (``kill``/``hang``/``hang_mid_frame``/``error``/``garbage``) fire inside a
    :class:`~repro.core.remote.WorkerServer` when it receives its
    ``at_batch``-th batch, optionally restricted to one worker of a fleet
    via ``endpoint`` (the worker's index, ``None`` = every worker).
    ``kill_pool_worker`` fires inside a
    :class:`~repro.core.parallel.ParallelEvaluator` via
    :func:`pool_fault_hook` and SIGKILLs one pool worker.

``FaultPlan``
    An immutable, JSON-round-trippable set of faults plus a seed.  The
    seed drives every choice the injector makes (e.g. *which* pool worker
    dies), so a plan replayed against the same run produces the same
    failure sequence — the chaos property tests and the ``repro chaos``
    CLI subcommand rely on this.

``FaultInjector``
    The per-server runtime: counts batches (thread-safe — one
    ``WorkerServer`` handles connections on threads) and reports which
    fault, if any, fires at each batch.

Injection sites are test-only seams that are inert in production: a
``WorkerServer`` without a plan and a ``ParallelEvaluator`` without a
``fault_hook`` never consult this module.
"""

from __future__ import annotations

import json
import os
import signal
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # import cycle: parallel's pools are this module's targets
    from .parallel import ParallelEvaluator

__all__ = [
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "FaultInjector",
    "pool_fault_hook",
    "preset",
    "preset_names",
]

FAULT_KINDS = (
    "kill", "hang", "hang_mid_frame", "error", "garbage", "kill_pool_worker"
)
"""Supported failure modes.

``kill``
    The worker endpoint dies abruptly mid-protocol (no error reply, the
    listening socket goes away too) — total endpoint loss.
``hang``
    The worker sits on the batch for ``duration`` seconds before replying
    — drives the client's ``batch_timeout`` deadline path.
``hang_mid_frame``
    The worker reads the batch header plus only *part* of the first
    residual frame, stalls for ``duration`` seconds and drops the
    connection — the client is left mid-send on a residual (dense or
    packed-delta) frame, driving the deadline path while a frame is
    partially on the wire.
``error``
    The worker answers the batch with a protocol-level ``error`` reply.
``garbage``
    The worker answers with a frame that is not valid JSON — the
    malformed-reply path.
``kill_pool_worker``
    One local shared-memory pool worker is SIGKILLed (via
    :func:`pool_fault_hook`) — the ``BrokenProcessPool`` recovery path.
"""


@dataclass(frozen=True)
class Fault:
    """One failure: ``kind`` fired at the ``at_batch``-th batch (0-based).

    ``endpoint`` restricts worker-side kinds to one worker index of a
    fleet (``None`` hits every worker); ``duration`` is the sleep in
    seconds for ``kind="hang"``/``"hang_mid_frame"`` and ignored otherwise.
    """

    kind: str
    at_batch: int
    endpoint: int | None = None
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (expected one of {FAULT_KINDS})"
            )
        object.__setattr__(self, "at_batch", int(self.at_batch))
        if self.at_batch < 0:
            raise ValueError("at_batch must be >= 0")
        if self.endpoint is not None:
            object.__setattr__(self, "endpoint", int(self.endpoint))
            if self.endpoint < 0:
                raise ValueError("endpoint index must be >= 0")
        object.__setattr__(self, "duration", float(self.duration))
        if self.duration < 0:
            raise ValueError("duration must be >= 0")

    def to_dict(self) -> dict[str, Any]:
        out = {"kind": self.kind, "at_batch": self.at_batch}
        if self.endpoint is not None:
            out["endpoint"] = self.endpoint
        if self.duration:
            out["duration"] = self.duration
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Fault":
        unknown = set(data) - {"kind", "at_batch", "endpoint", "duration"}
        if unknown:
            raise ValueError(f"unknown Fault key(s): {sorted(unknown)}")
        if "kind" not in data or "at_batch" not in data:
            raise ValueError("a fault needs at least 'kind' and 'at_batch'")
        return cls(
            kind=data["kind"],
            at_batch=data["at_batch"],
            endpoint=data.get("endpoint"),
            duration=data.get("duration", 0.0),
        )


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

    def worker_faults(self, worker_index: int | None = None) -> tuple[Fault, ...]:
        """The worker-side faults, optionally filtered to one worker index."""
        out = []
        for fault in self.faults:
            if fault.kind == "kill_pool_worker":
                continue
            if (
                worker_index is not None
                and fault.endpoint is not None
                and fault.endpoint != worker_index
            ):
                continue
            out.append(fault)
        return tuple(out)

    def pool_faults(self) -> tuple[Fault, ...]:
        """The ``kill_pool_worker`` faults."""
        return tuple(f for f in self.faults if f.kind == "kill_pool_worker")

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
    # Every worker of the fleet dies at its second batch: total remote
    # loss mid-run — the ladder must finish on a local rung.
    "fleet-kill": FaultPlan(
        seed=0, faults=(Fault(kind="kill", at_batch=1),)
    ),
    # One worker dies, the other survives: PR 6's shard-retry path.
    "worker-kill": FaultPlan(
        seed=0, faults=(Fault(kind="kill", at_batch=1, endpoint=0),)
    ),
    # Error replies then garbage from one worker: protocol-level chaos
    # that must never take down the sweep.
    "flaky-worker": FaultPlan(
        seed=0,
        faults=(
            Fault(kind="error", at_batch=1, endpoint=0),
            Fault(kind="garbage", at_batch=3, endpoint=0),
        ),
    ),
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


# ----------------------------------------------------------------------
# Runtime
# ----------------------------------------------------------------------
class FaultInjector:
    """Per-server fault scheduler: counts batches, reports what fires.

    One injector lives inside one :class:`~repro.core.remote.WorkerServer`
    and is consulted once per received batch across all of that server's
    connections (thread-safe).  ``worker_index`` selects which
    endpoint-restricted faults apply to this server.
    """

    def __init__(self, plan: FaultPlan, *, worker_index: int = 0) -> None:
        self.plan = plan
        self.worker_index = int(worker_index)
        self._faults = plan.worker_faults(self.worker_index)
        self._lock = threading.Lock()
        self._batches = 0
        self.triggered: list[Fault] = []

    @property
    def batches(self) -> int:
        """Batches this server has received so far."""
        with self._lock:
            return self._batches

    def next_fault(self) -> Fault | None:
        """Advance the batch counter; the fault firing at this batch, if any."""
        with self._lock:
            index = self._batches
            self._batches += 1
            hits = [f for f in self._faults if f.at_batch == index]
            if hits:
                self.triggered.extend(hits)
                return hits[0]
        return None


def pool_fault_hook(plan: FaultPlan) -> "Callable[[ParallelEvaluator, int], None]":
    """Build a ``ParallelEvaluator.fault_hook`` driving the plan's pool faults.

    The evaluator invokes the hook with ``(evaluator, batch_index)`` at
    the top of each ``evaluate`` call; at each planned
    ``kill_pool_worker`` batch one live pool worker — chosen
    deterministically from the plan's seed — is SIGKILLed, which breaks
    the executor and exercises the rebuild-and-resubmit path.
    """
    kill_batches = {f.at_batch for f in plan.pool_faults()}

    def hook(evaluator: "ParallelEvaluator", batch_index: int) -> None:
        if batch_index not in kill_batches:
            return
        pids = evaluator.worker_pids()
        if not pids:
            return
        victim = pids[plan.seed % len(pids)]
        try:
            os.kill(victim, signal.SIGKILL)
        except ProcessLookupError:  # pragma: no cover - already gone
            pass
        # Return only once the victim is gone, so the break surfaces in
        # this batch however quickly the survivors could score it.
        evaluator.wait_worker_exit(victim)

    return hook
