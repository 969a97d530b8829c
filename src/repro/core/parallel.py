"""Multiprocess batched-proposal evaluation over shared-memory snapshots.

Within one batched-dynamics round (and on every ``order="max_gain"`` step)
many agents are scored against the *same* state snapshot: each evaluation
is a pure function of the agent's residual distance matrix, the host-graph
weight row and the agent's current strategy — completely independent of the
other evaluations.  This module fans that work out to worker processes:

``SharedSnapshot``
    The shared-memory encoding of one evaluation snapshot.  Two
    :mod:`multiprocessing.shared_memory` segments are used: a *static*
    segment holding the host-graph weight matrix (written once, valid for
    the lifetime of the pool because host weights never change during a
    dynamics run) and a *slot* segment holding the ``slots`` residual
    matrices of the in-flight chunk.  Workers attach by name at pool
    start-up and build zero-copy NumPy views; per task only a slot index,
    an agent id and a (tiny) strategy tuple cross the process boundary.

``ParallelEvaluator``
    The persistent worker pool.  It is created *lazily* on the first
    batch sent to it, reused across rounds of a dynamics run, and torn
    down via :meth:`ParallelEvaluator.close` (also a context manager, plus
    an ``atexit`` safety net) so CLI runs and test-suites never leak worker
    processes or shared-memory segments.  On the pool, ``evaluate``
    writes each distinct residual matrix into a free slot (matrices shared
    by several agents — e.g. the network distances of agents owning no
    solely-owned edges — are written once), dispatches one task per agent
    and gathers results in submission order.  A batch with more distinct
    matrices than slots is dispatched in chunks, each gathered before the
    next is written.

A slot holds a residual in the form the engine hands it out.  A dense
array is written dense.  A :class:`~repro.core.shortest_paths.PinnedResidual`
(a Dijkstra fallback) is written as its raw matrix, and the worker pins it
on read through the same class.  A repair's
:class:`~repro.core.residual_delta.DeltaResidual` is written as its own
delta, packed (:func:`~repro.core.residual_delta.pack_delta`), and its base
dense in a slot of its own, once per chunk: every repair made under one
network shares that network's matrix, so localized dynamics move O(k·n)
bytes per repair instead of O(n²).  The worker rebuilds the same view
class over the same arrays the owner scores in process, so the two read
identical bits through identical code.  A repair whose packed delta would
not fit a slot is written dense; the engine never makes one, since a
repair re-solves at most half the rows.

Determinism is the design constraint, not an afterthought: workers execute
:func:`repro.core.best_response.score_response` — the exact same pure
kernel the serial engine runs — against bit-identical matrix views, and
results are collected in submission order, so a parallel evaluation is
indistinguishable from the serial one for every worker count (the property
tests in ``tests/test_parallel_evaluator.py`` assert bit-identical
trajectories for ``workers in {1, 2, 4}``).

Snapshot invariants:

* the weights segment is written once, before the first task is dispatched,
  and never mutated while the pool lives;
* a slot is only rewritten after every task of the chunk that referenced it
  has been gathered (dispatch is chunked at ``slots`` distinct matrices and
  each chunk is gathered before the next one is written);
* matrices are C-contiguous ``float64`` copies and packed rows are
  verbatim copies, so worker-side arithmetic sees the same numbers.

Dispatch is serial-first.  :meth:`ParallelEvaluator.evaluate` sends a
batch to the pool only when the pool saves more scoring time than it
costs, and runs it on in-process
:func:`~repro.core.best_response.score_tasks` otherwise: the same kernel,
so the choice never changes a result.  Only exact best responses can
pay; their scoring work (:func:`_scoring_work`) is weighed against the
pool's per-batch and per-matrix costs, measured by
``benchmarks/bench_parallel_dynamics.py`` (``docs/architecture.md``
tabulates them).  The pool starts lazily, so a run whose batches all stay
in process never forks a worker or allocates shared memory.  An armed
``fault_hook`` always uses the pool, and :func:`pool_always` does the
same for the tests and benchmarks that must exercise it; there is no user
setting.

Failure handling lives in :meth:`ParallelEvaluator.evaluate` too: a broken
pool is rebuilt once per batch and the chunk resubmitted; a second break
in the same batch, or an ``OSError`` (e.g. shared memory refused), re-runs
the whole batch in process, and every later batch runs in process too.

Ownership: whoever *creates* an evaluator closes it, and nobody else.  A
:class:`~repro.core.session.GameSession` builds the one evaluator of its
runs and injects it into its
:class:`~repro.core.incremental.IncrementalEngine`, which uses it but never
closes it.

The start method defaults to ``fork`` where available (zero-cost worker
start-up; the snapshot names travel via the initializer so ``spawn``
platforms work identically, just with a slower pool start).
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing as mp
import multiprocessing.connection
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .best_response import BestResponseResult, score_response, score_tasks
from .residual_delta import (
    DeltaResidual,
    Residual,
    pack_delta,
    packed_size,
    unpack_delta,
)
from .shortest_paths import PinnedResidual

if TYPE_CHECKING:  # import cycle: game sits above the evaluator layer
    from .game import NetworkCreationGame

__all__ = [
    "EvaluatorError",
    "EvaluatorStats",
    "SharedSnapshot",
    "ParallelEvaluator",
    "default_workers",
]

_DEFAULT_SLOTS = 16

# How a slot holds a task's residual (the first field of a task's form):
# an array, a PinnedResidual's raw matrix, or a DeltaResidual's packed
# delta over a base array in another slot.
_DENSE, _PINNED, _DELTA = "dense", "pinned", "delta"

# Serial-first dispatch constants, in units of in-process scoring work
# (``_scoring_work``), fitted by the break-even sweep of
# benchmarks/bench_parallel_dynamics.py on a 2-CPU x86-64 container
# (docs/architecture.md lists the measurements): the pool's own cost of
# one batch and of each distinct residual matrix it writes to a slot,
# expressed as the exact best-response work scored in process meanwhile.
_POOL_BATCH_WORK = 1.6e6
_POOL_MATRIX_WORK = 7.1e5
# Set by pool_always(): every batch goes to the pool.
_POOL_ALWAYS = False


@contextlib.contextmanager
def pool_always() -> Iterator[None]:
    """Send every batch to the worker pool inside the block.

    The one seam for tests and benchmarks that must exercise the pool,
    which the dispatch rule would otherwise skip for batches it does not
    speed up.  Users have no setting for it; results are bit-identical
    either way.
    """
    global _POOL_ALWAYS
    previous, _POOL_ALWAYS = _POOL_ALWAYS, True
    try:
        yield
    finally:
        _POOL_ALWAYS = previous


def _scoring_work(
    degree: np.ndarray,
    tasks: Sequence[tuple[int, Any, Sequence[int]]],
    max_candidates: int,
) -> np.ndarray:
    """Scoring work of each ``(agent, d_rest, strategy)`` exact best-response task.

    The benchmark tracer's ``subsets_scored`` count times ``n``: the
    response scores ``2^min(m, max_candidates)`` candidate subsets, each
    an ``O(n)`` relaxation, with ``m`` the agent's host degree.
    """
    m = degree[[int(u) for u, _, _ in tasks]]
    return np.ldexp(float(degree.shape[0]), np.minimum(m, max_candidates))


class EvaluatorError(RuntimeError):
    """A batch could not be scored at all, not even in process.

    The dynamics loop catches it (and ``OSError``) to flush the emergency
    checkpoint before the failure propagates.
    """


@dataclass(frozen=True)
class EvaluatorStats:
    """What a :class:`ParallelEvaluator` did over its lifetime.

    ``pools_started`` counts worker-pool launches — 0 until the first
    batch sent to the pool, above 1 when a broken pool was rebuilt or the
    evaluator was revived after a ``close``.  ``batches``/``tasks`` count
    ``evaluate`` calls and the tasks they carried, in process or not;
    ``in_process_batches`` counts the batches the serial-first dispatch
    rule kept in process because the pool would not have paid for itself.
    ``bytes_sent`` counts the slot bytes written toward the workers: a
    dense array, a pinned fallback's raw matrix or a repair's base counts
    its ``n * n * 8`` bytes, and a repair's packed delta its packed size.

    ``failures`` counts broken pools, ``retries`` the chunk re-submissions
    after an in-place rebuild, and ``fallbacks`` the descents to
    in-process scoring after the pool broke beyond that rebuild — at most
    one, since every later batch stays in process (all zero on a healthy
    run).
    """

    batches: int
    tasks: int
    pools_started: int
    bytes_sent: int = 0
    failures: int = 0
    retries: int = 0
    fallbacks: int = 0
    in_process_batches: int = 0


def default_workers() -> int:
    """Number of CPUs available to this process (the natural ``workers=``)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class SharedSnapshot:
    """Shared-memory buffers of one evaluation snapshot (weights + residual slots).

    Create with :meth:`create` in the owning process, ship :meth:`meta`
    through the pool initializer, and :meth:`attach` in each worker; both
    sides expose the same zero-copy views ``weights`` (``(n, n)``) and
    ``slot_matrices`` (``(slots, n, n)``).  :meth:`close` releases the
    views and the segments — the owner also unlinks them.
    """

    __slots__ = (
        "n", "slots", "owner", "weights", "slot_matrices", "slot_bytes", "_segments",
    )

    def __init__(
        self,
        shm_weights: shared_memory.SharedMemory,
        shm_slots: shared_memory.SharedMemory,
        n: int,
        slots: int,
        *,
        owner: bool,
    ) -> None:
        self.n = int(n)
        self.slots = int(slots)
        self.owner = bool(owner)
        self._segments = (shm_weights, shm_slots)
        self.weights = np.ndarray((n, n), dtype=np.float64, buffer=shm_weights.buf)
        self.slot_matrices = np.ndarray(
            (slots, n, n), dtype=np.float64, buffer=shm_slots.buf
        )
        # Raw byte view of the same slot storage: a slot can alternatively
        # hold a repair's *packed residual delta* (repro.core.residual_delta)
        # instead of a dense matrix — never larger than the slot, so the two
        # interpretations share the allocation.
        self.slot_bytes = np.ndarray(
            (slots, n * n * 8), dtype=np.uint8, buffer=shm_slots.buf
        )

    @classmethod
    def create(cls, weights: np.ndarray, slots: int) -> "SharedSnapshot":
        """Allocate the segments and copy the (static) weight matrix in."""
        w = np.ascontiguousarray(weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be square, got shape {w.shape}")
        if slots < 1:
            raise ValueError("need at least one residual slot")
        n = w.shape[0]
        shm_w = shared_memory.SharedMemory(create=True, size=max(1, w.nbytes))
        try:
            shm_s = shared_memory.SharedMemory(
                create=True, size=max(1, slots * n * n * 8)
            )
        except BaseException:
            # The slots allocation failed (e.g. /dev/shm exhaustion): the
            # weights segment has no owner yet and must not outlive us.
            shm_w.close()
            shm_w.unlink()
            raise
        snapshot = cls(shm_w, shm_s, n, slots, owner=True)
        snapshot.weights[:] = w
        return snapshot

    def meta(self) -> dict[str, Any]:
        """Picklable handle from which a worker re-attaches the snapshot."""
        return {
            "weights_name": self._segments[0].name,
            "slots_name": self._segments[1].name,
            "n": self.n,
            "slots": self.slots,
        }

    @classmethod
    def attach(cls, meta: dict[str, Any]) -> "SharedSnapshot":
        """Attach to an existing snapshot from its :meth:`meta` handle.

        Attaching re-registers the segment names with the POSIX resource
        tracker, which is a set-level no-op here: both fork and spawn
        children inherit the owning process's tracker (multiprocessing
        ships the tracker fd in the spawn preparation data), so the
        owner's final unlink still unregisters each name exactly once —
        verified for both start methods by the lifecycle tests.  Windows
        shared memory is reference-counted and untracked.
        """
        shm_w = shared_memory.SharedMemory(name=meta["weights_name"])
        try:
            shm_s = shared_memory.SharedMemory(name=meta["slots_name"])
        except BaseException:
            # A half-attached snapshot pins the weights segment in this
            # worker; release it before surfacing the failure.
            shm_w.close()
            raise
        return cls(shm_w, shm_s, meta["n"], meta["slots"], owner=False)

    def write_slot(self, slot: int, matrix: np.ndarray) -> None:
        """Bitwise copy of an ``(n, n)`` residual matrix into a slot."""
        self.slot_matrices[slot] = matrix

    def write_slot_packed(self, slot: int, payload: bytes) -> None:
        """Copy a packed residual delta into a slot's byte storage."""
        size = len(payload)
        if size > self.slot_bytes.shape[1]:
            raise ValueError(
                f"packed delta ({size} bytes) exceeds the slot capacity "
                f"({self.slot_bytes.shape[1]} bytes)"
            )
        self.slot_bytes[slot, :size] = np.frombuffer(payload, dtype=np.uint8)

    def slot_payload(self, slot: int, size: int) -> np.ndarray:
        """Zero-copy view of the first ``size`` bytes of a slot."""
        return self.slot_bytes[slot, : int(size)]

    def close(self) -> None:
        """Release the views and segments; the owner also unlinks them."""
        # The NumPy views export the segments' buffers — drop them first or
        # SharedMemory.close() raises BufferError.
        self.weights = None  # type: ignore[assignment]
        self.slot_matrices = None  # type: ignore[assignment]
        self.slot_bytes = None  # type: ignore[assignment]
        segments, self._segments = self._segments, ()
        for shm in segments:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - views dropped above
                pass
            if self.owner:
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
_WORKER_STATE: dict[str, Any] = {}


def _init_worker(meta: dict[str, Any], alpha: float) -> None:
    """Pool initializer: attach the snapshot once per worker process."""
    _WORKER_STATE["snapshot"] = SharedSnapshot.attach(meta)
    _WORKER_STATE["alpha"] = float(alpha)


def _slot_residual(snapshot: SharedSnapshot, form: tuple) -> Residual:
    """The residual a task's slot ``form`` holds, as the owner's class.

    ``(_DENSE, slot)`` is the slot's matrix itself, ``(_PINNED, slot)`` a
    :class:`~repro.core.shortest_paths.PinnedResidual` over it, and
    ``(_DELTA, slot, size, base_slot)`` a
    :class:`~repro.core.residual_delta.DeltaResidual` of the ``size``-byte
    packed delta in ``slot`` over the matrix in ``base_slot``; no dense
    matrix is built for a view.
    """
    kind, slot = form[0], form[1]
    if kind == _DELTA:
        size, base_slot = form[2], form[3]
        delta = unpack_delta(snapshot.slot_payload(slot, size), snapshot.n)
        return DeltaResidual(snapshot.slot_matrices[base_slot], delta)
    matrix = snapshot.slot_matrices[slot]
    return PinnedResidual(matrix) if kind == _PINNED else matrix


def _score_task(task: tuple[int, tuple, Sequence[int], str, int]) -> BestResponseResult:
    """Score one agent against its residual in the shared snapshot."""
    u, form, strategy, response, max_candidates = task
    snapshot: SharedSnapshot = _WORKER_STATE["snapshot"]
    return score_response(
        _slot_residual(snapshot, form),
        u,
        snapshot.weights[u],
        _WORKER_STATE["alpha"],
        strategy,
        response,
        max_candidates=max_candidates,
    )


# ----------------------------------------------------------------------
# Owner side
# ----------------------------------------------------------------------
class ParallelEvaluator:
    """Persistent worker pool scoring proposals against a shared snapshot.

    Parameters
    ----------
    weights:
        Host-graph weight matrix (static for the evaluator's lifetime).
    alpha:
        Edge-price parameter of the game.
    workers:
        Worker-process count; ``None`` uses every CPU available to this
        process.  ``workers=1`` is allowed but a session only builds an
        evaluator for ``workers > 1``.
    slots:
        Residual-matrix slots of the shared snapshot; a batch referencing
        more *distinct* matrices than this is dispatched in chunks, each
        gathered before the next one's matrices are written.
    start_method:
        Explicit :mod:`multiprocessing` start method; default is ``fork``
        where available, the platform default otherwise.

    :meth:`evaluate` is serial-first: a batch goes to the pool only when
    the scoring it saves outweighs the pool's own cost (see the module
    docstring), and runs on in-process ``score_tasks`` otherwise.  The
    pool and the shared-memory segments are created lazily on the first
    batch sent to the pool, reused until :meth:`close` (context-manager
    exit or the ``atexit`` safety net), and can be re-created by
    evaluating again after a close.

    ``pools_started`` counts the worker-pool launches this evaluator
    performed (0 until the first batch sent to the pool; above 1 only when
    a broken pool was rebuilt or the evaluator was revived after a
    :meth:`close`).  Session-reuse tests and benchmarks assert on it to
    prove that a sweep sharing one evaluator paid pool start-up exactly
    once.
    """

    __slots__ = (
        "_weights", "_alpha", "_workers", "_slots", "_start_method",
        "_degree", "_parallelism", "_snapshot", "_pool", "pools_started",
        "_batches", "_tasks", "_bytes_sent", "_failures", "_retries",
        "_fallbacks", "_in_process_batches", "fault_hook",
    )

    def __init__(
        self,
        weights: np.ndarray,
        alpha: float,
        *,
        workers: int | None = None,
        slots: int = _DEFAULT_SLOTS,
        start_method: str | None = None,
    ) -> None:
        self._weights = np.ascontiguousarray(weights, dtype=np.float64)
        self._alpha = float(alpha)
        self._workers = default_workers() if workers is None else int(workers)
        if self._workers < 1:
            raise ValueError("workers must be >= 1")
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self._slots = int(slots)
        self._start_method = start_method
        # Host degree of every agent (its candidate count), for the
        # dispatch rule's work prediction; scoring runs on at most as many
        # CPUs as this process may use.
        self._degree = (np.isfinite(self._weights).sum(axis=1) - 1).astype(np.int64)
        self._parallelism = min(self._workers, default_workers())
        self._snapshot: SharedSnapshot | None = None
        self._pool = None
        self.pools_started = 0
        self._batches = 0
        self._tasks = 0
        self._bytes_sent = 0
        self._failures = 0
        self._retries = 0
        self._fallbacks = 0
        self._in_process_batches = 0
        # Test-only seam for the deterministic fault layer
        # (repro.core.faults): when set, called as
        # ``fault_hook(evaluator, batch_index)`` once the pool is up, before
        # any task of a pool batch is dispatched.  An armed hook sends every
        # batch to the pool: the hook exists to test it.
        self.fault_hook: Callable[[ParallelEvaluator, int], None] | None = None

    @classmethod
    def for_game(cls, game: "NetworkCreationGame", **kwargs: Any) -> "ParallelEvaluator":
        """Evaluator for a :class:`~repro.core.game.NetworkCreationGame`."""
        return cls(game.host.weights, game.alpha, **kwargs)

    @property
    def is_running(self) -> bool:
        """True while the worker pool (and its shared memory) is alive."""
        return self._pool is not None

    @property
    def stats(self) -> EvaluatorStats:
        """Lifetime counters of this evaluator (see :class:`EvaluatorStats`)."""
        return EvaluatorStats(
            batches=self._batches,
            tasks=self._tasks,
            pools_started=self.pools_started,
            bytes_sent=self._bytes_sent,
            failures=self._failures,
            retries=self._retries,
            fallbacks=self._fallbacks,
            in_process_batches=self._in_process_batches,
        )

    def worker_pids(self) -> list[int]:
        """PIDs of the live pool workers (fault injection and tests).

        The executor forks its workers on its first task, so a pool that
        has run none yet gets one no-op task first: a fault planned for the
        pool's first batch then has a worker to kill.
        """
        if self._pool is None:
            return []
        if not self._pool._processes:
            self._pool.submit(int).result()
        return sorted(self._pool._processes)

    def wait_worker_exit(self, pid: int, timeout: float = 30.0) -> bool:
        """Block until pool worker ``pid`` has exited (fault injection and tests).

        A SIGKILLed worker takes a moment to exit, and until it has, the
        executor cannot see the break while the surviving workers may finish
        whole batches.  Returns ``False`` if ``pid`` outlived ``timeout``.
        """
        process = self._pool._processes.get(pid) if self._pool is not None else None
        return process is None or bool(mp.connection.wait([process.sentinel], timeout))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _new_executor(self) -> ProcessPoolExecutor:
        method = self._start_method
        if method is None and "fork" in mp.get_all_start_methods():
            method = "fork"
        ctx = mp.get_context(method)
        assert self._snapshot is not None
        # ProcessPoolExecutor rather than mp.Pool: a worker dying mid-task
        # (OOM kill, segfault) raises BrokenProcessPool from the pending
        # futures instead of leaving the owner blocked forever on a result
        # that will never arrive.
        return ProcessPoolExecutor(
            max_workers=self._workers,
            mp_context=ctx,
            initializer=_init_worker,
            initargs=(self._snapshot.meta(), self._alpha),
        )

    def _ensure_pool(self) -> None:
        if self._pool is not None:
            return
        self._snapshot = SharedSnapshot.create(self._weights, self._slots)
        self._pool = self._new_executor()
        self.pools_started += 1
        atexit.register(self.close)

    def _rebuild_pool(self) -> None:
        """Replace a broken executor, keeping the shared-memory snapshot.

        The snapshot — and the residual matrices already written into its
        slots — survives the executor, so the in-flight chunk can be
        resubmitted against the same slot indices after the rebuild.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        self._pool = self._new_executor()
        self.pools_started += 1

    def close(self) -> None:
        """Tear down the pool and unlink the shared-memory segments (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
            atexit.unregister(self.close)
        snapshot, self._snapshot = self._snapshot, None
        if snapshot is not None:
            snapshot.close()

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        tasks: Iterable[tuple[int, np.ndarray, Sequence[int]]],
        response: str = "best",
        *,
        max_candidates: int = 22,
    ) -> list[BestResponseResult]:
        """Score ``(agent, d_rest, strategy)`` tasks, on the pool when it pays.

        A batch the pool would not speed up (:meth:`_pool_pays`)
        runs on in-process :func:`~repro.core.best_response.score_tasks`
        and counts in ``in_process_batches``.  On the pool, each distinct
        residual matrix (by object identity — agents sharing a matrix
        share a slot) is written into shared memory exactly once per
        chunk; results come back in submission order, so the output is
        deterministic regardless of worker scheduling.

        A pool worker dying mid-batch (SIGKILL, segfault, OOM kill) breaks
        the whole executor: every pending future raises
        ``BrokenProcessPool``.  The slots referenced by the in-flight
        chunk are still intact (a slot is only rewritten after its chunk
        has been gathered), so the pool is rebuilt **once per batch** and
        the chunk is resubmitted.  A second break in the same batch, or an
        ``OSError`` (e.g. shared memory refused), re-runs the whole batch
        on in-process :func:`~repro.core.best_response.score_tasks`, and
        every later batch runs in process too: a pool that broke twice is
        not trusted again.  Tasks are pure, so every path returns
        bit-identical results.
        """
        # Materialize first: the pool may die mid-batch, and the fallback
        # must re-run the *whole* batch.
        task_list = list(tasks)
        if not task_list:
            return []
        batch_index = self._batches
        self._batches += 1
        self._tasks += len(task_list)
        if not self._fallbacks:
            if self._pool_pays(task_list, response, max_candidates):
                try:
                    return self._evaluate_on_pool(
                        task_list, batch_index, response, max_candidates
                    )
                except (BrokenProcessPool, OSError):
                    self._fallbacks += 1
            else:
                self._in_process_batches += 1
        return score_tasks(
            task_list, self._weights, self._alpha, response,
            max_candidates=max_candidates,
        )

    def _pool_pays(
        self,
        task_list: Sequence[tuple[int, Any, Sequence[int]]],
        response: str,
        max_candidates: int,
    ) -> bool:
        """The dispatch rule: does the pool save more scoring than it costs?

        Only exact best responses can pay: single and greedy batches lost
        to in-process scoring at every size the sweep measured.  On the
        pool a batch's scoring takes its work shared among the usable
        CPUs, but no less than its longest task; the pool pays when the
        work this saves reaches its cost of ``_POOL_BATCH_WORK`` plus
        ``_POOL_MATRIX_WORK`` per distinct residual matrix.  A lone task or
        a single usable CPU saves nothing.  An armed ``fault_hook`` or
        :func:`pool_always` sends every batch to the pool.
        """
        if self.fault_hook is not None or _POOL_ALWAYS:
            return True
        if response != "best":
            return False
        work = _scoring_work(self._degree, task_list, max_candidates)
        total = float(work.sum())
        saved = total - max(total / self._parallelism, float(work.max()))
        matrices = len({id(d_rest) for _, d_rest, _ in task_list})
        return saved >= _POOL_BATCH_WORK + _POOL_MATRIX_WORK * matrices

    def _evaluate_on_pool(
        self,
        task_list: list[tuple[int, np.ndarray, Sequence[int]]],
        batch_index: int,
        response: str,
        max_candidates: int,
    ) -> list[BestResponseResult]:
        """Chunked dispatch with one in-place rebuild; a second break raises."""
        self._ensure_pool()
        if self.fault_hook is not None:
            self.fault_hook(self, batch_index)
        results: list[BestResponseResult] = []
        rebuilt = False
        pos = 0
        while pos < len(task_list):
            chunk, pos = self._write_chunk(task_list, pos, response, max_candidates)
            while True:
                try:
                    futures = [self._pool.submit(_score_task, task) for task in chunk]
                    gathered = [future.result() for future in futures]
                    break
                except BrokenProcessPool:
                    if rebuilt:
                        raise
                    rebuilt = True
                    self._failures += 1
                    self._retries += 1
                    self._rebuild_pool()
            results.extend(gathered)
        return results

    def _write_chunk(
        self,
        task_list: list[tuple[int, Residual, Sequence[int]]],
        pos: int,
        response: str,
        max_candidates: int,
    ) -> tuple[list[tuple[Any, ...]], int]:
        """Write the distinct residuals of the tasks from ``pos`` into the slots.

        Stops at the first task whose residual finds no free slot and
        returns the chunk's worker tasks plus the position to continue
        from.  Residuals and repair bases are matched by object identity,
        so each is written once per chunk however many tasks share it.
        """
        # id(residual or base) -> its form (see _slot_residual); one slot each.
        placed: dict[int, tuple] = {}
        chunk: list[tuple[Any, ...]] = []
        while pos < len(task_list):
            u, d_rest, strategy = task_list[pos]
            form = placed.get(id(d_rest)) or self._place(d_rest, placed)
            if form is None:
                break  # chunk full: no free slot left
            strategy = tuple(int(v) for v in strategy)
            chunk.append((int(u), form, strategy, response, int(max_candidates)))
            pos += 1
        return chunk, pos

    def _place(self, d_rest: Residual, placed: dict[int, tuple]) -> tuple | None:
        """Write one residual into free slots and return its form.

        Returns ``None`` when too few slots are free: a repair takes one
        slot for its packed delta and one for its base, unless the chunk
        already holds that base.
        """
        snapshot = self._snapshot
        assert snapshot is not None
        free = self._slots - len(placed)
        n = snapshot.n
        if isinstance(d_rest, DeltaResidual):
            size = packed_size(d_rest.delta.num_rows, n)
            if size <= n * n * 8:
                base = placed.get(id(d_rest.base))
                if free < 1 + (base is None):
                    return None
                if base is None:
                    key = id(d_rest.base)
                    base = self._write_matrix(key, d_rest.base, _DENSE, placed)
                slot = len(placed)
                snapshot.write_slot_packed(slot, pack_delta(d_rest.delta))
                self._bytes_sent += size
                placed[id(d_rest)] = form = (_DELTA, slot, size, base[1])
                return form
        if free < 1:
            return None
        if isinstance(d_rest, PinnedResidual):
            return self._write_matrix(id(d_rest), d_rest.raw, _PINNED, placed)
        # A repair too large to pack is the one view written dense.
        matrix = d_rest.dense() if isinstance(d_rest, DeltaResidual) else d_rest
        return self._write_matrix(id(d_rest), matrix, _DENSE, placed)

    def _write_matrix(
        self, key: int, matrix: np.ndarray, kind: str, placed: dict[int, tuple]
    ) -> tuple:
        """Write an ``(n, n)`` matrix into the next free slot under ``key``."""
        snapshot = self._snapshot
        assert snapshot is not None
        slot = len(placed)
        snapshot.write_slot(slot, matrix)
        self._bytes_sent += snapshot.n * snapshot.n * 8
        placed[key] = form = (kind, slot)
        return form
