"""Improving- and best-response dynamics, convergence and cycle detection.

The paper proves that none of the GNCG variants has the *finite improvement
property* (Cor. 1, Thm. 14, Thm. 17): there exist best-response cycles, so
iterated (best-)response dynamics need not converge.  This module provides
the sequential processes used to explore this empirically:

* :func:`run_dynamics` — round-robin / random / max-gain activation of
  agents, each playing an exact best response, a greedy (single-move) local
  optimum, or just the best single move; stops on convergence, on a detected
  state cycle, or after a step budget.  It runs on the incremental
  distance engine (:class:`repro.core.incremental.IncrementalEngine`),
  which caches the profile's distance matrix, reuses residual matrices
  across sweeps, repairs them decrementally after edge removals and
  updates distances in ``O(n^2)`` per move.  The test suite checks every
  schedule and resume against a from-scratch reference loop
  (``tests/reference_dynamics.py``) that plays the same responses with no
  caches.  Random activation is deterministic: ``rng``
  accepts a :class:`numpy.random.Generator` or an integer seed and defaults
  to seed 0 (never a module-level RNG).

* the **batched activation schedule** (``schedule="batched"``) — the same
  activation loop, plus a cross-activation *proposal cache*
  (``_ProposalCache``).  Each scored response is kept together with the
  residual matrix it was scored against; at the next activation of the
  same agent the cached proposal is replayed unless some move applied in
  between *invalidated* it.  Invalidation is decided per applied move with
  exact row-level tests on the cached residual matrices: an added network
  edge ``(v, t)`` can only change a residual row ``c`` an agent's
  responses read if it undercuts ``c``'s distance to one of its endpoints,
  a removed edge only if it is tight from ``c``.  Surviving proposals are
  *numerically identical* to a fresh computation, so the batched schedule
  follows the exact same trajectory — same moves applied at the same
  activations, same social costs, same final profile — as
  ``schedule="sequential"``.  On a cache miss the schedule *prefills
  ahead*: up to an adaptive speculation-window of still-uncached agents
  due to activate later in the round are scored against the current
  snapshot in one batch
  (:meth:`repro.core.incremental.IncrementalEngine.respond_many`), and a
  prefilled proposal is replayed at its activation exactly iff it survived
  the row-level validation of every move applied in between — which is
  also what makes the round's evaluations independent and hence
  parallelizable: ``workers=k`` fans the batch out to ``k`` worker
  processes over shared-memory snapshots (:mod:`repro.core.parallel`)
  with bit-identical trajectories for every ``k``.  The window collapses
  to lazy per-activation scoring while speculation keeps getting
  invalidated and doubles towards full-round batches while it survives;
  it evolves as a pure function of the trajectory, never of the worker
  count.  Batching is available for round-robin, random and explicit
  activation orders (``max_gain`` re-scores every agent per step by
  definition, and ``workers`` parallelizes exactly that re-scoring).
  :meth:`repro.core.incremental.IncrementalEngine.respond_many` exposes
  the underlying score-many-agents-against-one-state primitive directly.

* :func:`verify_best_response_cycle` — checks that an explicitly given
  sequence of profiles (e.g. Fig. 5 or Fig. 8 of the paper) is a genuine
  best-response cycle: each transition changes exactly one agent's strategy,
  each move is strictly improving, the new strategy is a best response, and
  the sequence returns to its starting profile.

Per-activation complexity (``n`` agents, ``k`` candidates, ``a`` affected
repair sources): candidate scoring is ``O(k n)`` per candidate strategy, an
applied move updates the cached distances in ``O(n^2)``, a residual cache
miss costs a decremental repair of ``a`` sparse Dijkstra rows kept as an
``O(a n)`` row block (a full all-pairs rebuild only when the repair frontier
exceeds half the agents), and a batched cache hit is ``O(1)``.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import checkpoint as _checkpoint
from .parallel import EvaluatorError
from .best_response import BestResponseResult, best_response_exact
from .game import NetworkCreationGame
from .incremental import EngineStats, IncrementalEngine, Residual, _published
from .residual_delta import dense_residual, residual_block
from .strategy import StrategyProfile

if TYPE_CHECKING:  # import cycle: session orchestrates this module's loop
    from .session import SimulationConfig

__all__ = [
    "DynamicsResult",
    "CycleCheckResult",
    "run_dynamics",
    "verify_best_response_cycle",
]

_TOL = 1e-9

# Batched-schedule speculation: initial prefill window, and how often a miss
# at the collapsed window probes one agent ahead so the window can regrow.
_PREFILL_WINDOW_INIT = 4
_PREFILL_WINDOW_PROBE = 8


class _ProposalCache:
    """Cross-activation proposal reuse behind ``schedule="batched"``.

    Stores each agent's last computed response together with the residual
    distance matrix it was scored against.  A response of agent ``u`` is a
    pure function of the *rows* of that matrix ``u`` actually reads — its
    own distance row plus one row per finite-weight candidate target — so
    after a move is applied, only proposals with an invalidated row are
    dropped.  For a network edge ``(v, t)`` of weight ``w`` touched by the
    move, row ``c`` of ``u``'s residual is provably unchanged when

    * *added* edge: ``d_u(c, v) + w >= d_u(c, t)`` and
      ``d_u(c, t) + w >= d_u(c, v)`` — any path from ``c`` improved by the
      new edge would have to improve ``c``'s distance to one of its
      endpoints first;
    * *removed* edge: ``d_u(c, v) + w != d_u(c, t)`` and
      ``d_u(c, t) + w != d_u(c, v)`` — a shortest path from ``c`` through
      the edge forces one of the two tight equalities, so without them no
      shortest path from ``c`` uses the edge;

    and the mover's own proposal is always dropped (its strategy changed).
    Both tests are conservative in the safe direction (ties mark removed
    edges dirty) and exact in exact arithmetic, so a surviving proposal is
    numerically identical to a fresh computation against the post-move
    state — the property that makes the batched and sequential schedules
    trajectory-equivalent.  Validation costs ``O(|rows| * |edge diff|)``
    vector work per cached proposal per applied move; row-level testing is
    what lets proposals survive on sparse (1-∞-style) hosts, where a moved
    edge rarely interacts with another agent's candidate rows.  The cache
    holds each agent's residual exactly as the engine handed it out — the
    same object as the engine's own cache entry, a repaired residual as a
    :class:`~repro.core.residual_delta.DeltaResidual` row block over the
    shared network matrix, a fallback as a dense ``(n, n)`` matrix or a
    :class:`~repro.core.shortest_paths.PinnedResidual` — and reads it only
    through one :func:`~repro.core.residual_delta.residual_block` per
    proposal and move: the mover's column and every event column over
    ``u``'s rows.  ``hits``/``misses`` count served and recomputed lookups
    for benchmarks and tests.
    """

    __slots__ = ("_weights", "_proposals", "_rows", "hits", "misses")

    def __init__(self, game: NetworkCreationGame) -> None:
        self._weights = game.host.weights
        # agent -> (response, residual distances it was scored against)
        self._proposals: dict[int, tuple[BestResponseResult, Residual]] = {}
        # agent -> indices of the residual rows its responses depend on
        self._rows: dict[int, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def _agent_rows(self, u: int) -> np.ndarray:
        rows = self._rows.get(u)
        if rows is None:
            readable = np.isfinite(self._weights[u])
            readable[u] = True  # the agent's own distance row is always read
            rows = np.flatnonzero(readable)
            self._rows[u] = rows
        return rows

    def get(self, u: int) -> BestResponseResult | None:
        hit = self._proposals.get(u)
        if hit is None:
            self.misses += 1
            return None
        self.hits += 1
        return hit[0]

    def has(self, u: int) -> bool:
        """Membership test that does not touch the hit/miss counters."""
        return u in self._proposals

    def store(self, u: int, result: BestResponseResult, d_rest: Residual) -> None:
        self._proposals[u] = (result, d_rest)

    def clear(self) -> None:
        """Drop all proposals and reset the counters (for reuse across runs).

        A :class:`~repro.core.session.GameSession` owns one cache and clears
        it between runs: proposals are tied to the run's evolving profile,
        but the row-index table depends only on the static host weights and
        survives.
        """
        self._proposals.clear()
        self.hits = 0
        self.misses = 0

    def export_state(self) -> dict:
        """Snapshot the cached proposals and counters for a checkpoint.

        Checkpoints serialize the cache *contents* — not a drop-and-rebuild
        decision — because a rebuilt cache would replay the same moves (a
        fresh computation equals a surviving proposal numerically) but shift
        every hit/miss counter and the speculation window's evolution,
        breaking the stats half of the resumed == straight-through
        invariant.  Each residual is exported as the cache holds it — the
        engine's read-only object, a row view or a dense array — and
        nothing is copied; the checkpoint writer densifies one view at a
        time.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "proposals": {
                int(u): {
                    "agent": result.agent,
                    "strategy": result.strategy,
                    "cost": result.cost,
                    "current_cost": result.current_cost,
                    "method": result.method,
                    "d_rest": d_rest,
                }
                for u, (result, d_rest) in self._proposals.items()
            },
        }

    def restore_state(
        self,
        proposals: "dict[int, tuple[BestResponseResult, Residual]]",
        *,
        hits: int,
        misses: int,
    ) -> None:
        """Install checkpointed proposals and counters (after :meth:`clear`).

        A row view (an in-process :meth:`export_state`) is densified; every
        installed residual is a read-only dense array.
        """
        self._proposals = {
            int(u): (result, _published(np.ascontiguousarray(dense_residual(d_rest))))
            for u, (result, d_rest) in proposals.items()
        }
        self.hits = int(hits)
        self.misses = int(misses)

    def on_move(
        self, mover: int, old_profile: StrategyProfile, new_profile: StrategyProfile
    ) -> None:
        """Drop the proposals the move from ``old_profile`` invalidates.

        Besides the *network-level* edge diff, the move can flip the
        ownership **exclusivity** of a double-bought edge ``(mover, u)``:
        when the mover adds or drops its copy while ``u`` keeps owning the
        reverse edge, the created network is unchanged but ``u``'s
        *residual* (the network without ``u``'s solely-owned edges) gains
        or loses that edge.  Such flips are tested as per-agent edge events
        against ``u``'s cached matrix with the same add/remove row tests.
        """
        self._proposals.pop(mover, None)
        old_own = old_profile.ownership
        new_own = new_profile.ownership
        old_row = old_own[mover] | old_own[:, mover]
        new_row = new_own[mover] | new_own[:, mover]
        added = np.nonzero(new_row & ~old_row)[0]
        removed = np.nonzero(old_row & ~new_row)[0]
        # Targets where only the mover's *copy* changed (the network edge
        # survives because the target owns the reverse edge).
        flipped = np.nonzero(
            (old_own[mover] != new_own[mover]) & (old_row == new_row)
        )[0]
        if added.size == 0 and removed.size == 0 and flipped.size == 0:
            return
        w_row = self._weights[mover]
        flipped_set = set(int(t) for t in flipped)
        with np.errstate(invalid="ignore"):  # inf - inf in the slack test
            for u in list(self._proposals):
                add_events, remove_events = added, removed
                if u in flipped_set and old_own[u, mover]:
                    if new_own[mover, u]:
                        # The mover now co-owns (u, mover): it stops being
                        # solely owned by u, so u's residual gains the edge.
                        add_events = np.append(added, u)
                    else:
                        # The mover dropped its copy: u is now the sole owner,
                        # so u's residual loses the edge.
                        remove_events = np.append(removed, u)
                if _touches_rows(
                    self._proposals[u][1], self._agent_rows(u), mover, w_row,
                    add_events, remove_events,
                ):
                    del self._proposals[u]


def _near(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.isclose(x, y, rtol=1e-9, atol=1e-9)``, inlined: ``inf`` is close
    only to itself and NaN to nothing (callers silence the ``inf - inf``)."""
    return (np.abs(x - y) <= 1e-9 + 1e-9 * np.abs(y)) & np.isfinite(y) | (x == y)


def _touches_rows(
    d_u: Residual,
    rows: np.ndarray,
    mover: int,
    w_row: np.ndarray,
    added: np.ndarray,
    removed: np.ndarray,
) -> bool:
    """Whether an edge ``(mover, t)`` added or removed can change a row of
    ``d_u`` in ``rows`` (the tests of :class:`_ProposalCache`).

    One read gathers the mover's column and every event column over
    ``rows``; the add test and the removed-edge test then run as one
    expression each, on every event at once.
    """
    events = np.concatenate((added, removed))
    block = residual_block(d_u, rows, np.concatenate(([mover], events)))
    to_mover, to_t, w = block[:, :1], block[:, 1:], w_row[events]
    a = added.size
    if a and (
        (to_mover + w[:a] < to_t[:, :a]) | (to_t[:, :a] + w[:a] < to_mover)
    ).any():
        return True
    if a == events.size:
        return False
    gone, w = to_t[:, a:], w[a:]
    return bool((_near(to_mover + w, gone) | _near(gone + w, to_mover)).any())


@dataclass
class _ResumeState:
    """Loop state to continue a run from, reconstructed from a checkpoint.

    Built by :meth:`repro.core.session.GameSession.resume` out of a
    :class:`repro.core.checkpoint.Checkpoint`; every field overrides the
    corresponding fresh-run initialization in :func:`_run_session_loop`.
    ``prefill_window`` is ``None`` when the checkpointed run had no
    proposal cache (sequential schedule).
    """

    rounds_completed: int
    steps: int
    moves: int
    social_costs: list[float]
    seen: dict[bytes, int]
    history: list[StrategyProfile] | None
    prefill_window: int | None = None
    floor_misses: int = 0
    speculated: set[int] = field(default_factory=set)


@dataclass
class DynamicsResult:
    """Outcome of a run of (best-)response dynamics."""

    converged: bool
    steps: int
    moves: int
    cycle_detected: bool
    cycle_length: int | None
    final_profile: StrategyProfile
    social_costs: list[float] = field(default_factory=list)
    history: list[StrategyProfile] | None = None
    engine_stats: EngineStats = field(default_factory=EngineStats)
    schedule_hits: int = 0
    schedule_misses: int = 0

    @property
    def final_social_cost(self) -> float:
        return self.social_costs[-1] if self.social_costs else float("nan")


@dataclass(frozen=True)
class CycleCheckResult:
    """Verification of an explicit best-response cycle."""

    is_cycle: bool
    is_improving: bool
    is_best_response: bool
    length: int
    failures: tuple[str, ...]

    @property
    def violates_fip(self) -> bool:
        """True iff the sequence certifies that the game is not a potential game."""
        return self.is_cycle and self.is_improving


def run_dynamics(
    game: NetworkCreationGame,
    initial: StrategyProfile,
    config: "SimulationConfig | None" = None,
    *,
    rng: np.random.Generator | int | None = None,
    record_history: bool = False,
    detect_cycles: bool = True,
    tol: float = _TOL,
) -> DynamicsResult:
    """Run response dynamics from ``initial`` under ``config``.

    Every knob of the run — response kind, activation order, round budget,
    schedule, workers, checkpoint policy — is a field of the
    :class:`~repro.core.session.SimulationConfig` (field defaults when
    ``config`` is ``None``).  The call opens a one-shot
    :class:`~repro.core.session.GameSession`, so it builds and tears down
    its own engine and (for ``workers > 1``) worker pool; to run many times
    on one game, open a session and call
    :meth:`~repro.core.session.GameSession.run` instead.

    Parameters
    ----------
    config:
        The run's :class:`~repro.core.session.SimulationConfig`.  An unset
        ``max_rounds`` means 100 rounds.  A checkpointed run
        (``checkpoint_every``/``checkpoint_path``) resumes with
        :meth:`~repro.core.session.GameSession.resume` or ``repro resume``;
        the continuation is byte-identical to the straight-through run.
    rng:
        Randomness for ``order="random"``: a :class:`numpy.random.Generator`
        or an integer seed.  ``None`` uses the config's seed policy
        (:meth:`~repro.core.session.SimulationConfig.rng`, fixed seed 0 by
        default), so two runs with the same arguments always produce
        identical trajectories.
    record_history:
        Keep every visited profile in :attr:`DynamicsResult.history`.
    detect_cycles:
        Stop when a state repeats (a best-response cycle).

    Returns
    -------
    DynamicsResult
        Convergence flag, number of improving moves made, cycle information
        and the trajectory of social costs.
    """
    from .session import GameSession

    with GameSession(game, config) as one_shot:
        return one_shot.run(
            initial,
            rng=rng,
            record_history=record_history,
            detect_cycles=detect_cycles,
            tol=tol,
        )


def _run_session_loop(
    game: NetworkCreationGame,
    initial: StrategyProfile,
    *,
    cfg: SimulationConfig,
    inc: IncrementalEngine,
    cache: _ProposalCache | None,
    rng: np.random.Generator,
    record_history: bool,
    detect_cycles: bool,
    tol: float,
    resume: _ResumeState | None = None,
) -> DynamicsResult:
    """The activation loop, driven by a validated config and injected state.

    ``inc`` and ``cache`` are owned by the caller — a
    :class:`~repro.core.session.GameSession` hands in its long-lived engine
    and proposal cache — so the loop never closes or clears anything it did
    not create (the ROADMAP-flagged pool-churn fix: engines and evaluators
    built by a session survive across its runs).

    ``resume`` continues a checkpointed run: the loop starts at
    ``resume.rounds_completed`` with the checkpointed counters, trajectory,
    cycle table and speculation-window state instead of the fresh-run
    initialization, and the round budget ``cfg.max_rounds`` keeps its
    straight-through meaning — only the *remaining* rounds execute.  The
    caller has already pointed ``inc`` at the checkpointed profile and
    restored the engine/proposal caches.

    With ``cfg.checkpoint_every``/``cfg.checkpoint_path`` set, the complete
    loop state is serialized (atomically, via
    :func:`repro.core.checkpoint.save_checkpoint`) at every
    ``checkpoint_every``-th round boundary the run survives; converged and
    exhausted runs never write a trailing stale checkpoint.  Independent of
    the cadence, a terminal evaluator failure flushes an *emergency*
    checkpoint of the last completed round boundary before the exception
    propagates, so even a run whose in-process fallback failed too resumes
    losslessly.
    """
    profile = initial
    n = game.n
    response = cfg.response
    order = cfg.order
    max_candidates = cfg.max_candidates

    # Adaptive speculation window of the batched schedule's round prefill.
    # The window evolves as a pure function of the trajectory (hits, misses
    # and which speculative proposals survived), never of the worker count,
    # so every worker count performs the same residual computations and
    # scoring calls in the same order.
    prefill_window = _PREFILL_WINDOW_INIT
    floor_misses = 0
    speculated: set[int] = set()
    if resume is not None and resume.prefill_window is not None:
        prefill_window = resume.prefill_window
        floor_misses = resume.floor_misses
        speculated = set(resume.speculated)

    def respond_batched(u: int, position: int, round_agents: Sequence[int]):
        """Serve ``u`` from the proposal cache, prefilling ahead on a miss.

        On a miss, up to ``prefill_window`` still-uncached agents due to
        activate later in the round (``u`` first) are scored against the
        current snapshot in one :meth:`IncrementalEngine.respond_many`
        batch (on the session's worker pool when it has one).  A prefilled proposal
        is replayed at its own activation only if it survives the row-level
        validation of every move applied in between, so the trajectory is
        identical to the lazy sequential-batched evaluation.

        The window adapts to how speculation fares: a speculative proposal
        that is invalidated before its activation collapses the window to 1
        (move-heavy phases such as cold starts immediately fall back to
        lazy PR2 behaviour and pay almost nothing for speculation — a
        gentler geometric decay was measured to waste 2x the serial work
        on mixed workloads for no wall-clock gain at any worker count),
        one that survives doubles it (independent-evaluation phases such
        as certification sweeps quickly reach full-round batches, the
        parallel evaluator's bread and butter).  At the floor, every
        ``_PREFILL_WINDOW_PROBE``-th miss speculates one agent ahead so
        the window can recover once the dynamics stabilize.
        """
        nonlocal prefill_window, floor_misses
        cached = cache.get(u)
        if cached is not None:
            if u in speculated:
                speculated.discard(u)
                prefill_window = min(n, prefill_window * 2)
            return cached
        limit = prefill_window
        if u in speculated:
            speculated.discard(u)
            prefill_window = 1
            limit = 1
        if limit == 1:
            floor_misses += 1
            if floor_misses % _PREFILL_WINDOW_PROBE == 0:
                limit = 2
        else:
            floor_misses = 0
        pending: list[int] = []
        queued: set[int] = set()
        for v in round_agents[position:]:
            v = int(v)
            if v not in queued and not cache.has(v):
                queued.add(v)
                pending.append(v)
                if len(pending) >= limit:
                    break
        d_rests = [inc.residual(v) for v in pending]
        batch = inc.respond_many(
            pending, response, max_candidates=max_candidates, d_rests=d_rests
        )
        for v, result, d_rest in zip(pending, batch, d_rests):
            cache.store(v, result, d_rest)
        speculated.update(pending[1:])
        return batch[0]  # pending[0] is u: its lookup just missed

    def play(u: int, strategy) -> bool:
        """Apply ``u``'s move and record it; ``True`` when it closes a cycle."""
        nonlocal profile, moves, cycle_detected, cycle_length
        old = inc.profile
        profile = inc.apply(u, strategy)
        if cache is not None:
            cache.on_move(u, old, profile)
        moves += 1
        social_costs.append(inc.social_cost())
        if record_history:
            history.append(profile)
        if detect_cycles:
            key = profile.canonical_key()
            if key in seen:
                cycle_detected = True
                cycle_length = moves - seen[key]
                return True
            seen[key] = moves
        return False

    cycle_detected = False
    cycle_length: int | None = None
    start_round = 0
    if resume is not None:
        # A checkpointed run continues mid-trajectory: counters, cost
        # trajectory, cycle table and (when recorded) history pick up
        # exactly where the boundary left them, and the fresh-run
        # initialization below — including the initial social-cost probe,
        # which would double-count an APSP — is skipped entirely.
        start_round = resume.rounds_completed
        moves = resume.moves
        steps = resume.steps
        social_costs = list(resume.social_costs)
        seen = dict(resume.seen)
        history = list(resume.history) if resume.history is not None else None
        if record_history and history is None:
            history = [initial]
    else:
        seen = {}
        history = [initial] if record_history else None
        moves = 0
        steps = 0
        social_costs = [inc.social_cost()]
        if detect_cycles:
            seen[profile.canonical_key()] = 0

    explicit_order = None
    if not isinstance(order, str):
        explicit_order = [int(a) for a in order]

    checkpoint_every = getattr(cfg, "checkpoint_every", None)
    checkpoint_path = getattr(cfg, "checkpoint_path", None)

    def build_checkpoint(rounds_completed: int) -> "_checkpoint.Checkpoint":
        keylen = (n * n + 7) // 8
        if seen:
            seen_keys = np.frombuffer(
                b"".join(seen.keys()), dtype=np.uint8
            ).reshape(len(seen), keylen)
            seen_moves = np.asarray(list(seen.values()), dtype=np.int64)
        else:
            seen_keys = np.zeros((0, keylen), dtype=np.uint8)
            seen_moves = np.zeros((0,), dtype=np.int64)
        snap = inc.export_state()
        cache_state = None
        if cache is not None:
            cache_state = cache.export_state()
            cache_state.update(
                prefill_window=prefill_window,
                floor_misses=floor_misses,
                speculated=sorted(speculated),
            )
        ckpt = _checkpoint.Checkpoint(
            config=cfg.to_dict(),
            alpha=float(game.alpha),
            host_weights=game.host.weights,
            rounds_completed=rounds_completed,
            rounds_total=int(cfg.max_rounds),
            steps=steps,
            moves=moves,
            ownership=profile.ownership,
            rng_state=_checkpoint.rng_state_to_dict(rng),
            social_costs=np.asarray(social_costs, dtype=np.float64),
            seen_keys=seen_keys,
            seen_moves=seen_moves,
            detect_cycles=detect_cycles,
            record_history=record_history,
            tol=tol,
            history=(
                np.stack([p.ownership for p in history]) if history else None
            ),
            engine_distances=snap["distances"],
            engine_residuals=snap["residuals"],
            engine_stats=snap["stats"],
            cache_state=cache_state,
        )
        return ckpt

    def write_checkpoint(ckpt: "_checkpoint.Checkpoint", rounds_completed: int) -> None:
        # Called through the module attribute so tests (and operational
        # shims) can intercept every save by patching
        # repro.core.checkpoint.save_checkpoint.
        _checkpoint.save_checkpoint(
            ckpt, _checkpoint.resolve_checkpoint_path(checkpoint_path, rounds_completed)
        )

    # The emergency checkpoint: with a checkpoint path configured, the
    # complete loop state is rebuilt at *every* surviving round boundary
    # (in memory only — the scheduled cadence still decides what reaches
    # disk) and flushed when a terminal evaluator failure is about to
    # abort the run, so a crashed sweep always resumes from its last
    # completed boundary.  ``None`` whenever the boundary just written by
    # the scheduled cadence is already on disk.
    emergency: "tuple[_checkpoint.Checkpoint, int] | None" = None

    def run_rounds() -> DynamicsResult | None:
        nonlocal emergency, steps
        for round_idx in range(start_round, cfg.max_rounds):
            improved_this_round = False
            if explicit_order is not None:
                agents = explicit_order
            elif order == "round_robin":
                agents = list(range(n))
            elif order == "random":
                agents = list(rng.permutation(n))
            elif order == "max_gain":
                agents = None  # handled below
            else:
                raise ValueError(f"unknown order {order!r}")

            if order == "max_gain" and explicit_order is None:
                # One round = n activations of the currently most-improving
                # agent; every agent is scored against the same state, exactly
                # the respond_many primitive (on the session's worker pool
                # when it has one).
                for _ in range(n):
                    steps += 1
                    results = inc.respond_many(
                        range(n), response, max_candidates=max_candidates
                    )
                    best_agent, best_result = None, None
                    for u, result in enumerate(results):
                        if result.improvement > tol and (
                            best_result is None
                            or result.improvement > best_result.improvement
                        ):
                            best_agent, best_result = u, result
                    if best_result is None:
                        break
                    improved_this_round = True
                    if play(best_agent, best_result.strategy):
                        break
                if cycle_detected:
                    break
            else:
                for position, u in enumerate(agents):
                    steps += 1
                    result = (
                        respond_batched(u, position, agents)
                        if cache is not None
                        else inc.respond(u, response, max_candidates=max_candidates)
                    )
                    if result.improvement > tol:
                        improved_this_round = True
                        if play(u, result.strategy):
                            break
                if cycle_detected:
                    break

            if not improved_this_round:
                return DynamicsResult(
                    converged=True,
                    steps=steps,
                    moves=moves,
                    cycle_detected=False,
                    cycle_length=None,
                    final_profile=profile,
                    social_costs=social_costs,
                    history=history,
                    engine_stats=inc.stats,
                    schedule_hits=cache.hits if cache is not None else 0,
                    schedule_misses=cache.misses if cache is not None else 0,
                )

            # Round boundary the run survives: persist state per the checkpoint
            # policy.  Converged runs returned above and the final boundary ends
            # the run, so neither leaves a stale trailing checkpoint behind.
            boundary = round_idx + 1
            # A snapshot shares the engine's residuals, so none is kept
            # once it is on disk: it would keep superseded residuals alive.
            if checkpoint_path is not None and boundary < cfg.max_rounds:
                if checkpoint_every is not None and boundary % checkpoint_every == 0:
                    write_checkpoint(build_checkpoint(boundary), boundary)
                    emergency = None  # this boundary is already on disk
                else:
                    emergency = (build_checkpoint(boundary), boundary)
        return None

    try:
        result = run_rounds()
    except (EvaluatorError, OSError):
        # Terminal evaluator failure (a broken pool whose in-process fallback
        # failed too): flush the emergency checkpoint so the run
        # resumes from its last completed round boundary, then re-raise —
        # the checkpoint write must never mask the real failure.
        if emergency is not None:
            ckpt, boundary = emergency
            with contextlib.suppress(Exception):
                write_checkpoint(ckpt, boundary)
        raise
    if result is not None:
        return result

    return DynamicsResult(
        converged=False,
        steps=steps,
        moves=moves,
        cycle_detected=cycle_detected,
        cycle_length=cycle_length,
        final_profile=profile,
        social_costs=social_costs,
        history=history,
        engine_stats=inc.stats,
        schedule_hits=cache.hits if cache is not None else 0,
        schedule_misses=cache.misses if cache is not None else 0,
    )


def verify_best_response_cycle(
    game: NetworkCreationGame,
    profiles: Sequence[StrategyProfile],
    *,
    require_best_response: bool = True,
    max_candidates: int = 22,
    tol: float = _TOL,
) -> CycleCheckResult:
    """Verify that ``profiles`` is a best-response cycle.

    ``profiles`` lists the states *visited in order*; the move from
    ``profiles[i]`` to ``profiles[i+1]`` must change exactly one agent's
    strategy.  The sequence is a cycle when appending a final transition back
    to ``profiles[0]`` (so the input should not repeat the first state at the
    end; it is closed automatically).
    """
    failures: list[str] = []
    states = list(profiles)
    if len(states) < 2:
        return CycleCheckResult(False, False, False, len(states), ("need at least two states",))
    closed = states + [states[0]]
    improving = True
    best_resp = True
    for i, (before, after) in enumerate(zip(closed[:-1], closed[1:])):
        diff_agents = [
            u for u in range(game.n) if before.strategy(u) != after.strategy(u)
        ]
        if len(diff_agents) != 1:
            failures.append(f"step {i}: {len(diff_agents)} agents changed (expected 1)")
            improving = False
            best_resp = False
            continue
        agent = diff_agents[0]
        before_cost = game.agent_cost(before, agent)
        after_cost = game.agent_cost(after, agent)
        if not after_cost < before_cost - tol:
            failures.append(
                f"step {i}: agent {agent} move is not improving "
                f"({before_cost:.6g} -> {after_cost:.6g})"
            )
            improving = False
        if require_best_response:
            br = best_response_exact(game, before, agent, max_candidates=max_candidates)
            if after_cost > br.cost + max(tol, 1e-7 * abs(br.cost)):
                failures.append(
                    f"step {i}: agent {agent} move is improving but not a best response "
                    f"(achieved {after_cost:.6g}, best {br.cost:.6g})"
                )
                best_resp = False
    is_cycle = not any("agents changed" in f for f in failures)
    return CycleCheckResult(
        is_cycle=is_cycle,
        is_improving=improving,
        is_best_response=best_resp if require_best_response else improving,
        length=len(states),
        failures=tuple(failures),
    )
