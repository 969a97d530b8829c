"""The incremental best-response engine.

This module is the fast path behind response dynamics and PoA sweeps.  The
naive loop pays up to three full ``O(n^3)`` all-pairs shortest-path (APSP)
computations per agent activation: one for the residual network, one for the
agent's current cost and one for the social cost after a move.
:class:`IncrementalEngine` reduces this to *at most one* APSP per activation
— and zero for most activations — by exploiting three exact facts:

1. **Candidate relaxation.**  Every edge an agent ``u`` may buy is incident
   to ``u``, so once the residual distances ``d_rest`` are known, any
   candidate strategy is scored by ``O(k n)`` relaxations
   (:class:`~repro.core.shortest_paths.CandidateEvaluator`); no candidate
   ever triggers a shortest-path rerun.

2. **Rank-1 move updates.**  After ``u`` switches to a new strategy, the new
   network is the residual plus edges incident to ``u``; every path using a
   new edge visits ``u``, so the new distance matrix is
   ``min(d_rest, du[:, None] + du[None, :])`` with ``du`` the new distance
   row of ``u`` — an ``O(n^2)`` update.  Social and agent costs after the
   move come for free from the cached matrix.

3. **Residual caching.**  The residual network of ``u`` depends only on the
   *other* agents' purchases (and on edges bought towards ``u``), i.e. on
   the ownership matrix with row ``u`` cleared.  Residual matrices are
   cached per agent under that key and reused across round-robin sweeps
   until some other agent moves; an agent owning no solely-owned edges has
   ``d_rest`` equal to the cached network distances outright.  In
   particular, dynamics started from the empty profile run their entire
   first sweep — and every fully converged sweep after a single refresh —
   without any APSP at all.

4. **Decremental repair.**  A residual cache miss for an *edge-owning*
   agent is the one remaining place a shortest-path computation happens —
   the residual is the created network minus ``u``'s solely-owned edges.
   Instead of a from-scratch APSP, the engine repairs the cached network
   distances by affected-vertex relaxation
   (:func:`repro.core.shortest_paths.decremental_distances`).  The residual
   graph is built in ``O(m)`` from the current network's row-sorted edge
   arrays; a neighbour prefilter narrows the affected test to the rows
   whose paths may run through ``u`` (``O(n deg(u))``), whose pair test
   runs on ``u``'s neighbour columns first (``O(p deg(u))`` for ``p`` kept
   rows) and on a full row only where none fires; and only affected
   rows are re-solved, by sparse Dijkstra (``O(n + m log n)`` each) — and of
   those only the rows that the agent's previous residual does not hold,
   or that an edge added or removed since can touch
   (:func:`~repro.core.shortest_paths.carry_dijkstra`); every other row is
   carried bit for bit.  The cache keeps a repair as those rows only, a
   :class:`~repro.core.residual_delta.DeltaResidual` view over the network
   matrix it repaired (every repair made under one network shares it), and
   the engine never writes a network matrix in place (each is published
   read-only), so the views stay valid after later moves.  When the
   repair frontier exceeds half the ``n`` sources (``_REPAIR_THRESHOLD``;
   e.g. when a hub that owns most of its incident edges is activated) the
   repair falls back to the exact all-pairs matrix of the residual graph:
   up to :data:`~repro.core.shortest_paths.FLOYD_WARSHALL_MAX_N` agents one
   Floyd–Warshall, above it every Dijkstra row, carried the same way.
   A carried matrix equals a fresh solve bit for bit.  The
   :attr:`IncrementalEngine.stats` counters record how often each path was
   taken; a carried repair or fallback counts exactly as a fresh one.

5. **Multiprocess batch scoring.**  Queries that score *many* agents
   against one snapshot (:meth:`IncrementalEngine.respond_many` — the
   ``max_gain`` step and the batched schedule's round prefill) go through
   an injected :class:`~repro.core.parallel.ParallelEvaluator`, which fans
   the per-agent candidate scans out to its worker pool over
   shared-memory copies of the residual matrices when the scoring this
   saves outweighs the pool's own cost, and scores in process otherwise
   (serial-first dispatch).  Residuals and stats stay in the
   owning process and workers run the same pure kernel, so the pool
   trades nothing but time.

Per-operation complexity summary (``n`` agents, ``m`` network edges, ``k``
candidate edges, ``p`` rows kept by the repair's prefilter and ``q`` of
them that no neighbour column decides, ``a`` affected repair sources,
``c`` residual edges added or removed since the agent's previous residual,
and ``a'`` and ``r`` the repair and fallback rows that residual lacks or
those edges touch):

=====================================  ===========================
operation                              cost
=====================================  ===========================
candidate strategy scoring             ``O(k n)`` per candidate
post-move distance update (`apply`)    ``O(n^2)``
residual cache hit                     ``O(n^2 / 8)`` (key check)
residual miss, decremental repair      ``O(n deg(u) + p deg(u) + q n``
                                       ``+ a c + a' (n + m log n))``
                                       plus an ``O(a n)`` block, ``a <= rn``
residual miss, fallback in full        ``O(n^3)`` (full APSP)
residual miss, carried fallback        ``O(n deg(u) + p deg(u) + q n``
                                       ``+ n c + r (n + m log n))``
                                       plus one ``O(n^2)`` matrix copy
=====================================  ===========================

The ``p deg(u)`` term is the affected test on the neighbour columns; on
the single-move workloads nearly every kept row is affected, so ``q``
stays small.  The ``a c`` term tests the held rows among the ``a``
sources against the ``c`` changed edges, and the key diff behind ``c`` is
``O(n^2 / 8)`` byte work, like a hit.  A carried fallback copies the
previous raw matrix once and overwrites its stale rows; nothing else of
size ``n^2`` is made.  A repair stays an
``O(a n)`` row block, and a Dijkstra fallback (``n >
FLOYD_WARSHALL_MAX_N``) stays its raw Dijkstra matrix, served pinned
(``min(D, D.T)``) row by row by a
:class:`~repro.core.shortest_paths.PinnedResidual`: a dense pinned
``(n, n)`` matrix is built from either only when its agent moves
(:meth:`IncrementalEngine.apply`), when the pool writes it to a slot, or
when the checkpoint writer streams it to disk.  Floyd–Warshall fallbacks
are dense.  Every cached residual is read-only and shared as it is — with
the proposal cache and with checkpoint snapshots
(:meth:`IncrementalEngine.export_state`) — so none is ever copied whole to
be kept.

A miss carries its Dijkstra rows from the raw, unpinned rows the agent's
cached entry holds (:func:`_held_rows`).  A repair holds the rows it
solved: its block, whose ``(|S|, |S|)`` square is stored transposed and is
flipped back when read.  A Dijkstra fallback holds every row, its raw
matrix, read directly.  A Floyd–Warshall fallback or a checkpoint restore
holds none, and the agent's next miss solves every row it needs.

The engine is *exact*: it returns the same best responses and costs as the
from-scratch oracle (:func:`repro.core.best_response.best_response_exact`),
which the randomized property tests in ``tests/test_incremental_engine.py``
and the reference-loop harness in ``tests/test_reference_dynamics.py``
verify across all model variants.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from .best_response import BestResponseResult, score_response, score_tasks
from .game import NetworkCreationGame
from .parallel import ParallelEvaluator
from .residual_delta import DeltaResidual, Residual, dense_residual
from .shortest_paths import (
    FLOYD_WARSHALL_MAX_N,
    CarriedDijkstra,
    PinnedResidual,
    _Graph,
    _index_dtype,
    _indptr,
    all_pairs_shortest_paths,
    carry_dijkstra,
    decremental_distances,
    relax_source_row,
)
from .strategy import StrategyProfile

__all__ = ["EngineStats", "IncrementalEngine", "Residual"]

# Largest share of the n sources a decremental repair may re-solve row by
# row; a larger frontier falls back to the residual's all-pairs matrix.
_REPAIR_THRESHOLD = 0.5


def _held_rows(
    residual: Residual, sources: np.ndarray | None
) -> tuple[np.ndarray | None, np.ndarray] | None:
    """The raw Dijkstra rows a cached residual holds, of ``sources``.

    Returns ``(held sources, rows)`` (``None`` sources: every vertex, in
    order), or ``None`` for a residual that holds no such rows.  A repair
    holds the rows it re-solved: its block with the square
    ``block[:, S] = R[:, S].T`` transposed back.  A Dijkstra fallback holds
    every row, its :class:`~repro.core.shortest_paths.PinnedResidual`'s raw
    matrix, read directly.
    """
    if isinstance(residual, DeltaResidual):
        held, block = residual.delta.rows, residual.delta.data
        if sources is not None:
            wanted = np.zeros(block.shape[1], dtype=bool)
            wanted[sources] = True
            pick = np.flatnonzero(wanted[held])
            held, block, square = held[pick], block[pick], block[:, held[pick]]
        else:
            block, square = block.copy(), block[:, held]
        if held.size == 0:
            return None
        block[:, residual.delta.rows] = square.T
        return held, block
    if not isinstance(residual, PinnedResidual):
        return None
    if sources is None:
        return None, residual.raw
    return sources, residual.raw[sources]


def _network_graph(host: np.ndarray, owns: np.ndarray) -> _Graph:
    """The network created by ownership matrix ``owns`` over host weights
    ``host``, as a :class:`~repro.core.shortest_paths._Graph`, from its
    owned edges alone.

    Equal field for field to ``_as_graph(game.network_weights(profile))``:
    every edge bought by either endpoint, once per direction and sorted by
    ``(row, column)``, weighing ``min(w[u, v], w[v, u])``; an edge whose
    both directions weigh ``inf`` is no edge.  Beyond one scan of ``owns``,
    the cost is ``O(m log m)`` for ``m`` owned edges, not the ``O(n^2)``
    float work of a dense weight matrix.
    """
    n = owns.shape[0]
    owned = np.flatnonzero(owns)
    u, v = np.divmod(owned, n)
    rows, cols = np.divmod(np.unique(np.concatenate((owned, v * n + u))), n)
    data = np.minimum(host[rows, cols], host[cols, rows])
    edge = data != np.inf
    rows, cols, data = rows[edge], cols[edge], data[edge]
    if not np.all(data >= 0):
        raise ValueError("edge weights must be non-negative (and not NaN)")
    index = _index_dtype(n, data.size)
    return _Graph(
        n, _indptr(rows, n), cols.astype(index), rows.astype(index), data.astype(float, copy=False)
    )


_R = TypeVar("_R", bound=Residual)


def _published(residual: _R) -> _R:
    """``residual`` made read-only: every matrix the engine caches or hands
    out (network matrices, fallbacks, repair blocks) is shared — by the
    repairs built over a network matrix, the proposal cache and checkpoint
    snapshots — so none is written in place.  A repair's base is a network
    matrix, published when it was made."""
    if isinstance(residual, DeltaResidual):
        arrays = (residual.delta.rows, residual.delta.data)
    elif isinstance(residual, PinnedResidual):
        arrays = (residual.raw,)
    else:
        arrays = (residual,)
    for array in arrays:
        array.flags.writeable = False
    return residual


@dataclass
class EngineStats:
    """Counters of the engine's shortest-path work, for tests and benchmarks.

    ``apsp_rebuilds`` counts exact all-pairs matrices computed outside a
    repair: the initial distance matrix plus every repair fallback, whether
    solved in full or carried row by row from the agent's previous
    residual.  ``residual_repairs`` counts the residual cache misses served
    by decremental row repair, carried or not, ``repair_fallbacks`` the
    repairs whose affected frontier exceeded the threshold (these also
    count as an ``apsp_rebuilds``),
    ``residual_cache_hits`` the residual queries answered without any
    shortest-path work (a valid cached matrix, or an agent owning no
    solely-owned edges), and ``move_updates`` the ``O(n^2)`` post-move
    distance refreshes.
    """

    apsp_rebuilds: int = 0
    residual_repairs: int = 0
    repair_fallbacks: int = 0
    residual_cache_hits: int = 0
    move_updates: int = 0


class IncrementalEngine:
    """Stateful incremental evaluator of one evolving strategy profile.

    The engine owns the "current" profile of a dynamics run and keeps its
    all-pairs distance matrix plus per-agent residual matrices cached; see
    the module docstring for the update rules.  All queries (``respond``,
    ``social_cost``, ``agent_cost``) are side-effect free except for cache
    population; :meth:`apply` advances the profile.

    :data:`_REPAIR_THRESHOLD` bounds the decremental repair used on
    residual cache misses: when more than half the ``n`` sources are
    affected by removing the agent's solely-owned edges, the engine falls
    back to the exact all-pairs matrix of the residual graph instead (see
    :func:`repro.core.shortest_paths.decremental_distances` and
    :meth:`_rebuild`).  ``stats``
    exposes :class:`EngineStats` counters of the shortest-path work done.

    Without an ``evaluator`` every query scores serially in process.  An
    injected :class:`~repro.core.parallel.ParallelEvaluator` — the one a
    :class:`~repro.core.session.GameSession` shares across its runs —
    scores *batched* queries (:meth:`respond_many`), on its worker pool
    against shared-memory copies of the residual matrices when the batch
    is heavy enough to pay for it.  The engine uses
    the evaluator but never closes it; its owner does.  Residual
    computation (and hence every :class:`EngineStats` counter) always
    happens in the owning process, and workers run the same pure scoring
    kernel as the serial path, so results are bit-identical either way.
    :meth:`reset` re-points the engine at a new profile with fresh caches
    and stats while keeping the evaluator, which is what makes session runs
    bit-identical to one-shot engines.
    """

    __slots__ = (
        "_game", "_profile", "_distances", "_network", "_owned_bits", "_residuals",
        "_evaluator", "stats",
    )

    def __init__(
        self,
        game: NetworkCreationGame,
        profile: StrategyProfile,
        *,
        evaluator: ParallelEvaluator | None = None,
    ) -> None:
        if profile.n != game.n:
            raise ValueError(
                f"profile is over {profile.n} agents but the game has {game.n}"
            )
        self._game = game
        self._profile = profile
        self._distances: np.ndarray | None = None
        # Row-sorted edge arrays of the current network and its packed
        # ownership matrix, each built on demand once per profile.
        self._network: _Graph | None = None
        self._owned_bits: np.ndarray | None = None
        # agent -> (residual key, residual distances), each published
        # read-only: a repair is a row-block view over the network matrix it
        # repaired, a Dijkstra fallback a PinnedResidual over its raw rows,
        # a Floyd–Warshall fallback a dense matrix.  The agent's next miss
        # carries rows from the entry's raw Dijkstra rows (_held_rows).
        self._residuals: dict[int, tuple[bytes, Residual]] = {}
        self._evaluator = evaluator
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def game(self) -> NetworkCreationGame:
        return self._game

    @property
    def profile(self) -> StrategyProfile:
        """The current strategy profile."""
        return self._profile

    def reset(self, profile: StrategyProfile) -> None:
        """Re-point the engine at ``profile`` with fresh caches and stats.

        Drops the cached distance matrix, every residual matrix and the
        :class:`EngineStats` counters (the old stats object is *replaced*,
        not mutated, so results that captured it stay intact), while the
        evaluator — and hence its worker pool — survives.  A session calls
        this between runs so each run does exactly the shortest-path work a
        one-shot engine would.
        """
        if profile.n != self._game.n:
            raise ValueError(
                f"profile is over {profile.n} agents but the game has {self._game.n}"
            )
        self._profile = profile
        self._distances = None
        self._network = None
        self._owned_bits = None
        self._residuals.clear()
        self.stats = EngineStats()

    def export_state(self) -> dict:
        """Snapshot the cached distances, residual matrices and stats.

        The checkpoint subsystem (:mod:`repro.core.checkpoint`) persists this
        at round boundaries; restoring it via :meth:`restore_state` makes a
        resumed run perform exactly the shortest-path work — and report
        exactly the :class:`EngineStats` counters — the straight-through run
        would.  Nothing is copied: the snapshot shares the engine's network
        matrix and cached residuals as they are — dense arrays,
        :class:`~repro.core.residual_delta.DeltaResidual` repairs and
        :class:`~repro.core.shortest_paths.PinnedResidual` fallbacks — all
        read-only, so a later move or miss replaces them and never changes
        the snapshot.  The checkpoint writer densifies one view at a time,
        so the file bytes do not depend on how the engine holds a residual.
        """
        return {
            "distances": self.distances,
            "residuals": dict(self._residuals),
            "stats": dataclasses.asdict(self.stats),
        }

    def restore_state(
        self,
        *,
        distances: np.ndarray,
        residuals: dict[int, tuple[bytes, Residual]],
        stats: dict,
    ) -> None:
        """Install checkpointed caches and counters (inverse of :meth:`export_state`).

        Call after :meth:`reset` pointed the engine at the checkpointed
        profile; the caches must describe that same profile or later queries
        will silently serve stale distances — the checkpoint loader validates
        shapes, the pairing is the caller's contract.  A row view (an
        in-process :meth:`export_state`) is densified, so every restored
        residual is a dense read-only array that holds no Dijkstra rows:
        each agent's first miss after a restore solves every row it needs.
        """
        n = self._game.n
        distances = np.ascontiguousarray(distances, dtype=np.float64)
        if distances.shape != (n, n):
            raise ValueError("restored distance matrix has the wrong shape")
        self._distances = _published(distances)
        self._residuals = {
            int(u): (bytes(key), _published(np.ascontiguousarray(dense_residual(matrix))))
            for u, (key, matrix) in residuals.items()
        }
        self.stats = EngineStats(**stats)

    @property
    def distances(self) -> np.ndarray:
        """Cached all-pairs distances of the current created network.

        Read-only: cached repairs are views over this matrix, so writing
        to it raises instead of silently changing them.
        """
        if self._distances is None:
            self._distances = _published(all_pairs_shortest_paths(self._network_graph()))
            self.stats.apsp_rebuilds += 1
        return self._distances

    def social_cost(self) -> float:
        """Social cost of the current profile (no shortest-path recomputation)."""
        return self._game.social_cost(self._profile, self.distances)

    def agent_cost(self, u: int) -> float:
        """Cost of agent ``u`` in the current profile from the cached distances."""
        return self._game.agent_cost(self._profile, u, self.distances)

    # ------------------------------------------------------------------
    # Residual distances
    # ------------------------------------------------------------------
    def _residual_key(self, u: int) -> bytes:
        """Cache key of ``u``'s residual: the ownership matrix with row ``u`` cleared.

        The residual network contains every edge bought by some other agent
        (including edges towards ``u``) and nothing of ``u``'s own solely-owned
        purchases, so it is fully determined by this key — in particular it is
        invariant under ``u``'s own moves.  The ownership matrix is packed
        once per profile; a key copies it and clears bits ``[u n, u n + n)``,
        restoring the neighbouring rows' bits in the two edge bytes.
        """
        if self._owned_bits is None:
            self._owned_bits = np.packbits(self._profile.ownership)
        key = self._owned_bits.copy()
        n = self._game.n
        lo, hi = u * n, u * n + n
        head = int(key[lo >> 3]) & (0xFF00 >> (lo & 7))  # bits before lo
        tail = int(key[hi >> 3]) & (0xFF >> (hi & 7)) if hi & 7 else 0  # from hi on
        key[lo >> 3 : (hi + 7) >> 3] = 0
        key[lo >> 3] |= head
        key[(hi - 1) >> 3] |= tail
        return key.tobytes()

    def _network_graph(self) -> _Graph:
        """The current network's row-sorted edge arrays, built once per
        profile from its owned edges (:func:`_network_graph`) and shared by
        :attr:`distances` and every residual graph."""
        if self._network is None:
            self._network = _network_graph(self._game.host.weights, self._profile.ownership)
        return self._network

    def _residual_graph(self, u: int, removed: np.ndarray) -> _Graph:
        """Sparse weights of the network without ``u``'s edges to ``removed``.

        Drops those entries from the current network's edge arrays, so a
        residual graph costs ``O(m)`` for ``m`` network edges instead of a
        dense ``O(n^2)`` weight matrix.
        """
        return self._network_graph().without_edges(u, removed)

    def _edge_changes(
        self, old_key: bytes, new_key: bytes
    ) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Residual edges ``old_key`` has and ``new_key`` lacks, and the reverse.

        An edge is present iff either direction is owned in the key's
        ownership matrix (row ``u`` is already cleared); each comes back once,
        as ``(a, b, w)`` arrays with ``a < b`` and the network's edge weight.
        Only the bits that differ are decoded, from the XOR of the packed
        keys, so the cost is ``O(n^2 / 8)`` byte work plus the flips.
        """
        n = self._game.n
        pad = bytes(-len(old_key) % 8)  # compare whole 64-bit words
        keys = np.frombuffer(old_key + pad + new_key + pad, dtype=np.uint8).reshape(2, -1)
        words = keys.view(np.uint64)
        at = np.flatnonzero(words[0] != words[1])
        diff = (words[0, at] ^ words[1, at]).view(np.uint8).reshape(-1, 8)
        flips = np.unpackbits(diff, axis=1).view(bool)
        i, j = np.divmod((at[:, None] * 64 + np.arange(64))[flips], n)
        pair = np.unique(np.minimum(i, j) * n + np.maximum(i, j))
        a, b = np.divmod(pair, n)
        bit = np.concatenate((pair, b * n + a))
        owned = keys[:, bit >> 3] >> (7 - (bit & 7)).astype(np.uint8) & 1
        was, now = owned.reshape(2, 2, -1).any(axis=1)
        changed = was != now
        a, b, gone = a[changed], b[changed], was[changed]
        host = self._game.host.weights
        w = np.minimum(host[a, b], host[b, a])
        return (a[gone], b[gone], w[gone]), (a[~gone], b[~gone], w[~gone])

    def _carry(
        self, u: int, key: bytes, graph: _Graph, sources: np.ndarray | None = None
    ) -> CarriedDijkstra:
        """Dijkstra rows of ``sources`` (every vertex when ``None``) on ``graph``,
        ``u``'s residual under ``key``, carried from the rows ``u``'s cached
        entry holds (:func:`_held_rows`) and solved where none is held or an
        edge change since that entry touches it."""
        cached = self._residuals.get(u)
        held = None if cached is None else _held_rows(cached[1], sources)
        if held is None:
            return carry_dijkstra(graph, sources=sources)
        removed, added = self._edge_changes(cached[0], key)
        return carry_dijkstra(
            graph, held[1], removed, added, sources=sources, previous_sources=held[0]
        )

    def _rebuild(self, u: int, key: bytes, graph: _Graph) -> Residual:
        """Fallback residual of ``u`` on ``graph`` (the residual under ``key``), cached.

        Up to :data:`~repro.core.shortest_paths.FLOYD_WARSHALL_MAX_N`
        agents it is one Floyd–Warshall, a dense matrix.  Above, it is
        Dijkstra, carried row by row from the rows ``u``'s previous residual
        holds (:meth:`_carry`), and cached as a
        :class:`~repro.core.shortest_paths.PinnedResidual` over the raw rows,
        which are the next carry's base.  Either way every read equals
        ``apsp_scipy(graph)`` bit for bit.
        """
        d_rest: Residual
        if graph.n <= FLOYD_WARSHALL_MAX_N:
            d_rest = all_pairs_shortest_paths(graph)
        else:
            d_rest = PinnedResidual(self._carry(u, key, graph).unpinned)
        self._residuals[u] = (key, _published(d_rest))
        return d_rest

    def residual(self, u: int) -> Residual:
        """Residual distance matrix of agent ``u``, cached across activations.

        A cache miss for an edge-owning agent is served by decremental
        repair of the cached network distances on the sparse residual graph
        (only rows whose shortest paths could run through ``u`` are
        re-solved), falling back to the exact all-pairs matrix of the
        residual graph when the repair frontier exceeds
        ``_REPAIR_THRESHOLD * n`` sources (:meth:`_rebuild`).  Either way
        the Dijkstra rows ``u``'s previous residual holds are carried where
        no edge change since touches them (:meth:`_carry`).

        A repaired residual comes back as a
        :class:`~repro.core.residual_delta.DeltaResidual` row-block view over
        the network matrix, and a Dijkstra fallback as a
        :class:`~repro.core.shortest_paths.PinnedResidual` over its raw rows;
        the scoring kernels read both row by row, and
        :func:`~repro.core.residual_delta.dense_residual` builds the dense
        matrix where one is needed.  Any other residual is a dense array.
        Every residual is read-only.
        """
        owns = self._profile.ownership
        removed = owns[u] & ~owns[:, u]
        if not removed.any():
            # Nothing to remove: the residual *is* the created network.
            self.stats.residual_cache_hits += 1
            return self.distances
        key = self._residual_key(u)
        cached = self._residuals.get(u)
        if cached is not None and cached[0] == key:
            self.stats.residual_cache_hits += 1
            return cached[1]
        repair = decremental_distances(
            self.distances,
            self._residual_graph(u, removed),
            u,
            removed=np.flatnonzero(removed),
            max_affected_fraction=_REPAIR_THRESHOLD,
            rebuild=lambda graph: self._rebuild(u, key, graph),
            solve_rows=lambda graph, sources: self._carry(u, key, graph, sources).unpinned,
        )
        if repair.rebuilt:
            self.stats.repair_fallbacks += 1
            self.stats.apsp_rebuilds += 1
        else:
            self.stats.residual_repairs += 1
            self._residuals[u] = (key, _published(repair.residual))
        return repair.residual

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    def respond(
        self,
        u: int,
        response: str,
        *,
        max_candidates: int = 22,
        d_rest: Residual | None = None,
    ) -> BestResponseResult:
        """Response of ``u`` to the current profile, scored by ``score_response``.

        ``response`` is ``"best"``, ``"greedy"`` or ``"single"``.  Callers
        that already hold ``u``'s residual matrix (from a preceding
        :meth:`residual` call) can pass it as ``d_rest`` to skip the cache
        lookup.
        """
        if d_rest is None:
            d_rest = self.residual(u)
        return score_response(
            d_rest,
            u,
            self._game.host.weights[u],
            self._game.alpha,
            self._profile.strategy(u),
            response,
            max_candidates=max_candidates,
        )

    def respond_many(
        self,
        agents,
        response: str = "best",
        *,
        max_candidates: int = 22,
        d_rests: list[Residual] | None = None,
    ) -> list[BestResponseResult]:
        """Responses of several agents against the current profile snapshot.

        All agents are scored against the same state (no move is applied in
        between).  Residual matrices are computed — or taken from ``d_rests``
        when the caller already holds them — in the owning process in agent
        order, so :attr:`stats` is independent of the worker count; with an
        injected evaluator a batch of two or more agents goes to
        :meth:`~repro.core.parallel.ParallelEvaluator.evaluate`, which
        runs it on the pool when that saves more than it costs — workers
        run the same pure kernel against shared-memory matrix copies and
        results are gathered in submission order — and in process
        otherwise.
        The returned list is therefore bit-identical for every worker
        count.
        """
        agents = [int(u) for u in agents]
        if d_rests is None:
            d_rests = [self.residual(u) for u in agents]
        elif len(d_rests) != len(agents):
            raise ValueError("d_rests must match agents one to one")
        tasks = [
            (u, dr, self._profile.strategy(u)) for u, dr in zip(agents, d_rests)
        ]
        if self._evaluator is None or len(agents) < 2:
            return score_tasks(
                tasks,
                self._game.host.weights,
                self._game.alpha,
                response,
                max_candidates=max_candidates,
            )
        return self._evaluator.evaluate(
            tasks, response, max_candidates=max_candidates
        )

    # ------------------------------------------------------------------
    # Moves
    # ------------------------------------------------------------------
    def apply(self, u: int, strategy) -> StrategyProfile:
        """Switch agent ``u`` to ``strategy`` and update distances in ``O(n^2)``.

        The new network is ``u``'s residual plus ``u``'s new incident edges,
        so the cached distance matrix is refreshed by a single rank-1
        relaxation through ``u`` instead of a full shortest-path rerun.
        This is where a residual row view is densified: only the mover's.
        Residual caches of other agents are invalidated automatically by
        their keys; ``u``'s own cached residual stays valid.
        """
        d_rest = dense_residual(self.residual(u))
        targets = sorted({int(v) for v in strategy})
        new_profile = self._profile.with_strategy(u, targets)
        if targets:
            du = relax_source_row(d_rest, u, self._game.host.weights[u], targets)
            new_distances = np.minimum(d_rest, du[:, None] + du[None, :])
        else:
            new_distances = d_rest
        self._profile = new_profile
        self._distances = _published(new_distances)
        self._network = None
        self._owned_bits = None
        self.stats.move_updates += 1
        return new_profile
