"""Carried Dijkstra rows: bitwise equal to a fresh solve, at every layer.

:func:`~repro.core.shortest_paths.carry_dijkstra` re-solves only the rows a
graph change can touch.  The differential batteries drive it through random
sequences of edge removals and additions on small tie-heavy hosts (unit,
1-2 and zero weights, disconnected parts) and check, bit for bit, that the
carried unpinned matrix equals a fresh scipy Dijkstra and the pinned result
equals :func:`~repro.core.shortest_paths.apsp_scipy`, and that the rows of
any source subset, carried from the rows of any other subset, equal a fresh
Dijkstra of those sources.  The engine carries every miss from the rows the
agent's previous entry holds: a repair's re-solved rows (its block, with
the transposed square flipped back) or a Dijkstra fallback's whole raw
matrix, which its :class:`~repro.core.shortest_paths.PinnedResidual`
serves pinned on read, however wide the gap between a raw entry and its
pin.  A Floyd–Warshall fallback and a restored entry hold no rows, and
the agent's next miss solves every row fresh.
Engine-level tests run past ``FLOYD_WARSHALL_MAX_N``, where fallbacks take
the Dijkstra path: every carried repair equals the repair built with fresh
rows, and a checkpointed run must resume bit-identically and write the same
checkpoint bytes as before carrying existed.
"""

from __future__ import annotations

import hashlib
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path as scipy_shortest_path

import repro.core.incremental as incremental
from repro.core import (
    GameSession,
    IncrementalEngine,
    NetworkCreationGame,
    SimulationConfig,
    StrategyProfile,
    resume_dynamics,
)
from repro.core.host_graph import HostGraph
from repro.core.residual_delta import dense_residual
from repro.core.shortest_paths import (
    FLOYD_WARSHALL_MAX_N,
    PinnedResidual,
    _as_graph,
    _dijkstra,
    _index_dtype,
    apsp_scipy,
    carry_dijkstra,
    decremental_distances,
    dijkstra_rows,
)

from test_parallel_evaluator import _assert_identical_runs
from test_shortest_paths import _battery_host, _battery_network, _csr


def _fresh_unpinned(weights: np.ndarray) -> np.ndarray:
    """scipy's Dijkstra on the graph, before any pinning."""
    dist = np.asarray(
        scipy_shortest_path(_as_graph(weights).csr(), method="D", directed=True), dtype=float
    )
    np.fill_diagonal(dist, 0.0)
    return dist


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


# ----------------------------------------------------------------------
# Differential battery for the kernel
# ----------------------------------------------------------------------
@st.composite
def _edit_sequences(draw):
    kind = draw(st.sampled_from(("unit", "one_two", "zero", "tree", "metric", "general")))
    n = draw(st.integers(2, 16))
    steps = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    as_csr = draw(st.booleans())
    return kind, n, steps, seed, as_csr


def _edit(weights: np.ndarray, host: np.ndarray, rng: np.random.Generator):
    """A random edit of the network: ``(new weights, removed, added)``."""
    n = host.shape[0]
    offdiag = ~np.eye(n, dtype=bool)
    present = np.isfinite(weights) & offdiag
    # Heavy removals now and then split the graph into parts.
    p_remove = rng.choice([0.05, 0.2, 0.6])
    p_add = rng.choice([0.0, 0.05, 0.2])
    drop = np.triu(present & (rng.random((n, n)) < p_remove), 1)
    grow = np.triu(~present & np.isfinite(host) & offdiag & (rng.random((n, n)) < p_add), 1)
    new = weights.copy()
    new[drop | drop.T] = np.inf
    new[grow | grow.T] = host[grow | grow.T]
    removed = tuple(x for x in np.nonzero(drop)) + (host[drop],)
    added = tuple(x for x in np.nonzero(grow)) + (host[grow],)
    return new, removed, added


def _check_edit_sequence(kind, n, steps, seed, as_csr):
    rng = np.random.default_rng(seed)
    host = _battery_host(kind, n, rng)
    weights = _battery_network(host, rng)
    first = carry_dijkstra(weights)
    assert np.array_equal(first.resolved, np.arange(n))
    # The engine's chain: each fallback is cached as a pinned view over its
    # raw rows, and the next carry reads the raw rows from that view.
    view = PinnedResidual(first.unpinned)
    for _ in range(steps):
        new, removed, added = _edit(weights, host, rng)
        previous = incremental._held_rows(view, None)[1]
        carry = carry_dijkstra(_csr(new) if as_csr else new, previous, removed, added)
        fresh = _fresh_unpinned(new)
        assert np.array_equal(_bits(carry.unpinned), _bits(fresh))
        assert np.array_equal(_bits(carry.distances), _bits(apsp_scipy(new)))
        kept = np.setdiff1d(np.arange(n), carry.resolved)
        assert np.array_equal(_bits(carry.unpinned[kept]), _bits(previous[kept]))
        view = PinnedResidual(carry.unpinned)
        assert np.array_equal(_bits(view.dense()), _bits(carry.distances))
        weights = new


_TIER1 = settings(derandomize=True, database=None, deadline=None, max_examples=60)
_SLOW = settings(derandomize=True, database=None, deadline=None, max_examples=400)


@_TIER1
@given(_edit_sequences())
def test_carried_rows_equal_a_fresh_dijkstra(case):
    _check_edit_sequence(*case)


@pytest.mark.slow
@_SLOW
@given(_edit_sequences())
def test_carried_rows_equal_a_fresh_dijkstra_full_budget(case):
    _check_edit_sequence(*case)


def _subset(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random distinct sources in random order: empty, some, or every vertex."""
    size = int(rng.choice([0, int(rng.integers(1, n + 1)), n]))
    return rng.permutation(n)[:size]


def _check_subset_sequence(kind, n, steps, seed, as_csr):
    """Rows of any source subset, carried from the rows of any other subset
    (or the whole matrix), equal a fresh Dijkstra of those sources."""
    rng = np.random.default_rng(seed)
    host = _battery_host(kind, n, rng)
    weights = _battery_network(host, rng)
    held = _subset(rng, n)
    rows = carry_dijkstra(weights, sources=held).unpinned
    for step in range(steps + 1):
        graph = _as_graph(weights)
        assert np.array_equal(_bits(rows), _bits(_fresh_unpinned(weights)[held]))
        if held.size:
            assert np.array_equal(_bits(rows), _bits(_dijkstra(graph, held)))
        if step == steps:
            break
        new, removed, added = _edit(weights, host, rng)
        wanted = _subset(rng, n)
        whole = rng.random() < 0.25  # carry from a whole matrix now and then
        carry = carry_dijkstra(
            _csr(new) if as_csr else new,
            _fresh_unpinned(weights) if whole else rows,
            removed,
            added,
            sources=wanted,
            previous_sources=None if whole else held,
        )
        assert carry.distances is None and carry.unpinned.shape == (wanted.size, n)
        assert np.isin(carry.resolved, wanted).all()
        if not whole:
            assert np.isin(np.setdiff1d(wanted, held), carry.resolved).all()
        held, rows, weights = wanted, carry.unpinned, new


@_TIER1
@given(_edit_sequences())
def test_carried_subsets_equal_a_fresh_dijkstra(case):
    _check_subset_sequence(*case)


@pytest.mark.slow
@_SLOW
@given(_edit_sequences())
def test_carried_subsets_equal_a_fresh_dijkstra_full_budget(case):
    _check_subset_sequence(*case)


def test_whole_matrix_carry_shares_no_memory_with_previous():
    """A whole matrix carried whole is one copy of ``previous`` with its
    stale rows overwritten: the result shares no memory with ``previous``,
    which stays as it was (read-only, as the engine publishes it)."""
    rng = np.random.default_rng(11)
    host = _battery_host("one_two", 24, rng)
    weights = _battery_network(host, rng)
    previous = _fresh_unpinned(weights)
    previous.flags.writeable = False
    before = previous.copy()
    mixed = 0
    for _ in range(20):
        new, removed, added = _edit(weights, host, rng)
        carry = carry_dijkstra(new, previous, removed, added)
        assert not np.shares_memory(carry.unpinned, previous)
        assert carry.unpinned.flags.writeable
        assert np.array_equal(_bits(previous), _bits(before))
        assert np.array_equal(_bits(carry.unpinned), _bits(_fresh_unpinned(new)))
        mixed += 0 < carry.resolved.size < host.shape[0]
    assert mixed  # some carries both kept and re-solved rows


def test_repair_view_holds_its_raw_rows():
    """A repaired residual's block, its square transposed back, is the raw
    Dijkstra rows of its sources: the carry base a repair leaves."""
    rng = np.random.default_rng(17)
    checked = 0
    for kind in ("one_two", "unit", "zero", "general"):
        for _ in range(6):
            weights = _battery_network(_battery_host(kind, 14, rng), rng)
            v = int(rng.integers(14))
            drop = np.flatnonzero(np.isfinite(weights[v]))
            drop = drop[(drop != v) & (rng.random(drop.size) < 0.6)]
            new = weights.copy()
            new[v, drop] = new[drop, v] = np.inf
            repair = decremental_distances(
                apsp_scipy(weights), new, v, removed=drop, max_affected_fraction=1.0
            )
            sources = repair.residual.delta.rows
            entry = repair.residual
            held, rows = incremental._held_rows(entry, None)
            assert np.array_equal(held, sources)
            assert np.array_equal(_bits(rows), _bits(dijkstra_rows(new, sources)))
            some = rng.permutation(14)[:5]
            common = np.intersect1d(sources, some)
            if common.size == 0:
                assert incremental._held_rows(entry, some) is None
                continue
            held, rows = incremental._held_rows(entry, some)
            assert np.array_equal(held, common)
            assert np.array_equal(_bits(rows), _bits(dijkstra_rows(new, held)))
            checked += 1
    assert checked > 12


def test_unchanged_graph_resolves_no_row():
    rng = np.random.default_rng(11)
    weights = _battery_network(_battery_host("one_two", 12, rng), rng)
    first = carry_dijkstra(weights)
    again = carry_dijkstra(weights, first.unpinned)
    assert again.resolved.size == 0
    assert np.array_equal(_bits(again.distances), _bits(apsp_scipy(weights)))


def test_graph_keeps_scipys_index_type():
    """The CSR index arrays stay int32 for dense and sparse input and an edge
    removal, so scipy takes them without a cast; the rows are unchanged."""
    rng = np.random.default_rng(4)
    weights = _battery_network(_battery_host("metric", 12, rng), rng)
    for graph in (_as_graph(weights), _as_graph(_csr(weights))):
        flagged = np.zeros(12, dtype=bool)
        flagged[graph.indices[graph.indptr[3] : graph.indptr[4]]] = True
        smaller = graph.without_edges(3, flagged)
        for g in (graph, smaller):
            assert {a.dtype for a in (g.indptr, g.indices, g.rows)} == {np.dtype(np.int32)}
        dense = weights.copy()
        dense[3, flagged] = dense[flagged, 3] = np.inf
        fresh = np.asarray(
            scipy_shortest_path(_csr(dense), method="D", directed=True), dtype=float
        )
        np.fill_diagonal(fresh, 0.0)
        assert np.array_equal(_bits(_dijkstra(smaller)), _bits(fresh))
    assert _index_dtype(2**31 - 1, 10) is np.int32
    assert _index_dtype(2**31, 10) is np.int64 and _index_dtype(10, 2**31) is np.int64


def test_carry_rejects_bad_input():
    rng = np.random.default_rng(0)
    weights = _battery_network(_battery_host("unit", 5, rng), rng)
    with pytest.raises(ValueError, match="shape mismatch"):
        carry_dijkstra(weights, np.zeros((4, 4)))
    with pytest.raises(ValueError, match="shape mismatch"):
        carry_dijkstra(weights, np.zeros((2, 5)), previous_sources=[0, 1, 2])
    with pytest.raises(ValueError, match="out of range"):
        carry_dijkstra(weights, sources=[0, 5])
    with pytest.raises(ValueError, match="distinct"):
        carry_dijkstra(weights, np.zeros((2, 5)), previous_sources=[1, 1])
    with pytest.raises(ValueError, match="out of range"):
        carry_dijkstra(weights, np.zeros((5, 5)), removed=([0], [5], [1.0]))
    with pytest.raises(ValueError, match="equal-length"):
        carry_dijkstra(weights, np.zeros((5, 5)), added=([0, 1], [2], [1.0]))


def test_decremental_fallback_uses_the_given_rebuild():
    """The frontier fallback calls ``rebuild`` once, on the post-removal graph,
    and returns its matrix; a row repair never calls it."""
    rng = np.random.default_rng(5)
    weights = _battery_network(_battery_host("one_two", 10, rng), rng)
    dist = apsp_scipy(weights)
    v = int(np.argmax(np.isfinite(weights).sum(axis=1)))
    drop = np.flatnonzero(np.isfinite(weights[v]))
    drop = drop[drop != v]
    new = weights.copy()
    new[v, drop] = new[drop, v] = np.inf
    seen = []

    def rebuild(graph):
        seen.append(graph)
        return apsp_scipy(graph)

    fallback = decremental_distances(
        dist, new, v, removed=drop, max_affected_fraction=0.0, rebuild=rebuild
    )
    assert fallback.rebuilt and len(seen) == 1
    assert np.array_equal(fallback.distances, apsp_scipy(new))
    repair = decremental_distances(
        dist, new, v, removed=drop, max_affected_fraction=1.0, rebuild=rebuild
    )
    assert not repair.rebuilt and len(seen) == 1


# ----------------------------------------------------------------------
# Wide pin gaps
# ----------------------------------------------------------------------
def _heavy_path_weights(n: int) -> np.ndarray:
    """A path whose first edge weighs 1e16 and the rest 0.99 (ulp(1e16) = 2).

    From vertex 0 every 0.99 rounds away, from the far end they add up before
    the 1e16 does, so ``d(k, 0) - d(0, k)`` is about ``k / 2`` ulp."""
    w = np.full((n, n), np.inf)
    np.fill_diagonal(w, 0.0)
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = 0.99
    w[0, 1] = w[1, 0] = 1e16
    return w


def test_pinned_view_serves_a_wide_gap_exactly():
    """Raw entries over 255 ulp above their pin (which a one-byte ulp lift
    could not store) are served pinned, and the raw rows stay the fresh
    solve, so the next carry can read them."""
    carry = carry_dijkstra(_heavy_path_weights(700))
    pinned = carry.distances
    assert (carry.unpinned.view(np.int64) - pinned.view(np.int64)).max() > 255
    view = PinnedResidual(carry.unpinned)
    assert np.array_equal(_bits(view.raw), _bits(_fresh_unpinned(_heavy_path_weights(700))))
    assert np.array_equal(_bits(view.dense()), _bits(pinned))
    rows = np.array([699, 0, 350, 699])
    assert np.array_equal(_bits(view[rows]), _bits(pinned[rows]))
    assert np.array_equal(_bits(view[rows, 1]), _bits(pinned[rows, 1]))


@pytest.fixture
def carry_calls(monkeypatch):
    """Every ``carry_dijkstra`` call the engine makes.  ``fallbacks`` lists the
    calls for every row as (carried?, rows re-solved); ``repairs`` the calls
    for a repair's sources as (carried?, sources, rows re-solved)."""
    calls = SimpleNamespace(fallbacks=[], repairs=[])

    def spy(weights, previous=None, removed=((), (), ()), added=((), (), ()), **subsets):
        result = carry_dijkstra(weights, previous, removed, added, **subsets)
        carried, resolved = previous is not None, int(result.resolved.size)
        if subsets.get("sources") is None:
            calls.fallbacks.append((carried, resolved))
        else:
            calls.repairs.append((carried, len(subsets["sources"]), resolved))
        return result

    monkeypatch.setattr(incremental, "carry_dijkstra", spy)
    return calls


@pytest.fixture
def checked_fallbacks(monkeypatch):
    """Agents of every engine fallback, each checked bitwise against
    ``apsp_scipy`` of the dense residual weights the exact oracle uses."""
    rebuild = IncrementalEngine._rebuild
    agents: list[int] = []

    def checked(self, u, key, graph):
        d_rest = rebuild(self, u, key, graph)
        expected = apsp_scipy(self.game.residual_weights(self.profile, u))
        assert np.array_equal(_bits(dense_residual(d_rest)), _bits(expected))
        agents.append(u)
        return d_rest

    monkeypatch.setattr(IncrementalEngine, "_rebuild", checked)
    return agents


def _repair_threshold(monkeypatch, value: float) -> None:
    """Set the engine's repair frontier bound: 0 forces every residual
    miss to fall back, 1 lets every miss repair."""
    monkeypatch.setattr(incremental, "_REPAIR_THRESHOLD", value)


def _heavy_path_engine(monkeypatch) -> IncrementalEngine:
    """The n = 700 heavy path, agent ``i`` owning ``(i, i + 1)``, with the
    fallbacks of agents 650 and 100 cached: residual components ``{0..u}``
    whose raw rows sit up to ~324 and ~49 ulp above their pins."""
    n = 700
    game = NetworkCreationGame(HostGraph(_heavy_path_weights(n)), 1.0)
    owns = np.zeros((n, n), dtype=bool)
    owns[np.arange(n - 1), np.arange(1, n)] = True
    _repair_threshold(monkeypatch, 0.0)
    engine = IncrementalEngine(game, StrategyProfile(owns))
    for u in (650, 100):
        engine.residual(u)
        assert isinstance(engine._residuals[u][1], PinnedResidual)
    return engine


def test_fallbacks_after_a_wide_pin_gap_carry_their_rows(
    carry_calls, checked_fallbacks, monkeypatch
):
    engine = _heavy_path_engine(monkeypatch)
    n = engine.game.n
    engine.apply(n - 2, [])  # any move changes every other agent's residual key
    del carry_calls.fallbacks[:]
    for u in (650, 100):
        engine.residual(u)
    assert checked_fallbacks[-2:] == [650, 100]
    # Rows 0..u cannot reach the dropped edge (n - 2, n - 1): carried.
    assert carry_calls.fallbacks == [(True, n - 651), (True, n - 101)]


# ----------------------------------------------------------------------
# Engine level, past the Floyd–Warshall cutoff
# ----------------------------------------------------------------------
def _mesh_host(n: int, degree: int = 6, seed: int = 7) -> HostGraph:
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2)) * np.sqrt(n)
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    order = np.argsort(d, axis=1)
    allowed = np.zeros((n, n), dtype=bool)
    for u in range(n):
        allowed[u, order[u, 1 : degree + 1]] = True
    allowed |= allowed.T
    w = np.where(allowed, d, np.inf)
    np.fill_diagonal(w, 0.0)
    return HostGraph(w)


def _tree_profile(host: HostGraph) -> StrategyProfile:
    """A BFS spanning tree of the host support, owned by the parents."""
    n = host.n
    finite = np.isfinite(host.weights) & ~np.eye(n, dtype=bool)
    owns = np.zeros((n, n), dtype=bool)
    seen, queue = {0}, deque([0])
    while queue:
        u = queue.popleft()
        for v in np.flatnonzero(finite[u]):
            if int(v) not in seen:
                seen.add(int(v))
                owns[u, v] = True
                queue.append(int(v))
    assert len(seen) == n
    return StrategyProfile(owns)


N_DIJKSTRA = 200
assert N_DIJKSTRA > FLOYD_WARSHALL_MAX_N


def test_every_fallback_of_a_run_equals_apsp_scipy(
    carry_calls, checked_fallbacks, monkeypatch
):
    host = _mesh_host(N_DIJKSTRA)
    game = NetworkCreationGame(host, 1.0)
    _repair_threshold(monkeypatch, 0.0)
    cfg = SimulationConfig(response="single", schedule="sequential", max_rounds=2)
    with GameSession(game, cfg) as session:
        result = session.run(_tree_profile(host))
    assert len(checked_fallbacks) == result.engine_stats.repair_fallbacks > 0
    assert len(carry_calls.fallbacks) == len(checked_fallbacks)
    assert any(carried for carried, _ in carry_calls.fallbacks)


def _local_moves(rounds: int = 6) -> IncrementalEngine:
    """Residuals of 8 watched agents between single-edge deletions of random
    owners, on the n = 200 mesh with every host edge owned once."""
    host = _mesh_host(N_DIJKSTRA)
    game = NetworkCreationGame(host, 1.0)
    owns = np.triu(np.isfinite(host.weights), 1)  # every host edge, owned once
    engine = IncrementalEngine(game, StrategyProfile(owns))
    rng = np.random.default_rng(3)
    owners = np.flatnonzero(owns.any(axis=1))
    watched = rng.choice(owners, size=8, replace=False)
    for _ in range(rounds):
        for u in watched:
            engine.residual(int(u))
        mover = int(rng.choice(owners))
        engine.apply(mover, sorted(engine.profile.strategy(mover))[1:])
    return engine


def test_local_moves_carry_few_rows(carry_calls, checked_fallbacks, monkeypatch):
    """Near a fixed network a move touches few rows: carried fallbacks of the
    other agents re-solve a small share of the 200 sources."""
    _repair_threshold(monkeypatch, 0.0)
    _local_moves()
    carried = [rows for was_carried, rows in carry_calls.fallbacks if was_carried]
    assert len(checked_fallbacks) == len(carry_calls.fallbacks)
    assert len(carried) >= 4 * 8
    assert np.median(carried) < N_DIJKSTRA // 4


def test_local_moves_repair_few_rows(carry_calls):
    """Repairs carry too: on local moves they re-solve fewer rows than their
    affected counts sum to."""
    engine = _local_moves()
    repairs = carry_calls.repairs
    assert len(repairs) == engine.stats.residual_repairs >= 8
    assert sum(carried for carried, _, _ in repairs) >= len(repairs) // 2
    affected = sum(sources for _, sources, _ in repairs)
    solved = sum(resolved for _, _, resolved in repairs)
    assert solved < affected


@pytest.fixture
def checked_repairs(monkeypatch):
    """Every engine repair, checked to densify bitwise to the matrix that
    ``decremental_distances`` builds with fresh ``dijkstra_rows``."""
    checked: list[int] = []

    def checked_repair(*args, **kwargs):
        repair = decremental_distances(*args, **kwargs)
        if not repair.rebuilt:
            del kwargs["solve_rows"]
            fresh = decremental_distances(*args, **kwargs)
            assert not fresh.rebuilt and fresh.affected_sources == repair.affected_sources
            assert np.array_equal(_bits(repair.distances), _bits(fresh.distances))
            checked.append(repair.affected_sources)
        return repair

    monkeypatch.setattr(incremental, "decremental_distances", checked_repair)
    return checked


def test_every_carried_repair_equals_a_fresh_repair(carry_calls, checked_repairs):
    engine = _local_moves(rounds=10)
    assert len(checked_repairs) == engine.stats.residual_repairs >= 8
    assert any(carried for carried, _, _ in carry_calls.repairs)
    assert engine.stats.repair_fallbacks > 0  # repairs carry from fallbacks too


# ----------------------------------------------------------------------
# Entries that hold no Dijkstra rows
# ----------------------------------------------------------------------
def _mesh_engine(n: int):
    host = _mesh_host(n)
    owns = np.triu(np.isfinite(host.weights), 1)
    engine = IncrementalEngine(NetworkCreationGame(host, 1.0), StrategyProfile(owns))
    owners = np.flatnonzero(owns.sum(axis=1) >= 2)
    return engine, int(owners[0]), int(owners[1])


def _drop_one_edge(engine: IncrementalEngine, mover: int) -> None:
    engine.apply(mover, sorted(engine.profile.strategy(mover))[1:])


def _solved_fresh(call) -> bool:
    carried, sources, resolved = call
    return not carried and sources == resolved > 0


def test_repair_after_a_floyd_warshall_fallback_solves_every_row(carry_calls, monkeypatch):
    n = 60
    assert n <= FLOYD_WARSHALL_MAX_N
    _repair_threshold(monkeypatch, 0.0)
    engine, u, other = _mesh_engine(n)
    engine.residual(u)
    assert engine.stats.repair_fallbacks == 1 and not carry_calls.fallbacks
    _repair_threshold(monkeypatch, 1.0)
    _drop_one_edge(engine, other)
    engine.residual(u)
    assert engine.stats.residual_repairs >= 1
    assert _solved_fresh(carry_calls.repairs[-1])
    # A repair after that repair carries (u's own row is in both).
    _drop_one_edge(engine, other)
    engine.residual(u)
    assert carry_calls.repairs[-1][0]


def test_repairs_after_a_wide_pin_gap_carry_their_rows(
    carry_calls, checked_repairs, monkeypatch
):
    engine = _heavy_path_engine(monkeypatch)
    n = engine.game.n
    _repair_threshold(monkeypatch, 1.0)
    engine.apply(n - 2, [])
    for u in (650, 100):
        engine.residual(u)
        carried, sources, resolved = carry_calls.repairs[-1]
        # Rows 0..u cannot reach the dropped edge (n - 2, n - 1): carried.
        assert carried and resolved == sources - (u + 1)
    assert len(checked_repairs) == 3  # the mover's residual in apply, then u's


def test_repair_after_a_restore_solves_every_row(carry_calls, monkeypatch):
    _repair_threshold(monkeypatch, 0.0)
    engine, u, other = _mesh_engine(N_DIJKSTRA)
    engine.residual(u)
    assert isinstance(engine._residuals[u][1], PinnedResidual)  # a Dijkstra fallback
    _repair_threshold(monkeypatch, 1.0)
    restored = IncrementalEngine(engine.game, engine.profile)
    restored.restore_state(**engine.export_state())
    calls, residuals = [], []
    for e in (restored, engine):
        _drop_one_edge(e, other)
        residuals.append(dense_residual(e.residual(u)))
        calls.append(carry_calls.repairs[-1])
    assert _solved_fresh(calls[0])
    assert calls[1][0] and calls[1][2] < calls[1][1]  # the raw rows carry
    assert np.array_equal(_bits(residuals[0]), _bits(residuals[1]))


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
# sha256 of the round-1 checkpoint of the run below: the bytes written
# before fallbacks were carried, re-saved without the retired
# ``repair_threshold`` and ``engine`` config keys.  A fallback is written as
# its pinned dense matrix, whatever form the engine holds it in, so the
# bytes must not change.  The template is relative, so the path in the
# header is fixed.
ROUND_ONE_CHECKPOINT_SHA256 = "2392c494fb53c14d1c502ad61e3710b0c89e6b1d144cbf90918dbb0943a3e68c"


def test_checkpoint_resume_with_carried_fallbacks(tmp_path, monkeypatch, carry_calls):
    host = _mesh_host(N_DIJKSTRA)
    game = NetworkCreationGame(host, 1.0)
    start = _tree_profile(host)
    cfg = SimulationConfig(response="single", schedule="sequential", max_rounds=2)
    with GameSession(game, cfg) as session:
        straight = session.run(start)
        engine = session._engine
    assert straight.engine_stats.repair_fallbacks > 0
    assert any(carried for carried, _ in carry_calls.fallbacks)
    monkeypatch.chdir(tmp_path)
    checkpointed = cfg.replace(checkpoint_path="ckpt-{round}.bin", checkpoint_every=1)
    with GameSession(game, checkpointed) as session:
        checkpointing = session.run(start)
    _assert_identical_runs([straight, checkpointing])
    boundary = tmp_path / "ckpt-1.bin"
    assert hashlib.sha256(boundary.read_bytes()).hexdigest() == ROUND_ONE_CHECKPOINT_SHA256
    resumed = resume_dynamics(str(boundary), checkpoint_every=None, checkpoint_path=None)
    _assert_identical_runs([straight, resumed])
    residuals = engine.export_state()["residuals"]
    assert any(isinstance(matrix, PinnedResidual) for _, matrix in residuals.values())
    for key, matrix in residuals.values():
        assert isinstance(key, bytes) and matrix.shape == (N_DIJKSTRA, N_DIJKSTRA)
