"""Repaired residuals as row-block views over the shared network matrix.

:func:`~repro.core.shortest_paths.decremental_distances` returns a row
repair as a :class:`~repro.core.residual_delta.DeltaResidual`: the matrix
it repaired as the base, the sorted re-solved sources ``S`` and an
``(|S|, n)`` block, instead of a dense ``(n, n)`` copy.  This battery
checks that nothing observable changes and that the memory goes:

* **kernel** — on the tie-heavy hosts of the carried-Dijkstra battery
  (unit, 1-2, zero-weight, tree, metric, general, and networks cut into
  parts), every view serves the dense-scan repair oracle bit for bit:
  ``dense()``, every row, fancy rows and ``view[rows, col]`` reads;
* **engine** — a run whose repairs stay views equals, in trajectory,
  moves and :class:`~repro.core.incremental.EngineStats`, the same run
  with every repair densified on the spot;
* **memory** — after one batched round on a localized tree no cached
  repair owns an ``(n, n)`` buffer, and all of them share one base;
* **safety** — the network matrices the engine publishes and every
  residual it caches or the proposal cache stores are read-only, and a
  forced pool scoring repaired views, pinned fallbacks and dense arrays
  equals serial scoring with exact ``bytes_sent``, writing each view in
  its own form (no ``dense()``) and a shared base once per chunk.
"""

from __future__ import annotations

import importlib.util
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.incremental as incremental
from repro.core import (
    GameSession,
    IncrementalEngine,
    NetworkCreationGame,
    SimulationConfig,
    StrategyProfile,
    run_dynamics,
)
from repro.core.best_response import score_tasks
from repro.core.dynamics import _ProposalCache
from repro.core.host_graph import HostGraph
from repro.core import residual_delta
from repro.core.parallel import ParallelEvaluator, SharedSnapshot, pool_always
from repro.core.residual_delta import DeltaResidual, dense_residual, packed_size
from repro.core.shortest_paths import (
    FLOYD_WARSHALL_MAX_N,
    DecrementalRepair,
    PinnedResidual,
    apsp_scipy,
    decremental_distances,
    floyd_warshall,
)

from random_instances import _random_game, _random_profile
from test_dijkstra_carry import _SLOW, _TIER1, _bits, _mesh_host, _tree_profile
from test_parallel_evaluator import _assert_identical_runs
from test_shortest_paths import _battery_host, _battery_network, _csr, _dense_scan_repair

BENCH_LARGE_N = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_large_n.py"

_TIER1_RUNS = settings(derandomize=True, database=None, deadline=None, max_examples=15)
_SLOW_RUNS = settings(derandomize=True, database=None, deadline=None, max_examples=120)

HOST_KINDS = ("unit", "one_two", "zero", "tree", "metric", "general")


def _cut(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``weights`` with every edge between a random vertex split removed."""
    side = rng.random(weights.shape[0]) < 0.5
    out = weights.copy()
    out[np.ix_(side, ~side)] = np.inf
    out[np.ix_(~side, side)] = np.inf
    return out


# ----------------------------------------------------------------------
# Kernel: every view equals the dense-scan repair, bit for bit
# ----------------------------------------------------------------------
@st.composite
def _repair_cases(draw):
    kind = draw(st.sampled_from(HOST_KINDS))
    n = draw(st.integers(2, 24))
    seed = draw(st.integers(0, 2**32 - 1))
    disconnected = draw(st.booleans())
    method = draw(st.sampled_from(("floyd_warshall", "scipy")))
    as_csr = draw(st.booleans())
    padded = draw(st.booleans())
    return kind, n, seed, disconnected, method, as_csr, padded


def _check_repair(kind, n, seed, disconnected, method, as_csr, padded):
    rng = np.random.default_rng(seed)
    weights = _battery_network(_battery_host(kind, n, rng), rng)
    if disconnected:
        weights = _cut(weights, rng)
    dist = {"floyd_warshall": floyd_warshall, "scipy": apsp_scipy}[method](weights)
    v = int(rng.integers(0, n))
    incident = np.flatnonzero(np.isfinite(weights[v]))
    incident = incident[incident != v]
    drop = incident[rng.random(incident.size) < rng.choice([0.3, 1.0])]
    new = weights.copy()
    new[v, drop] = new[drop, v] = np.inf
    # Padding ``removed`` with vertices that were never v's neighbours only
    # widens the prefilter; the repair must not change.
    removed = np.concatenate((drop, rng.choice(n, size=2))) if padded else drop
    for frac in (0.0, 0.5, 1.0):
        expected, count, rebuilt = _dense_scan_repair(dist, new, v, frac)
        got = decremental_distances(
            dist,
            _csr(new) if as_csr else new,
            v,
            removed=removed,
            max_affected_fraction=frac,
        )
        assert (got.affected_sources, got.rebuilt) == (count, rebuilt)
        assert np.array_equal(_bits(got.distances), _bits(expected))
        if rebuilt:
            assert isinstance(got.residual, np.ndarray)
            continue
        view = got.residual
        assert isinstance(view, DeltaResidual)
        assert view.base is dist  # shared, not copied
        assert view.delta.data.shape == (count, n)
        assert np.array_equal(_bits(view.dense()), _bits(expected))
        for i in range(n):
            assert np.array_equal(_bits(view[i]), _bits(expected[i]))
        idx = rng.integers(-n, n, size=2 * n + 1)
        assert np.array_equal(_bits(view[idx]), _bits(expected[idx]))
        rows = np.arange(n)
        for col in range(n):
            assert np.array_equal(_bits(view[rows, col]), _bits(expected[:, col]))
            assert view[int(rows[-1]), col] == expected[-1, col]


@_TIER1
@given(_repair_cases())
def test_views_equal_the_dense_repair(case):
    _check_repair(*case)


@pytest.mark.slow
@_SLOW
@given(_repair_cases())
def test_views_equal_the_dense_repair_full_budget(case):
    _check_repair(*case)


# ----------------------------------------------------------------------
# Engine: views change no trajectory, move or counter
# ----------------------------------------------------------------------
def _dense_repairs(monkeypatch: pytest.MonkeyPatch) -> None:
    """Make the engine's repairs dense ``(n, n)`` matrices, as they were."""

    def dense(*args, **kwargs):
        repair = decremental_distances(*args, **kwargs)
        return DecrementalRepair(repair.distances, repair.affected_sources, repair.rebuilt)

    monkeypatch.setattr(incremental, "decremental_distances", dense)


@st.composite
def _run_cases(draw):
    kind = draw(st.sampled_from(HOST_KINDS))
    n = draw(st.integers(4, 11))
    seed = draw(st.integers(0, 2**32 - 1))
    response = draw(st.sampled_from(("single", "greedy", "best")))
    schedule = draw(st.sampled_from(("sequential", "batched")))
    threshold = draw(st.sampled_from((0.1, 0.5, 1.0)))
    return kind, n, seed, response, schedule, threshold


def _check_run(kind, n, seed, response, schedule, threshold):
    rng = np.random.default_rng(seed)
    host = _battery_host(kind, n, rng)
    network = np.isfinite(_battery_network(host, rng)) & ~np.eye(n, dtype=bool)
    # Each edge is bought by one endpoint or, now and then, by both.
    mine = np.triu(network & (rng.random((n, n)) < 0.5), 1)
    owns = np.triu(network, 1) & ~mine
    owns = owns | mine.T | (owns.T & (rng.random((n, n)) < 0.2))
    start = StrategyProfile(owns)
    game = NetworkCreationGame(HostGraph(host), float(rng.choice([0.5, 1.0, 3.0])))
    cfg = SimulationConfig(response=response, schedule=schedule, max_rounds=4)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(incremental, "_REPAIR_THRESHOLD", threshold)
        views = run_dynamics(game, start, cfg, rng=seed % 97)
        _dense_repairs(mp)
        dense = run_dynamics(game, start, cfg, rng=seed % 97)
    _assert_identical_runs([dense, views])


@_TIER1_RUNS
@given(_run_cases())
def test_runs_equal_the_dense_reference(case):
    _check_run(*case)


@pytest.mark.slow
@_SLOW_RUNS
@given(_run_cases())
def test_runs_equal_the_dense_reference_full_budget(case):
    _check_run(*case)


def test_repairs_are_cached_as_views_and_read_back_exactly(monkeypatch):
    """The engine caches repairs as views; scoring them equals scoring dense."""
    rng = np.random.default_rng(zlib.crc32(b"views") % 2**32)
    game = _random_game("general", 9, rng)
    profile = _random_profile(9, rng, density=0.6)
    monkeypatch.setattr(incremental, "_REPAIR_THRESHOLD", 1.0)
    engine = IncrementalEngine(game, profile)
    residuals = [engine.residual(u) for u in range(9)]
    assert engine.stats.residual_repairs > 0
    assert any(isinstance(d, DeltaResidual) for d in residuals)
    for u, d_rest in enumerate(residuals):
        expected = apsp_scipy(game.residual_weights(profile, u))
        assert np.allclose(dense_residual(d_rest), expected, rtol=0, atol=1e-9)
        if isinstance(d_rest, DeltaResidual):
            assert d_rest.base is engine.distances
    tasks = [(u, d, profile.strategy(u)) for u, d in enumerate(residuals)]
    dense_tasks = [(u, dense_residual(d), s) for u, d, s in tasks]
    for response in ("best", "greedy", "single"):
        w, alpha = game.host.weights, game.alpha
        assert score_tasks(tasks, w, alpha, response) == score_tasks(
            dense_tasks, w, alpha, response
        )


# ----------------------------------------------------------------------
# Memory: a batched round on a localized tree keeps row blocks only
# ----------------------------------------------------------------------
@pytest.fixture
def localized_tree(monkeypatch):
    """The n = 300 localized tree of ``benchmarks/bench_large_n.py`` (16 hubs)."""
    spec = importlib.util.spec_from_file_location("bench_large_n", BENCH_LARGE_N)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setitem(bench.HUBS, 300, 16)
    return bench.localized_instance(300)


def test_batched_round_caches_no_dense_repair(localized_tree):
    game, start = localized_tree
    n = game.n
    cfg = SimulationConfig(schedule="batched", response="single", max_rounds=1)
    with GameSession(game, cfg) as session:
        result = session.run(start)
        engine = session._engine
        proposals = session._cache._proposals
    assert result.engine_stats.residual_repairs >= 8
    assert result.engine_stats.repair_fallbacks == 0
    cached = [matrix for _, matrix in engine._residuals.values()]
    assert len(cached) == result.engine_stats.residual_repairs
    for matrix in cached:
        owned = (
            matrix.delta.data.nbytes if isinstance(matrix, DeltaResidual) else matrix.nbytes
        )
        assert owned < n * n * 8
    # Every repair shares one base, the network matrix, and the proposal
    # cache holds the very same objects.
    assert {id(matrix.base) for matrix in cached} == {id(engine.distances)}
    shared = {id(matrix) for matrix in cached}
    assert shared <= {id(d_rest) for _, d_rest in proposals.values()}


# ----------------------------------------------------------------------
# Safety: read-only network matrices, pool path
# ----------------------------------------------------------------------
def _buffers(residual) -> list[np.ndarray]:
    """The arrays a cached residual owns or shares."""
    if isinstance(residual, DeltaResidual):
        return [residual.base, residual.delta.rows, residual.delta.data]
    if isinstance(residual, PinnedResidual):
        return [residual.raw]
    return [residual]


def _assert_read_only(residual) -> None:
    for array in _buffers(residual):
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = -1.0


def test_published_network_matrices_are_read_only():
    rng = np.random.default_rng(3)
    game = _random_game("metric", 7, rng)
    engine = IncrementalEngine(game, _random_profile(7, rng, density=0.5))
    with pytest.raises(ValueError, match="read-only"):
        engine.distances[0, 1] = 0.0
    engine.apply(0, engine.respond(0, "best").strategy)
    with pytest.raises(ValueError, match="read-only"):
        engine.distances[1, 2] = 0.0
    state = engine.export_state()
    engine.reset(engine.profile)
    engine.restore_state(**state)
    with pytest.raises(ValueError, match="read-only"):
        engine.distances[2, 3] = 0.0
    # Every residual the engine caches or the proposal cache stores raises
    # on write too — Floyd–Warshall and Dijkstra fallbacks, repair blocks —
    # and so does every residual a restore installs.
    rng = np.random.default_rng(8)
    game = _random_game("general", 9, rng)
    _check_cached_residuals_read_only(game, _random_profile(9, rng, density=0.6))
    host = _mesh_host(200)
    _check_cached_residuals_read_only(NetworkCreationGame(host, 40.0), _tree_profile(host))


def _check_cached_residuals_read_only(game, start) -> None:
    n = game.n
    stored: list = []
    store = _ProposalCache.store

    def spy(self, u, result, d_rest):
        stored.append(d_rest)
        store(self, u, result, d_rest)

    cfg = SimulationConfig(schedule="batched", response="single", max_rounds=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_ProposalCache, "store", spy)
        with GameSession(game, cfg) as session:
            session.run(start)
            engine = session._engine
        for threshold in (0.0, 1.0):  # fallbacks, then repairs
            mp.setattr(incremental, "_REPAIR_THRESHOLD", threshold)
            for u in range(0, n, 2 if threshold else 3):
                engine._residuals.pop(u, None)
                engine.residual(u)
    cached = [matrix for _, matrix in engine._residuals.values()]
    kinds = {type(matrix) for matrix in cached}
    assert DeltaResidual in kinds
    assert (PinnedResidual if n > FLOYD_WARSHALL_MAX_N else np.ndarray) in kinds
    assert {type(d_rest) for d_rest in stored} >= {DeltaResidual, np.ndarray} | (
        {PinnedResidual} if n > FLOYD_WARSHALL_MAX_N else set()
    )
    for residual in cached + stored:
        _assert_read_only(residual)
    state = engine.export_state()
    engine.reset(engine.profile)
    engine.restore_state(**state)
    for _, matrix in engine._residuals.values():
        _assert_read_only(matrix)


def test_views_refuse_implicit_densify():
    rng = np.random.default_rng(5)
    game = _random_game("general", 8, rng)
    engine = IncrementalEngine(game, _random_profile(8, rng, density=0.6))
    views = [d for d in map(engine.residual, range(8)) if isinstance(d, DeltaResidual)]
    assert views
    with pytest.raises(TypeError, match="dense"):
        np.asarray(views[0])
    with pytest.raises(TypeError, match="dense"):
        np.minimum(views[0], 1.0)


def _expected_slot_bytes(tasks, n: int) -> int:
    """``bytes_sent`` of one chunk: each distinct array and repair base dense,
    and each distinct repair's own delta at its packed size."""
    distinct = list({id(d): d for _, d, _ in tasks}.values())
    views = [d for d in distinct if isinstance(d, DeltaResidual)]
    dense = {id(d) for d in distinct if not isinstance(d, DeltaResidual)}
    dense |= {id(view.base) for view in views}
    return len(dense) * n * n * 8 + sum(packed_size(v.delta.num_rows, n) for v in views)


def test_forced_pool_scores_repaired_views_like_serial(monkeypatch):
    """A pool batch of repaired views equals serial scoring, ``bytes_sent`` exact.

    Each repair is written as its own packed delta and its base dense,
    once; every other residual dense.
    """
    rng = np.random.default_rng(zlib.crc32(b"pool-views") % 2**32)
    n = 9
    game = _random_game("general", n, rng)
    profile = _random_profile(n, rng, density=0.6)
    monkeypatch.setattr(incremental, "_REPAIR_THRESHOLD", 1.0)
    engine = IncrementalEngine(game, profile)
    tasks = [(u, engine.residual(u), profile.strategy(u)) for u in range(n)]
    assert any(isinstance(d, DeltaResidual) for _, d, _ in tasks)
    serial = score_tasks(tasks, game.host.weights, game.alpha, "best")
    with pool_always(), ParallelEvaluator.for_game(game, workers=2) as evaluator:
        assert evaluator.evaluate(tasks, "best") == serial
        stats = evaluator.stats
    assert stats.pools_started == 1
    assert stats.bytes_sent == _expected_slot_bytes(tasks, n)


@pytest.fixture
def mixed_tasks(localized_tree, monkeypatch):
    """Tasks on the n = 300 localized tree in all three residual forms.

    The first half of the hubs are repaired (``DeltaResidual`` views over
    the network matrix), the rest take the engine's Dijkstra fallback
    (``PinnedResidual``, since n > FLOYD_WARSHALL_MAX_N) because every
    repair is made to give up, and two agents owning no edge alone share
    the dense network matrix.
    """
    game, start = localized_tree
    engine = IncrementalEngine(game, start)
    solely = start.ownership & ~start.ownership.T
    hubs = [int(u) for u in np.flatnonzero(solely.any(axis=1))]
    plain = [int(u) for u in np.flatnonzero(~solely.any(axis=1))][:2]
    half = len(hubs) // 2
    residuals = {u: engine.residual(u) for u in hubs[:half] + plain}

    def give_up(dist, graph, vertex, *, rebuild, **kwargs):
        return DecrementalRepair(rebuild(graph), game.n, True)

    monkeypatch.setattr(incremental, "decremental_distances", give_up)
    residuals.update((u, engine.residual(u)) for u in hubs[half:])
    tasks = [(u, d, start.strategy(u)) for u, d in residuals.items()]
    kinds = [type(d) for _, d, _ in tasks]
    assert kinds.count(DeltaResidual) == half
    assert kinds.count(PinnedResidual) == len(hubs) - half > 0
    assert kinds.count(np.ndarray) == 2
    views = [d for d in residuals.values() if isinstance(d, DeltaResidual)]
    assert all(view.base is engine.distances for view in views)
    return game, tasks


def test_pool_scores_every_residual_form_like_serial(mixed_tasks):
    """Repairs, pinned fallbacks and dense arrays in one pool batch score
    bit-identically to in-process ``score_tasks``."""
    game, tasks = mixed_tasks
    n = game.n
    with pool_always(), ParallelEvaluator.for_game(game, workers=2) as evaluator:
        for response in ("single", "best"):
            serial = score_tasks(tasks, game.host.weights, game.alpha, response)
            assert evaluator.evaluate(tasks, response) == serial
        stats = evaluator.stats
    assert stats.pools_started == 1
    # The network matrix is both the plain agents' residual and every
    # repair's base: written once per batch.
    assert stats.bytes_sent == 2 * _expected_slot_bytes(tasks, n)


def test_slot_writer_densifies_no_view(mixed_tasks, monkeypatch):
    """The pool writes each view in its own form: no ``dense()`` anywhere."""
    game, tasks = mixed_tasks
    calls = []

    def spy(self):
        calls.append(type(self).__name__)
        raise AssertionError("the slot writer densified a view")

    for cls in (DeltaResidual, PinnedResidual):
        monkeypatch.setattr(cls, "dense", spy)
    monkeypatch.setattr(residual_delta, "dense_residual", spy)
    with pool_always(), ParallelEvaluator.for_game(game, workers=2) as evaluator:
        evaluator.evaluate(tasks, "single")
    assert calls == []


def test_shared_base_is_written_once_per_chunk(mixed_tasks, monkeypatch):
    """Repairs sharing the network matrix write it once per chunk.

    With three slots a chunk holds the base and two repairs, so the
    repairs span ``ceil(repairs / 2)`` chunks and the base is written in
    each of them, never twice in one.
    """
    game, tasks = mixed_tasks
    n = game.n
    repairs = [t for t in tasks if isinstance(t[1], DeltaResidual)]
    base = repairs[0][1].base
    writes = []
    original = SharedSnapshot.write_slot

    def counted(snapshot, slot, matrix):
        writes.append(matrix is base)
        original(snapshot, slot, matrix)

    monkeypatch.setattr(SharedSnapshot, "write_slot", counted)
    serial = score_tasks(repairs, game.host.weights, game.alpha, "single")
    with pool_always(), ParallelEvaluator.for_game(game, workers=2, slots=3) as pool:
        assert pool.evaluate(repairs, "single") == serial
        stats = pool.stats
    chunks = -(-len(repairs) // 2)
    assert writes == [True] * chunks
    packed = sum(packed_size(d.delta.num_rows, n) for _, d, _ in repairs)
    assert stats.bytes_sent == chunks * n * n * 8 + packed


def test_pool_run_on_the_localized_tree_matches_serial(localized_tree):
    game, start = localized_tree
    cfg = SimulationConfig(schedule="batched", response="single", max_rounds=1)
    serial = run_dynamics(game, start, cfg, rng=0)
    with pool_always(), GameSession(game, cfg.replace(workers=2)) as session:
        pooled = session.run(start, rng=0)
        assert session.stats().evaluator_stats.pools_started == 1
    _assert_identical_runs([serial, pooled])
