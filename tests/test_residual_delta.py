"""Residual deltas: the row-block form of a repair and its slot layout.

:mod:`repro.core.residual_delta` holds a repaired residual as
``(sorted row index set, those rows verbatim)`` over a base matrix, and a
worker pool's shared-memory slot holds that delta packed, next to its base
written dense.  This battery certifies the layers bottom-up:

* **delta** — decode is bit-exact for randomized symmetric matrices and
  row subsets (empty deltas, all-row deltas, ``inf`` rows, n in {1, 2, 3,
  large}), through the packed bytes too, and malformed input fails loudly;

* **golden layout** — the packed byte layout is pinned byte-for-byte as a
  literal, so any change that silently reshapes it fails here first;

* **row view** — :class:`~repro.core.residual_delta.DeltaResidual` serves
  every row bit-identically to the dense matrix (scalar, negative and
  fancy indexing), and every ``view[rows, col]`` read with the rows and
  the column inside or outside the delta; it refuses an implicit
  ``numpy.asarray``; and ``score_response`` over the view equals the
  dense result field-for-field;

* **slot rule** — a view is written as its packed delta whenever that
  fits a slot, and dense only when it does not;

* **cross-oracle sweep** — the pool replays the exact trajectory *and*
  EngineStats of the serial path across model variants and schedules,
  while writing no more bytes than dense slots would;

* **chaos** — a pool worker SIGKILLed while a delta batch is in flight
  costs one pool rebuild and a resubmission against the surviving packed
  slots, never a trajectory bit.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.core import GameSession, SimulationConfig, run_dynamics
from repro.core.best_response import score_response, score_tasks
from repro.core.faults import Fault, FaultPlan
from repro.core.parallel import ParallelEvaluator, SharedSnapshot
from repro.core.residual_delta import (
    DeltaResidual,
    ResidualDelta,
    decode_delta,
    dense_residual,
    pack_delta,
    packed_size,
    unpack_delta,
)
from test_dijkstra_carry import _bits
from random_instances import VARIANTS, _random_game, _random_profile
from test_parallel_evaluator import _assert_identical_runs

# The pool tests here measure slot writes, so every batch goes to the
# pool: the serial-first dispatch rule would keep these small batches in
# process.
pytestmark = pytest.mark.usefixtures("pool_always")

INF = float("inf")


def _random_symmetric(n, rng, inf_frac=0.0):
    """A random symmetric matrix with zero diagonal, optionally inf pairs."""
    m = rng.uniform(0.5, 9.5, size=(n, n))
    m = (m + m.T) / 2.0
    if inf_frac and n > 1:
        mask = np.triu(rng.random((n, n)) < inf_frac, k=1)
        m[mask] = INF
        m[mask.T] = INF
    np.fill_diagonal(m, 0.0)
    return m


def _perturb_rows(base, rows, rng):
    """A symmetric copy of ``base`` rewritten on the given row/column set."""
    m = base.copy()
    for i in rows:
        fresh = rng.uniform(10.0, 20.0, size=m.shape[0])
        m[i, :] = fresh
        m[:, i] = fresh
        m[i, i] = 0.0
    # Re-symmetrize the rows x rows block (later rows overwrote earlier).
    for i in rows:
        for j in rows:
            m[j, i] = m[i, j]
    return m


def _delta(matrix, rows):
    """The delta of ``matrix`` on ``rows``: exact over any base that equals a
    bitwise-symmetric ``matrix`` outside those rows and columns."""
    rows = np.asarray(sorted(rows), dtype=np.int64)
    return ResidualDelta(rows, matrix[rows])


# ----------------------------------------------------------------------
# Delta: decode round trips
# ----------------------------------------------------------------------
def test_roundtrip_randomized_rows_and_sizes(property_budget):
    """decode(delta of m) == m bit-for-bit over random matrices and row sets."""
    rng = np.random.default_rng(zlib.crc32(b"delta-roundtrip") % 2**32)
    trials = max(4, property_budget)
    for trial in range(trials):
        n = int(rng.choice([1, 2, 3, 5, 9, 17, 40]))
        base = _random_symmetric(n, rng, inf_frac=0.15 if trial % 3 else 0.0)
        k = int(rng.integers(0, n + 1))
        rows = sorted(rng.choice(n, size=k, replace=False)) if k else []
        matrix = _perturb_rows(base, rows, rng)
        delta = _delta(matrix, rows)
        out = decode_delta(base, delta)
        assert out.dtype == np.float64
        assert np.array_equal(out, matrix), (n, rows)
        # The packed form round-trips through bytes identically too.
        rehydrated = unpack_delta(pack_delta(delta), n)
        assert np.array_equal(decode_delta(base, rehydrated), matrix)


def test_empty_delta_encodes_identity():
    rng = np.random.default_rng(3)
    base = _random_symmetric(6, rng)
    delta = _delta(base, [])
    assert delta.num_rows == 0
    assert len(pack_delta(delta)) == packed_size(0, 6) == 8
    assert pack_delta(delta) == b"\x00" * 8
    assert np.array_equal(decode_delta(base, delta), base)


def test_all_rows_delta_round_trips():
    """Every row in the delta: decoding serves the rows verbatim, even of a
    matrix with no symmetry at all."""
    rng = np.random.default_rng(5)
    base = _random_symmetric(7, rng)
    matrix = rng.random((7, 7))
    delta = ResidualDelta(np.arange(7), matrix)
    assert np.array_equal(decode_delta(base, delta), matrix)
    assert len(pack_delta(delta)) == packed_size(7, 7)
    view = DeltaResidual(base, delta)
    assert np.array_equal(view[np.arange(7)], matrix)


def test_codec_validation_rejects_malformed_input():
    rng = np.random.default_rng(17)
    base = _random_symmetric(4, rng)
    with pytest.raises(ValueError, match="out of range"):
        ResidualDelta(rows=np.array([7]), data=np.zeros((1, 4)))
    with pytest.raises(ValueError, match="strictly increasing"):
        ResidualDelta(rows=np.array([2, 2]), data=np.zeros((2, 4)))
    with pytest.raises(ValueError, match="square"):
        DeltaResidual(np.zeros((4, 3)), _delta(base, [1]))
    with pytest.raises(ValueError, match="n=4"):
        decode_delta(_random_symmetric(5, rng), _delta(base, [1]))
    with pytest.raises(ValueError, match="too short"):
        unpack_delta(b"\x00", 4)
    payload = pack_delta(_delta(_perturb_rows(base, [1], rng), [1]))
    with pytest.raises(ValueError, match="mis-sized"):
        unpack_delta(payload + b"\x00", 4)
    with pytest.raises(ValueError, match="mis-sized"):
        unpack_delta(payload, 5)


# ----------------------------------------------------------------------
# Golden layout: the packed bytes, pinned as a literal
# ----------------------------------------------------------------------
def test_golden_packed_delta_layout():
    """The slot byte layout, frozen: count u64 | rows i64 | data f64."""
    base = np.array(
        [
            [0.0, 2.0, 3.0],
            [2.0, 0.0, 6.0],
            [3.0, 6.0, 0.0],
        ]
    )
    matrix = np.array(
        [
            [0.0, 7.5, 3.0],
            [7.5, 0.0, INF],
            [3.0, INF, 0.0],
        ]
    )
    delta = _delta(matrix, [1])
    payload = pack_delta(delta)
    golden = (
        b"\x01\x00\x00\x00\x00\x00\x00\x00"  # k = 1 rows, little-endian u64
        b"\x01\x00\x00\x00\x00\x00\x00\x00"  # row index 1, little-endian i64
        b"\x00\x00\x00\x00\x00\x00\x1e\x40"  # matrix[1, 0] = 7.5
        b"\x00\x00\x00\x00\x00\x00\x00\x00"  # matrix[1, 1] = 0.0
        b"\x00\x00\x00\x00\x00\x00\xf0\x7f"  # matrix[1, 2] = inf
    )
    assert payload == golden
    assert len(payload) == packed_size(1, 3) == 40
    rehydrated = unpack_delta(golden, 3)
    assert np.array_equal(decode_delta(base, rehydrated), matrix)


# ----------------------------------------------------------------------
# DeltaResidual: the worker-side row view
# ----------------------------------------------------------------------
def test_view_serves_every_row_bit_identically(property_budget):
    rng = np.random.default_rng(zlib.crc32(b"delta-view") % 2**32)
    trials = max(4, property_budget)
    for trial in range(trials):
        n = int(rng.choice([1, 2, 3, 6, 13]))
        base = _random_symmetric(n, rng, inf_frac=0.2 if trial % 2 else 0.0)
        k = int(rng.integers(0, n + 1))
        rows = sorted(rng.choice(n, size=k, replace=False)) if k else []
        matrix = _perturb_rows(base, rows, rng)
        view = DeltaResidual(base, _delta(matrix, rows))
        assert view.shape == (n, n) and len(view) == n
        assert view.dtype == np.float64 and view.ndim == 2
        assert np.array_equal(view.dense(), matrix)
        for i in range(n):
            assert np.array_equal(view[i], matrix[i]), (n, rows, i)
            assert np.array_equal(view[i - n], matrix[i - n])  # negative index
        # Fancy indexing: shuffled, duplicated and negative indices.
        idx = rng.integers(-n, n, size=2 * n + 1)
        assert np.array_equal(view[idx], matrix[idx])


def _check_column_reads(view, matrix, rng):
    """``view[rows, col]`` equals the dense read bit for bit, for every column
    and for row sets inside, outside and across the delta."""
    n = matrix.shape[0]
    inside = view.delta.rows
    outside = np.setdiff1d(np.arange(n), inside)
    mixed = rng.integers(-n, n, size=2 * n + 1)  # shuffled, repeated, negative
    for col in range(n):
        for rows in (np.arange(n), inside, outside, mixed):
            got = view[rows, col]
            assert np.array_equal(_bits(got), _bits(matrix[rows, col])), (rows, col)
        for i in range(-n, n):
            assert _bits(view[i, col]) == _bits(matrix[i, col])
        assert np.array_equal(_bits(view[mixed, col - n]), _bits(matrix[mixed, col - n]))


def test_view_serves_column_reads_bit_identically(property_budget):
    """The proposal cache's ``d_u[rows, col]`` reads, column in or out of the delta."""
    rng = np.random.default_rng(zlib.crc32(b"delta-column") % 2**32)
    for trial in range(max(4, property_budget)):
        n = int(rng.choice([1, 2, 3, 6, 13]))
        base = _random_symmetric(n, rng, inf_frac=0.2 if trial % 2 else 0.0)
        k = int(rng.integers(0, n + 1))
        rows = sorted(rng.choice(n, size=k, replace=False)) if k else []
        matrix = _perturb_rows(base, rows, rng)
        _check_column_reads(DeltaResidual(base, _delta(matrix, rows)), matrix, rng)


def test_column_reads_on_bit_asymmetric_deltas():
    """A delta whose rows disagree with their columns (as a repair's block
    does in the last ulp) still serves every ``(row, col)`` entry exactly:
    a row in the delta wins over a column in the delta."""
    rng = np.random.default_rng(31)
    base = rng.random((7, 7))
    matrix = rng.random((7, 7))
    every_row = ResidualDelta(np.arange(7), matrix)
    _check_column_reads(DeltaResidual(base, every_row), matrix, rng)
    # A hand-made delta over rows {1, 4}: rows 1 and 4 verbatim, columns 1
    # and 4 of every other row from the transposed block, base elsewhere.
    block = rng.random((2, 7))
    view = DeltaResidual(base, ResidualDelta(np.array([1, 4]), block))
    dense = view.dense()
    assert np.array_equal(dense[[1, 4]], block)
    assert np.array_equal(dense[[0, 2, 3, 5, 6]][:, [1, 4]], block[:, [0, 2, 3, 5, 6]].T)
    _check_column_reads(view, dense, rng)


def test_view_rejects_unsupported_indexing():
    base = np.zeros((3, 3))
    view = DeltaResidual(base, _delta(base, []))
    with pytest.raises(IndexError):
        view[3]
    with pytest.raises(IndexError):
        view[-4]
    with pytest.raises(IndexError):
        view[[0, 1], 3]
    with pytest.raises(TypeError, match="integer row indexing"):
        view[np.zeros((2, 2), dtype=int)]
    with pytest.raises(TypeError, match="integer row indexing"):
        view[np.array([0.5])]
    with pytest.raises(TypeError, match="one integer column"):
        view[[0, 1], [0, 1]]
    with pytest.raises(TypeError, match="one integer column"):
        view[0, 1, 2]
    with pytest.raises(TypeError, match="dense"):
        np.asarray(view)


def test_score_response_on_view_matches_dense(property_budget):
    """The kernels relax from base + rows exactly as from the dense matrix."""
    rng = np.random.default_rng(zlib.crc32(b"delta-score") % 2**32)
    trials = max(2, property_budget // 4)
    for trial in range(trials):
        n = int(rng.integers(5, 9))
        game = _random_game(("euclidean", "metric", "general")[trial % 3], n, rng)
        profile = _random_profile(n, rng)
        from repro.core.incremental import IncrementalEngine

        engine = IncrementalEngine(game, profile)
        for u in range(n):
            row = int(rng.integers(0, n))
            residual = np.ascontiguousarray(dense_residual(engine.residual(u)))
            stale = _perturb_rows(residual, [row], rng)
            view = DeltaResidual(stale, _delta(residual, [row]))
            dense = view.dense()
            current = profile.strategy(u)
            for response in ("best", "greedy", "single"):
                got = score_response(
                    view, u, game.host.weights[u], game.alpha, current, response
                )
                want = score_response(
                    dense, u, game.host.weights[u], game.alpha, current, response
                )
                assert got == want, (trial, u, response)


# ----------------------------------------------------------------------
# Slot rule: a view is packed whenever its delta fits a slot
# ----------------------------------------------------------------------
def test_view_packs_up_to_a_full_slot_and_only_then_goes_dense():
    """A delta of k rows packs to 8 + 8k + 8kn bytes, which equals the
    slot's n * n * 8 bytes at k = n - 1: that view is still written packed
    over its base; a view of all n rows does not fit and is written dense.
    """
    rng = np.random.default_rng(31)
    n = 6
    weights = _random_symmetric(n, rng)
    base = _random_symmetric(n, rng)
    full = _perturb_rows(base, range(n - 1), rng)
    fits = DeltaResidual(base, _delta(full, range(n - 1)))
    every_row = ResidualDelta(np.arange(n), _random_symmetric(n, rng))
    too_big = DeltaResidual(base, every_row)
    assert packed_size(n - 1, n) == n * n * 8 < packed_size(n, n)
    tasks = [(0, fits, (1,)), (1, too_big, (0,)), (2, fits, ())]
    serial = score_tasks(tasks, weights, 1.0, "single")

    with ParallelEvaluator(weights, 1.0, workers=1) as pool:
        assert pool.evaluate(tasks, "single") == serial
        slots = pool._snapshot.slot_matrices
        assert np.array_equal(slots[0], base)  # the shared base, dense
        assert pool._snapshot.slot_bytes[1].tobytes() == pack_delta(fits.delta)
        assert np.array_equal(slots[2], too_big.dense())  # written dense
        assert pool.stats.bytes_sent == 2 * n * n * 8 + packed_size(n - 1, n)


# ----------------------------------------------------------------------
# Cross-oracle sweep: the delta-slot pool == serial across variants
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_delta_pool_matches_dense_and_serial(variant, property_budget, monkeypatch):
    """serial == pool, trajectories and EngineStats, and the pool's slot
    writes never exceed the dense bytes of the same writes."""
    writes = []

    def counted(original):
        def write(snapshot, slot, data):
            writes.append(slot)
            original(snapshot, slot, data)

        return write

    for name in ("write_slot", "write_slot_packed"):
        original = getattr(SharedSnapshot, name)
        monkeypatch.setattr(SharedSnapshot, name, counted(original))
    rng = np.random.default_rng(zlib.crc32(f"delta-pool-{variant}".encode()) % 2**32)
    trials = max(1, property_budget // 8)
    for trial in range(trials):
        n = int(rng.integers(5, 10))
        game = _random_game(variant, n, rng)
        start = _random_profile(n, rng, density=0.35)
        schedule = ("batched", "sequential")[trial % 2]
        serial = run_dynamics(
            game, start, SimulationConfig(schedule=schedule, max_rounds=8), rng=7
        )
        config = SimulationConfig(schedule=schedule, workers=2, max_rounds=8)
        writes.clear()
        with GameSession(game, config) as session:
            pooled = session.run(start, rng=7)
            stats = session.stats().evaluator_stats
        _assert_identical_runs([serial, pooled])
        assert stats.bytes_sent <= len(writes) * n * n * 8


def test_residual_encoding_is_not_an_argument():
    """The retired slot-encoding knob is no argument of config or evaluator."""
    with pytest.raises(TypeError):
        SimulationConfig(residual_encoding="delta")
    with pytest.raises(ValueError, match="unknown SimulationConfig field"):
        SimulationConfig().replace(residual_encoding="delta")
    game = _random_game("metric", 5, np.random.default_rng(0))
    with pytest.raises(TypeError):
        ParallelEvaluator.for_game(game, workers=1, residual_encoding="delta")


# ----------------------------------------------------------------------
# Chaos: a pool worker killed while a delta batch is in flight
# ----------------------------------------------------------------------
def test_pool_kill_mid_delta_batch_resubmits_bit_identically():
    """A SIGKILLed pool worker with delta slots in flight costs one rebuild.

    The packed deltas of the in-flight chunk survive the executor in their
    shared-memory slots, so the rebuilt pool re-scores the chunk against
    the same slot indices, and the trajectory stays bit-identical to a
    serial run.
    """
    rng = np.random.default_rng(zlib.crc32(b"delta-pool-kill") % 2**32)
    n = 6
    game = _random_game("metric", n, rng)
    start = _random_profile(n, rng)
    serial = run_dynamics(
        game, start, SimulationConfig(schedule="batched", max_rounds=6), rng=7
    )
    plan = FaultPlan(faults=(Fault(kind="kill_pool_worker", at_batch=1),))
    config = SimulationConfig(workers=2, schedule="batched", max_rounds=6)
    with GameSession(game, config) as session:
        session.arm_faults(plan)
        chaotic = session.run(start, rng=7)
        stats = session.stats()
    _assert_identical_runs([serial, chaotic])
    assert stats.evaluator_stats.retries == 1  # one rebuild, no rescue
    assert stats.evaluator_stats.fallbacks == 0
