"""Dijkstra fallbacks as pinned row views: every read equals the pinned matrix.

Above :data:`~repro.core.shortest_paths.FLOYD_WARSHALL_MAX_N` the engine
caches a fallback residual as a
:class:`~repro.core.shortest_paths.PinnedResidual`: the raw, unpinned
Dijkstra matrix ``D`` of a carry, served as ``min(D, D.T)`` only on read.
scipy's per-source Dijkstra makes ``D`` asymmetric in the last ulp, and the
view must hide that exactly.  The battery draws raw matrices on the
tie-heavy hosts of the shortest-path batteries (unit, 1-2, zero-weight,
tree, metric and general hosts, some cut into parts) plus paths whose raw
entries sit hundreds of ulp above their pins, and checks every read the
view serves against ``_pin(D)`` bit for bit: scalar, negative, 1-D, empty
and repeated rows; ``view[rows, col]`` with scalar and array rows; and
``dense()``.  Implicit conversion to an array must raise.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.residual_delta import dense_residual
from repro.core.shortest_paths import (
    PinnedResidual,
    _as_graph,
    _dijkstra,
    _pin,
    apsp_scipy,
    carry_dijkstra,
)

from test_shortest_paths import BATTERY_HOSTS, _battery_host, _battery_network, _csr

_TIER1 = settings(derandomize=True, database=None, deadline=None, max_examples=80)
_SLOW = settings(derandomize=True, database=None, deadline=None, max_examples=600)


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _heavy_path(n: int) -> np.ndarray:
    """A path whose first edge weighs 1e16 and the rest 0.99: summed from
    either end the 0.99s round differently, so ``D`` is far from symmetric."""
    w = np.full((n, n), np.inf)
    np.fill_diagonal(w, 0.0)
    idx = np.arange(n - 1)
    w[idx, idx + 1] = w[idx + 1, idx] = 0.99
    w[0, 1] = w[1, 0] = 1e16
    return w


@st.composite
def _raw_matrices(draw):
    kind = draw(st.sampled_from((*BATTERY_HOSTS, "heavy_path")))
    n = draw(st.integers(1, 24))
    seed = draw(st.integers(0, 2**32 - 1))
    cut = draw(st.booleans())
    as_csr = draw(st.booleans())
    return kind, n, seed, cut, as_csr


def _weights(kind, n, seed, cut, as_csr):
    rng = np.random.default_rng(seed)
    if kind == "heavy_path":
        weights = _heavy_path(max(n, 2) * 20)
    else:
        weights = _battery_network(_battery_host(kind, n, rng), rng)
    if cut:  # drop every edge across a random vertex split
        side = rng.random(weights.shape[0]) < 0.5
        weights = weights.copy()
        weights[np.ix_(side, ~side)] = np.inf
        weights[np.ix_(~side, side)] = np.inf
    return (_csr(weights) if as_csr else weights), rng


def _check_reads(kind, n, seed, cut, as_csr):
    weights, rng = _weights(kind, n, seed, cut, as_csr)
    raw = _dijkstra(_as_graph(weights))
    pinned = _pin(raw)
    assert np.array_equal(_bits(pinned), _bits(apsp_scipy(weights)))
    view = PinnedResidual(raw)
    size = raw.shape[0]
    assert view.shape == (size, size) and len(view) == size
    assert view.dtype == np.float64 and view.ndim == 2
    assert np.array_equal(_bits(view.dense()), _bits(pinned))
    assert np.array_equal(_bits(dense_residual(view)), _bits(pinned))
    for i in range(-size, size):  # every scalar row, negative ones included
        assert np.array_equal(_bits(view[i]), _bits(pinned[i]))
    some = rng.integers(-size, size, size=2 * size + 1)  # repeats and negatives
    for rows in (some, some.tolist(), np.zeros(0, dtype=np.int64), np.arange(size)):
        assert np.array_equal(_bits(view[rows]), _bits(pinned[rows]))
    for col in (*range(size), -1):
        assert np.array_equal(_bits(view[some, col]), _bits(pinned[some, col]))
        i = int(some[0])
        assert _bits(view[i, col]) == _bits(pinned[i, col])
    with pytest.raises(TypeError, match="dense"):
        np.asarray(view)
    with pytest.raises(IndexError):
        view[size]


@_TIER1
@given(_raw_matrices())
def test_pinned_view_reads_equal_the_pinned_matrix(case):
    _check_reads(*case)


@pytest.mark.slow
@_SLOW
@given(_raw_matrices())
def test_pinned_view_reads_equal_the_pinned_matrix_full_budget(case):
    _check_reads(*case)


def test_heavy_path_raw_matrix_is_far_from_its_pin():
    """The battery's heavy paths do exercise asymmetric raw matrices."""
    raw = carry_dijkstra(_heavy_path(400)).unpinned
    gap = raw.view(np.int64) - _pin(raw).view(np.int64)
    assert gap.min() == 0 and gap.max() > 100


def test_view_rejects_bad_shapes_and_indices():
    with pytest.raises(ValueError, match="square"):
        PinnedResidual(np.zeros((2, 3)))
    view = PinnedResidual(np.zeros((3, 3)))
    with pytest.raises(TypeError, match="1-D integer"):
        view[np.zeros((1, 1), dtype=np.int64)]
    with pytest.raises(TypeError, match="one integer column"):
        view[[0, 1], [0, 1]]
    with pytest.raises(TypeError, match="dense"):
        np.minimum(view, 1.0)
