"""The decremental repair's neighbour-first affected test, against the full grid.

:func:`~repro.core.shortest_paths.decremental_distances` decides which
sources to re-solve with the pair test
``d(x, v) + d(v, y) <= d(x, y) + 1e-9 * (1 + |d(x, y)|)`` on finite pairs.
It runs the test on the columns of ``v``'s pre-removal neighbours first
and on a row's full ``n`` columns only when no neighbour column fires.
The battery below keeps the former form — the prefilter, then the test on
every column of every kept row — as a test-side oracle, and checks on
tie-heavy hosts (unit, 1-2, integer trees), on random metrics and on
networks with pairs placed inside and just outside the slack that both
pick the same sources, report the same ``affected_sources`` and
``rebuilt``, and serve the same residual bits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.host_graph import HostGraph
from repro.core.residual_delta import DeltaResidual
from repro.core.shortest_paths import (
    all_pairs_shortest_paths,
    decremental_distances,
    dijkstra_rows,
)
from repro.metrics.generators import random_metric_host, random_one_two_host, unit_host

from test_shortest_paths import _battery_network, _csr

_TOL = 1e-9


def _full_grid_sources(d: np.ndarray, new_weights: np.ndarray, v: int, removed) -> np.ndarray:
    """The former affected test: the neighbour prefilter, then the pair
    test on every column of the rows it keeps.  Sorted sources, ``v`` in."""
    n = d.shape[0]
    flagged = np.isfinite(new_weights[v])
    flagged[np.asarray(removed, dtype=np.intp)] = True
    flagged[v] = False
    neighbours = np.flatnonzero(flagged)
    dv = d[v]
    reachable = np.isfinite(dv)
    delta = 4.0 * _TOL * (1.0 + dv + dv[reachable].max())
    near = (dv[neighbours][:, None] + dv[None, :] <= d[neighbours] + delta).any(axis=0)
    near &= reachable
    near[v] = False
    rows = np.flatnonzero(near)
    block = d[rows]
    finite = np.isfinite(block)
    via_v = d[rows, v][:, None] + d[v][None, :]
    slack = _TOL * (1.0 + np.where(finite, np.abs(block), 0.0))
    affected = finite & (via_v <= block + slack)
    affected[:, v] = False
    mask = np.zeros(n, dtype=bool)
    mask[rows[affected.any(axis=1)]] = True
    mask[v] = True
    return np.flatnonzero(mask)


def _integer_tree_host(n: int, rng: np.random.Generator) -> np.ndarray:
    """A tree metric with integer edge weights 1..4: ties everywhere."""
    edges = [(int(rng.integers(0, v)), v, float(rng.integers(1, 5))) for v in range(1, n)]
    return HostGraph.from_tree(edges, n).weights.copy()


def _host(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "unit":
        return unit_host(n).weights.copy()
    if kind == "one_two":
        return random_one_two_host(n, rng=rng).weights.copy()
    if kind == "int_tree":
        return _integer_tree_host(n, rng)
    return random_metric_host(n, rng=rng).weights.copy()


# Relative shortfalls of a planted x - y edge below d(x, v) + d(v, y):
# zero (tight), inside the 1e-9 slack, and just or well outside it.
_SHORTFALLS = (0.0, 1e-11, 3e-10, 9e-10, 1.1e-9, 3e-9, 1e-8)


def _plant_near_tight_pairs(weights: np.ndarray, v: int, rng: np.random.Generator) -> np.ndarray:
    """``weights`` with edges ``x - y`` of weight ``(d(x, v) + d(v, y)) * (1 - s)``
    for a few random pairs, ``s`` from :data:`_SHORTFALLS`: pairs whose
    through-``v`` path is tight, inside the slack or just outside it."""
    d = all_pairs_shortest_paths(weights)
    n = weights.shape[0]
    out = weights.copy()
    for _ in range(int(rng.integers(1, 2 * n))):
        x, y = (int(i) for i in rng.choice(n, size=2, replace=False))
        if v in (x, y) or not np.isfinite(d[x, v] + d[v, y]):
            continue
        w = (d[x, v] + d[v, y]) * (1.0 - float(rng.choice(_SHORTFALLS)))
        out[x, y] = out[y, x] = w
    return out


def _plant_detour(weights: np.ndarray, v: int, rng: np.random.Generator) -> np.ndarray:
    """``weights`` with a row decided off the neighbour columns.

    ``v`` keeps two edges, to ``a`` and ``b``, and a leaf ``y`` hangs
    behind ``b``.  When ``x`` reaches ``v`` through ``a``, column ``a``
    cannot fire for row ``x``, and a planted ``x - b`` edge undercuts
    ``x -> v -> b`` by a few times the slack of that pair, so column ``b``
    does not fire either, though the prefilter's wider slack keeps ``x``.
    The pair ``(x, y)`` is short by the same gap: with ``y`` far out that
    is inside its much larger slack, and only the full-row test marks
    ``x``; with ``y`` close it is not, and ``x`` must stay unmarked.
    """
    n = weights.shape[0]
    if n < 5:
        return weights
    x, a, b, y = (int(i) for i in rng.choice(np.delete(np.arange(n), v), size=4, replace=False))
    out = weights.copy()
    far = 100.0 * (out[np.isfinite(out)].max() + 1.0)
    for hub in (v, y):
        out[hub, :] = out[:, hub] = np.inf
        out[hub, hub] = 0.0
    out[v, a] = out[a, v] = float(rng.uniform(0.5, 2.0))
    out[v, b] = out[b, v] = float(rng.uniform(0.5, 2.0))
    out[y, b] = out[b, y] = far if rng.random() < 0.5 else float(rng.uniform(0.5, 2.0))
    d = all_pairs_shortest_paths(out)
    through = d[x, v] + d[v, b]
    if np.isfinite(through) and d[x, v] < d[x, b] + out[b, v]:
        gap = _TOL * (1.0 + through) * float(rng.choice((1.5, 3.0, 10.0)))
        out[x, b] = out[b, x] = through - gap
    return out


@st.composite
def _cases(draw):
    kind = draw(st.sampled_from(("unit", "one_two", "int_tree", "metric", "slack", "detour")))
    n = draw(st.integers(2, 24))
    seed = draw(st.integers(0, 2**32 - 1))
    as_csr = draw(st.booleans())
    padded = draw(st.booleans())
    return kind, n, seed, as_csr, padded


def _check(kind, n, seed, as_csr, padded):
    rng = np.random.default_rng(seed)
    host = _host("metric" if kind in ("slack", "detour") else kind, n, rng)
    weights = _battery_network(host, rng)
    v = int(rng.integers(0, n))
    if kind == "slack":
        weights = _plant_near_tight_pairs(weights, v, rng)
    elif kind == "detour":
        weights = _plant_detour(weights, v, rng)
    dist = all_pairs_shortest_paths(weights)
    incident = np.flatnonzero(np.isfinite(weights[v]))
    incident = incident[incident != v]
    if incident.size == 0:
        return
    # Drop all of v's edges now and then: v ends up isolated.
    keep = rng.random(incident.size) < (0.0 if rng.random() < 0.25 else 0.5)
    drop = incident[~keep] if (~keep).any() else incident[:1]
    new = weights.copy()
    new[v, drop] = new[drop, v] = np.inf
    # Padding with vertices that were never neighbours of v only widens
    # the prefilter; it must not change the sources.
    removed = np.concatenate((drop, rng.choice(n, size=3) if padded else [])).astype(int)
    given_weights = _csr(new) if as_csr else new

    sources = _full_grid_sources(dist, new, v, removed)
    expected = dist.copy()
    rows = dijkstra_rows(new, sources)
    expected[sources, :] = rows
    expected[:, sources] = rows.T
    rebuild = all_pairs_shortest_paths(new)
    for frac in (0.0, 0.3, 0.5, 1.0):
        got = decremental_distances(
            dist, given_weights, v, removed=removed, max_affected_fraction=frac
        )
        budget = max(1, int(np.ceil(frac * n)))
        assert got.affected_sources == sources.size
        assert got.rebuilt == (sources.size > budget)
        if got.rebuilt:
            assert np.array_equal(got.distances.view(np.int64), rebuild.view(np.int64))
        else:
            assert isinstance(got.residual, DeltaResidual)
            assert np.array_equal(got.residual.delta.rows, sources)
            assert np.array_equal(got.distances.view(np.int64), expected.view(np.int64))


_TIER1 = settings(derandomize=True, database=None, deadline=None, max_examples=80)
_SLOW = settings(derandomize=True, database=None, deadline=None, max_examples=600)


@_TIER1
@given(_cases())
def test_neighbour_first_test_equals_the_full_grid(case):
    _check(*case)


@pytest.mark.slow
@_SLOW
@given(_cases())
def test_neighbour_first_test_equals_the_full_grid_full_budget(case):
    _check(*case)


def test_planted_pairs_straddle_the_slack():
    """The slack hosts do exercise the boundary: across seeds, some planted
    pair is affected only thanks to the slack and some misses it narrowly."""
    inside = outside = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = 12
        weights = _battery_network(_host("metric", n, rng), rng)
        v = int(rng.integers(0, n))
        d = all_pairs_shortest_paths(_plant_near_tight_pairs(weights, v, rng))
        via = d[:, v][:, None] + d[v][None, :]
        finite = np.isfinite(d) & np.isfinite(via)
        gap = np.where(finite, via - d, np.inf)
        slack = _TOL * (1.0 + np.where(finite, d, 0.0))
        inside += int(((gap > 0) & (gap <= slack)).sum())
        outside += int(((gap > slack) & (gap <= 20 * slack)).sum())
    assert inside and outside


@pytest.mark.parametrize("leaf", [100.0, 1.0], ids=["far-leaf", "near-leaf"])
def test_a_row_off_the_neighbour_columns_is_decided_on_its_full_row(leaf):
    """Path ``x - a - v - b - y`` plus an ``x - b`` edge undercutting
    ``x -> v -> b`` by 1e-8: column ``b`` misses its slack (4e-9) for row
    ``x``, but the prefilter (2e-8 and up) keeps the row.  Behind a far leaf
    ``y`` the pair ``(x, y)``, short by the same 1e-8, is inside its slack
    (about 1e-7) and ``x`` is a source; behind a near one it is outside
    (5e-9) and ``x`` is not.  Either way the sources are the full grid's."""
    x, a, v, b, y = range(5)
    w = np.full((5, 5), np.inf)
    np.fill_diagonal(w, 0.0)
    for p, q, weight in ((x, a, 1.0), (a, v, 1.0), (v, b, 1.0), (b, y, leaf), (x, b, 3.0 - 1e-8)):
        w[p, q] = w[q, p] = weight
    dist = all_pairs_shortest_paths(w)
    new = w.copy()
    new[v, b] = new[b, v] = np.inf
    sources = _full_grid_sources(dist, new, v, [b])
    assert (x in sources) == (leaf == 100.0)
    got = decremental_distances(dist, new, v, removed=[b], max_affected_fraction=1.0)
    assert np.array_equal(got.residual.delta.rows, sources)
