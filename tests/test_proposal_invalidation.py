"""The batched schedule's proposal invalidation against its per-edge loop.

:meth:`repro.core.dynamics._ProposalCache.on_move` drops every cached
proposal whose residual rows an applied move can change.  It gathers the
mover's column and every event column over an agent's rows in one read and
runs the added-edge test and the removed-edge ``isclose`` test as one
expression each.  The reference below is the loop it replaced, frozen: one
column read and one test per event, ``np.isclose(rtol=1e-9, atol=1e-9)``
per removed edge.  The battery checks that both keep the same proposals on
random moves — adds, deletes, swaps and ownership-exclusivity flips of
double-bought edges — over dense, :class:`~repro.core.residual_delta.DeltaResidual`
and :class:`~repro.core.shortest_paths.PinnedResidual` residuals with
``inf`` entries, ``inf`` host weights and pairs placed just inside and just
outside the ``1e-9`` slack.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.best_response import BestResponseResult
from repro.core.dynamics import _ProposalCache
from repro.core.game import NetworkCreationGame
from repro.core.host_graph import HostGraph
from repro.core.residual_delta import DeltaResidual, ResidualDelta
from repro.core.shortest_paths import PinnedResidual
from repro.core.strategy import StrategyProfile

# Relative offsets of a near-tight pair: exact, inside and outside the slack.
_OFFSETS = (0.0, 4e-10, -4e-10, 3e-9, -3e-9, 1e-15)


def _reference_kept(cache: _ProposalCache, mover, old_profile, new_profile) -> set[int]:
    """The agents whose proposals the old per-edge loop keeps."""
    kept = set(cache._proposals) - {mover}
    old_own, new_own = old_profile.ownership, new_profile.ownership
    old_row = old_own[mover] | old_own[:, mover]
    new_row = new_own[mover] | new_own[:, mover]
    added = np.nonzero(new_row & ~old_row)[0]
    removed = np.nonzero(old_row & ~new_row)[0]
    flipped = np.nonzero((old_own[mover] != new_own[mover]) & (old_row == new_row))[0]
    if added.size == 0 and removed.size == 0 and flipped.size == 0:
        return kept
    w_row = cache._weights[mover]
    flipped_set = set(int(t) for t in flipped)
    for u in sorted(kept):
        d_u = cache._proposals[u][1]
        rows = cache._agent_rows(u)
        to_mover = d_u[rows, mover]
        add_events, remove_events = list(added), list(removed)
        if u in flipped_set and old_own[u, mover]:
            if new_own[mover, u]:
                add_events.append(u)
            else:
                remove_events.append(u)
        dirty = False
        for t in add_events:
            to_t = d_u[rows, t]
            if np.any(to_mover + w_row[t] < to_t) or np.any(to_t + w_row[t] < to_mover):
                dirty = True
                break
        if not dirty:
            for t in remove_events:
                to_t = d_u[rows, t]
                w = w_row[t]
                if np.any(np.isclose(to_mover + w, to_t, rtol=1e-9, atol=1e-9)) or np.any(
                    np.isclose(to_t + w, to_mover, rtol=1e-9, atol=1e-9)
                ):
                    dirty = True
                    break
        if dirty:
            kept.discard(u)
    return kept


def _residual(rng, n: int, mover: int, w_row: np.ndarray, kind: str):
    """A random symmetric matrix with ``inf`` entries and near-tight pairs
    ``d[c, t] ~ d[c, mover] + w[t]``, dense or as a view."""
    d = np.round(rng.uniform(0.0, 6.0, size=(n, n)), 1)
    d[rng.random((n, n)) < 0.15] = np.inf
    d = np.minimum(d, d.T)
    np.fill_diagonal(d, 0.0)
    for _ in range(int(rng.integers(0, 3 * n))):
        c, t = (int(x) for x in rng.integers(0, n, size=2))
        if c in (t, mover) or t == mover:
            continue
        value = (d[c, mover] + w_row[t]) * (1.0 + float(rng.choice(_OFFSETS)))
        if rng.random() < 0.5:
            value = (d[c, t] + w_row[t]) * (1.0 + float(rng.choice(_OFFSETS)))
            c, t = c, mover
        d[c, t] = d[t, c] = value
    if kind == "dense":
        return d
    if kind == "delta":
        rows = np.flatnonzero(rng.random(n) < 0.3)
        base = d.copy()
        base[rows] += 1.0  # stale rows and columns the delta must cover
        base[:, rows] += 1.0
        return DeltaResidual(base, ResidualDelta(rows, d[rows]))
    raw = d.copy()
    lower = rng.random((n, n)) < 0.3
    raw[lower] = raw[lower] + 0.5  # pinned reads take min(raw, raw.T) == d
    return PinnedResidual(raw)


def _move(rng, owns: np.ndarray, mover: int) -> np.ndarray:
    """A new ownership row for ``mover``: toggles of one to three targets,
    biased towards targets that own the reverse edge (exclusivity flips)."""
    n = owns.shape[0]
    new = owns.copy()
    others = np.delete(np.arange(n), mover)
    reverse = others[owns[others, mover]]
    for _ in range(int(rng.integers(1, 4))):
        pool = reverse if reverse.size and rng.random() < 0.5 else others
        t = int(rng.choice(pool))
        new[mover, t] = not new[mover, t]
    return new


def _check(n: int, seed: int, kinds: tuple[str, ...]) -> None:
    rng = np.random.default_rng(seed)
    host = np.round(rng.uniform(0.5, 3.0, size=(n, n)), 1)
    host[rng.random((n, n)) < 0.2] = np.inf
    host = np.minimum(host, host.T)
    np.fill_diagonal(host, 0.0)
    game = NetworkCreationGame(HostGraph(host), 1.0)
    owns = rng.random((n, n)) < 0.3
    np.fill_diagonal(owns, False)
    mover = int(rng.integers(n))
    old = StrategyProfile(owns)
    new = StrategyProfile(_move(rng, owns, mover))

    cache = _ProposalCache(game)
    for u in range(n):
        if rng.random() < 0.8:
            d_u = _residual(rng, n, mover, host[mover], str(rng.choice(kinds)))
            dummy = BestResponseResult(u, frozenset(), 0.0, 0.0, "single")
            cache.store(u, dummy, d_u)
    want = _reference_kept(cache, mover, old, new)
    cache.on_move(mover, old, new)
    assert set(cache._proposals) == want


_KINDS = st.sampled_from((("dense",), ("delta",), ("pinned",), ("dense", "delta", "pinned")))
_TIER1 = settings(derandomize=True, database=None, deadline=None, max_examples=60)
_SLOW = settings(derandomize=True, database=None, deadline=None, max_examples=400)


@_TIER1
@given(st.integers(3, 16), st.integers(0, 2**32 - 1), _KINDS)
def test_on_move_keeps_what_the_per_edge_loop_keeps(n, seed, kinds):
    _check(n, seed, kinds)


@pytest.mark.slow
@_SLOW
@given(st.integers(3, 16), st.integers(0, 2**32 - 1), _KINDS)
def test_on_move_keeps_what_the_per_edge_loop_keeps_full_budget(n, seed, kinds):
    _check(n, seed, kinds)


def test_block_reads_equal_column_reads():
    """``residual_block`` on each view equals the same columns read one at a time."""
    from repro.core.residual_delta import residual_block

    rng = np.random.default_rng(4)
    n = 12
    rows = np.array([0, 3, 4, 11])
    cols = np.array([5, 3, 0, 11, 3])
    for kind in ("dense", "delta", "pinned"):
        view = _residual(rng, n, 2, np.ones(n), kind)
        got = residual_block(view, rows, cols)
        want = np.stack([view[rows, int(c)] for c in cols], axis=1)
        assert got.shape == (rows.size, cols.size)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
