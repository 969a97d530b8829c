"""Shared fixtures and the fast/slow split for the test-suite.

The randomized property sweeps (``tests/test_incremental_engine.py`` and
friends) run with a small instance budget by default so the tier-1 command
(``PYTHONPATH=src python -m pytest -x -q``) stays fast.  Tests marked
``@pytest.mark.slow`` — and the larger budgets handed out by the
``property_budget`` fixture — are enabled with either ``--slow`` or an
``-m slow`` marker expression.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.game import NetworkCreationGame
from repro.core.host_graph import HostGraph
from repro.core import parallel
from repro.core.strategy import StrategyProfile


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--slow",
        action="store_true",
        default=False,
        help="run slow randomized sweeps and raise the property-test budgets",
    )


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers", "slow: long randomized sweep (enable with --slow or -m slow)"
    )


def _slow_enabled(config: pytest.Config) -> bool:
    if config.getoption("--slow"):
        return True
    # Slow mode is on when the -m expression selects `slow` positively
    # (`slow`, `slow and not x`, ...) but not when it negates it
    # (`not slow`) or never mentions it.
    tokens = (config.getoption("-m") or "").replace("(", " ").replace(")", " ").split()
    return any(
        tok == "slow" and (i == 0 or tokens[i - 1] != "not")
        for i, tok in enumerate(tokens)
    )


def pytest_collection_modifyitems(config: pytest.Config, items: list[pytest.Item]) -> None:
    if _slow_enabled(config):
        return
    skip_slow = pytest.mark.skip(reason="slow sweep: pass --slow (or -m slow) to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture
def property_budget(request: pytest.FixtureRequest) -> int:
    """Number of random instances per property sweep (larger under ``--slow``)."""
    return 40 if _slow_enabled(request.config) else 8


@pytest.fixture
def pool_always():
    """Send every evaluator batch to the worker pool for the test's duration.

    The evaluator is serial-first: small batches, which is what test-sized
    instances produce, never reach the pool.  Tests that exercise the pool
    wrap themselves in :func:`repro.core.parallel.pool_always`.
    """
    with parallel.pool_always():
        yield


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_euclidean_game() -> NetworkCreationGame:
    """Five agents in the plane, alpha = 1 — the workhorse metric instance."""
    points = np.array(
        [
            [0.0, 0.0],
            [1.0, 0.0],
            [0.0, 1.0],
            [1.0, 1.0],
            [0.5, 0.5],
        ]
    )
    return NetworkCreationGame(HostGraph.from_points(points, p=2), alpha=1.0)


@pytest.fixture
def small_tree_game() -> NetworkCreationGame:
    """A five-node tree metric with alpha = 2."""
    edges = [(0, 1, 1.0), (1, 2, 2.0), (1, 3, 0.5), (3, 4, 1.5)]
    return NetworkCreationGame(HostGraph.from_tree(edges, 5), alpha=2.0)


@pytest.fixture
def one_two_game() -> NetworkCreationGame:
    """A six-node 1-2 host graph with alpha = 0.75."""
    one_edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]
    return NetworkCreationGame(HostGraph.one_two(one_edges, 6), alpha=0.75)


@pytest.fixture
def star_profile_5() -> StrategyProfile:
    return StrategyProfile.star(5, center=0)
