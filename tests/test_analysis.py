"""Tests for the experiment layer (sweeps, dynamics studies, Table 1, parallel runner)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    dynamics_convergence_experiment,
    poa_experiment,
    run_parallel,
    sweep_alpha,
    table1_summary,
)
from repro.analysis.experiments import host_factory
from repro.analysis.table1 import format_table1
from repro.core.bounds import metric_poa_upper
from repro.core.host_graph import ModelVariant
from repro.core.session import SimulationConfig


class TestHostFactory:
    @pytest.mark.parametrize(
        "variant,expected",
        [
            ("ncg", ModelVariant.NCG),
            ("one_two", (ModelVariant.ONE_TWO, ModelVariant.NCG)),
            ("tree", ModelVariant.TREE),
            ("euclidean", ModelVariant.METRIC),
            ("metric", ModelVariant.METRIC),
            ("general", (ModelVariant.GENERAL, ModelVariant.METRIC)),
        ],
    )
    def test_variants(self, variant, expected, rng):
        host = host_factory(variant, 5, rng)
        expected_tuple = expected if isinstance(expected, tuple) else (expected,)
        assert host.classify() in expected_tuple or host.classify().is_special_case_of(
            expected_tuple[0]
        )

    def test_unknown_variant(self, rng):
        with pytest.raises(ValueError):
            host_factory("bogus", 5, rng)


class TestPoAExperiment:
    def test_euclidean_experiment_respects_bound(self):
        summary = poa_experiment(
            "euclidean",
            5,
            1.0,
            SimulationConfig(seed=1),
            instances=2,
            samples_per_instance=3,
        )
        assert summary.equilibria_found > 0
        assert summary.bound_respected
        assert summary.max_ratio <= metric_poa_upper(1.0) + 1e-6
        assert summary.mean_ratio <= summary.max_ratio + 1e-12

    def test_tree_experiment(self):
        summary = poa_experiment(
            "tree",
            5,
            2.0,
            SimulationConfig(seed=2),
            instances=2,
            samples_per_instance=3,
        )
        assert summary.variant == "tree"
        assert summary.upper_bound == pytest.approx(metric_poa_upper(2.0))

    def test_sweep_alpha_shapes(self):
        results = sweep_alpha("euclidean", 5, [0.5, 2.0], instances=1, samples_per_instance=2)
        assert len(results) == 2
        assert results[0].alpha == 0.5
        assert results[1].alpha == 2.0


class TestDynamicsExperiment:
    def test_convergence_statistics(self):
        summary = dynamics_convergence_experiment(
            "euclidean",
            5,
            1.0,
            SimulationConfig(seed=3),
            instances=2,
            runs_per_instance=2,
        )
        assert summary.runs == 4
        assert 0 <= summary.converged_runs <= summary.runs
        assert 0.0 <= summary.convergence_rate <= 1.0

    def test_tree_dynamics_converge_often(self):
        summary = dynamics_convergence_experiment(
            "tree", 5, 1.0, SimulationConfig(seed=4), instances=2, runs_per_instance=2
        )
        assert summary.converged_runs >= 1


class TestTable1:
    def test_rows_and_bounds(self):
        rows = table1_summary(alpha=1.0, gadget_size=6)
        models = {row.model for row in rows}
        assert {"1-2-GNCG", "T-GNCG", "M-GNCG", "GNCG"} <= models
        for row in rows:
            assert np.isnan(row.poa_lower_measured) or (
                row.poa_lower_measured <= row.poa_upper_bound + 1e-6
            )
        tree_row = next(row for row in rows if row.model == "T-GNCG")
        assert tree_row.ne_exists_verified

    def test_formatting(self):
        rows = table1_summary(alpha=1.0, gadget_size=6)
        text = format_table1(rows)
        assert "T-GNCG" in text
        assert "PoA" in text
        assert len(text.splitlines()) == len(rows) + 2


class TestParallelRunner:
    def test_serial_execution(self):
        tasks = [(poa_experiment, ("euclidean", 4, 1.0)), (poa_experiment, ("tree", 4, 1.0))]
        results = run_parallel(tasks, workers=0)
        assert len(results) == 2
        assert results[0].variant == "euclidean"
        assert results[1].variant == "tree"

    def test_single_task_runs_inline(self):
        results = run_parallel([(len, ([1, 2, 3],))], workers=4)
        assert results == [3]

    def test_process_pool_execution(self):
        tasks = [
            (poa_experiment, ("euclidean", 4, 0.5)),
            (poa_experiment, ("euclidean", 4, 1.5)),
        ]
        results = run_parallel(tasks, workers=2)
        assert [r.alpha for r in results] == [0.5, 1.5]
