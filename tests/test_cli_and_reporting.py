"""Tests for the command-line interface and the reproduction report builder."""

from __future__ import annotations

import pytest

from repro.analysis.reporting import ReproductionReport, build_construction_report
from repro.cli import build_parser, main


class TestReproductionReport:
    def test_manual_records_and_markdown(self):
        report = ReproductionReport()
        report.add("Thm. X", "ratio", 1.5, 1.5, True)
        report.add("Thm. Y", "ratio", 2.0, 2.5, False)
        assert not report.all_hold
        md = report.to_markdown()
        assert "Thm. X" in md
        assert md.count("|") > 10
        assert "NO" in md

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_construction_report_all_hold(self, alpha):
        report = build_construction_report(alpha=alpha, gadget_size=6)
        assert report.records
        assert report.all_hold, report.to_markdown()

    def test_report_covers_all_main_constructions(self):
        report = build_construction_report(alpha=2.0, gadget_size=6)
        experiments = {r.experiment for r in report.records}
        assert {"Thm. 15 (Fig. 6)", "Thm. 19 (Fig. 10)", "Thm. 18 (Fig. 9)",
                "Thm. 8 (Fig. 3)", "Thm. 20 remark"} <= experiments


class TestCLI:
    def test_parser_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_table1_command(self, capsys):
        code = main(["table1", "--alpha", "1.0", "--gadget-size", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "T-GNCG" in out

    def test_constructions_command(self, capsys):
        code = main(["constructions", "--alpha", "2.0", "--gadget-size", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Thm. 15" in out

    def test_poa_command(self, capsys):
        code = main(
            ["poa", "--variant", "euclidean", "--n", "5", "--alpha", "1.0",
             "--instances", "1", "--samples", "2", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bound respected  : True" in out

    def test_dynamics_command(self, capsys):
        code = main(
            ["dynamics", "--variant", "tree", "--n", "5", "--alpha", "1.0",
             "--instances", "1", "--runs", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "convergence rate" in out

    def test_simulate_command(self, capsys):
        code = main(["simulate", "--variant", "euclidean", "--n", "6", "--alpha", "1.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cost ratio" in out

    def test_simulate_tree_variant(self, capsys):
        code = main(["simulate", "--variant", "tree", "--n", "6", "--alpha", "2.0", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "optimum cost" in out

    def test_batched_schedule_matches_sequential_output(self, capsys):
        """--schedule batched must print the exact same report as sequential."""
        outputs = {}
        for schedule in ("sequential", "batched"):
            code = main(
                ["simulate", "--variant", "metric", "--n", "6", "--alpha", "1.2",
                 "--seed", "2", "--schedule", schedule]
            )
            assert code == 0
            outputs[schedule] = capsys.readouterr().out
        assert outputs["sequential"] == outputs["batched"]

    def test_dynamics_command_batched(self, capsys):
        code = main(
            ["dynamics", "--variant", "euclidean", "--n", "5", "--alpha", "1.0",
             "--instances", "1", "--runs", "2", "--schedule", "batched"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "convergence rate" in out


class TestBackendFlags:
    def test_config_dump_includes_backend_fields(self, capsys):
        """The dump carries the pool placement fields and nothing retired."""
        import json

        code = main(["config", "dump", "--schedule", "batched", "--workers", "2"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["workers"] == 2
        assert len(data) == 9
        for retired in (
            "backend", "endpoints", "failover", "buffering", "residual_encoding",
            "repair_threshold", "engine",
        ):
            assert retired not in data

    def test_config_dump_buffering_flag(self, capsys, tmp_path):
        """The retired --buffering flag is gone, but an old dumped config
        file that still carries the key keeps driving the CLI."""
        import json

        with pytest.raises(SystemExit):
            main(["config", "dump", "--workers", "2", "--buffering", "double"])
        assert "--buffering" in capsys.readouterr().err
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"workers": 2, "buffering": "double"}))
        assert main(["config", "dump", "--config", str(old)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["workers"] == 2 and "buffering" not in data

    @pytest.mark.parametrize(
        "command",
        [
            ["poa"],
            ["dynamics"],
            ["simulate"],
            ["config", "dump"],
            ["resume", "run.ckpt"],
        ],
        ids=["poa", "dynamics", "simulate", "config-dump", "resume"],
    )
    def test_residual_encoding_flag_is_a_usage_error(self, capsys, command):
        """The retired --residual-encoding flag is rejected on every command."""
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--residual-encoding", "delta"])
        assert excinfo.value.code == 2
        assert "--residual-encoding" in capsys.readouterr().err

    @pytest.mark.parametrize("encoding", ["dense", "delta"])
    def test_twelve_field_config_dump_file_still_drives_the_cli(
        self, capsys, tmp_path, encoding
    ):
        """A config dumped while the slot encoding was a knob loads with
        either value, and prints the same report as a fresh config."""
        import json

        old = {
            "engine": "incremental", "schedule": "batched", "workers": 2,
            "repair_threshold": 0.5, "response": "best", "order": "round_robin",
            "max_rounds": None, "max_candidates": 22, "seed": 0,
            "residual_encoding": encoding, "checkpoint_every": None,
            "checkpoint_path": None,
        }
        path = tmp_path / "old.json"
        path.write_text(json.dumps(old))
        assert main(["config", "dump", "--config", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        retired = ("engine", "residual_encoding", "repair_threshold")
        assert data == {k: v for k, v in old.items() if k not in retired}
        base = ["simulate", "--variant", "metric", "--n", "6", "--seed", "2"]
        assert main(base + ["--schedule", "batched"]) == 0
        fresh_out = capsys.readouterr().out
        assert main(base + ["--config", str(path)]) == 0
        assert capsys.readouterr().out == fresh_out

    @pytest.mark.usefixtures("pool_always")
    def test_simulate_pool_matches_serial_output(self, capsys):
        """--workers 2 prints the exact same report as the serial run."""
        base = ["simulate", "--variant", "metric", "--n", "6", "--alpha", "1.2",
                "--seed", "2", "--schedule", "batched"]
        assert main(base) == 0
        serial_out = capsys.readouterr().out
        for workers in ("2", "3"):
            assert main(base + ["--workers", workers]) == 0
            assert capsys.readouterr().out == serial_out
