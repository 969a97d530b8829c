"""Docs-coverage checks: the documentation surface must track the code.

Five subsystems' invariants used to live only in commit messages; PR 5
moved them into ``docs/``.  These checks keep that surface honest:

* the field table of ``docs/api.md`` has exactly one row per
  :class:`~repro.core.session.SimulationConfig` field (adding a config
  knob without documenting it fails CI, and so does a row left behind for
  a field that no longer exists), and its ``EvaluatorStats`` list names
  exactly the :class:`~repro.core.parallel.EvaluatorStats` fields;
* every benchmark module is mapped in ``docs/benchmarks.md`` (adding a
  benchmark without saying which paper figure/theorem it certifies fails
  CI);
* ``docs/architecture.md`` names every layer of the evaluation stack and
  the bit-identical-trajectory invariant;
* the README documents the config-file workflow (``repro config dump`` +
  ``--config``) and the evaluator matrix;
* ``docs/api.md`` teaches one way to configure a run: it names no removed
  keyword surface (the best-response wrapper, ``workers_per_task``, a
  ``session=`` argument on a free function).
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

from repro.core.parallel import EvaluatorStats
from repro.core.session import SimulationConfig

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"


def _config_field_table_rows(api: str) -> list[str]:
    """Field names of the rows of the SimulationConfig table in docs/api.md."""
    lines = api.splitlines()
    start = next(
        i for i, line in enumerate(lines)
        if re.match(r"\s*\| field\s+\| default\s+\| meaning \|", line)
    )
    rows = []
    for line in lines[start + 2:]:  # skip the header and its separator
        if not line.lstrip().startswith("|"):
            break
        match = re.match(r"\s*\| `(\w+)`", line)
        assert match, f"malformed docs/api.md field-table row: {line!r}"
        rows.append(match.group(1))
    return rows


def test_api_doc_tables_cover_every_simulation_config_field():
    rows = _config_field_table_rows((DOCS / "api.md").read_text())
    fields = [field.name for field in dataclasses.fields(SimulationConfig)]
    missing = [name for name in fields if name not in rows]
    assert not missing, (
        f"SimulationConfig field(s) {missing} are not documented in the "
        "docs/api.md field table (rows look like '| `field` | default | ...')"
    )
    stale = [name for name in rows if name not in fields]
    assert not stale, (
        f"the docs/api.md field table documents {stale}, which are not "
        "SimulationConfig fields"
    )
    assert len(rows) == len(set(rows)), "duplicate docs/api.md field-table rows"


def _evaluator_stats_list(api: str) -> list[str]:
    """Field names of the nested ``EvaluatorStats`` bullet list in docs/api.md."""
    lines = api.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("* `EvaluatorStats`"))
    names = []
    for line in lines[start + 1:]:
        if line.startswith("    "):  # a wrapped bullet continues
            continue
        if not line.startswith("  * "):
            break
        names.extend(re.findall(r"`(\w+)`", line.split(" — ")[0]))
    return names


def test_api_doc_lists_exactly_the_evaluator_stats_fields():
    listed = _evaluator_stats_list((DOCS / "api.md").read_text())
    fields = [field.name for field in dataclasses.fields(EvaluatorStats)]
    assert sorted(listed) == sorted(fields), (
        f"docs/api.md lists EvaluatorStats fields {listed}; the dataclass has {fields}"
    )


def test_benchmarks_doc_maps_every_benchmark_module():
    doc = (DOCS / "benchmarks.md").read_text()
    missing = [
        path.name
        for path in sorted((REPO / "benchmarks").glob("bench_*.py"))
        if path.name not in doc
    ]
    assert not missing, (
        f"benchmark module(s) {missing} are not mapped in docs/benchmarks.md"
    )


def test_architecture_doc_names_the_evaluation_stack():
    doc = (DOCS / "architecture.md").read_text()
    for term in (
        "IncrementalEngine",
        "ParallelEvaluator",
        "SharedSnapshot",
        "GameSession",
        "bit-identical",
        "Failure semantics",
        "Slots in the engine's own residual forms",
        "pack_delta",
        "Serial-first dispatch",
        "pool_always",
        "in_process_batches",
        "_POOL_MATRIX_WORK",
    ):
        assert term in doc, f"docs/architecture.md does not mention {term}"


def test_architecture_doc_specifies_the_pool_rescue():
    doc = (DOCS / "architecture.md").read_text()
    for term in (
        "In-place rebuild",
        "In-process fallback",
        "BrokenProcessPool",
        "score_tasks",
        "fallbacks",
        "FaultPlan",
        "emergency checkpoint",
    ):
        assert term in doc, f"docs/architecture.md does not mention {term}"


def test_api_doc_documents_the_degradation_surface():
    api = (DOCS / "api.md").read_text()
    for term in (
        "BrokenProcessPool",
        "EvaluatorError",
        "fallbacks",
        "FaultPlan",
        "arm_faults",
        "repro chaos",
        "NOT EXERCISED",
        "RETIRED_FIELDS",
    ):
        assert term in api, f"docs/api.md does not mention {term}"


def test_development_doc_documents_every_lint_rule():
    """Every registered lint rule id (and the engine's own ids) has a row
    in the docs/development.md invariant-rules table."""
    from repro.tools.engine import PRAGMA_RULE_ID, SYNTAX_RULE_ID, registered_rules

    doc = (DOCS / "development.md").read_text()
    missing = [
        rule_id
        for rule_id in (*registered_rules(), PRAGMA_RULE_ID, SYNTAX_RULE_ID)
        if f"| `{rule_id}`" not in doc
    ]
    assert not missing, (
        f"lint rule(s) {missing} have no row in the docs/development.md "
        "invariant-rules table"
    )


def test_development_doc_specifies_the_lint_surface():
    doc = (DOCS / "development.md").read_text()
    for term in (
        "repro lint",
        "disable=",
        "bit-identical",
        "static-analysis",
        "mypy",
        "ruff",
        "pyproject.toml",
        "not suppressible",
    ):
        assert term in doc, f"docs/development.md does not mention {term!r}"


def test_lint_checker_is_cross_referenced():
    for path, pointer in (
        (REPO / "README.md", "docs/development.md"),
        (DOCS / "architecture.md", "development.md"),
        (DOCS / "api.md", "development.md"),
    ):
        assert pointer in path.read_text(), f"{path.name} does not link {pointer}"


def test_readme_documents_config_workflow_and_backends():
    readme = (REPO / "README.md").read_text()
    for term in ("config dump", "--config", "Scaling out", "--workers", "serial-first"):
        assert term in readme, f"README.md does not mention {term!r}"


def test_api_doc_documents_the_backend_surface():
    api = (DOCS / "api.md").read_text()
    for term in ("ParallelEvaluator", "EvaluatorStats", "SharedSnapshot", "pool_always"):
        assert term in api, f"docs/api.md does not mention {term}"
    for retired in ("EvaluatorBackend", "PoolBrokenError", "pool_break_even"):
        assert retired not in api, f"docs/api.md still documents {retired}"


def test_architecture_doc_specifies_checkpoint_format_and_resume():
    doc = (DOCS / "architecture.md").read_text()
    for term in (
        "Checkpoint format & resume semantics",
        "REPROCKP",
        "payload_crc32",
        "CheckpointError",
        "TRAJECTORY_FIELDS",
        "rounds_total",
        "write-then-rename",
        "serialized, not rebuilt",
    ):
        assert term in doc, f"docs/architecture.md does not mention {term}"


def test_api_doc_documents_the_checkpoint_surface():
    api = (DOCS / "api.md").read_text()
    for term in (
        "save_checkpoint",
        "load_checkpoint",
        "resume_dynamics",
        "CheckpointError",
        "TRAJECTORY_FIELDS",
        "repro resume",
        "--checkpoint-every",
    ):
        assert term in api, f"docs/api.md does not mention {term}"


def test_api_doc_names_no_retired_keyword_surface():
    """One way to configure a run: the docs must not teach a removed one."""
    api = (DOCS / "api.md").read_text()
    for retired in ("best_response_dynamics", "workers_per_task"):
        assert retired not in api, f"docs/api.md still documents {retired}"
    free_functions = (
        "run_dynamics",
        "sample_equilibria",
        "estimate_poa",
        "poa_experiment",
        "sweep_alpha",
        "dynamics_convergence_experiment",
        "resume_dynamics",
    )
    for name in free_functions:
        for call in re.finditer(rf"\b{name}\(", api):
            args = api[call.end():api.find(")", call.end())]
            assert "session=" not in args, (
                f"docs/api.md passes session= to the free function {name}"
            )
