"""Self-test corpus for ``repro lint`` (the ``repro.tools`` checker).

Every rule gets four fixtures: a known-bad snippet the rule must flag, a
known-good variant it must not, a pragma'd bad snippet the suppression
must silence, and an unused pragma the auditor must report.  On top of
the per-rule corpus:

* the shipped tree must lint clean (the checker gates CI, so this *is*
  the CI gate, run as a test);
* PROTO001 is exercised against drifted copies of the real
  ``checkpoint.py`` — mutate one schema field and the checker must
  notice;
* the CLI surface (exit codes, ``--json`` stability, path scoping) is
  pinned.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.checkpoint import Checkpoint
from repro.tools.engine import (
    PRAGMA_RULE_ID,
    SYNTAX_RULE_ID,
    Finding,
    lint_paths,
    registered_rules,
)
from repro.tools.lint import default_target, run

REPO = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO / "src" / "repro"

RULE_IDS = ("DET001", "DET002", "DET003", "DET004", "PROTO001", "RES001")


def lint_source(
    tmp_path: Path, source: str, *, name: str = "mod.py", subdir: str | None = None
) -> list[Finding]:
    """Write ``source`` into the fixture tree and lint just that file."""
    directory = tmp_path / subdir if subdir else tmp_path
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    path.write_text(textwrap.dedent(source))
    return lint_paths([path], root=tmp_path)


def rule_ids(findings: list[Finding]) -> list[str]:
    return [finding.rule for finding in findings]


def test_registry_exposes_exactly_the_documented_rules():
    assert tuple(sorted(registered_rules())) == RULE_IDS


def test_shipped_tree_lints_clean():
    findings = lint_paths([SRC_REPRO], root=REPO)
    rendered = "\n".join(f.render() for f in findings)
    assert not findings, f"shipped tree has lint findings:\n{rendered}"


def test_default_target_is_the_package_tree():
    assert default_target() == SRC_REPRO


# ---------------------------------------------------------------------------
# DET001 — no unseeded randomness (applies everywhere)
# ---------------------------------------------------------------------------


BAD_DET001 = """\
    import random
    import numpy as np

    def roll():
        return random.random()

    def fresh():
        return np.random.default_rng()

    def legacy(n):
        return np.random.permutation(n)
"""


def test_det001_flags_unseeded_sources(tmp_path):
    findings = lint_source(tmp_path, BAD_DET001)
    assert rule_ids(findings) == ["DET001"] * 3
    assert "process-global" in findings[0].message
    assert "OS entropy" in findings[1].message
    assert "legacy global RandomState" in findings[2].message


def test_det001_accepts_seeded_sources(tmp_path):
    findings = lint_source(
        tmp_path,
        """\
        import random
        import numpy as np
        from numpy.random import default_rng

        def seeded(seed):
            local = random.Random(seed)
            rng = np.random.default_rng(seed)
            other = default_rng(seed)
            return local, rng, other
        """,
    )
    assert findings == []


def test_det001_flags_bare_default_rng_without_seed(tmp_path):
    findings = lint_source(
        tmp_path,
        """\
        from numpy.random import default_rng

        def fresh():
            return default_rng()
        """,
    )
    assert rule_ids(findings) == ["DET001"]


def test_det001_pragma_suppresses(tmp_path):
    findings = lint_source(
        tmp_path,
        """\
        import numpy as np

        def fresh():
            return np.random.default_rng()  # repro-lint: disable=DET001
        """,
    )
    assert findings == []


def test_unused_pragma_is_flagged(tmp_path):
    findings = lint_source(
        tmp_path,
        """\
        import numpy as np

        def seeded():
            return np.random.default_rng(7)  # repro-lint: disable=DET001
        """,
    )
    assert rule_ids(findings) == [PRAGMA_RULE_ID]
    assert "unused suppression" in findings[0].message
    assert "DET001" in findings[0].message


def test_pragma_for_unknown_rule_is_flagged(tmp_path):
    findings = lint_source(
        tmp_path,
        """\
        x = 1  # repro-lint: disable=NOPE123
        """,
    )
    assert rule_ids(findings) == [PRAGMA_RULE_ID]
    assert "unknown rule 'NOPE123'" in findings[0].message


def test_pragma_rule_itself_is_not_suppressible(tmp_path):
    # Disabling PRAGMA001 on a line with an unused pragma still reports:
    # the auditor's own findings bypass suppression by design.
    findings = lint_source(
        tmp_path,
        """\
        x = 1  # repro-lint: disable=DET001,PRAGMA001
        """,
    )
    assert PRAGMA_RULE_ID in rule_ids(findings)
    assert any("DET001" in finding.message for finding in findings)


# ---------------------------------------------------------------------------
# DET002 — no wall-clock reads (core/ only)
# ---------------------------------------------------------------------------


BAD_DET002 = """\
    import time

    def elapsed(start):
        return time.monotonic() - start
"""


def test_det002_flags_clock_reads_in_core(tmp_path):
    findings = lint_source(tmp_path, BAD_DET002, subdir="core")
    assert rule_ids(findings) == ["DET002"]
    assert "clock=" in findings[0].message


def test_det002_is_scoped_to_core(tmp_path):
    assert lint_source(tmp_path, BAD_DET002, subdir="metrics") == []


def test_det002_accepts_injected_clock_reference(tmp_path):
    # ``clock=time.monotonic`` as an injectable default is the sanctioned
    # pattern: it is a reference, not a read.
    findings = lint_source(
        tmp_path,
        """\
        import time

        def elapsed(start, clock=time.monotonic):
            return clock() - start
        """,
        subdir="core",
    )
    assert findings == []


def test_det002_pragma_suppresses(tmp_path):
    findings = lint_source(
        tmp_path,
        """\
        import time

        def stamp():
            return time.time()  # repro-lint: disable=DET002
        """,
        subdir="core",
    )
    assert findings == []


# ---------------------------------------------------------------------------
# DET003 — no hash-ordered set iteration (core/ only)
# ---------------------------------------------------------------------------


BAD_DET003 = """\
    def order(agents):
        pending = {a for a in agents}
        out = []
        for agent in pending:
            out.append(agent)
        return out, list(pending)
"""


def test_det003_flags_set_iteration_in_core(tmp_path):
    findings = lint_source(tmp_path, BAD_DET003, subdir="core")
    assert rule_ids(findings) == ["DET003", "DET003"]
    assert "hash order" in findings[0].message


def test_det003_is_scoped_to_core(tmp_path):
    assert lint_source(tmp_path, BAD_DET003) == []


def test_det003_accepts_sorted_iteration(tmp_path):
    findings = lint_source(
        tmp_path,
        """\
        def order(agents):
            pending = {a for a in agents}
            out = []
            for agent in sorted(pending):
                out.append(agent)
            return out, sorted(pending)
        """,
        subdir="core",
    )
    assert findings == []


def test_det003_tracks_set_typed_names_and_operators(tmp_path):
    findings = lint_source(
        tmp_path,
        """\
        def merge(a, b):
            left = set(a)
            right = left | set(b)
            return [x for x in right]
        """,
        subdir="core",
    )
    assert rule_ids(findings) == ["DET003"]


def test_det003_pragma_suppresses(tmp_path):
    findings = lint_source(
        tmp_path,
        """\
        def any_one(agents):
            pending = set(agents)
            for agent in pending:  # repro-lint: disable=DET003
                return agent
        """,
        subdir="core",
    )
    assert findings == []


# ---------------------------------------------------------------------------
# DET004 — no lossy float formatting (checkpoint.py only)
# ---------------------------------------------------------------------------


BAD_DET004 = """\
    import numpy as np

    def ship(value, arr):
        a = f"{value:.6f}"
        b = "{:g}".format(value)
        c = round(value, 3)
        d = np.float32(value)
        e = arr.astype(np.float32)
        f = "%e" % value
        return a, b, c, d, e, f
"""


def test_det004_flags_all_lossy_forms_at_the_boundary(tmp_path):
    findings = lint_source(tmp_path, BAD_DET004, name="checkpoint.py")
    assert rule_ids(findings) == ["DET004"] * 6


def test_det004_is_scoped_to_boundary_modules(tmp_path):
    for name in ("transport.py", "remote.py"):
        assert lint_source(tmp_path, BAD_DET004, name=name) == []


def test_det004_accepts_faithful_forms(tmp_path):
    findings = lint_source(
        tmp_path,
        """\
        import json

        def ship(value, count):
            a = value.hex()
            b = repr(value)
            c = json.dumps({"alpha": value})
            d = f"{count:d} of {value!r}"
            e = round(value)
            return a, b, c, d, e
        """,
        name="checkpoint.py",
    )
    assert findings == []


def test_det004_pragma_suppresses(tmp_path):
    findings = lint_source(
        tmp_path,
        """\
        def human(wait):
            return f"retry in {wait:.2f}s"  # repro-lint: disable=DET004
        """,
        name="checkpoint.py",
    )
    assert findings == []


# ---------------------------------------------------------------------------
# RES001 — resource construction has an owner (applies everywhere)
# ---------------------------------------------------------------------------


BAD_RES001 = """\
    from multiprocessing.shared_memory import SharedMemory

    def leak(size):
        shm = SharedMemory(create=True, size=size)
        shm.buf[0] = 1
"""


def test_res001_flags_unowned_resource(tmp_path):
    findings = lint_source(tmp_path, BAD_RES001)
    assert rule_ids(findings) == ["RES001"]
    assert "owning" in findings[0].message


def test_res001_accepts_owning_lifecycles(tmp_path):
    findings = lint_source(
        tmp_path,
        """\
        from multiprocessing.shared_memory import SharedMemory

        def scoped(size):
            with SharedMemory(create=True, size=size) as shm:
                return bytes(shm.buf)

        def guarded(size):
            shm = SharedMemory(create=True, size=size)
            try:
                return bytes(shm.buf)
            finally:
                shm.close()
                shm.unlink()

        def transferred(size):
            shm = SharedMemory(create=True, size=size)
            return shm

        class Owner:
            def __init__(self, size):
                self.shm = SharedMemory(create=True, size=size)

            def close(self):
                self.shm.close()
        """,
    )
    assert findings == []


def test_res001_attribute_views_are_not_ownership_transfers(tmp_path):
    # Passing ``shm.buf`` to another callable uses the resource without
    # transferring ownership of the segment itself.
    findings = lint_source(
        tmp_path,
        """\
        from multiprocessing.shared_memory import SharedMemory

        def leak_through_view(size):
            shm = SharedMemory(create=True, size=size)
            return bytes(shm.buf)
        """,
    )
    assert rule_ids(findings) == ["RES001"]


def test_res001_flags_evaluator_pools_too(tmp_path):
    findings = lint_source(
        tmp_path,
        """\
        from repro.core.parallel import ParallelEvaluator

        def sweep(game):
            evaluator = ParallelEvaluator(game, workers=4)
            evaluator.evaluate_batch([])
        """,
    )
    assert rule_ids(findings) == ["RES001"]


def test_res001_pragma_suppresses(tmp_path):
    findings = lint_source(
        tmp_path,
        """\
        from multiprocessing.shared_memory import SharedMemory

        def leak(size):
            shm = SharedMemory(create=True, size=size)  # repro-lint: disable=RES001
            shm.buf[0] = 1
        """,
    )
    assert findings == []


# ---------------------------------------------------------------------------
# PROTO001 — serializer/loader schema drift (checkpoint.py)
# ---------------------------------------------------------------------------


def _drifted_copy(tmp_path: Path, module: str, old: str, new: str) -> Path:
    """Copy a real core module into the fixture tree with one mutation."""
    source = (SRC_REPRO / "core" / module).read_text()
    assert old in source, f"fixture mutation target {old!r} not found in {module}"
    directory = tmp_path / "core"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / module
    path.write_text(source.replace(old, new))
    return path


def test_proto001_real_modules_have_no_drift(tmp_path):
    findings = lint_paths([SRC_REPRO / "core" / "checkpoint.py"], root=REPO)
    assert findings == []


def test_proto001_detects_checkpoint_schema_drift(tmp_path):
    # Rename one serialized array: the loader still requires the old name.
    path = _drifted_copy(
        tmp_path, "checkpoint.py", '"seen_moves"', '"seen_movesX"'
    )
    findings = [f for f in lint_paths([path], root=tmp_path) if f.rule == "PROTO001"]
    assert findings, "schema drift in checkpoint.py went undetected"
    messages = "\n".join(f.message for f in findings)
    assert "seen_moves" in messages


def test_proto001_detects_an_unserialized_checkpoint_field(tmp_path):
    # Rename one Checkpoint dataclass field: _serialize never writes it.
    path = _drifted_copy(
        tmp_path, "checkpoint.py", "    detect_cycles: bool\n", "    detect_cycle: bool\n"
    )
    findings = [f for f in lint_paths([path], root=tmp_path) if f.rule == "PROTO001"]
    messages = "\n".join(f.message for f in findings)
    assert "Checkpoint field 'detect_cycle' is never written by _serialize" in messages


def test_proto001_flags_a_renamed_serializer(tmp_path):
    # Without a _serialize the rule has nothing to compare: it must say so.
    path = _drifted_copy(tmp_path, "checkpoint.py", "def _serialize(", "def _encode(")
    findings = [f for f in lint_paths([path], root=tmp_path) if f.rule == "PROTO001"]
    assert [f.message for f in findings] == [
        "checkpoint.py defines Checkpoint but no _serialize function: the "
        "schema cannot be checked"
    ]


def test_proto001_flags_a_renamed_writer_method(tmp_path):
    path = _drifted_copy(tmp_path, "checkpoint.py", "writer.add(", "writer.put(")
    findings = [f for f in lint_paths([path], root=tmp_path) if f.rule == "PROTO001"]
    assert [f.message for f in findings] == [
        '_serialize lacks a writer.add("name", ...) call: the schema cannot '
        "be checked"
    ]


def test_proto001_flags_a_header_without_state_and_arrays(tmp_path):
    path = _drifted_copy(
        tmp_path, "checkpoint.py", '"arrays": writer.manifest', '"manifest": writer.manifest'
    )
    findings = [f for f in lint_paths([path], root=tmp_path) if f.rule == "PROTO001"]
    assert [f.message for f in findings] == [
        '_serialize lacks a header dict holding both "state" and "arrays": '
        "the schema cannot be checked"
    ]


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Checkpoint)])
def test_proto001_flags_every_renamed_checkpoint_field(tmp_path, name):
    # No field of the on-disk schema may drift past the rule unnoticed.
    source = (SRC_REPRO / "core" / "checkpoint.py").read_text()
    head, marker, body = source.partition("class Checkpoint:")
    declaration = f"\n    {name}:"
    assert declaration in body, f"Checkpoint field {name!r} not declared"
    directory = tmp_path / "core"
    directory.mkdir()
    path = directory / "checkpoint.py"
    drifted = body.replace(declaration, f"\n    {name}_drift:", 1)
    path.write_text(head + marker + drifted)
    findings = [f for f in lint_paths([path], root=tmp_path) if f.rule == "PROTO001"]
    assert [f.message for f in findings] == [
        f"Checkpoint field '{name}_drift' is never written by _serialize "
        "(state keys, array manifest, or derived keys)"
    ]


# ---------------------------------------------------------------------------
# Engine mechanics: SYNTAX findings, sorting, JSON, CLI exit codes
# ---------------------------------------------------------------------------


def test_unparseable_file_yields_syntax_finding(tmp_path):
    findings = lint_source(tmp_path, "def broken(:\n    pass\n")
    assert rule_ids(findings) == [SYNTAX_RULE_ID]
    assert "cannot parse" in findings[0].message


def test_findings_are_sorted_by_path_line_rule(tmp_path):
    (tmp_path / "b_mod.py").write_text(
        "import numpy as np\nrng = np.random.default_rng()\n"
    )
    (tmp_path / "a_mod.py").write_text(
        "import random\n"
        "import numpy as np\n"
        "x = random.random()\n"
        "rng = np.random.default_rng()\n"
    )
    findings = lint_paths([tmp_path], root=tmp_path)
    keys = [(f.path, f.line, f.rule) for f in findings]
    assert keys == sorted(keys)
    assert [f.path for f in findings] == ["a_mod.py", "a_mod.py", "b_mod.py"]


def test_cli_json_output_is_stable_and_parseable(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import numpy as np\nrng = np.random.default_rng()\n"
    )
    out_a: list[str] = []
    out_b: list[str] = []
    code_a = run([str(tmp_path), "--json", "--root", str(tmp_path)], writer=out_a.append)
    code_b = run([str(tmp_path), "--json", "--root", str(tmp_path)], writer=out_b.append)
    assert code_a == code_b == 1
    assert out_a == out_b  # byte-identical across runs
    payload = json.loads("\n".join(out_a))
    assert payload == [
        {
            "path": "mod.py",
            "line": 2,
            "rule": "DET001",
            "message": "default_rng() without a seed draws OS entropy; pass a "
            "seed or SeedSequence",
        }
    ]


def test_cli_exit_codes_and_path_scoping(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\nx = random.random()\n")

    lines: list[str] = []
    assert run([str(clean)], writer=lines.append) == 0
    assert lines == ["repro lint: 0 findings"]

    lines.clear()
    assert run([str(dirty), "--root", str(tmp_path)], writer=lines.append) == 1
    assert lines[0].startswith("dirty.py:2: DET001")
    assert lines[-1] == "repro lint: 1 finding"

    # Scoping to the clean file must not see the dirty one.
    lines.clear()
    assert run([str(clean), str(tmp_path / "missing.py")], writer=lines.append) == 2
    assert any("no such path" in line for line in lines)


def test_repro_cli_lint_subcommand_delegates(tmp_path, capsys):
    from repro.cli import main as cli_main

    dirty = tmp_path / "mod.py"
    dirty.write_text("import random\nx = random.random()\n")
    code = cli_main(["lint", str(dirty), "--json", "--root", str(tmp_path)])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert [entry["rule"] for entry in payload] == ["DET001"]

    assert cli_main(["lint", str(tmp_path / "none.py")]) == 2


def test_repro_cli_lint_flags_are_the_tools_own(capsys):
    """``repro lint`` declares no flag of its own: help and usage errors come
    from the tool's parser, options first or last."""
    from repro.cli import main as cli_main

    with pytest.raises(SystemExit) as exc:
        cli_main(["lint", "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert usage.startswith("usage: repro lint [-h] [--json] [--root ROOT]")
    with pytest.raises(SystemExit) as exc:
        cli_main(["lint", "--no-such-flag"])
    assert exc.value.code == 2
    error = capsys.readouterr().err
    assert "repro lint: error: unrecognized arguments: --no-such-flag" in error


def test_module_entry_point_runs_the_shipped_tree():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.tools.lint", "--root", str(REPO)],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("repro lint: 0 findings")


# ---------------------------------------------------------------------------
# Static-typing / style gates (skipped when the tools are not installed —
# CI's static-analysis job installs them)
# ---------------------------------------------------------------------------

STRICT_MODULES = [
    "src/repro/core/session.py",
    "src/repro/core/checkpoint.py",
    "src/repro/core/faults.py",
    "src/repro/core/parallel.py",
    "src/repro/tools",
]


def test_mypy_strict_on_core_modules():
    pytest.importorskip("mypy", reason="mypy is installed in the CI job only")
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", *STRICT_MODULES],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_ruff_default_rules_clean():
    pytest.importorskip("ruff", reason="ruff is installed in the CI job only")
    proc = subprocess.run(
        [sys.executable, "-m", "ruff", "check", "src", "tests", "benchmarks", "examples"],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
