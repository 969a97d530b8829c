"""Rules engine for ``repro lint``.

The engine owns everything that is not rule-specific: walking the target
tree, parsing each module once, collecting ``# repro-lint:
disable=RULE`` pragmas, dispatching registered rules, applying
suppressions (with unused-pragma auditing), and rendering findings as
stable human or JSON output.

A rule is a :class:`LintRule` subclass registered with :func:`register`.
Rules are pure functions of a :class:`ParsedModule`: they emit raw
``(line, message)`` pairs and never see pragmas — suppression is an
engine concern, which is what makes unused-pragma detection possible.

Scoping is path-based so the self-test corpus can exercise every rule on
synthetic fixtures: a rule that targets ``core/`` fires on any file with
a ``core`` path component, and a rule that targets the checkpoint
serialization boundary fires on any file *named* ``checkpoint.py``.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

__all__ = [
    "Finding",
    "LintRule",
    "ParsedModule",
    "attribute_chain",
    "call_name",
    "format_findings",
    "iter_scopes",
    "lint_paths",
    "register",
    "registered_rules",
]

# One pragma grammar, one place: a comment of the form
# ``repro-lint: disable=DET001,RES001`` (comma-separated rule ids).
_PRAGMA_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")

# Rule id for the engine's own audit findings (unused/unknown pragmas).
# It is deliberately not suppressible: a pragma that suppresses the
# pragma auditor would defeat the audit.
PRAGMA_RULE_ID = "PRAGMA001"
# Rule id attached to files the engine cannot parse at all.
SYNTAX_RULE_ID = "SYNTAX"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Ordering is ``(path, line, rule, message)`` so sorted findings give a
    deterministic report — the JSON output is diffable in CI.
    """

    path: str
    line: int
    rule: str
    message: str

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


class ParsedModule:
    """A source file parsed once and shared by every rule.

    ``display_path`` is what appears in findings (relative to the lint
    root when possible); ``path`` is the resolved filesystem path used
    for rule scoping.
    """

    def __init__(self, path: Path, source: str, display_path: str) -> None:
        self.path = path
        self.display_path = display_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=display_path)
        self.pragmas = _collect_pragmas(self.lines)

    @property
    def filename(self) -> str:
        return self.path.name

    @property
    def parts(self) -> tuple[str, ...]:
        return self.path.parts


def _collect_pragmas(lines: list[str]) -> dict[int, list[str]]:
    """Map 1-based line number -> rule ids disabled on that line."""
    pragmas: dict[int, list[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        rules = [part.strip() for part in match.group(1).split(",")]
        pragmas[lineno] = [rule for rule in rules if rule]
    return pragmas


class LintRule:
    """Base class for a named invariant check.

    Subclasses set ``id`` and ``title`` and implement :meth:`check`;
    :meth:`applies` narrows the rule to the file set whose invariant it
    guards (everything, ``core/``, or a boundary module by filename).
    """

    id: str = ""
    title: str = ""

    def applies(self, module: ParsedModule) -> bool:
        return True

    def check(self, module: ParsedModule) -> Iterator[tuple[int, str]]:
        raise NotImplementedError

    # -- shared scoping vocabulary -------------------------------------
    @staticmethod
    def in_core(module: ParsedModule) -> bool:
        return "core" in module.parts

    @staticmethod
    def at_wire_boundary(module: ParsedModule) -> bool:
        return module.filename == "checkpoint.py"


_REGISTRY: dict[str, LintRule] = {}


def register(rule_cls: type[LintRule]) -> type[LintRule]:
    """Class decorator: instantiate and register a rule by its id."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def registered_rules() -> dict[str, LintRule]:
    """The rule registry (importing the rule modules populates it)."""
    import repro.tools.rules_determinism  # noqa: F401  (registration side effect)
    import repro.tools.rules_protocol  # noqa: F401
    import repro.tools.rules_resources  # noqa: F401

    return dict(_REGISTRY)


# ---------------------------------------------------------------------------
# AST helpers shared by the rule modules
# ---------------------------------------------------------------------------


def attribute_chain(node: ast.expr) -> tuple[str, ...]:
    """``np.random.default_rng`` -> ``("np", "random", "default_rng")``.

    Returns ``()`` for anything that is not a plain dotted name.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def call_name(node: ast.Call) -> tuple[str, ...]:
    """Dotted name of a call target, or ``()`` when it is not dotted."""
    return attribute_chain(node.func)


def iter_scopes(
    tree: ast.Module,
) -> Iterator[tuple[ast.AST, list[ast.stmt]]]:
    """Yield ``(scope_node, body)`` for the module and every function.

    Class bodies are not scopes of their own here: statements directly in
    a class body belong to the module-level walk, while methods are
    yielded as function scopes (which is where resource and deadline
    rules reason about locals).
    """
    yield tree, tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.body


def walk_scope(body: Iterable[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements of one scope without descending into nested defs."""
    pending: list[ast.AST] = list(body)
    while pending:
        node = pending.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # nested scope: its own iter_scopes entry walks it
        pending.extend(ast.iter_child_nodes(node))


# ---------------------------------------------------------------------------
# Driving the rules over files
# ---------------------------------------------------------------------------


def _python_files(paths: Iterable[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    # De-duplicate while keeping a deterministic order.
    unique: dict[Path, None] = {}
    for path in files:
        unique.setdefault(path.resolve(), None)
    return sorted(unique)


def _display_path(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def lint_file(
    path: Path,
    *,
    root: Path | None = None,
    rules: dict[str, LintRule] | None = None,
) -> list[Finding]:
    """Run every applicable rule over one file and apply pragmas."""
    if rules is None:
        rules = registered_rules()
    display = _display_path(path.resolve(), root or Path.cwd())
    try:
        module = ParsedModule(path.resolve(), path.read_text(), display)
    except SyntaxError as exc:
        line = exc.lineno if exc.lineno is not None else 1
        return [Finding(display, line, SYNTAX_RULE_ID, f"cannot parse file: {exc.msg}")]

    raw: list[Finding] = []
    for rule_id in sorted(rules):
        rule = rules[rule_id]
        if not rule.applies(module):
            continue
        for line, message in rule.check(module):
            raw.append(Finding(display, line, rule.id, message))

    findings: list[Finding] = []
    used: dict[tuple[int, str], bool] = {
        (line, rule_id): False
        for line, rule_ids in module.pragmas.items()
        for rule_id in rule_ids
    }
    for finding in raw:
        if finding.rule in module.pragmas.get(finding.line, []):
            used[(finding.line, finding.rule)] = True
            continue
        findings.append(finding)

    known = set(rules) | {PRAGMA_RULE_ID, SYNTAX_RULE_ID}
    for line, rule_id in sorted(used):
        if rule_id not in known:
            findings.append(
                Finding(
                    display,
                    line,
                    PRAGMA_RULE_ID,
                    f"pragma disables unknown rule {rule_id!r}",
                )
            )
        elif not used[(line, rule_id)]:
            findings.append(
                Finding(
                    display,
                    line,
                    PRAGMA_RULE_ID,
                    f"unused suppression: no {rule_id} finding on this line",
                )
            )
    return sorted(findings)


def lint_paths(
    paths: Iterable[Path],
    *,
    root: Path | None = None,
    rules: dict[str, LintRule] | None = None,
) -> list[Finding]:
    """Lint files and directories; returns findings sorted for stable diffs."""
    if rules is None:
        rules = registered_rules()
    findings: list[Finding] = []
    for path in _python_files(paths):
        findings.extend(lint_file(path, root=root, rules=rules))
    return sorted(findings)


def format_findings(
    findings: list[Finding], *, as_json: bool, writer: Callable[[str], object]
) -> None:
    """Render findings (already sorted) as human lines or a JSON document."""
    if as_json:
        writer(json.dumps([finding.to_dict() for finding in findings], indent=2))
        return
    for finding in findings:
        writer(finding.render())
    noun = "finding" if len(findings) == 1 else "findings"
    writer(f"repro lint: {len(findings)} {noun}")
