"""PROTO001: checkpoint-schema drift detection.

PROTO001 is a *consistency* check between the two halves of
``checkpoint.py``: every ``Checkpoint`` dataclass field must be serialized
(as a header state key, an array-manifest entry, or a known derived key),
and the loader's required/optional key sets must match exactly what the
serializer writes.

The collections are purely syntactic (``writer.add("name", ...)`` calls,
the header dict literal, ``for required in (...)`` tuples and
``state.get()``/``arrays.get()`` reads), which is what lets the self-test
corpus assert that a single mutated schema field is detected.  When one of
them cannot be found at all — no ``_serialize`` beside ``Checkpoint``, no
header dict holding both ``"state"`` and ``"arrays"``, or no
``writer.add("name", ...)`` call — the rule reports what is missing
instead of passing without checking anything.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.tools.engine import LintRule, ParsedModule, register

__all__ = ["ProtocolDrift"]

# Checkpoint fields serialized under a different header key.
_DERIVED_STATE_KEYS = {"engine_residuals": "residual_keys"}


@register
class ProtocolDrift(LintRule):
    """PROTO001: the serializer and loader halves of checkpoint.py agree."""

    id = "PROTO001"
    title = "checkpoint schema halves stay in sync"

    def applies(self, module: ParsedModule) -> bool:
        return self.at_wire_boundary(module)

    def check(self, module: ParsedModule) -> Iterator[tuple[int, str]]:
        checkpoint_cls = None
        serialize_fn = None
        load_fn = None
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "Checkpoint":
                checkpoint_cls = node
            elif isinstance(node, ast.FunctionDef) and node.name == "_serialize":
                serialize_fn = node
            elif isinstance(node, ast.FunctionDef) and node.name == "load_checkpoint":
                load_fn = node
        if checkpoint_cls is None:
            return
        if serialize_fn is None:
            yield (
                checkpoint_cls.lineno,
                "checkpoint.py defines Checkpoint but no _serialize function: "
                "the schema cannot be checked",
            )
            return

        fields: dict[str, int] = {}
        for stmt in checkpoint_cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                fields[stmt.target.id] = stmt.lineno

        array_names: dict[str, int] = {}
        state_keys: dict[str, int] = {}
        header_keys: set[str] = set()
        for node in ast.walk(serialize_fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                array_names.setdefault(node.args[0].value, node.lineno)
            elif isinstance(node, ast.Dict):
                keys = [
                    key.value
                    for key in node.keys
                    if isinstance(key, ast.Constant) and isinstance(key.value, str)
                ]
                if "state" in keys and "arrays" in keys:
                    header_keys.update(keys)
                    state_value = node.values[keys.index("state")]
                    if isinstance(state_value, ast.Dict):
                        for key_node in state_value.keys:
                            if isinstance(key_node, ast.Constant) and isinstance(
                                key_node.value, str
                            ):
                                state_keys.setdefault(
                                    key_node.value, key_node.lineno
                                )
        missing = []
        if not state_keys:
            missing.append('a header dict holding both "state" and "arrays"')
        if not array_names:
            missing.append('a writer.add("name", ...) call')
        if missing:
            yield (
                serialize_fn.lineno,
                f"_serialize lacks {' and '.join(missing)}: the schema "
                "cannot be checked",
            )
            return

        for name, lineno in sorted(fields.items()):
            covered = (
                name in state_keys
                or name in array_names
                or name in header_keys
                or _DERIVED_STATE_KEYS.get(name) in state_keys
            )
            if not covered:
                yield (
                    lineno,
                    f"Checkpoint field {name!r} is never written by "
                    "_serialize (state keys, array manifest, or derived keys)",
                )

        if load_fn is None:
            return
        required_state: dict[str, int] = {}
        required_arrays: dict[str, int] = {}
        optional_state: set[str] = set()
        optional_arrays: set[str] = set()
        for node in ast.walk(load_fn):
            if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
                loop_var = node.target.id
                literals = [
                    (elt.value, elt.lineno)
                    for elt in getattr(node.iter, "elts", [])
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                ]
                if not literals:
                    continue
                membership = None
                for sub in ast.walk(node):
                    if (
                        isinstance(sub, ast.Compare)
                        and isinstance(sub.left, ast.Name)
                        and sub.left.id == loop_var
                        and len(sub.ops) == 1
                        and isinstance(sub.ops[0], ast.In)
                        and isinstance(sub.comparators[0], ast.Name)
                    ):
                        membership = sub.comparators[0].id
                        break
                if membership == "state":
                    required_state.update(dict(literals))
                elif membership == "arrays":
                    required_arrays.update(dict(literals))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and isinstance(node.func.value, ast.Name)
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                if node.func.value.id == "state":
                    optional_state.add(node.args[0].value)
                elif node.func.value.id == "arrays":
                    optional_arrays.add(node.args[0].value)

        for name, lineno in sorted(required_state.items()):
            if name not in state_keys:
                yield (
                    lineno,
                    f"loader requires state key {name!r} that _serialize "
                    "never writes",
                )
        for name, lineno in sorted(required_arrays.items()):
            if name not in array_names:
                yield (
                    lineno,
                    f"loader requires array {name!r} that _serialize never "
                    "writes",
                )
        if required_state:
            for name, lineno in sorted(state_keys.items()):
                if name not in required_state and name not in optional_state:
                    yield (
                        lineno,
                        f"serialized state key {name!r} is neither required "
                        "nor read via state.get() in load_checkpoint",
                    )
        if required_arrays:
            for name, lineno in sorted(array_names.items()):
                if name not in required_arrays and name not in optional_arrays:
                    yield (
                        lineno,
                        f"serialized array {name!r} is neither required nor "
                        "read via arrays.get() in load_checkpoint",
                    )
