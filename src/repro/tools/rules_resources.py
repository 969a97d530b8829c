"""Lifecycle rule RES001: owned resources.

RES001 guards leaks: shared-memory segments, sockets, and evaluator
backends must be constructed inside an owning lifecycle — a ``with``
item, an owning object with a ``close()``-like path, a ``try/finally``,
an in-scope cleanup call on the bound name, or an explicit ownership
transfer (returned or passed to another callable).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.tools.engine import (
    LintRule,
    ParsedModule,
    call_name,
    iter_scopes,
    register,
    walk_scope,
)

__all__ = ["OwnedResourceConstruction"]

_LIFECYCLE_METHODS = frozenset(
    {"close", "shutdown", "stop", "terminate", "__exit__", "__del__"}
)
_CLEANUP_CALLS = frozenset(
    {"close", "shutdown", "stop", "terminate", "kill", "unlink", "detach"}
)


def _dotted_target(node: ast.expr) -> str | None:
    """Render ``name`` / ``self.attr`` / ``a.b.c`` targets as dotted text."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted_target(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _is_socket_creation(node: ast.Call) -> bool:
    chain = call_name(node)
    if chain in (("socket", "socket"), ("create_connection",)):
        return True
    return len(chain) >= 2 and chain[-2:] == ("socket", "create_connection")


def _bound_names(scope_body: list[ast.stmt], call: ast.Call) -> list[str]:
    """Dotted names the result of ``call`` is bound to in this scope."""
    names: list[str] = []
    for node in walk_scope(scope_body):
        if isinstance(node, ast.Assign) and node.value is call:
            for target in node.targets:
                if isinstance(target, ast.Tuple) and target.elts:
                    # ``conn, _addr = sock.accept()`` binds the socket first.
                    dotted = _dotted_target(target.elts[0])
                else:
                    dotted = _dotted_target(target)
                if dotted is not None:
                    names.append(dotted)
        elif isinstance(node, ast.AnnAssign) and node.value is call:
            dotted = _dotted_target(node.target)
            if dotted is not None:
                names.append(dotted)
        elif isinstance(node, ast.With):
            for item in node.items:
                if item.context_expr is call and item.optional_vars is not None:
                    dotted = _dotted_target(item.optional_vars)
                    if dotted is not None:
                        names.append(dotted)
    return names


def _method_call_targets(scope_body: list[ast.stmt], methods: frozenset[str]) -> set[str]:
    """Dotted receivers of ``<target>.<method>()`` calls in this scope."""
    targets: set[str] = set()
    for node in walk_scope(scope_body):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in methods
        ):
            dotted = _dotted_target(node.func.value)
            if dotted is not None:
                targets.add(dotted)
    return targets


# Constructors whose results hold OS resources or worker pools.
_RESOURCE_LAST = frozenset({"SharedMemory", "ParallelEvaluator"})


def _is_resource_creation(node: ast.Call) -> bool:
    chain = call_name(node)
    if not chain:
        return False
    if chain[-1] in _RESOURCE_LAST:
        return True
    return _is_socket_creation(node)


def _parent_map(tree: ast.Module) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _class_lifecycle_scopes(tree: ast.Module) -> set[ast.AST]:
    """Function nodes that are methods of a class with a close()-like path."""
    scopes: set[ast.AST] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = {
            stmt.name
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if not (methods & _LIFECYCLE_METHODS):
            continue
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.add(stmt)
    return scopes


def _name_used_in_calls(body: list[ast.stmt], name: str, creation: ast.Call) -> bool:
    """True when ``name`` itself is handed to another callable in this scope.

    Only a direct handoff counts — the bare name as an argument, or as an
    element of a tuple/list argument.  Passing a *view* of the resource
    (``f(shm.buf)``) is use, not an ownership transfer.
    """
    for node in walk_scope(body):
        if not isinstance(node, ast.Call) or node is creation:
            continue
        for arg in [*node.args, *[kw.value for kw in node.keywords]]:
            candidates = [arg]
            if isinstance(arg, (ast.Tuple, ast.List, ast.Set)):
                candidates.extend(arg.elts)
            for sub in candidates:
                if isinstance(sub, ast.Name) and sub.id == name:
                    return True
    return False


@register
class OwnedResourceConstruction(LintRule):
    """RES001: resources are constructed inside an owning lifecycle."""

    id = "RES001"
    title = "resource construction has an owner"

    def check(self, module: ParsedModule) -> Iterator[tuple[int, str]]:
        parents = _parent_map(module.tree)
        lifecycle_scopes = _class_lifecycle_scopes(module.tree)
        for scope, body in iter_scopes(module.tree):
            cleaned_up = _method_call_targets(body, _CLEANUP_CALLS)
            in_lifecycle_class = scope in lifecycle_scopes
            for node in walk_scope(body):
                if not isinstance(node, ast.Call) or not _is_resource_creation(node):
                    continue
                if self._is_owned(
                    node, body, parents, cleaned_up, in_lifecycle_class
                ):
                    continue
                chain = call_name(node)
                yield (
                    node.lineno,
                    f"{'.'.join(chain)}() constructed without an owning "
                    "lifecycle; use `with`, an owner with close(), or "
                    "try/finally cleanup",
                )

    @staticmethod
    def _is_owned(
        creation: ast.Call,
        body: list[ast.stmt],
        parents: dict[ast.AST, ast.AST],
        cleaned_up: set[str],
        in_lifecycle_class: bool,
    ) -> bool:
        # Walk ancestors: with-item, return value, lambda body, nested in
        # another call (ownership transfer), or under a try/finally.
        node: ast.AST = creation
        while node in parents:
            parent = parents[node]
            if isinstance(parent, ast.withitem) and parent.context_expr is node:
                return True
            if isinstance(parent, (ast.Return, ast.Lambda)):
                return True
            if isinstance(parent, ast.Call) and parent is not creation:
                return True
            if isinstance(parent, ast.Try) and parent.finalbody:
                return True
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
                break
            node = parent

        names = _bound_names(body, creation)
        for name in names:
            if name.startswith("self.") and in_lifecycle_class:
                return True
            if name in cleaned_up or any(
                cleaned.startswith(f"{name}.") for cleaned in cleaned_up
            ):
                return True
            if _name_used_in_calls(body, name.split(".", 1)[0], creation):
                return True
            if _name_transferred(body, name.split(".", 1)[0], in_lifecycle_class):
                return True
        return False


def _name_transferred(
    body: list[ast.stmt], name: str, in_lifecycle_class: bool
) -> bool:
    """True when ``name`` is returned or re-bound to an owner attribute.

    As with call arguments, only the name *itself* transfers ownership —
    directly or as a tuple/list element.  Returning a derived view
    (``return bytes(shm.buf)``) uses the resource without passing the
    obligation to release it.
    """
    for node in walk_scope(body):
        if isinstance(node, ast.Return) and node.value is not None:
            candidates = [node.value]
            if isinstance(node.value, (ast.Tuple, ast.List)):
                candidates.extend(node.value.elts)
            for sub in candidates:
                if isinstance(sub, ast.Name) and sub.id == name:
                    return True
        elif isinstance(node, ast.Assign) and in_lifecycle_class:
            if isinstance(node.value, ast.Name) and node.value.id == name and any(
                isinstance(target, ast.Attribute) for target in node.targets
            ):
                return True
    return False
