"""Outside-in tracer: wraps the public entry points of each ``repro.core`` layer.

Nothing in ``src/`` knows about it.  :meth:`Tracer.install` replaces each
hooked function at *every* module attribute that holds it — ``incremental``
and ``game`` import ``decremental_distances`` and
``all_pairs_shortest_paths`` by name, so patching only
``repro.core.shortest_paths`` would miss their calls — and
:meth:`Tracer.uninstall` puts the originals back.  A hook whose target no
longer exists is recorded in :attr:`Tracer.missing` instead of raising, so
a later change that folds or renames a function cannot break the
benchmark; its layer then reads zero.

Spans (name, start, end, parent) are kept in memory while the program runs
and reduced once, after it, by :meth:`Tracer.summary`: a span's self time
is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# (span name, module, attribute path) of every hooked entry point.
HOOKS: tuple[tuple[str, str, str], ...] = (
    ("incremental.residual", "repro.core.incremental", "IncrementalEngine.residual"),
    ("incremental.respond", "repro.core.incremental", "IncrementalEngine.respond"),
    ("incremental.respond_many", "repro.core.incremental", "IncrementalEngine.respond_many"),
    ("incremental.apply", "repro.core.incremental", "IncrementalEngine.apply"),
    ("shortest_paths.apsp", "repro.core.shortest_paths", "all_pairs_shortest_paths"),
    ("shortest_paths.decremental", "repro.core.shortest_paths", "decremental_distances"),
    ("best_response.score", "repro.core.best_response", "best_response_incremental"),
    ("best_response.score", "repro.core.best_response", "greedy_response"),
    ("best_response.score", "repro.core.best_response", "score_response"),
    ("parallel.evaluate", "repro.core.parallel", "ParallelEvaluator.evaluate"),
    ("checkpoint.save", "repro.core.checkpoint", "save_checkpoint"),
    ("checkpoint.load", "repro.core.checkpoint", "load_checkpoint"),
)

LAYERS = {
    "residual": ("incremental.residual", "incremental.apply", "shortest_paths.apsp",
                 "shortest_paths.decremental"),
    "scoring": ("best_response.score",),
    "scheduler": ("incremental.respond", "incremental.respond_many"),
    "transport": ("parallel.evaluate",),
    "checkpoint": ("checkpoint.save", "checkpoint.load"),
}

# Hooks whose call arguments feed the counts (the others need only timing).
_READS_ARGUMENTS = ("best_response.score", "parallel.evaluate", "checkpoint.save")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans; -1 for an outermost span


@dataclass
class Summary:
    """Per-name span totals of one traced run."""

    calls: dict[str, int]
    total_s: dict[str, float]
    self_s: dict[str, float]
    covered_s: float  # time under outermost spans


class Tracer:
    """Span and count recorder for one traced run (``with Tracer(...):``)."""

    def __init__(self, host_weights: np.ndarray) -> None:
        self._degree = (np.isfinite(host_weights).sum(axis=1) - 1).astype(np.int64)
        self._open: list[int] = []  # indices of the spans still running
        self._patched: list[tuple[Any, str, Any]] = []
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.counts: dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------
    # Computed kernel counts: derived from each call's inputs (host degree
    # m, strategy size k), not counted inside the kernels
    # ------------------------------------------------------------------
    def _scored(self, response: str, agent: int, strategy_size: int) -> None:
        m = int(self._degree[agent])
        k = int(strategy_size)
        self.counts["responses_scored"] += 1
        if response == "best":
            self.counts["subsets_scored"] += 2**m
        else:
            self.counts["single_moves_scored"] += m + k + k * m

    def _observe(self, name: str, attr: str, arguments: dict, result: Any) -> None:
        if name == "best_response.score":
            if attr == "score_response":
                self._scored(arguments["response"], int(arguments["u"]), len(arguments["current"]))
            else:
                u = int(arguments["u"])
                kind = "best" if attr == "best_response_incremental" else "single"
                self._scored(kind, u, len(arguments["profile"].strategy(u)))
        elif name == "parallel.evaluate":
            for u, _d_rest, strategy in arguments["tasks"]:
                self._scored(arguments["response"], int(u), len(strategy))
        elif name == "incremental.respond_many":
            self.counts["batches"] += 1
            self.counts["batched_agents"] += len(result)
        elif name == "shortest_paths.decremental":
            self.counts["affected_sources"] += result.affected_sources
        elif name == "checkpoint.save":
            self.counts["checkpoint_bytes"] += os.path.getsize(arguments["path"])

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _wrap(self, name: str, attr: str, fn: Callable) -> Callable:
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "best_response.score" and any(
                tracer.spans[i].name == name for i in tracer._open
            ):
                # One scoring entry point calling another is one response.
                return fn(*args, **kwargs)
            arguments: dict = {}
            if name in _READS_ARGUMENTS:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if name == "parallel.evaluate":
                    # The evaluator takes any iterable; a list can be read twice.
                    bound.arguments["tasks"] = list(bound.arguments["tasks"])
                args, kwargs, arguments = bound.args, bound.kwargs, bound.arguments
            parent = tracer._open[-1] if tracer._open else -1
            tracer._open.append(len(tracer.spans))
            span = Span(name, time.perf_counter(), parent=parent)
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()
            tracer._observe(name, attr, arguments, result)
            return result

        return traced

    def install(self) -> "Tracer":
        for name, module_name, path in HOOKS:
            try:
                module = importlib.import_module(module_name)
                owner_path, _, attr = path.rpartition(".")
                owner = module
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapped = self._wrap(name, attr, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapped)
                continue
            # A function: every repro module attribute that resolves to it.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)
        return self

    def _patch(self, owner: Any, attr: str, original: Any, wrapped: Any) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def summary(self) -> Summary:
        calls: dict[str, int] = defaultdict(int)
        total_s: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        covered_s = 0.0
        for span in self.spans:
            duration = span.end - span.start
            calls[span.name] += 1
            total_s[span.name] += duration
            self_s[span.name] += duration
            if span.parent >= 0:
                self_s[self.spans[span.parent].name] -= duration
            else:
                covered_s += duration
        return Summary(calls, total_s, self_s, covered_s)

    def missing_layers(self) -> list[str]:
        names = {name for name, module, path in HOOKS if f"{module}.{path}" in self.missing}
        return sorted(layer for layer, spans in LAYERS.items() if names & set(spans))
