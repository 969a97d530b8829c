"""Static-analysis toolbox for the repro codebase.

The package implements ``repro lint`` (also runnable as ``python -m
repro.tools.lint``): an AST-based checker that enforces the repo's written
determinism and lifecycle invariants as named, suppressible rules.  The
rules certify *statically* what the property sweeps and chaos tests check
dynamically — that trajectories are bit-identical across serial,
shared-memory and checkpoint-resume execution.

Rule catalog (see ``docs/development.md`` for the full table):

========  ==============================================================
DET001    no unseeded randomness (``random.*``, legacy ``np.random.*``
          global state, argless ``default_rng()``)
DET002    no wall-clock reads in ``core/`` outside an injectable
          ``clock=`` parameter
DET003    no hash-ordered ``set``/``frozenset`` iteration feeding
          ordering in ``core/``
DET004    no lossy float formatting at the serialization boundary
          (``checkpoint.py``)
RES001    evaluators, sockets and shared memory are constructed inside
          an owning lifecycle (``with`` / ``close()`` / ``try-finally``)
PROTO001  the checkpoint schema stays in sync across the serializer and
          loader halves of ``checkpoint.py``
PRAGMA001 a ``# repro-lint: disable=`` pragma must suppress something
========  ==============================================================

Findings are suppressed per line with a ``repro-lint: disable=RULE``
comment; every suppression is audited: an unused pragma is itself a
finding.
"""

from __future__ import annotations

from repro.tools.engine import Finding, LintRule, lint_paths, registered_rules

__all__ = ["Finding", "LintRule", "lint_paths", "registered_rules"]
