"""Static-analysis framework enforcing the repo's contracts.

The engine's correctness story rests on invariants that tests can only
sample: single kernel dispatch through :func:`repro.backends.execute`,
allocation-free tracing when disabled, seed-reproducible plans/replays
and registry-validated pipeline specs.
This package checks them at the AST level — ``python -m repro.analysis``.
The registry rules (RA004, RA006) read the live component registry, so
the checker runs with the package's own dependencies installed.

Layout:

``framework``
    :class:`Finding` / :class:`Severity`, the :class:`Rule` base class,
    per-file :class:`FileContext` (AST + parent map + suppressions), and
    the ``# repro: allow[RA00x] reason`` suppression grammar.
``registry_scan``
    The lexical filter that picks spec-shaped string literals for
    RA004 to parse.
``rules``
    The rule pack, RA001–RA007 (see DESIGN.md §13 for the catalogue).
``report``
    Human and schema-versioned JSON reporters (BENCH-envelope style).
``cli``
    ``python -m repro.analysis [--format json] [--rules ...] [paths...]``
    with a gating exit code.
"""

from .framework import FileContext, Finding, Rule, Severity, analyze_paths
from .report import SCHEMA_VERSION, render_human, render_json
from .rules import ALL_RULES, default_rules

__all__ = [
    "ALL_RULES",
    "FileContext",
    "Finding",
    "Rule",
    "SCHEMA_VERSION",
    "Severity",
    "analyze_paths",
    "default_rules",
    "render_human",
    "render_json",
]
