"""``python -m repro.analysis`` — run the rule pack with a gating exit.

Exit status is 1 when any unsuppressed finding remains (the CI gate), 0
otherwise.  Default paths are the trees the acceptance criteria name:
``src``, ``benchmarks``, ``examples`` plus the spec-bearing top-level
docs — all resolved against the repository root, which is derived from
this file's location so the command works from any cwd.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .framework import analyze_paths
from .report import render_human, render_json
from .rules import ALL_RULES, default_rules

__all__ = ["main"]

REPO_ROOT = Path(__file__).resolve().parents[4]
DEFAULT_PATHS = ("src", "benchmarks", "examples", "README.md", "DESIGN.md")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-level invariant checks for the repro engine contracts.",
    )
    ap.add_argument(
        "paths", nargs="*",
        help=f"files or directories to scan (default: {' '.join(DEFAULT_PATHS)})",
    )
    ap.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="output format (json is the schema-versioned envelope)",
    )
    ap.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    ap.add_argument(
        "--root", type=Path, default=REPO_ROOT,
        help="repository root (for default and relative paths)",
    )
    ap.add_argument(
        "--show-suppressed", action="store_true",
        help="include suppressed findings in human output",
    )
    ap.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    args = ap.parse_args(argv)

    root = args.root.resolve()
    only = args.rules.split(",") if args.rules else None
    rules = default_rules(only=only)
    if args.list_rules:
        for rule in rules:
            print(f"{rule.id}  {rule.title}")
        return 0
    if only and not rules:
        print(f"no such rules: {args.rules} (known: {', '.join(ALL_RULES)})", file=sys.stderr)
        return 2

    paths = [Path(p) for p in args.paths] if args.paths else [root / p for p in DEFAULT_PATHS]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"no such path(s): {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    findings, files = analyze_paths(paths, rules, repo_root=root)
    if args.format == "json":
        print(render_json(findings, files, rules={r.id: r.title for r in rules}))
    else:
        print(render_human(findings, files, show_suppressed=args.show_suppressed))
    return 1 if any(not f.suppressed for f in findings) else 0


if __name__ == "__main__":  # pragma: no cover - exercised via -m
    sys.exit(main())
