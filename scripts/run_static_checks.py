#!/usr/bin/env python3
"""Static checks gate: byte-compile ``src`` and run the analyzer suite.

Needs numpy and scipy: RA004 and RA006 read the live component registry
(:mod:`repro.pipeline.registry`) and RA004 validates spec literals with
the runtime parser.

Steps, each fatal on failure:

1. ``compileall`` over ``src`` (syntax gate);
2. ``python -m repro.analysis`` over ``src benchmarks examples
   README.md DESIGN.md`` (the RA rule pack, exit 1 on any unsuppressed
   finding);
3. envelope check: the analyzer's ``--format json`` output must be
   schema-versioned like the ``BENCH_*.json`` artefacts.
"""

from __future__ import annotations

import argparse
import compileall
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
ANALYSIS_PATHS = ("src", "benchmarks", "examples", "README.md", "DESIGN.md")


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "paths", nargs="*", default=None,
        help=f"paths for the analyzer (default: {' '.join(ANALYSIS_PATHS)})",
    )
    ap.add_argument("--json", action="store_true", help="print the analyzer's JSON envelope")
    args = ap.parse_args(argv)

    if not compileall.compile_dir(str(SRC), quiet=1, force=False):
        fail("compileall found syntax errors under src/")
    print(f"compileall: OK ({SRC})")

    sys.path.insert(0, str(SRC))
    from repro.analysis.checks import cli

    paths = args.paths or [str(REPO_ROOT / p) for p in ANALYSIS_PATHS]

    # JSON pass first: the envelope must be schema-versioned whatever
    # the finding count, like the BENCH_*.json artefacts.
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(["--format", "json", *paths])
    try:
        envelope = json.loads(buf.getvalue())
    except Exception as exc:
        fail(f"analyzer JSON output is not valid JSON ({exc})")
    for key in ("schema", "tool", "summary", "findings"):
        if key not in envelope:
            fail(f"analyzer envelope missing key {key!r}")
    if not isinstance(envelope["schema"], int):
        fail(f"analyzer envelope schema is not an integer: {envelope['schema']!r}")
    if args.json:
        print(buf.getvalue())

    # Human pass for the log, sharing the gating exit code.
    rc_human = cli.main(paths)
    if rc_human != rc:
        fail(f"analyzer exit codes disagree between formats ({rc_human} vs {rc})")
    if rc != 0:
        fail("static analysis found unsuppressed findings (see above)")
    print("static checks: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
