"""Finding/severity model, rule base class, suppressions and the driver.

Everything here is stdlib-only (``ast``, ``re``, ``dataclasses``).

Suppression grammar
-------------------
A finding is silenced — but still reported with ``suppressed: true`` in
the JSON output — by an *allow* comment carrying the rule id and a
mandatory reason::

    result = spgemm_rowwise(A, A)  # repro: allow[RA001] baseline oracle

    # repro: allow[RA002] planning is a cold, once-per-pattern path
    span = self.tracer.span("planner.plan")

    # repro: allow-file[RA003] fixture exercising the determinism rule

Same-line comments cover that line; a comment alone on a line covers the
next code line; ``allow-file`` covers the whole file.  Markdown uses
``<!-- repro: allow[RA004] reason -->``.  A suppression *without* a
reason is itself a finding (``RA000``): the reason is the audit trail.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

__all__ = [
    "Finding",
    "Severity",
    "Rule",
    "FileContext",
    "analyze_file",
    "analyze_paths",
    "collect_files",
    "dotted_name",
    "path_has_parts",
]


class Severity:
    """Finding severities, ordered.  Only ``ERROR`` gates the build;
    ``WARNING`` exists for rules being phased in."""

    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    suppression_reason: str | None = None

    def to_dict(self) -> dict:
        d = {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
        }
        if self.suppression_reason is not None:
            d["reason"] = self.suppression_reason
        return d


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
_ALLOW_RE = re.compile(
    r"(?:#|<!--)\s*repro:\s*allow(?P<file>-file)?\[(?P<rules>[A-Za-z0-9_,\s]+)\]\s*(?P<reason>[^\n]*?)\s*(?:-->\s*)?$"
)


@dataclass
class _Suppression:
    rules: tuple[str, ...]
    reason: str
    line: int  # line the comment sits on
    applies_line: int | None  # code line covered (None = whole file)

    def covers(self, rule: str, line: int) -> bool:
        if rule not in self.rules:
            return False
        return self.applies_line is None or self.applies_line == line


def _parse_suppressions(source: str) -> list[_Suppression]:
    """Extract allow-comments from ``source`` (works for .py and .md)."""
    out: list[_Suppression] = []
    lines = source.splitlines()
    for idx, text in enumerate(lines, start=1):
        m = _ALLOW_RE.search(text)
        if m is None:
            continue
        rules = tuple(r.strip() for r in m.group("rules").split(",") if r.strip())
        reason = m.group("reason").strip()
        if m.group("file"):
            applies: int | None = None
        elif text[: m.start()].strip():
            applies = idx  # trailing comment: covers its own line
        else:
            # Comment-only line: covers the next non-blank, non-comment line.
            applies = idx
            for nxt in range(idx + 1, len(lines) + 1):
                stripped = lines[nxt - 1].strip()
                if stripped and not stripped.startswith(("#", "<!--")):
                    applies = nxt
                    break
        out.append(_Suppression(rules=rules, reason=reason, line=idx, applies_line=applies))
    return out


# ----------------------------------------------------------------------
# File context
# ----------------------------------------------------------------------
@dataclass
class FileContext:
    """Everything a rule needs about one file.

    ``tree``/``parents`` are ``None`` for non-Python files (markdown):
    rules that understand text implement :meth:`Rule.check` against
    ``source`` directly.
    """

    path: Path
    display_path: str
    source: str
    tree: ast.AST | None
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)
    suppressions: list[_Suppression] = field(default_factory=list)

    @property
    def is_python(self) -> bool:
        return self.tree is not None

    @property
    def parts(self) -> tuple[str, ...]:
        return self.path.parts

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self.parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        cur = self.parents.get(node)
        while cur is not None:
            yield cur
            cur = self.parents.get(cur)

    def suppression_for(self, rule: str, line: int) -> _Suppression | None:
        for sup in self.suppressions:
            if sup.covers(rule, line):
                return sup
        return None


def _build_context(path: Path, repo_root: Path | None) -> FileContext | None:
    source = path.read_text(encoding="utf-8", errors="replace")
    try:
        display = str(path.relative_to(repo_root)) if repo_root else str(path)
    except ValueError:
        display = str(path)
    tree: ast.AST | None = None
    parents: dict[ast.AST, ast.AST] = {}
    if path.suffix == ".py":
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            # Unparsable files are compileall's problem, not ours.
            return None
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
    return FileContext(
        path=path,
        display_path=display,
        source=source,
        tree=tree,
        parents=parents,
        suppressions=_parse_suppressions(source),
    )


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
class Rule:
    """One invariant.  Subclasses set ``id``/``title``/``severity`` and
    implement :meth:`check`; :meth:`applies_to` scopes by path."""

    id: str = "RA000"
    title: str = ""
    severity: str = Severity.ERROR

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.is_python

    def check(self, ctx: FileContext) -> Iterable[Finding]:  # pragma: no cover - interface
        raise NotImplementedError

    def finding(self, ctx: FileContext, line: int, col: int, message: str) -> Finding:
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=ctx.display_path,
            line=line,
            col=col,
            message=message,
        )


# ----------------------------------------------------------------------
# AST helpers shared by the rule pack
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def path_has_parts(ctx: FileContext, *want: str) -> bool:
    """True when ``want`` appears as consecutive path components, so the
    same rule scoping covers ``src/repro/engine/x.py`` and test fixtures
    under ``tests/analysis_fixtures/repro/engine/x.py``."""
    parts = ctx.parts
    n = len(want)
    return any(parts[i : i + n] == want for i in range(len(parts) - n + 1))


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "results", "node_modules"}


def collect_files(paths: Sequence[Path]) -> list[Path]:
    """Expand ``paths`` into the sorted .py/.md files to analyze."""
    out: set[Path] = set()
    for p in paths:
        p = Path(p)
        if p.is_dir():
            for sub in p.rglob("*"):
                if sub.suffix in (".py", ".md") and not (set(sub.parts) & _SKIP_DIRS):
                    out.add(sub.resolve())
        elif p.suffix in (".py", ".md") and p.exists():
            out.add(p.resolve())
    return sorted(out)


def analyze_file(path: Path, rules: Sequence[Rule], repo_root: Path | None = None) -> list[Finding]:
    ctx = _build_context(Path(path), repo_root)
    if ctx is None:
        return []
    findings: list[Finding] = []
    for rule in rules:
        if not rule.applies_to(ctx):
            continue
        for f in rule.check(ctx):
            sup = ctx.suppression_for(f.rule, f.line)
            if sup is not None:
                f = Finding(
                    rule=f.rule,
                    severity=f.severity,
                    path=f.path,
                    line=f.line,
                    col=f.col,
                    message=f.message,
                    suppressed=True,
                    suppression_reason=sup.reason or None,
                )
            findings.append(f)
    # RA000: every suppression must carry a reason — it is the audit trail.
    for sup in ctx.suppressions:
        if not sup.reason:
            findings.append(
                Finding(
                    rule="RA000",
                    severity=Severity.ERROR,
                    path=ctx.display_path,
                    line=sup.line,
                    col=0,
                    message="suppression without a reason; write "
                    f"'# repro: allow[{','.join(sup.rules)}] <why this is safe>'",
                )
            )
    return findings


def analyze_paths(
    paths: Sequence[Path], rules: Sequence[Rule], repo_root: Path | None = None
) -> tuple[list[Finding], int]:
    """Run ``rules`` over every file under ``paths``.

    Returns ``(findings, files_scanned)`` with findings sorted by
    location then rule id — deterministic for byte-identical reruns.
    """
    files = collect_files(paths)
    findings: list[Finding] = []
    for f in files:
        findings.extend(analyze_file(f, rules, repo_root))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings, len(files)
