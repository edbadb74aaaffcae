"""The RA rule pack: the repo's contracts, checked at the AST level.

=====  ===============================================================
RA000  suppression comments must carry a reason (emitted by the driver)
RA001  single dispatch: kernels are invoked only through
       ``repro.backends.execute`` (outside the backend/kernel layers)
RA002  hot-path tracing guard: ``tracer.span``/``event`` sites in
       engine/backends/pipeline/serve must be dominated by an
       ``.enabled`` guard so the disabled path allocates nothing
RA003  determinism: no wall clock, no unseeded RNG, no set-ordered
       iteration in engine/planner/serve/replay/fingerprint code
RA004  registry contract: ``@register`` sites declare ``family=``;
       every spec string literal validates against the registry
RA006  no registry-bypassing constants: module-level tuples of
       component names in engine code (the PR 2 shims' failure mode)
RA007  no blocking ``time.sleep`` on the serving request path: waits
       must go through interruptible condition/event timeouts
RA009  accumulator confinement: ``HashAccumulator``/``DenseAccumulator``
       are constructed only through ``make_accumulator`` (owner:
       ``repro/core/accumulators.py``) so capacity-hint sizing has one
       auditable site
=====  ===============================================================

Path scoping matches *consecutive path components* (``repro/engine``),
so the same rules fire on ``src/repro/engine/…`` and on test fixtures
under ``tests/analysis_fixtures/repro/engine/…``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable

from .framework import FileContext, Finding, Rule, dotted_name, path_has_parts
from .registry_scan import (
    NONE_NAMES,
    ComponentUniverse,
    load_universe,
    spec_shaped,
    validate_spec,
)

__all__ = ["ALL_RULES", "default_rules"]

#: The kernel entry points behind :func:`repro.backends.execute`.
KERNEL_FUNCTIONS = frozenset({"spgemm_rowwise", "cluster_spgemm", "tiled_spgemm"})


def _in_repro(ctx: FileContext) -> bool:
    return path_has_parts(ctx, "repro")


# ----------------------------------------------------------------------
# RA001 — single dispatch
# ----------------------------------------------------------------------
class SingleDispatchRule(Rule):
    id = "RA001"
    title = "kernel calls route through repro.backends.execute"

    #: Layers allowed to touch kernels directly: the dispatch layer
    #: itself and the modules that *define* the kernels.
    _EXEMPT = (("repro", "backends"), ("repro", "core"), ("repro", "analysis"))

    def applies_to(self, ctx: FileContext) -> bool:
        return (
            ctx.is_python
            and _in_repro(ctx)
            and not any(path_has_parts(ctx, *p) for p in self._EXEMPT)
        )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            terminal = name.rsplit(".", 1)[-1]
            if terminal in KERNEL_FUNCTIONS:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"direct kernel call {terminal}(); dispatch through "
                    "repro.backends.execute so backend selection, tracing and "
                    "statistics stay on the one path",
                )


# ----------------------------------------------------------------------
# RA002 — tracing guard
# ----------------------------------------------------------------------
def _is_enabled_positive(test: ast.AST) -> bool:
    name = dotted_name(test)
    if name is not None and name.split(".")[-1] == "enabled":
        return True
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return any(_is_enabled_positive(v) for v in test.values)
    return False


def _is_enabled_negative(test: ast.AST) -> bool:
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _is_enabled_positive(test.operand)
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        return any(_is_enabled_negative(v) for v in test.values)
    return False


def _terminates(stmts: list[ast.stmt]) -> bool:
    return bool(stmts) and isinstance(stmts[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break))


class TracingGuardRule(Rule):
    id = "RA002"
    title = "tracer calls in hot paths are guarded by .enabled"

    _SCOPES = (
        ("repro", "engine"),
        ("repro", "backends"),
        ("repro", "pipeline"),
        ("repro", "serve"),
    )
    _TRACER_METHODS = frozenset({"span", "event", "start_span"})

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.is_python and any(path_has_parts(ctx, *p) for p in self._SCOPES)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr not in self._TRACER_METHODS:
                continue
            receiver = dotted_name(node.func.value)
            if receiver is None or "tracer" not in receiver.split(".")[-1].lower():
                continue
            if self._guarded(ctx, node):
                continue
            yield self.finding(
                ctx,
                node.lineno,
                node.col_offset,
                f"{receiver}.{node.func.attr}() is not dominated by an "
                "'.enabled' guard; the disabled tracer must stay allocation-"
                "free on this path (DESIGN.md §12)",
            )

    def _guarded(self, ctx: FileContext, call: ast.Call) -> bool:
        # (a) An ancestor `if`/ternary on `.enabled` whose taken branch
        #     holds the call.
        child: ast.AST = call
        for parent in ctx.ancestors(call):
            if isinstance(parent, ast.If):
                if child in parent.body and _is_enabled_positive(parent.test):
                    return True
                if child in parent.orelse and _is_enabled_negative(parent.test):
                    return True
            elif isinstance(parent, ast.IfExp):
                if child is parent.body and _is_enabled_positive(parent.test):
                    return True
                if child is parent.orelse and _is_enabled_negative(parent.test):
                    return True
            elif isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # (b) An earlier early-exit guard in the same function:
                #     `if not tracer.enabled: return`.
                return self._early_exit_guard(ctx, call, parent)
            child = parent
        return False

    def _early_exit_guard(self, ctx: FileContext, call: ast.Call, fn: ast.AST) -> bool:
        # Walk block lists from the call up to the function body; in each,
        # look at statements *before* the one containing the call.
        child: ast.AST = call
        for parent in ctx.ancestors(call):
            for fname in ("body", "orelse", "finalbody"):
                block = getattr(parent, fname, None)
                if isinstance(block, list) and child in block:
                    for prev in block[: block.index(child)]:
                        if (
                            isinstance(prev, ast.If)
                            and _is_enabled_negative(prev.test)
                            and _terminates(prev.body)
                        ):
                            return True
            if parent is fn:
                break
            child = parent
        return False


# ----------------------------------------------------------------------
# RA003 — determinism
# ----------------------------------------------------------------------
class DeterminismRule(Rule):
    id = "RA003"
    title = "no wall clock, unseeded RNG or set-ordered iteration"

    _SCOPES = (("repro", "engine"), ("repro", "serve"))
    _SCOPE_FILES = ("replay.py", "fingerprint.py")

    _WALL_CLOCK = frozenset({"time.time", "time.time_ns"})
    _DATETIME_NOW = ("datetime.now", "datetime.utcnow", "datetime.today", "date.today")
    _RANDOM_MODULE = frozenset(
        {
            "random", "randint", "randrange", "shuffle", "sample", "choice",
            "choices", "uniform", "gauss", "seed", "normalvariate", "betavariate",
        }
    )

    def applies_to(self, ctx: FileContext) -> bool:
        if not ctx.is_python:
            return False
        if any(path_has_parts(ctx, *p) for p in self._SCOPES):
            return True
        return _in_repro(ctx) and ctx.path.name in self._SCOPE_FILES

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iter(ctx, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    yield from self._check_iter(ctx, gen.iter)

    def _check_call(self, ctx: FileContext, node: ast.Call) -> Iterable[Finding]:
        name = dotted_name(node.func)
        if name is None:
            return
        parts = name.split(".")
        if name in self._WALL_CLOCK or name.endswith(self._DATETIME_NOW):
            yield self.finding(
                ctx, node.lineno, node.col_offset,
                f"wall-clock call {name}() in deterministic code; plans and "
                "replay traces must be byte-reproducible per seed — use "
                "time.perf_counter for durations, never absolute time",
            )
        elif len(parts) == 2 and parts[0] == "random" and parts[1] in self._RANDOM_MODULE:
            yield self.finding(
                ctx, node.lineno, node.col_offset,
                f"{name}() draws from random's hidden module state; use an "
                "explicitly seeded random.Random(seed) / Generator instead",
            )
        elif len(parts) >= 2 and parts[-2] == "random" and parts[0] in ("np", "numpy"):
            if parts[-1] == "default_rng":
                if not node.args:
                    yield self.finding(
                        ctx, node.lineno, node.col_offset,
                        "np.random.default_rng() without a seed is entropy-"
                        "seeded; pass the workload/plan seed explicitly",
                    )
            elif parts[-1] not in ("Generator", "SeedSequence"):
                yield self.finding(
                    ctx, node.lineno, node.col_offset,
                    f"{name}() uses numpy's global RNG state; draw from a "
                    "seeded np.random.default_rng(seed) generator instead",
                )
        elif parts[-1] in ("default_rng", "Random", "RandomState") and not node.args:
            yield self.finding(
                ctx, node.lineno, node.col_offset,
                f"{name}() without a seed is entropy-seeded; pass the "
                "workload/plan seed explicitly",
            )

    def _check_iter(self, ctx: FileContext, it: ast.AST) -> Iterable[Finding]:
        is_set = isinstance(it, (ast.Set, ast.SetComp)) or (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id in ("set", "frozenset")
        )
        if is_set:
            yield self.finding(
                ctx, it.lineno, it.col_offset,
                "iteration order over a set is hash-dependent and leaks into "
                "plan keys / replay traces; iterate sorted(...) instead",
            )


# ----------------------------------------------------------------------
# RA004 — registry contract
# ----------------------------------------------------------------------
class RegistryContractRule(Rule):
    id = "RA004"
    title = "@register declares its tags; spec literals validate"

    def __init__(self, universe: ComponentUniverse) -> None:
        self.universe = universe

    def applies_to(self, ctx: FileContext) -> bool:
        return not self.universe.empty  # md included: fenced specs validate too

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.is_python:
            if path_has_parts(ctx, "repro", "reordering"):
                yield from self._check_register_sites(ctx)
            yield from self._check_python_specs(ctx)
        else:
            yield from self._check_markdown_specs(ctx)

    # -- @register sites must declare the reordering capability tags ----
    def _check_register_sites(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            for dec in node.decorator_list:
                if not (isinstance(dec, ast.Call) and dec.args):
                    continue
                fn = dotted_name(dec.func)
                if fn is None or fn.split(".")[-1] != "register":
                    continue
                keywords = {kw.arg for kw in dec.keywords}
                if "family" not in keywords:
                    yield self.finding(
                        ctx, dec.lineno, dec.col_offset,
                        f"@register site for {node.name!r} declares no family=; "
                        "reorderings must state their capability tags explicitly "
                        "(the planner ranks and figures group by family)",
                    )

    # -- spec string literals -------------------------------------------
    def _check_python_specs(self, ctx: FileContext) -> Iterable[Finding]:
        definite: list[tuple[str, int, int]] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                fn = dotted_name(node.func)
                if fn is not None and fn.endswith("PipelineSpec.parse") and node.args:
                    arg = node.args[0]
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                        definite.append((arg.value, arg.lineno, arg.col_offset))
        seen = {(ln, col) for _, ln, col in definite}
        candidates: list[tuple[str, int, int]] = []
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and (node.lineno, node.col_offset) not in seen
                and self._looks_like_spec(node.value)
            ):
                candidates.append((node.value, node.lineno, node.col_offset))
        for text, line, col in definite + candidates:
            yield from self._validate(ctx, text, line, col)

    def _check_markdown_specs(self, ctx: FileContext) -> Iterable[Finding]:
        # Specs live in fenced code blocks and inline back-ticked spans.
        in_fence = False
        for lineno, line in enumerate(ctx.source.splitlines(), start=1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            spans = [line] if in_fence else re.findall(r"`([^`]+)`", line)
            for span in spans:
                for token in re.split(r"[\s\"')(,;]+", span):
                    token = token.strip("`.")
                    if self._looks_like_spec(token):
                        col = line.find(token)
                        yield from self._validate(ctx, token, lineno, max(col, 0))

    def _looks_like_spec(self, text: str) -> bool:
        if not spec_shaped(text):
            return False
        core, _, btext = text.partition("@")
        names = [seg.partition(":")[0] for seg in core.split("+") if seg]
        if btext:
            names.append(btext.partition(":")[0])
        return any(
            self.universe.kind_of(n) is not None or n in NONE_NAMES for n in names
        )

    def _validate(self, ctx: FileContext, text: str, line: int, col: int) -> Iterable[Finding]:
        for err in validate_spec(text, self.universe):
            yield self.finding(ctx, line, col, err)


# ----------------------------------------------------------------------
# RA006 — registry-bypassing constants
# ----------------------------------------------------------------------
class RegistryBypassRule(Rule):
    id = "RA006"
    title = "no hardcoded component-name tuples in engine code"

    def __init__(self, universe: ComponentUniverse) -> None:
        self.universe = universe

    def applies_to(self, ctx: FileContext) -> bool:
        return (
            ctx.is_python
            and not self.universe.empty
            and path_has_parts(ctx, "repro", "engine")
        )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ctx.tree.body:
            targets: list[ast.expr] = []
            value = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if not (targets and isinstance(value, (ast.Tuple, ast.List, ast.Set))):
                continue
            names = [e.value for e in value.elts if isinstance(e, ast.Constant) and isinstance(e.value, str)]
            if len(names) < 2 or len(names) != len(value.elts):
                continue
            if all(self.universe.kind_of(n) is not None for n in names):
                label = ", ".join(
                    t.id for t in targets if isinstance(t, ast.Name)
                ) or "<constant>"
                yield self.finding(
                    ctx, node.lineno, node.col_offset,
                    f"{label} hardcodes registered component names "
                    f"({names}); enumerate via repro.pipeline.registry."
                    "components() so new registrations are picked up "
                    "(the PLANNER_REORDERINGS shim regression, PR 2)",
                )


# ----------------------------------------------------------------------
# RA007 — no blocking sleep on the serving hot path
# ----------------------------------------------------------------------
class HotPathSleepRule(Rule):
    id = "RA007"
    title = "no time.sleep on the serving request path"

    _SCOPES = (("repro", "serve"),)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.is_python and any(path_has_parts(ctx, *p) for p in self._SCOPES)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name == "time.sleep" or name == "sleep":
                yield self.finding(
                    ctx, node.lineno, node.col_offset,
                    f"blocking {name}() on the serving path: it holds the "
                    "thread hostage for its full duration and cannot be "
                    "interrupted by shutdown; wait on Condition.wait(timeout) "
                    "/ Event.wait(timeout) so close() can wake the waiter",
                )


# ----------------------------------------------------------------------
# RA009 — accumulator confinement
# ----------------------------------------------------------------------
class AccumulatorConfinementRule(Rule):
    id = "RA009"
    title = "accumulators are constructed only through make_accumulator"

    #: The module allowed to construct accumulator classes directly:
    #: the factory itself.  Only *calls* are flagged — re-exports
    #: (``repro.core.__init__``) stay legal.
    _OWNERS = (("repro", "core", "accumulators.py"),)
    _CLASSES = frozenset({"DenseAccumulator", "HashAccumulator"})

    def applies_to(self, ctx: FileContext) -> bool:
        return (
            ctx.is_python
            and _in_repro(ctx)
            and not any(path_has_parts(ctx, *p) for p in self._OWNERS)
        )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            terminal = name.rsplit(".", 1)[-1]
            if terminal in self._CLASSES:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"direct {terminal}(...) construction; go through "
                    "repro.core.make_accumulator so capacity-hint sizing "
                    "(the symbolic upper bound) has one auditable site",
                )


# ----------------------------------------------------------------------
ALL_RULES = ("RA001", "RA002", "RA003", "RA004", "RA006", "RA007", "RA009")


def default_rules(repo_root: Path, only: Iterable[str] | None = None) -> list[Rule]:
    """The full rule pack (``only`` filters by rule id)."""
    universe = load_universe(Path(repo_root))
    rules: list[Rule] = [
        SingleDispatchRule(),
        TracingGuardRule(),
        DeterminismRule(),
        RegistryContractRule(universe),
        RegistryBypassRule(universe),
        HotPathSleepRule(),
        AccumulatorConfinementRule(),
    ]
    if only is not None:
        wanted = {r.strip().upper() for r in only}
        rules = [r for r in rules if r.id in wanted]
    return rules
