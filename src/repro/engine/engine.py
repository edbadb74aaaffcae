"""The :class:`SpGEMMEngine` facade — plan once, execute many times.

Callers hand the engine matrices and get products back, while the
engine

1. **digests** the left operand's pattern (O(nnz)), which keys the plan
   cache,
2. **plans** via the configured policy (heuristic / autotune, or one
   fixed ``pipeline=`` spec) — or reuses a cached plan when the pattern
   was seen before; only a plan build reads the operand's structural
   features (:func:`~repro.engine.fingerprint.fingerprint`),
3. **prepares** the operand (reorder + cluster build) as a
   :class:`~repro.pipeline.spec.BuiltPipeline`, reusing it across calls
   with identical values (a new plan's operand is the one the planner
   built while measuring it),
4. **executes** the plan through its execution backend
   (:mod:`repro.backends`; ``scipy`` by default), which returns the
   product in the original row order, bitwise-identical to
   :func:`~repro.core.spgemm.spgemm_rowwise` on the original operands
   once exact-zero sums are dropped (NaNs by position) — ``scipy``
   drops them, as raw scipy does; ``reference`` keeps them.  An ``A²``
   product's right operand goes to the backend as ``None``, the
   prepared operand's own source, so ``scipy`` squares data it owns
   and records that square's structure,
5. **accounts**: cumulative planning / preprocessing / execution time
   (wall-clock, plus model units for plans that carry model costs) and
   the break-even iteration count at which the one-off costs amortise
   (paper Fig. 10, Table 4).

Steps 1–3 are the *bind* step (``SpGEMMEngine._bind``), run once per
public call; step 4 is the *run* step (``SpGEMMEngine._run``), run once
per batch: :meth:`~SpGEMMEngine.multiply` runs a batch of one,
:meth:`~SpGEMMEngine.multiply_many` one batch of all its products, and
:meth:`~SpGEMMEngine.power` a batch of one per step of its chain.  So a
batch or a power pays for digesting, plan lookup and
kernel-parameter resolution once, and the backend sees a whole batch
(``scipy`` may run its products on two threads, DESIGN.md §10).

Every call runs the engine's one planner: the policy, backend and
pipeline are fixed at construction, so an engine with another backend
or spec is another :class:`SpGEMMEngine` (engines may share one
:class:`~repro.engine.plan_cache.PlanCache`).

Typical use::

    eng = SpGEMMEngine()            # heuristic policy on scipy
    C = eng.multiply(A)             # A², planned + preprocessed
    C = eng.multiply(A)             # plan + prepared operand reused
    Cs = eng.multiply_many(A, frontiers)   # BC-style batch
    print(eng.stats().summary())
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace

from ..backends import ExecutionBackend, ExecutionContext, execute_many as backend_execute_many, get_backend
from ..core.csr import CSRMatrix
from ..experiments.config import ExperimentConfig
from ..obs import NOOP_TRACER, Tracer
from ..pipeline import BuiltPipeline, PipelineSpec
from .fingerprint import fingerprint, pattern_digest, pattern_key, value_digest
from .plan import ExecutionPlan
from .plan_cache import PlanCache
from .planner import Planner, make_planner

__all__ = ["SpGEMMEngine", "EngineStats"]

#: Prepared-operand LRU capacity (value-exact reuse).  A
#: :class:`~repro.pipeline.spec.BuiltPipeline` also owns its backend
#: state (the ``scipy`` backend's recorded ``A²`` structure), evicted
#: with it.
OPERAND_CACHE_SIZE = 16


@dataclass
class EngineStats:
    """Cumulative engine accounting (amortisation ledger).

    Wall-clock seconds are split into planning / preprocessing /
    execution; model units track the simulated-machine economics that
    the break-even computation uses: every multiply is charged its
    plan's ``predicted_cost`` and credited the plan's ``baseline_cost``,
    while planning trials and operand preparation are one-off
    investments.  Only plans that carry model costs (those for a
    kernel-honouring backend, ``reference``) reach the ``model_*``
    fields: a kernel-blind (``scipy``) plan's costs are ``nan``
    (:mod:`repro.engine.planner`), so an engine with only such plans
    keeps every ``model_*`` sum at 0 and reports
    :meth:`break_even_iterations` as ``inf``.

    Thread safety: the serving front-end (:mod:`repro.serve`) mutates one
    stats object from its dispatch thread, fallback (caller) threads and
    RPC handler threads concurrently, so every mutation goes through
    :meth:`bump` / :meth:`bump_plan` — additions under a per-instance
    lock (``+=`` on an attribute is a read-modify-write and silently
    drops updates under contention).  The lock is allocated once in
    ``__post_init__``; single-threaded callers pay one uncontended
    acquire per counter batch.
    """

    multiplies: int = 0
    plans_built: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    operands_prepared: int = 0
    operands_reused: int = 0
    planning_seconds: float = 0.0
    preprocess_seconds: float = 0.0
    execute_seconds: float = 0.0
    model_planning_cost: float = 0.0
    model_pre_cost: float = 0.0
    model_executed_cost: float = 0.0
    model_baseline_cost: float = 0.0
    per_plan: dict = field(default_factory=dict)  # plan label → multiply count
    backend_events: dict = field(default_factory=dict)  # ExecutionContext counters
    # Serving-derived metrics (queue depth, coalesce ratio, shed count,
    # latency percentiles, per-client breakdowns) synced in by a
    # :class:`repro.serve.SpGEMMServer`; empty for a plain engine.
    serving: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    @property
    def lock(self) -> threading.Lock:
        """The mutation lock — held by callers that need a multi-field
        consistent update or snapshot."""
        return self._lock

    def bump(self, *, repeat: int = 1, **deltas) -> None:
        """Add ``deltas`` to the named counter fields atomically,
        ``repeat`` times over: a batch of ``repeat`` products ledgers the
        same float sums as ``repeat`` single ones."""
        with self._lock:
            for name, delta in deltas.items():
                total = getattr(self, name)
                for _ in range(repeat):
                    total += delta
                setattr(self, name, total)

    def bump_plan(self, label: str, n: int = 1) -> None:
        """Count ``n`` multiplies against plan ``label``."""
        with self._lock:
            self.per_plan[label] = self.per_plan.get(label, 0) + n

    # ------------------------------------------------------------------
    @property
    def invested_cost(self) -> float:
        """One-off model units: planning trials + preprocessing."""
        return self.model_planning_cost + self.model_pre_cost

    @property
    def cumulative_gain(self) -> float:
        """Model units saved so far vs always running the baseline."""
        return self.model_baseline_cost - self.model_executed_cost

    @property
    def speedup_to_date(self) -> float:
        if self.model_executed_cost <= 0:
            return float("nan")
        return self.model_baseline_cost / self.model_executed_cost

    def break_even_iterations(self) -> float:
        """Multiplies (at the observed mean gain) to repay the invested
        planning + preprocessing cost; ``inf`` without a positive gain."""
        if self.multiplies == 0 or self.cumulative_gain <= 0:
            return float("inf")
        per_multiply_gain = self.cumulative_gain / self.multiplies
        return self.invested_cost / per_multiply_gain

    def amortization_progress(self) -> float:
        """``cumulative_gain / invested_cost`` — ≥ 1.0 once the one-off
        costs have fully paid for themselves (monotone non-decreasing
        whenever the chosen plans beat the baseline)."""
        if self.invested_cost <= 0:
            return float("inf") if self.cumulative_gain > 0 else 0.0
        return self.cumulative_gain / self.invested_cost

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot: every counter field plus the
        derived amortisation metrics.

        Containers are copied and non-finite derived values map to
        ``None``, so the result passes ``json.dumps`` under strict
        (``allow_nan=False``) settings — the machine-readable contract
        behind the CLI's ``--stats-json``.
        """
        from dataclasses import fields

        def _json_safe(v):
            # Recursive: the serving block nests dicts (per-client stats,
            # latency percentiles) that may carry NaN/inf values.
            if isinstance(v, (list, tuple)):
                return [_json_safe(x) for x in v]
            if isinstance(v, dict):
                return {k: _json_safe(x) for k, x in v.items()}
            if isinstance(v, float) and not math.isfinite(v):
                return None
            return v

        with self._lock:
            d = {f.name: _json_safe(getattr(self, f.name)) for f in fields(self)}
            d["invested_cost"] = _json_safe(self.invested_cost)
            d["cumulative_gain"] = _json_safe(self.cumulative_gain)
            d["break_even_iterations"] = _json_safe(self.break_even_iterations())
            d["amortization_progress"] = _json_safe(self.amortization_progress())
        return d

    def summary(self) -> str:
        be = self.break_even_iterations()
        be_s = f"{be:.1f}" if be != float("inf") else "inf"
        lines = [
            f"multiplies          : {self.multiplies}",
            f"plans built / hits  : {self.plans_built} / {self.plan_cache_hits}",
            f"operands built/reuse: {self.operands_prepared} / {self.operands_reused}",
            f"wall  plan/pre/exec : {self.planning_seconds:.3f}s / {self.preprocess_seconds:.3f}s / {self.execute_seconds:.3f}s",
        ]
        if self.invested_cost or self.model_executed_cost:
            lines += [
                f"model invested      : {self.invested_cost:,.0f} units",
                f"model gain to date  : {self.cumulative_gain:,.0f} units (speedup {self.speedup_to_date:.2f}x)",
                f"break-even at       : {be_s} multiplies (progress {self.amortization_progress():.2f})",
            ]
        else:
            lines.append("model costs         : n/a (no plan carries model costs)")
        for label, n in sorted(self.per_plan.items()):
            lines.append(f"  plan {label}: {n} multiplies")
        for key, n in sorted(self.backend_events.items()):
            lines.append(f"  backend {key}: {n}")
        for key in sorted(self.serving):
            v = self.serving[key]
            if not isinstance(v, dict):  # scalars only; nested blocks are to_dict() fare
                lines.append(f"  serving {key}: {v}")
        return "\n".join(lines)


#: Stands in for the public calls' span when tracing is disabled: a
#: shared, stateless context manager (no span, no allocation).
_UNTRACED = nullcontext()


def _check_inner(A: CSRMatrix, B: CSRMatrix) -> None:
    if A.ncols != B.nrows:
        raise ValueError(f"inner dimensions differ: {A.shape} x {B.shape}")


@dataclass(frozen=True)
class _Bound:
    """One public call's binding of its left operand ``A``: everything
    the call's products share (built by ``SpGEMMEngine._bind``)."""

    plan: ExecutionPlan
    built: BuiltPipeline
    kernel_params: dict
    backend: ExecutionBackend  # the plan's backend, resolved once per call
    hit: bool  # the plan came from the cache (ledgered once a batch ran)
    reused: bool  # the operand came from the cache (likewise)


class SpGEMMEngine:
    """Auto-tuning SpGEMM execution engine (see module docstring).

    Parameters
    ----------
    policy:
        ``"heuristic"`` or ``"autotune"`` — see
        :mod:`repro.engine.planner`.  ``"autotune"`` needs
        ``backend="reference"``.
    config:
        :class:`~repro.experiments.config.ExperimentConfig` supplying
        the simulated machine (planning trials and cost accounting),
        the clustering parameters and the seed for reorderings and
        feature sampling (plan determinism).
    plan_cache:
        Shared in-memory :class:`~repro.engine.plan_cache.PlanCache`; a
        private one is created when omitted.  Plans are not kept across
        processes.
    pipeline:
        A :class:`~repro.pipeline.spec.PipelineSpec` (or its string
        form, e.g. ``"rcm+hierarchical:max_th=8+cluster"``) to execute
        for every multiply instead of searching — the declarative
        entry point.
    backend:
        Execution backend (:mod:`repro.backends`) every plan targets.
        ``None`` (default) plans on ``scipy``, or on ``reference`` when
        scipy is not registered.  A backend name (optionally with
        spec-style parameters) pins every plan to that backend;
        ``"auto"`` is an alias of ``"scipy"``.  Every backend meets one
        contract: bitwise-equal to row-wise SpGEMM once exact-zero sums
        are dropped.  With ``pipeline=``, the backend is applied onto
        the spec; without one, the spec keeps its own ``@backend``.
    tracer:
        Optional :class:`~repro.obs.Tracer` (DESIGN.md §12).  An enabled
        tracer records ``engine.multiply`` / ``engine.multiply_many`` /
        ``engine.power`` spans (per-call latency, all three tagged alike
        with the call's own plan-cache hit/miss, plan label, backend
        and workload), ``planner.plan`` /
        ``planner.trial`` spans, ``backend.execute`` spans through the
        shared :class:`~repro.backends.ExecutionContext` and plan-cache
        put/evict events.  ``None`` (default) installs the shared no-op
        tracer: no spans, no allocations, behaviour identical to an
        uninstrumented engine.
    """

    def __init__(
        self,
        policy: str = "heuristic",
        *,
        config: ExperimentConfig | None = None,
        plan_cache: PlanCache | None = None,
        pipeline: "PipelineSpec | str | None" = None,
        backend: str | None = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.cfg = config or ExperimentConfig()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        kw = dict(cfg=self.cfg, tracer=self.tracer)
        if pipeline is not None:
            policy = "pipeline"
            spec = PipelineSpec.parse(pipeline)
            # The spec carries the backend.
            kw["spec"] = spec.with_backend(backend) if backend else spec
        elif policy == "pipeline":
            raise ValueError("policy='pipeline' needs a pipeline= spec")
        else:
            kw["backend"] = backend
        self.planner: Planner = make_planner(policy, **kw)
        self.policy = policy
        #: The config's simulated machine (the planner's).
        self.machine = self.planner.machine
        # Plan-key suffix: plans are made by this planner and embed costs
        # measured under this config, on its machine model, from its
        # seed — a shared PlanCache must not serve them to an engine that
        # differs in any of these.  All are fixed for the engine's
        # lifetime, so the suffix is serialised once.
        m = self.machine
        cost = ",".join(f"{k}={v}" for k, v in sorted(asdict(m.cost).items()))
        machine_token = f"m{m.n_threads}t{m.cache_lines}l{m.line_bytes}b[{cost}]"
        self._key_suffix = (
            f"{self.planner.cache_token}|{self.cfg.cache_key()}|{machine_token}|{self.cfg.seed}"
        )
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        if self.tracer.enabled and not self.plan_cache.tracer.enabled:
            # Attach the engine's tracer to its cache (shared caches keep
            # whichever enabled tracer reached them first).
            self.plan_cache.tracer = self.tracer
        self._operands: "OrderedDict[tuple, BuiltPipeline]" = OrderedDict()
        self._exec_ctx = ExecutionContext(cfg=self.cfg, tracer=self.tracer)
        self._stats = EngineStats()
        # The serving front-end drives one engine from its dispatch
        # thread and (on fallback) arbitrary caller threads.  The plan
        # cache builds each cold plan once across all of them
        # (PlanCache.get_or_build); _memo_lock guards the operand LRU.
        # Neither is held across backend execution, so a caller's warm
        # request executes while another thread plans a cold pattern.
        self._memo_lock = threading.RLock()

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _key_for(self, A: CSRMatrix, digest: str, workload: str) -> str:
        """The plan-cache key ``A`` (pattern digest ``digest``) addresses."""
        return f"{pattern_key(A.shape, A.nnz, digest)}|{workload}|{self._key_suffix}"

    @staticmethod
    def _infer_workload(A: CSRMatrix, B: CSRMatrix | None) -> str:
        if B is None or B is A:
            return "asquare"
        if B.ncols < B.nrows:
            return "tallskinny"
        return "general"

    def plan_for(
        self,
        A: CSRMatrix,
        B: CSRMatrix | None = None,
        *,
        workload: str | None = None,
    ) -> ExecutionPlan:
        """The plan the engine would execute for ``A @ B``.

        Introspection API: building a missing plan is real (and
        ledgered) work, but cache lookups made here do **not** bump the
        hit/miss counters — only the executing calls do, so the ledger
        counts executions, not displays.
        """
        Bx = A if B is None else B
        _check_inner(A, Bx)
        workload = workload or self._infer_workload(A, B)
        return self._lookup(A, Bx, pattern_digest(A), workload, count=False)[0]

    def _lookup(
        self,
        A: CSRMatrix,
        Bx: CSRMatrix,
        digest: str,
        workload: str,
        vdigest: str | None = None,
        *,
        count: bool = True,
    ) -> "tuple[ExecutionPlan, bool]":
        """The cached plan for ``A`` (pattern digest ``digest``), or a
        freshly built (and cached) one; returns ``(plan, hit)``.  A build
        caches the planner's operand under ``vdigest`` (``A``'s value
        digest, computed here when not given).  A miss is ledgered here
        unless ``count=False``; a hit is left to the caller
        (:meth:`_run`)."""
        t0 = time.perf_counter()

        def build() -> ExecutionPlan:
            if count:
                self._stats.bump(plan_cache_misses=1)
            fp = fingerprint(A, seed=self.cfg.seed, digest=digest)
            plan, built = self.planner.plan(A, Bx, fp, workload)
            self._stats.bump(plans_built=1, operands_prepared=1)
            if plan.has_model_costs:
                self._stats.bump(model_planning_cost=plan.planning_cost, model_pre_cost=plan.pre_cost)
            self._store_operand(self._operand_key(plan, vdigest or value_digest(A)), built)
            return plan

        plan, built = self.plan_cache.get_or_build(self._key_for(A, digest, workload), build)
        hit = not built
        self._stats.bump(planning_seconds=time.perf_counter() - t0)
        return plan, hit

    # ------------------------------------------------------------------
    # Preparation
    # ------------------------------------------------------------------
    @staticmethod
    def _operand_key(plan: ExecutionPlan, vdigest: str) -> tuple:
        # The whole spec discriminates: the same (reordering, clustering)
        # pair prepares differently for a cluster kernel (CSR_Cluster
        # materialisation) than for a row-traversal kernel (cluster order
        # composed), and parameterised pipelines must not collide with
        # config-default plans.  ``vdigest`` is A's value digest: reuse
        # is value-exact.
        return (plan.fingerprint_key, plan.spec, vdigest)

    def prepare(self, A: CSRMatrix, plan: ExecutionPlan) -> BuiltPipeline:
        """Build (or reuse) the plan's reordered/clustered operand."""
        built, reused = self._prepare(A, plan, value_digest(A))
        if reused:
            self._stats.bump(operands_reused=1)
        return built

    def _prepare(self, A: CSRMatrix, plan: ExecutionPlan, vdigest: str) -> tuple[BuiltPipeline, bool]:
        """The plan's operand and whether it came from the operand cache
        (a reuse is left to the caller to ledger)."""
        key = self._operand_key(plan, vdigest)
        with self._memo_lock:
            built = self._operands.get(key)
            if built is not None:
                self._operands.move_to_end(key)
        if built is not None:
            return built, True
        t0 = time.perf_counter()
        # Built outside the memo lock: preparation is the expensive step,
        # and a concurrent duplicate build is deterministic-identical.
        built = plan.spec.build(A, seed=plan.seed, mode="rows", cfg=self.cfg)
        self._stats.bump(preprocess_seconds=time.perf_counter() - t0, operands_prepared=1)
        if plan.has_model_costs:
            self._stats.bump(model_pre_cost=built.pre_cost(self.machine.cost))
        self._store_operand(key, built)
        return built, False

    def _store_operand(self, key: tuple, built: BuiltPipeline) -> None:
        with self._memo_lock:
            self._operands[key] = built
            while len(self._operands) > OPERAND_CACHE_SIZE:
                self._operands.popitem(last=False)

    # ------------------------------------------------------------------
    # Execution: bind once per call, run once per product
    # ------------------------------------------------------------------
    def _span(self, name: str, A: CSRMatrix, **tags):
        """The public calls' shared span (tagged by :meth:`_bind`); an
        allocation-free stand-in when tracing is disabled."""
        tracer = self.tracer
        if not tracer.enabled:
            return _UNTRACED
        return tracer.span(name, n=A.nrows, nnz=A.nnz, **tags)

    def _bind(self, A: CSRMatrix, Bx: CSRMatrix, workload: str, span) -> _Bound:
        """Everything one call's products share: look up (or build) the
        plan for ``A``, prepare its operand and resolve the kernel
        parameters.  Tags ``span`` with this call's own lookup outcome."""
        pdigest, vdigest = pattern_digest(A), value_digest(A)
        plan, hit = self._lookup(A, Bx, pdigest, workload, vdigest)
        built, reused = self._prepare(A, plan, vdigest)
        spec = plan.spec
        kernel_params = spec.kernel_info.resolve_params(spec.kernel_params, self.cfg)
        if self.tracer.enabled:
            span.tag(
                cache="hit" if hit else "miss",
                plan=plan.label,
                backend=spec.backend,
                workload=plan.workload,
            )
        backend = get_backend(spec.backend, spec.backend_params)
        return _Bound(plan, built, kernel_params, backend, hit, reused)

    def _run(self, bound: _Bound, A: CSRMatrix, Bs: list, *, reuse: bool = False) -> list[CSRMatrix]:
        """The products ``A @ B`` for every ``B`` in ``Bs`` through the
        bound plan: execute them as one batch (the backend returns them
        in the original row order) and ledger them.  Every product after
        the first — and the first too when ``reuse`` marks a later step
        of a power — is counted as a plan-cache hit plus an operand
        reuse: what per-product :meth:`multiply` calls would record.  The
        bind's own hit and reuse are counted with the first batch, once
        it has run: a batch the backend rejects ledgers nothing.

        Dispatch goes through :func:`repro.backends.execute_many` — the
        one kernel-execution path, which
        :meth:`~repro.pipeline.spec.BuiltPipeline.execute` reaches as a
        batch of one — so a newly
        registered kernel or backend is executable here with no engine
        edit.
        """
        t0 = time.perf_counter()
        plan = bound.plan
        # Every A² product is passed as ``None``, the operand's own source
        # (DESIGN.md §10): the operand's value digest equals A's, and
        # scipy records the structure of the square it computes from it.
        Cs = backend_execute_many(
            bound.built,
            [None if B is A else B for B in Bs],
            kernel=plan.spec.kernel,
            kernel_params=bound.kernel_params,
            backend=bound.backend,
            cfg=self.cfg,
            ctx=self._exec_ctx,
            original_order=True,
        )
        n = len(Bs)
        self._stats.bump(
            execute_seconds=time.perf_counter() - t0,
            multiplies=n,
            plan_cache_hits=n - 1 + (1 if reuse else int(bound.hit)),
            operands_reused=n - 1 + (1 if reuse else int(bound.reused)),
        )
        if plan.has_model_costs:
            self._stats.bump(
                repeat=n,
                model_executed_cost=plan.predicted_cost,
                model_baseline_cost=plan.baseline_cost,
            )
        self._stats.bump_plan(plan.label, n)
        return Cs

    def multiply(
        self,
        A: CSRMatrix,
        B: CSRMatrix | None = None,
        *,
        workload: str | None = None,
    ) -> CSRMatrix:
        """Compute ``A @ B`` (``A²`` when ``B`` is omitted) via the plan.

        The result equals :func:`~repro.core.spgemm.spgemm_rowwise` on
        the original operands bitwise once exact-zero sums are dropped
        (``scipy`` drops them): the plan's permutation gathers whole rows
        (``P·A``), so each output row's summation order is unchanged and
        only row placement is inverted at the end.
        """
        Bx = A if B is None else B
        _check_inner(A, Bx)
        workload = workload or self._infer_workload(A, B)
        with self._span("engine.multiply", A) as sp:
            bound = self._bind(A, Bx, workload, sp)
            return self._run(bound, A, [Bx])[0]

    def multiply_many(
        self,
        A: CSRMatrix,
        Bs,
        *,
        workload: str | None = None,
    ) -> list[CSRMatrix]:
        """Batch API: ``[A @ B for B in Bs]`` with one shared plan.

        This is the BC-frontier shape (paper §4.4): ``A`` is
        fingerprinted, planned and prepared exactly once, then reused
        across the whole sequence — per-wave overhead is O(1) in
        ``nnz(A)``.  Each reuse is counted as a plan-cache hit (and an
        operand reuse) in the ledger, matching what per-call
        :meth:`multiply` would have recorded.  Every ``B`` is
        dimension-checked before any work, so a rejected batch leaves
        the ledger untouched.  The products run as one backend batch
        (``scipy`` may split it across two threads); a ``B`` the
        backend rejects raises before any product, plan-cache hit or
        operand reuse is ledgered.
        """
        Bs = list(Bs)
        for B in Bs:
            _check_inner(A, B)
        if not Bs:
            return []
        workload = workload or self._infer_workload(A, Bs[0])
        with self._span("engine.multiply_many", A, batch=len(Bs)) as sp:
            bound = self._bind(A, Bs[0], workload, sp)
            return self._run(bound, A, Bs)

    def power(self, A: CSRMatrix, exponent: int) -> CSRMatrix:
        """``A**exponent`` by repeated left-multiplication with ``A``.

        Keeping ``A`` as the planned left operand means one plan and one
        prepared operand serve all ``exponent - 1`` multiplies (bound
        once, like :meth:`multiply_many`).
        """
        if exponent < 1:
            raise ValueError("exponent must be >= 1")
        if A.nrows != A.ncols:
            raise ValueError(f"power needs a square matrix, got {A.shape}")
        C = A
        with self._span("engine.power", A, exponent=exponent) as sp:
            if exponent > 1:
                bound = self._bind(A, A, "asquare", sp)
                for i in range(exponent - 1):
                    C = self._run(bound, A, [C], reuse=i > 0)[0]
        return C

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> EngineStats:
        """Snapshot of the cumulative engine accounting (consistent
        under concurrent multiplies: taken under the stats lock)."""
        live = self._stats
        with live.lock:
            snap = replace(live)  # fresh instance → fresh lock
            snap.per_plan = dict(live.per_plan)
            snap.serving = dict(live.serving)
        snap.backend_events = dict(self._exec_ctx.stats)
        return snap

    def record_serving(self, metrics: dict) -> None:
        """Merge serving-derived metrics (from :mod:`repro.serve`) into
        the stats ledger, surfaced by ``stats()``/``to_dict()``."""
        with self._stats.lock:
            self._stats.serving.update(metrics)

    def reset_stats(self) -> None:
        self._stats = EngineStats()
        self._exec_ctx = ExecutionContext(cfg=self.cfg, tracer=self.tracer)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpGEMMEngine(policy={self.policy!r}, plans={len(self.plan_cache)}, "
            f"multiplies={self._stats.multiplies})"
        )
