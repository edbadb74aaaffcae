"""The :class:`SpGEMMEngine` facade — plan once, execute many times.

The engine is the serving layer the ROADMAP's production north star
needs: callers hand it matrices and get products back, while the engine

1. **fingerprints** the left operand (O(nnz), pattern-only),
2. **plans** via the configured policy (heuristic / predictor /
   autotune) — or reuses a cached plan when the pattern was seen before,
3. **prepares** the operand (reorder + cluster build), reusing the
   prepared form across calls with identical values,
4. **executes** the plan through its execution backend
   (:mod:`repro.backends`), which returns the product in the original
   row order — under the default (bitwise) backend policy the output is
   bitwise-identical to :func:`~repro.core.spgemm.spgemm_rowwise` on
   the original operands; ``backend="auto"`` / pinned non-bitwise
   backends trade that for ``allclose`` results at native speed (and
   ``scipy`` drops sums that cancel to exactly ``0.0``, as raw scipy
   does),
5. **accounts**: cumulative planning / preprocessing / execution time
   (both wall-clock and model units) and the break-even iteration count
   at which the one-off costs amortise (paper Fig. 10, Table 4).

Steps 1–3 are the *bind* step (``SpGEMMEngine._bind``), run once per
public call; step 4 is the *run* step (``SpGEMMEngine._run``), run once
per product.  :meth:`~SpGEMMEngine.multiply`,
:meth:`~SpGEMMEngine.multiply_many` and :meth:`~SpGEMMEngine.power` are
loops over one bound record, so a batch or a power pays for
fingerprinting, plan lookup and kernel-parameter resolution once.

Typical use::

    eng = SpGEMMEngine(policy="autotune")
    C = eng.multiply(A)             # A², planned + preprocessed
    C = eng.multiply(A)             # plan + prepared operand reused
    Cs = eng.multiply_many(A, frontiers)   # BC-style batch
    print(eng.stats().summary())
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict, deque
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace

from ..backends import ExecutionContext, execute as backend_execute
from ..core.csr import CSRMatrix
from ..experiments.config import ExperimentConfig
from ..machine import SimulatedMachine
from ..obs import NOOP_TRACER, Tracer
from ..pipeline import PipelineSpec, get_component
from .adaptive import AdaptiveConfig, BackendCalibrator, CalibrationTable, DriftMonitor
from .fingerprint import MatrixFingerprint, fingerprint, pattern_digest, value_digest
from .plan import ExecutionPlan
from .plan_cache import PlanCache
from .planner import Planner, PreparedOperand, make_planner

__all__ = ["SpGEMMEngine", "EngineStats", "REPLAN_LOG_CAP"]

#: Ring-buffer capacity of :attr:`EngineStats.replan_log` — a long-lived
#: engine keeps the most recent re-plan events instead of growing an
#: unbounded list (older events fall off the front).
REPLAN_LOG_CAP = 256


@dataclass
class EngineStats:
    """Cumulative engine accounting (amortisation ledger).

    Wall-clock seconds are split into planning / preprocessing /
    execution; model units track the simulated-machine economics that
    the break-even computation uses: every multiply is charged its
    plan's ``predicted_cost`` and credited the plan's ``baseline_cost``,
    while planning trials and operand preparation are one-off
    investments.

    Thread safety: the serving front-end (:mod:`repro.serve`) mutates one
    stats object from scheduler, planner and fallback (caller) threads
    concurrently, so every mutation goes through :meth:`bump` /
    :meth:`bump_plan` / :meth:`log_replan` — additions under a
    per-instance lock (``+=`` on an attribute is a read-modify-write and
    silently drops updates under contention).  The lock is allocated once
    in ``__post_init__``; single-threaded callers pay one uncontended
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
    drift_probes: int = 0  # executed-cost measurements taken
    drift_detected: int = 0  # probes outside the drift band
    replans: int = 0  # drift-triggered plan rebuilds
    warm_starts: int = 0  # cold lookups seeded from a cached neighbour
    # Cache hits served by a plan ranked under an older calibration
    # epoch than the planner's current one — the replay report's
    # calibration-staleness numerator.
    stale_plan_serves: int = 0
    # Model units spent *measuring* executed cost.  Deliberately outside
    # invested_cost: a real runtime reads executed cost off a timer for
    # free — the simulation stand-in must not distort the paper-facing
    # break-even economics (re-planning itself IS charged).
    model_probe_cost: float = 0.0
    per_plan: dict = field(default_factory=dict)  # plan label → multiply count
    backend_events: dict = field(default_factory=dict)  # ExecutionContext counters
    # Serving-derived metrics (queue depth, coalesce ratio, shed count,
    # latency percentiles, per-client breakdowns) synced in by a
    # :class:`repro.serve.SpGEMMServer`; empty for a plain engine.
    serving: dict = field(default_factory=dict)
    # Drift re-plan events (dicts), bounded: a long-lived engine under a
    # churning workload re-plans indefinitely, so the log is a ring
    # buffer keeping the most recent REPLAN_LOG_CAP events.
    replan_log: "deque" = field(default_factory=lambda: deque(maxlen=REPLAN_LOG_CAP))

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    @property
    def lock(self) -> threading.Lock:
        """The mutation lock — held by callers that need a multi-field
        consistent update or snapshot."""
        return self._lock

    def bump(self, **deltas) -> None:
        """Add ``deltas`` to the named counter fields atomically."""
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def bump_plan(self, label: str) -> None:
        """Count one multiply against plan ``label``."""
        with self._lock:
            self.per_plan[label] = self.per_plan.get(label, 0) + 1

    def log_replan(self, event: dict) -> None:
        """Append one drift re-plan event to the bounded log."""
        with self._lock:
            self.replan_log.append(event)

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

        Containers are copied (``replan_log`` becomes a plain list) and
        non-finite derived values map to ``None``, so the result passes
        ``json.dumps`` under strict (``allow_nan=False``) settings — the
        machine-readable contract behind the CLI's ``--stats-json``.
        """
        from dataclasses import fields

        def _json_safe(v):
            # Recursive: the serving block nests dicts (per-client stats,
            # latency percentiles) that may carry NaN/inf values.
            if isinstance(v, (deque, list, tuple)):
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

    #: Backwards-compatible alias (pre-observability name).
    as_dict = to_dict

    def summary(self) -> str:
        be = self.break_even_iterations()
        be_s = f"{be:.1f}" if be != float("inf") else "inf"
        lines = [
            f"multiplies          : {self.multiplies}",
            f"plans built / hits  : {self.plans_built} / {self.plan_cache_hits}",
            f"operands built/reuse: {self.operands_prepared} / {self.operands_reused}",
            f"wall  plan/pre/exec : {self.planning_seconds:.3f}s / {self.preprocess_seconds:.3f}s / {self.execute_seconds:.3f}s",
            f"model invested      : {self.invested_cost:,.0f} units",
            f"model gain to date  : {self.cumulative_gain:,.0f} units (speedup {self.speedup_to_date:.2f}x)",
            f"break-even at       : {be_s} multiplies (progress {self.amortization_progress():.2f})",
        ]
        if self.drift_probes:
            lines.append(
                f"drift probes        : {self.drift_probes} "
                f"({self.drift_detected} drifting, {self.replans} re-plans)"
            )
        if self.warm_starts:
            lines.append(f"warm starts         : {self.warm_starts}")
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
    prep: PreparedOperand
    kernel_params: dict
    planner: Planner
    fp: MatrixFingerprint
    key: str  # plan-cache (and drift-monitor) key
    vdigest: str  # A's value digest (operand-cache key, sharded hint)
    hit: bool  # this call's plan lookup was served from the cache


class SpGEMMEngine:
    """Auto-tuning SpGEMM execution engine (see module docstring).

    Parameters
    ----------
    policy:
        ``"heuristic"``, ``"predictor"`` or ``"autotune"`` — see
        :mod:`repro.engine.planner`.
    config:
        :class:`~repro.experiments.config.ExperimentConfig` supplying
        machine and clustering parameters.
    machine:
        Simulated machine used for planning trials and cost accounting.
    plan_cache:
        Shared :class:`~repro.engine.plan_cache.PlanCache`; a private
        in-memory cache is created when omitted.
    persist_plans:
        Convenience flag: create the private cache with on-disk
        persistence (ignored when ``plan_cache`` is given).
    predictor:
        Optional fitted predictor for the ``"predictor"`` policy.
    top_k:
        Trial budget for the ``"autotune"`` policy.
    seed:
        Seed for reorderings and feature sampling (plan determinism).
    operand_cache_size:
        Prepared-operand LRU capacity (value-exact reuse).  A prepared
        operand also owns its backend state (the ``scipy`` backend's
        recorded ``A²`` structure), evicted with it.
    pipeline:
        A :class:`~repro.pipeline.spec.PipelineSpec` (or its string
        form, e.g. ``"rcm+hierarchical:max_th=8+cluster"``) to execute
        for every multiply instead of searching — the declarative
        entry point.  Individual calls can also override the planner
        per-multiply via ``multiply(..., pipeline=...)``.
    kernels:
        Pins the planners' kernel axis to a subset of the planned
        kernels (e.g. ``("rowwise", "cluster")`` to exclude
        ``hybrid``); ``None`` (default) searches the full
        registry-enumerated kernel space.  Mirrors the planners'
        ``reorderings`` pin and is recorded in the plan-cache token.
    backend:
        Execution-backend policy (:mod:`repro.backends`).  ``None``
        (default) keeps the engine on the ``reference`` backend — the
        bitwise contract.  ``"auto"`` lets the planner enumerate every
        planner-ranked backend (results may then be ``allclose`` rather
        than bit-identical when a non-bitwise backend wins, and
        ``scipy`` drops entries whose sum cancels to exactly ``0.0``,
        as raw ``scipy.sparse`` does).  A backend
        name — optionally parameterised, ``"scipy"`` /
        ``"sharded:workers=4,inner=scipy"`` — pins every plan to that
        backend.  Individual calls can override via
        ``multiply(..., backend=...)``; with ``pipeline=``, the
        backend override is applied onto the spec.
    calibration:
        Measured backend speed factors replacing the static
        ``model_speed_factor`` ranking hints (DESIGN.md §11): a
        :class:`~repro.engine.adaptive.CalibrationTable`, a
        :class:`~repro.engine.adaptive.BackendCalibrator` (calibrated
        and persisted on the spot), or ``True`` to load the table
        persisted next to the plan cache (silently absent → static
        hints).  ``None`` (default) keeps the static hints.
    drift_threshold:
        Enables drift-triggered re-planning: after each
        :meth:`multiply`, the executed model cost of the plan on the
        *actual* operands is probed and compared against
        ``plan.predicted_cost``; when the ratio repeatedly leaves
        ``[1/threshold, threshold]`` the plan is re-trialled (candidate
        space *and* backend choice) and the cache entry replaced.
        ``None`` (default) disables the monitor entirely.
    adaptive:
        Full :class:`~repro.engine.adaptive.AdaptiveConfig` (hysteresis
        patience/cooldown, probe cadence, re-plan cap) when the
        ``drift_threshold`` shorthand is not enough; a given
        ``drift_threshold`` overrides the config's threshold.
    warm_start:
        Seed cold plan-cache lookups with the nearest cached
        neighbour's plan (by fingerprint-feature distance) as the first
        trial candidate.  Consumed by measured-trial policies
        (``"autotune"``); ranking-only policies skip the lookup.  Off
        by default — it can change which plan a search policy picks.
    fingerprint_cache_size:
        Capacity of the fingerprint memo LRU (feature sketches keyed by
        pattern digest).
    tracer:
        Optional :class:`~repro.obs.Tracer` (DESIGN.md §12).  An enabled
        tracer records ``engine.multiply`` / ``engine.multiply_many`` /
        ``engine.power`` spans (per-call latency, all three tagged alike
        with the call's own plan-cache hit/miss, plan label, backend
        and workload), ``planner.plan`` /
        ``planner.trial`` spans, ``backend.execute`` spans through the
        shared :class:`~repro.backends.ExecutionContext`, plan-cache
        put/evict/warm-hint events and adaptive probe/drift/replan
        events.  ``None`` (default) installs the shared no-op tracer:
        no spans, no allocations, behaviour identical to an
        uninstrumented engine.
    """

    def __init__(
        self,
        policy: str = "heuristic",
        *,
        config: ExperimentConfig | None = None,
        machine: SimulatedMachine | None = None,
        plan_cache: PlanCache | None = None,
        persist_plans: bool = False,
        predictor=None,
        top_k: int = 3,
        seed: int = 0,
        operand_cache_size: int = 16,
        pipeline: "PipelineSpec | str | None" = None,
        kernels: "tuple[str, ...] | None" = None,
        backend: str | None = None,
        calibration: "CalibrationTable | BackendCalibrator | bool | None" = None,
        drift_threshold: float | None = None,
        adaptive: AdaptiveConfig | None = None,
        warm_start: bool = False,
        fingerprint_cache_size: int = 64,
        tracer: "Tracer | None" = None,
    ) -> None:
        from ..experiments.runner import machine_for

        self.cfg = config or ExperimentConfig()
        self.machine = machine or machine_for(self.cfg)
        self.seed = int(seed)
        self.backend = backend
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.calibration = self._resolve_calibration(calibration)
        if drift_threshold is not None:
            base = adaptive or AdaptiveConfig()
            adaptive = replace(base, drift_threshold=float(drift_threshold))
        self._drift: DriftMonitor | None = DriftMonitor(adaptive) if adaptive is not None else None
        self._warm_start = bool(warm_start)
        if pipeline is not None:
            policy = "pipeline"
            pipeline = self._spec_with_backend(pipeline, backend)
        # Shared by the configured planner and every per-call variant.
        self._planner_kw = dict(
            cfg=self.cfg,
            machine=self.machine,
            seed=self.seed,
            calibration=self.calibration,
            tracer=self.tracer,
        )
        kw = dict(self._planner_kw, kernels=kernels, backend=backend)
        if policy == "predictor":
            kw["predictor"] = predictor
        elif policy == "autotune":
            kw["top_k"] = top_k
        elif policy == "pipeline":
            if pipeline is None:
                raise ValueError("policy='pipeline' needs a pipeline= spec")
            kw["spec"] = pipeline
            kw.pop("backend")  # the spec carries the backend
        self.planner: Planner = make_planner(policy, **kw)
        self.policy = policy
        # Plan-key suffix: plans embed costs measured under this config,
        # on this machine model, from this seed — a shared PlanCache must
        # not serve them to an engine whose machine differs from what
        # cfg.cache_key() implies.  All three are fixed for the engine's
        # lifetime, so the suffix is serialised once.
        m = self.machine
        cost = ",".join(f"{k}={v}" for k, v in sorted(asdict(m.cost).items()))
        machine_token = f"m{m.n_threads}t{m.cache_lines}l{m.line_bytes}b[{cost}]"
        self._key_suffix = f"{self.cfg.cache_key()}|{machine_token}|{self.seed}"
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache(persist=persist_plans)
        if self.tracer.enabled and not self.plan_cache.tracer.enabled:
            # Attach the engine's tracer to its cache (shared caches keep
            # whichever enabled tracer reached them first).
            self.plan_cache.tracer = self.tracer
        self._operands: "OrderedDict[tuple, PreparedOperand]" = OrderedDict()
        self._operand_cap = max(1, int(operand_cache_size))
        self._fingerprints: "OrderedDict[str, MatrixFingerprint]" = OrderedDict()
        self._fingerprint_cap = max(1, int(fingerprint_cache_size))
        # Per-call planner variants, keyed by the resolved (spec, backend)
        # pair: (spec string, None) for pipeline= calls, (None, backend)
        # for backend-only overrides of the configured policy.
        self._planners: "dict[tuple[str | None, str | None], Planner]" = {}
        self._exec_ctx = ExecutionContext(cfg=self.cfg, tracer=self.tracer)
        self._stats = EngineStats()
        # The serving front-end drives one engine from a dispatch thread,
        # a planner thread and (on fallback) arbitrary caller threads.
        # _plan_build_lock serialises planner.plan + take_prepared (the
        # planner hands its prepared operand to whoever planned last);
        # _memo_lock guards the fingerprint/operand/planner memo dicts.
        # Neither is held across backend execution, so warm requests
        # execute while a cold fingerprint plans.
        self._plan_build_lock = threading.RLock()
        self._memo_lock = threading.RLock()

    @staticmethod
    def _resolve_calibration(calibration) -> CalibrationTable | None:
        """Normalise the constructor's ``calibration`` argument."""
        if calibration is None or calibration is False:
            return None
        if calibration is True:
            return CalibrationTable.load()  # absent/disabled → None (static hints)
        if isinstance(calibration, BackendCalibrator):
            return calibration.calibrate_and_save()
        if isinstance(calibration, CalibrationTable):
            return calibration
        raise TypeError(
            "calibration must be a CalibrationTable, a BackendCalibrator or a bool, "
            f"got {type(calibration).__name__}"
        )

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _fingerprint(self, A: CSRMatrix) -> MatrixFingerprint:
        # The digest is recomputed every call (a fast C-level hash); only
        # the sampled feature sketch is memoised, keyed by that digest —
        # so the memo can never serve a stale entry for a different
        # pattern, however objects are allocated.
        digest = pattern_digest(A)
        with self._memo_lock:
            fp = self._fingerprints.get(digest)
            if fp is not None:
                self._fingerprints.move_to_end(digest)
                return fp
        # Sketch outside the lock: fingerprint() is deterministic in
        # (pattern, seed), so a concurrent duplicate build is identical
        # and last-writer-wins is harmless.
        fp = fingerprint(A, seed=self.seed, digest=digest)
        with self._memo_lock:
            self._fingerprints[digest] = fp
            while len(self._fingerprints) > self._fingerprint_cap:
                self._fingerprints.popitem(last=False)
        return fp

    def _plan_key(self, fp: MatrixFingerprint, workload: str, planner: Planner) -> str:
        return f"{fp.key}|{workload}|{planner.cache_token}|{self._key_suffix}"

    def _key_for(
        self, A: CSRMatrix, workload: str, pipeline, backend
    ) -> "tuple[Planner, MatrixFingerprint, str]":
        """Resolve one call's planner, fingerprint ``A`` and build the
        plan-cache key they address."""
        planner = self._resolve_planner(pipeline, backend)
        fp = self._fingerprint(A)
        return planner, fp, self._plan_key(fp, workload, planner)

    @staticmethod
    def _spec_with_backend(pipeline, backend) -> PipelineSpec:
        """Apply a backend override onto a pipeline spec (``"auto"`` and
        ``None`` keep the spec's own backend)."""
        spec = PipelineSpec.parse(pipeline)
        if backend and backend != "auto":
            spec = spec.with_backend(backend)
        return spec

    def _resolve_planner(self, pipeline, backend=None) -> Planner:
        """The planner for one call: the engine's configured policy, a
        per-spec fixed planner when ``pipeline=`` is given, or a
        backend-variant of the configured policy when only ``backend=``
        is (all memoised — repeated calls share plan-cache entries)."""
        if pipeline is None:
            if backend is None or backend == self.backend:
                return self.planner
            if self.policy == "pipeline":
                # Re-pin the engine's own spec onto the requested backend.
                pipeline = self.planner.spec
        if pipeline is not None:
            key = (str(self._spec_with_backend(pipeline, backend)), None)
        else:
            key = (None, backend)
        with self._memo_lock:
            planner = self._planners.get(key)
        if planner is not None:
            return planner
        kw = dict(self._planner_kw)
        if key[0] is not None:
            planner = make_planner("pipeline", spec=key[0], **kw)
        else:
            if self.policy == "autotune":
                kw["top_k"] = self.planner.top_k
            elif self.policy == "predictor":
                # Share the fitted predictor (fitting on demand if the
                # base planner has not planned yet) instead of letting
                # the variant planner fit a duplicate corpus.
                kw["predictor"] = self.planner.predictor
            planner = make_planner(self.policy, kernels=self.planner.kernels, backend=backend, **kw)
        with self._memo_lock:
            # setdefault: concurrent builders share one instance (planners
            # carry per-plan state, so identity matters).
            return self._planners.setdefault(key, planner)

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
        pipeline: "PipelineSpec | str | None" = None,
        backend: str | None = None,
    ) -> ExecutionPlan:
        """The plan the engine would execute for ``A @ B``.

        Introspection API: building a missing plan is real (and
        ledgered) work, but cache lookups made here do **not** bump the
        hit/miss counters — only the executing calls do, so the ledger
        counts executions, not displays.
        """
        workload = workload or self._infer_workload(A, B)
        planner, fp, key = self._key_for(A, workload, pipeline, backend)
        Bx = A if B is None else B
        return self._lookup(A, Bx, planner, fp, key, workload, count=False)[0]

    def _lookup(
        self,
        A: CSRMatrix,
        Bx: CSRMatrix,
        planner: Planner,
        fp: MatrixFingerprint,
        key: str,
        workload: str,
        *,
        count: bool = True,
    ) -> "tuple[ExecutionPlan, bool]":
        """The cached plan for ``key``, or a freshly built (and cached)
        one; returns ``(plan, hit)``.  ``count=False`` keeps the lookup
        out of the hit/miss counters."""
        t0 = time.perf_counter()
        plan = self.plan_cache.get(key)
        hit = plan is not None
        if not hit:
            with self._plan_build_lock:
                # Double-check under the build lock: serve's planner
                # thread and its dispatch thread can race on a cold key,
                # and the loser must reuse rather than rebuild (planners
                # hand take_prepared() to whoever planned last).
                plan = self.plan_cache.get(key)
                hit = plan is not None
                if not hit:
                    if count:
                        self._stats.bump(plan_cache_misses=1)
                    warm = None
                    if self._warm_start and planner.uses_warm_start:
                        near = self.plan_cache.nearest(fp.feature_array(), exclude=key)
                        # Reconcile once; count only hints the planner can
                        # actually apply — a neighbour whose reordering/backend
                        # cannot serve this operand leaves the search fully cold.
                        warm = planner.warm_candidate(near, A)
                        if warm is not None:
                            self._stats.bump(warm_starts=1)
                    plan = planner.plan(A, Bx, fp, workload, warm_start=warm)
                    self.plan_cache.put(key, plan, features=fp.features)
                    self._stats.bump(plans_built=1, model_planning_cost=plan.planning_cost)
                    # The planner already materialised the winning operand for
                    # its measurement — seed the operand cache with it so the
                    # preprocessing is never paid twice.
                    prep = planner.take_prepared()
                    if prep is not None:
                        self._stats.bump(operands_prepared=1, model_pre_cost=prep.pre_cost)
                        self._store_operand(self._operand_key(plan, value_digest(A)), prep)
        if hit and count:
            stale = int(plan.calibration_epoch != planner.calibration_epoch)
            self._stats.bump(plan_cache_hits=1, stale_plan_serves=stale)
        self._stats.bump(planning_seconds=time.perf_counter() - t0)
        return plan, hit

    # ------------------------------------------------------------------
    # Preparation
    # ------------------------------------------------------------------
    @staticmethod
    def _operand_key(plan: ExecutionPlan, vdigest: str) -> tuple:
        # Kernel and params discriminate: the same (reordering,
        # clustering) pair prepares differently for a cluster kernel
        # (CSR_Cluster materialisation) than for a row-traversal kernel
        # (cluster order composed), and parameterised pipelines must not
        # collide with config-default plans.  ``vdigest`` is A's value
        # digest: reuse is value-exact.
        return (
            plan.fingerprint_key,
            plan.reordering,
            plan.clustering,
            plan.kernel,
            plan.params,
            vdigest,
        )

    def prepare(self, A: CSRMatrix, plan: ExecutionPlan) -> PreparedOperand:
        """Materialise (or reuse) the plan's reordered/clustered operand."""
        return self._prepare(A, plan, value_digest(A))

    def _prepare(self, A: CSRMatrix, plan: ExecutionPlan, vdigest: str) -> PreparedOperand:
        key = self._operand_key(plan, vdigest)
        with self._memo_lock:
            prep = self._operands.get(key)
            if prep is not None:
                self._operands.move_to_end(key)
        if prep is not None:
            self._stats.bump(operands_reused=1)
            return prep
        t0 = time.perf_counter()
        # Rebuild through the plan's pipeline spec so every component
        # parameter (reordering, clustering, kernel) is honoured.  Built
        # outside the memo lock: preparation is the expensive step, and a
        # concurrent duplicate build is deterministic-identical.
        from .planner import _prepared_from_built

        built = plan.pipeline().build(A, seed=plan.seed, mode="rows", cfg=self.cfg)
        prep = _prepared_from_built(built, self.machine.cost)
        self._stats.bump(
            preprocess_seconds=time.perf_counter() - t0,
            operands_prepared=1,
            model_pre_cost=prep.pre_cost,
        )
        self._store_operand(key, prep)
        return prep

    def _store_operand(self, key: tuple, prep: PreparedOperand) -> None:
        with self._memo_lock:
            self._operands[key] = prep
            while len(self._operands) > self._operand_cap:
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

    def _bind(
        self, A: CSRMatrix, Bx: CSRMatrix, workload: str, pipeline, backend, span
    ) -> _Bound:
        """Everything one call's products share: look up (or build) the
        plan for ``A``, prepare its operand and resolve the kernel
        parameters.  Tags ``span`` with this call's own lookup outcome."""
        planner, fp, key = self._key_for(A, workload, pipeline, backend)
        vdigest = value_digest(A)
        plan, hit = self._lookup(A, Bx, planner, fp, key, workload)
        prep = self._prepare(A, plan, vdigest)
        k_info = get_component("kernel", plan.kernel)
        given = [
            (k, v)
            for k, v in plan.params
            if any(k == p.name or k in p.aliases for p in k_info.params)
        ]
        if any(p.name == "accumulator" for p in k_info.params):
            given.append(("accumulator", plan.accumulator))
        kernel_params = k_info.resolve_params(given, self.cfg)
        if plan.bin_map and getattr(k_info.factory, "accepts_bin_map", False):
            kernel_params["bin_map"] = plan.bin_map
        if self.tracer.enabled:
            span.tag(
                cache="hit" if hit else "miss",
                plan=plan.label,
                backend=plan.backend,
                workload=plan.workload,
            )
        return _Bound(plan, prep, kernel_params, planner, fp, key, vdigest, hit)

    def _run(self, bound: _Bound, A: CSRMatrix, B: CSRMatrix, *, reuse: bool = False) -> CSRMatrix:
        """One product ``A @ B`` through the bound plan: execute (the
        backend returns it in the original row order) and ledger it.
        ``reuse`` marks a later product of a batch or power, counted as
        a plan-cache hit plus an operand reuse — what a per-product
        :meth:`multiply` would record.

        Dispatch goes through :func:`repro.backends.execute` — the one
        kernel-execution path, shared with
        :meth:`~repro.pipeline.spec.BuiltPipeline.execute` — so a newly
        registered kernel or backend is executable here with no engine
        edit.
        """
        t0 = time.perf_counter()
        plan, prep, ctx = bound.plan, bound.prep, self._exec_ctx
        # Digest reuse (DESIGN.md §10): every A² product is hinted with
        # the pattern/value digests the plan and operand caches already
        # computed — sharded keys shm residency by them, scipy its
        # recorded product structure.
        hinted = B is A
        if hinted:
            ctx.operand_tokens[id(B)] = f"{bound.fp.pattern_digest[:20]}:{bound.vdigest[:20]}"
        try:
            C = backend_execute(
                prep,
                B,
                kernel=plan.kernel,
                kernel_params=bound.kernel_params,
                backend=plan.backend,
                backend_params=plan.backend_params,
                cfg=self.cfg,
                ctx=ctx,
                original_order=True,
            )
        finally:
            if hinted:
                ctx.operand_tokens.pop(id(B), None)
        self._stats.bump(
            execute_seconds=time.perf_counter() - t0,
            multiplies=1,
            model_executed_cost=plan.predicted_cost,
            model_baseline_cost=plan.baseline_cost,
            plan_cache_hits=int(reuse),
            operands_reused=int(reuse),
        )
        self._stats.bump_plan(plan.label)
        return C

    def multiply(
        self,
        A: CSRMatrix,
        B: CSRMatrix | None = None,
        *,
        workload: str | None = None,
        pipeline: "PipelineSpec | str | None" = None,
        backend: str | None = None,
    ) -> CSRMatrix:
        """Compute ``A @ B`` (``A²`` when ``B`` is omitted) via the plan.

        Under the default (bitwise) backend policy the result equals
        :func:`~repro.core.spgemm.spgemm_rowwise` on the original
        operands bitwise: the plan's permutation gathers whole rows
        (``P·A``), so each output row's summation order is unchanged and
        only row placement is inverted at the end.  ``pipeline`` pins
        the configuration for this call instead of consulting the
        engine's planner policy; ``backend`` pins the execution backend
        (a non-bitwise backend returns ``allclose`` results instead,
        and ``scipy`` drops exact-zero sums).  Probes for drift once per
        call.
        """
        Bx = A if B is None else B
        _check_inner(A, Bx)
        workload = workload or self._infer_workload(A, B)
        with self._span("engine.multiply", A) as sp:
            bound = self._bind(A, Bx, workload, pipeline, backend, sp)
            C = self._run(bound, A, Bx)
            self._observe_drift(bound, A, Bx)
        return C

    def multiply_many(
        self,
        A: CSRMatrix,
        Bs,
        *,
        workload: str | None = None,
        pipeline: "PipelineSpec | str | None" = None,
        backend: str | None = None,
    ) -> list[CSRMatrix]:
        """Batch API: ``[A @ B for B in Bs]`` with one shared plan.

        This is the BC-frontier shape (paper §4.4): ``A`` is
        fingerprinted, planned and prepared exactly once, then reused
        across the whole sequence — per-wave overhead is O(1) in
        ``nnz(A)``.  Each reuse is counted as a plan-cache hit (and an
        operand reuse) in the ledger, matching what per-call
        :meth:`multiply` would have recorded.  Every ``B`` is
        dimension-checked before any work, so a rejected batch leaves
        the ledger untouched.
        """
        Bs = list(Bs)
        for B in Bs:
            _check_inner(A, B)
        if not Bs:
            return []
        workload = workload or self._infer_workload(A, Bs[0])
        with self._span("engine.multiply_many", A, batch=len(Bs)) as sp:
            bound = self._bind(A, Bs[0], workload, pipeline, backend, sp)
            out = [self._run(bound, A, B, reuse=i > 0) for i, B in enumerate(Bs)]
            # One drift probe per batch (the whole batch ran one plan):
            # the last frontier is the freshest evidence, and a fired
            # re-plan takes effect for the next batch — the BC/Markov
            # regime where values evolve while the pattern stays fixed.
            self._observe_drift(bound, A, Bs[-1])
        return out

    def power(self, A: CSRMatrix, exponent: int) -> CSRMatrix:
        """``A**exponent`` by repeated left-multiplication with ``A``.

        Keeping ``A`` as the planned left operand means one plan and one
        prepared operand serve all ``exponent - 1`` multiplies (bound
        once, like :meth:`multiply_many`).  Powers never probe for drift.
        """
        if exponent < 1:
            raise ValueError("exponent must be >= 1")
        if A.nrows != A.ncols:
            raise ValueError(f"power needs a square matrix, got {A.shape}")
        C = A
        with self._span("engine.power", A, exponent=exponent) as sp:
            if exponent > 1:
                bound = self._bind(A, A, "asquare", None, None, sp)
                for i in range(exponent - 1):
                    C = self._run(bound, A, C, reuse=i > 0)
        return C

    # ------------------------------------------------------------------
    # Drift-triggered re-planning (DESIGN.md §11)
    # ------------------------------------------------------------------
    def _measure_executed(self, plan: ExecutionPlan, prep: PreparedOperand, Bx: CSRMatrix) -> float:
        """The plan's *executed* model cost on the actual operands.

        The same measurement the planner's trials use — a simulated run
        of the prepared operand against the ``B`` that was really
        multiplied, scaled by the plan's backend factor — so when
        nothing changed, executed equals ``plan.predicted_cost`` exactly
        and drift detection stays silent by construction.
        """
        k_info = get_component("kernel", plan.kernel)
        if k_info.requires_clustering:
            t = self.machine.run_clusterwise(prep.Ac, Bx).time
        else:
            t = self.machine.run_rowwise(prep.Ar, Bx).time
        factor = self.planner._backend_factor(plan.backend, kernel=plan.kernel, A=prep.Ar)
        return t * k_info.model_speed_factor * factor

    def _observe_drift(self, bound: _Bound, A: CSRMatrix, Bx: CSRMatrix) -> None:
        """Probe the executed cost and re-plan when it has drifted (a
        no-op without a drift monitor).

        Probes are simulated executions; their model cost is tracked in
        ``model_probe_cost`` but kept out of the amortisation economics
        (a real runtime reads executed cost off a timer for free — only
        fired re-plans are invested cost).  The hysteresis lives in the
        :class:`~repro.engine.adaptive.DriftMonitor`.  A fired re-plan
        re-runs the engine's planner — candidate space *including* the
        backend axis — against the operands actually being multiplied
        and replaces the cache entry, taking effect from the next call.
        """
        monitor = self._drift
        key = bound.key
        if monitor is None or not monitor.should_probe(key):
            return
        t0 = time.perf_counter()
        plan, fp = bound.plan, bound.fp
        executed = self._measure_executed(plan, bound.prep, Bx)
        self._stats.bump(drift_probes=1, model_probe_cost=executed)  # measured, not invested
        decision = monitor.observe(key, predicted=plan.predicted_cost, executed=executed)
        if self.tracer.enabled:
            self.tracer.event(
                "adaptive.probe", plan=plan.label, ratio=decision.ratio, drifted=decision.drifted
            )
            if decision.drifted:
                self.tracer.event("adaptive.drift", plan=plan.label, ratio=decision.ratio)
        if decision.drifted:
            self._stats.bump(drift_detected=1)
        if decision.replan:
            with self._plan_build_lock:
                # Same serialisation as _lookup's miss branch: the
                # planner's plan/take_prepared pair must not interleave
                # with a concurrent cold build.
                new_plan = bound.planner.plan(A, Bx, fp, plan.workload)
                if self.tracer.enabled:
                    self.tracer.event(
                        "adaptive.replan",
                        src=plan.label,
                        dst=new_plan.label,
                        predicted=plan.predicted_cost,
                        executed=executed,
                    )
                self.plan_cache.put(key, new_plan, features=fp.features)
                monitor.notify_replanned(key)
                self._stats.bump(
                    replans=1, plans_built=1, model_planning_cost=new_plan.planning_cost
                )
                self._stats.log_replan(
                    {
                        "from": plan.label,
                        "to": new_plan.label,
                        "predicted": plan.predicted_cost,
                        "executed": executed,
                        "workload": plan.workload,
                        "fingerprint": fp.key,
                    }
                )
                new_prep = bound.planner.take_prepared()
                if new_prep is not None:
                    self._stats.bump(operands_prepared=1, model_pre_cost=new_prep.pre_cost)
                    self._store_operand(self._operand_key(new_plan, bound.vdigest), new_prep)
        self._stats.bump(planning_seconds=time.perf_counter() - t0)

    def drift_state(self, A: CSRMatrix, *, workload: str = "asquare", backend: str | None = None) -> dict | None:
        """Monitor snapshot for ``A``'s plan key (``None`` when the
        engine was built without drift detection).

        ``workload`` must match what the multiplies ran under (the
        monitor is keyed like the plan cache): an ``A @ B`` sequence
        with a distinct ``B`` is ``"general"``, not the default
        ``"asquare"`` — a mismatched key reads as an untouched monitor
        (all-zero snapshot).
        """
        if self._drift is None:
            return None
        return self._drift.state(self._key_for(A, workload, None, backend)[2])

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
            snap.replan_log = list(live.replan_log)
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
