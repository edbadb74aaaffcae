"""Pluggable planning policies: heuristic, predictor, autotune, pipeline.

A planner turns ``(A, B, fingerprint, workload)`` into an
:class:`~repro.engine.plan.ExecutionPlan`.  The candidate space is
enumerated from :mod:`repro.pipeline` registry capability queries
(:func:`planner_reorderings`, :func:`planner_backends`,
:func:`default_candidates`) — registering a component with the right
tags makes it planned, with no lists to keep in sync here.

The space has an execution-*backend* axis (:mod:`repro.backends`), off
by default: planners search ``reference`` only — preserving the
engine's bitwise contract — unless constructed with ``backend="auto"``
(enumerate every planner-ranked backend, ranked by each backend's
``model_speed_factor`` capability hint; ``reference`` wins ties) or a
pinned backend (every candidate targets it).  ``reference`` remains the
correctness oracle either way: plans are validated against it and
non-bitwise backends guarantee ``allclose`` results (``scipy`` minus
exact-zero sums).  Three search policies are provided, mirroring the
escalation the paper's §5 future work sketches, plus a fixed-spec one:

* :class:`HeuristicPlanner` (``"heuristic"``) — ranks a candidate space
  with closed-form :class:`~repro.machine.cost.CostModel` estimates
  driven by the fingerprint's structural features, then materialises and
  simulates only the winner.  Cheapest; no training data.
* :class:`PredictorPlanner` (``"predictor"``) — delegates the choice to
  the k-NN :class:`~repro.analysis.predictor.ConfigurationPredictor`
  (trained from sweeps; a small built-in corpus is swept on demand when
  no fitted predictor is supplied).
* :class:`AutotunePlanner` (``"autotune"``) — measured trial: takes the
  heuristic ranking's top-k candidates, actually reorders/clusters and
  simulates each on the machine model, and picks the fastest.  The trial
  cost is charged to ``plan.planning_cost`` so the engine's break-even
  accounting stays honest.
* :class:`PipelinePlanner` (``"pipeline"``) — no search: executes one
  explicit :class:`~repro.pipeline.spec.PipelineSpec` (the engine's
  ``pipeline=`` argument / the CLI's ``--pipeline``), still measured
  once so cost accounting and plan caching behave like searched plans.

Candidates are applied as **row permutations** (gather ``P·A``), not the
symmetric ``P A Pᵀ`` of the sweep runner: row gathering leaves every row's
content — and therefore every output row's floating-point summation
order — untouched, which is what lets the engine guarantee bitwise
identity with :func:`~repro.core.spgemm.spgemm_rowwise` while still
capturing the cross-row ``B``-reuse locality that reordering buys
(consecutive similar rows hit the same cache-resident ``B`` lines).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as _dc_replace
from functools import lru_cache

import numpy as np

from ..analysis.predictor import (
    DEFAULT_TRAINING_REORDERINGS,
    FEATURE_NAMES,
    ConfigurationPredictor,
)
from ..core.csr import CSRMatrix
from ..core.csr_cluster import CSRCluster
from ..core.spgemm import flops_rowwise
from ..experiments.config import ExperimentConfig
from ..machine import SimulatedMachine
from ..machine.layout import ENTRY_BYTES
from ..pipeline import PipelineSpec, components, get_component
from .fingerprint import MatrixFingerprint
from .plan import ExecutionPlan

__all__ = [
    "Candidate",
    "PreparedOperand",
    "Planner",
    "HeuristicPlanner",
    "PredictorPlanner",
    "AutotunePlanner",
    "PipelinePlanner",
    "make_planner",
    "default_candidates",
    "planner_reorderings",
    "planner_kernels",
    "planner_backends",
    "replace_candidate",
    "prepare_candidate",
    "default_training_corpus",
]


def planner_reorderings() -> tuple[str, ...]:
    """Reorderings the planners consider by default, by registry query.

    Every reordering registered with a ``planner_rank`` (the curated
    Table-1 subset spanning the paper's two effective families —
    bandwidth/fill reducers for meshes, hub/community orders for graphs)
    participates automatically, in rank order: registering a new
    algorithm with a rank makes it planned with no planner edit.
    """
    return tuple(c.name for c in components("reordering", planned=True))


def _family(reordering: str) -> str:
    """The registry's family affinity tag for one reordering."""
    return get_component("reordering", reordering).family


@dataclass(frozen=True)
class Candidate:
    """One point of the (reordering, clustering, kernel, backend) space."""

    reordering: str
    clustering: str | None
    kernel: str
    backend: str = "reference"
    backend_params: tuple[tuple[str, float], ...] = ()

    @property
    def label(self) -> str:
        from .plan import backend_label_suffix

        suffix = backend_label_suffix(self.backend, self.backend_params)
        return f"{self.reordering}+{self.clustering or 'csr'}/{self.kernel}{suffix}"


def planner_kernels() -> tuple[str, ...]:
    """Non-clustering kernels in the planners' default space, by
    registry query.

    Every kernel registered with a ``planner_rank`` that does not
    require a clustering pairs with each reordering (rank order;
    ``rowwise`` ranks first, so exact cost ties keep the historical
    choice).  Cluster-requiring planned kernels enter the space through
    the clustering axis instead.
    """
    return tuple(
        c.name for c in components("kernel", planned=True) if not c.requires_clustering
    )


def _cluster_kernels() -> tuple[str, ...]:
    """Planned kernels that consume a ``CSR_Cluster`` operand."""
    return tuple(
        c.name for c in components("kernel", planned=True) if c.requires_clustering
    )


def planner_backends() -> tuple[str, ...]:
    """Backends the planners may consider, by registry query.

    Every backend registered with a ``planner_rank`` participates (in
    rank order, ``reference`` first).  The default planner *mode* still
    restricts the space to ``reference`` — see :class:`Planner` — so
    this set only enters the search when the caller opts in with
    ``backend="auto"``.
    """
    return tuple(c.name for c in components("backend", planned=True))


def default_candidates(
    *,
    square: bool,
    reorderings: tuple[str, ...] | None = None,
    kernels: tuple[str, ...] | None = None,
    backends: tuple[str, ...] | None = None,
) -> list[Candidate]:
    """The candidate space planners search, enumerated from the registry.

    Non-square operands cannot take the graph reorderings (they need a
    square adjacency), so their space reduces to clustering choices on
    the natural order.  Clusterings tagged ``embeds_reordering``
    (hierarchical, paper §3.4) are paired only with the natural order —
    their cluster formation *is* a reordering.

    ``kernels`` pins the kernel axis to a subset of the planned kernels
    (``None`` keeps the full registry-enumerated space); ``backends``
    extends the space along the execution-backend axis: each base
    candidate is additionally emitted per listed non-reference backend
    that supports its kernel.  ``None`` (the default) keeps the
    historical reference-only space, preserving the engine's bitwise
    contract unless the caller opts in.
    """
    if reorderings is None:
        reorderings = planner_reorderings()
    clusterings = components("clustering")
    row_kernels = planner_kernels()
    cluster_kernels = _cluster_kernels()
    if kernels is not None:
        row_kernels = tuple(k for k in row_kernels if k in kernels)
        cluster_kernels = tuple(k for k in cluster_kernels if k in kernels)
    kernels = row_kernels
    cands = [Candidate("original", None, k) for k in kernels]
    cands += [
        Candidate("original", c.name, ck) for c in clusterings for ck in cluster_kernels
    ]
    if square:
        for r in reorderings:
            cands.extend(Candidate(r, None, k) for k in kernels)
            cands.extend(
                Candidate(r, c.name, ck)
                for c in clusterings
                if not c.embeds_reordering
                for ck in cluster_kernels
            )
    if backends:
        from ..backends import backend_supports

        extra = [
            replace_candidate(c, b)
            for b in backends
            if b != "reference"
            for c in cands
            if backend_supports(b, (), c.kernel)
        ]
        cands += extra
    return cands


def replace_candidate(cand: Candidate, backend: str, params: tuple = ()) -> Candidate:
    """Copy of ``cand`` re-targeted at another execution backend."""
    return _dc_replace(cand, backend=backend, backend_params=params)


# ----------------------------------------------------------------------
# Candidate materialisation (shared with the engine's prepare step)
# ----------------------------------------------------------------------
@dataclass
class PreparedOperand:
    """A materialised left operand: reordered and (optionally) clustered.

    ``Ar`` is ``P·A`` (row gather; ``perm is None`` means the natural
    order), ``Ac`` its ``CSR_Cluster`` form when the plan clusters, and
    ``pre_cost`` the model preprocessing time actually spent building
    both — the quantity the engine amortises.
    """

    reordering: str
    clustering: str | None
    perm: np.ndarray | None
    inv: np.ndarray | None
    Ar: CSRMatrix
    Ac: CSRCluster | None
    pre_cost: float
    params: tuple[tuple[str, float], ...] = ()
    #: Execution-backend state owned by this operand (the ``scipy``
    #: backend's recorded product structure); evicted with it.
    backend_state: dict = field(default_factory=dict, repr=False, compare=False)


def _prepared_from_built(built, cost) -> PreparedOperand:
    """Wrap a :class:`~repro.pipeline.spec.BuiltPipeline` as the engine's
    :class:`PreparedOperand`, emitting the resolved clustering parameters
    in the plan's legacy ``(name, float)`` convention."""
    spec = built.spec
    params: tuple[tuple[str, float], ...] = ()
    c_info = spec.clustering_info
    if c_info is not None:
        resolved = c_info.resolve_params(spec.clustering_params, built.cfg)
        params = tuple(
            (p.name, float(resolved[p.name])) for p in c_info.params if p.name in resolved
        )
    return PreparedOperand(
        spec.reordering,
        spec.clustering,
        built.perm,
        built.inv,
        built.Ar,
        built.Ac,
        built.pre_cost(cost),
        params,
    )


def prepare_candidate(
    A: CSRMatrix,
    reordering: str,
    clustering: str | None,
    cfg: ExperimentConfig,
    cost,
    *,
    seed: int = 0,
    clustering_params: tuple[tuple[str, float], ...] = (),
    cluster_operand: bool = True,
) -> PreparedOperand:
    """Materialise a candidate: run the reordering and cluster build.

    A thin wrapper over :meth:`PipelineSpec.build` (the pipeline layer
    owns preparation now).  Returns the prepared operand with its model
    preprocessing cost, each stage charged at its registry rate
    (reordering at graph rates, clustering at kernel rates — the same
    accounting as the Fig. 10 sweep runner).  ``clustering_params``
    overrides the config-supplied clustering parameters;
    ``cluster_operand=False`` consumes the clustering as its implicit
    row reordering instead of materialising ``CSR_Cluster`` (for
    non-cluster kernels).
    """
    kernel = "cluster" if (clustering is not None and cluster_operand) else "rowwise"
    spec = PipelineSpec(
        reordering=reordering,
        clustering=clustering,
        kernel=kernel,
        clustering_params=tuple(clustering_params),
    )
    built = spec.build(A, seed=seed, mode="rows", cfg=cfg)
    return _prepared_from_built(built, cost)


# ----------------------------------------------------------------------
# Closed-form candidate scoring (the heuristic)
# ----------------------------------------------------------------------
def _estimate_candidate_costs(
    A: CSRMatrix,
    B: CSRMatrix,
    feats: np.ndarray,
    candidates: list[Candidate],
    cost,
    cfg: ExperimentConfig,
    *,
    backend_factor=None,
) -> list[float]:
    """Coarse per-multiply model-time estimate of each candidate.

    This is a *ranking* model, not a measurement: it plugs analytically
    estimated work / miss-byte / row-visit quantities into the
    :class:`~repro.machine.cost.CostModel` weights.  The key latent
    variable is a locality score ``ℓ ∈ [0, 1)`` — the fraction of ``B``
    traffic served by reuse:

    * the natural order starts at the consecutive-row Jaccard feature;
    * a reordering can recover at most the *scattered-similarity*
      headroom, discounted by a family-affinity factor (bandwidth-type
      orderings want low degree variance, hub-type orderings want hubs);
    * clustering converts row similarity into fiber-level reuse, at the
      price of padded flops for dissimilar rows (paper §3.1).

    Deterministic, O(1) given the fingerprint features.
    """
    f = dict(zip(FEATURE_NAMES, feats))
    cj = float(np.clip(f["consecutive_jaccard"], 0.0, 1.0))
    sc = float(np.clip(f["scattered_similarity"], 0.0, 1.0))
    dcv = max(0.0, f["degree_cv"])
    hub = float(np.clip(f["hub_mass"], 0.0, 1.0))
    potential = max(cj, sc)

    fl = max(1, flops_rowwise(A, B))
    nnz_a = max(1, A.nnz)
    b_bytes_total = fl * ENTRY_BYTES  # every flop touches one B entry
    b_bytes_cold = min(B.nnz, fl) * ENTRY_BYTES  # compulsory traffic

    def miss_bytes(loc: float) -> float:
        loc = float(np.clip(loc, 0.0, 0.97))
        return b_bytes_cold + (1.0 - loc) * (b_bytes_total - b_bytes_cold)

    def locality_after(reordering: str) -> float:
        if reordering == "original":
            return cj
        family = _family(reordering)
        if family == "baseline":  # shuffled: locality actively destroyed
            return 0.05
        if family == "bandwidth":
            affinity = 1.0 / (1.0 + dcv)
        elif family == "hub":
            affinity = min(1.0, dcv / 2.0 + hub)
        else:
            affinity = 0.5
        return cj + 0.8 * affinity * max(0.0, potential - cj)

    out: list[float] = []
    for cand in candidates:
        loc = locality_after(cand.reordering)
        k_info = get_component("kernel", cand.kernel)
        if not k_info.requires_clustering:
            t = (
                cost.alpha_rowwise * fl
                + cost.beta_miss_byte * miss_bytes(loc)
                + cost.stream_byte * nnz_a * ENTRY_BYTES
                + cost.gamma_brow * nnz_a
            )
        else:
            c_info = get_component("clustering", cand.clustering)
            c_params = c_info.resolve_params((), cfg)
            if c_info.similarity_driven:
                cap = c_params.get("max_cluster_th", cfg.max_cluster_th)
                size = 1.0 + potential * (cap - 1)
                sim = potential  # similarity-driven grouping
            else:
                size = max(1.0, float(c_params.get("cluster_size", cfg.fixed_cluster_size)))
                sim = loc  # blind consecutive grouping: only as good as the order
            padded = fl * (1.0 + (1.0 - sim) * (size - 1.0))
            visits = nnz_a * ((1.0 - sim) + sim / size)
            loc_c = max(loc, sim) + 0.15
            t = (
                cost.alpha_cluster * padded
                + cost.beta_miss_byte * miss_bytes(loc_c)
                + cost.stream_byte * (padded * 8 + nnz_a * 4)
                + cost.gamma_brow * visits
            )
        # Kernel implementation hint: same dataflow, faster numeric
        # phase (hybrid's per-bin dispatch); 1.0 for rowwise/cluster.
        t *= k_info.model_speed_factor
        # Backend axis: same dataflow, faster implementation.  The
        # factor is the static registry hint unless the caller supplies
        # a (calibrated) resolver; 1.0 for reference either way.
        if backend_factor is None:
            t *= get_component("backend", cand.backend).model_speed_factor
        else:
            t *= backend_factor(cand)
        out.append(float(t))
    return out


# ----------------------------------------------------------------------
# Planner policies
# ----------------------------------------------------------------------
class Planner:
    """Base planner: candidate measurement + plan assembly."""

    name = "base"
    #: Whether :meth:`plan`'s ``warm_start`` hint influences the search.
    #: Only measured-trial policies consume it (autotune); ranking-only
    #: and fixed policies ignore the hint, so the engine skips the
    #: neighbour lookup for them entirely.
    uses_warm_start = False

    def __init__(
        self,
        *,
        cfg: ExperimentConfig | None = None,
        machine: SimulatedMachine | None = None,
        seed: int = 0,
        reorderings: tuple[str, ...] | None = None,
        kernels: tuple[str, ...] | None = None,
        backend: "str | tuple | None" = None,
        calibration=None,
        tracer=None,
    ) -> None:
        from ..experiments.runner import machine_for  # local: avoid import cycle at module load
        from ..obs import NOOP_TRACER

        self.cfg = cfg or ExperimentConfig()
        self.machine = machine or machine_for(self.cfg)
        self.seed = int(seed)
        self.reorderings = planner_reorderings() if reorderings is None else tuple(reorderings)
        #: ``None`` → full registry-enumerated kernel space; a tuple
        #: pins the planner to that subset (mirrors ``reorderings``).
        self.kernels = None if kernels is None else tuple(kernels)
        #: Observability hook (DESIGN.md §12): an enabled tracer wraps
        #: :meth:`plan` in a ``planner.plan`` span and every candidate
        #: measurement in a ``planner.trial`` span.
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        #: Optional CalibrationTable: measured backend speed factors
        #: replace the static model_speed_factor hints wherever the
        #: planner ranks or measures along the backend axis.
        self.calibration = calibration
        self._warm: Candidate | None = None  # warm-start hint for one plan() call
        # Backend mode (DESIGN.md §10): None → reference only (the
        # bitwise default), "auto" → enumerate every planner-ranked
        # backend, anything else → pin that backend for every candidate.
        if backend is None or backend == "reference":
            self._backend_mode, self._pinned = "reference", ("reference", ())
        elif backend == "auto":
            self._backend_mode, self._pinned = "auto", ("reference", ())
        else:
            from ..backends import parse_backend

            self._backend_mode, self._pinned = "pinned", parse_backend(backend)
        self._winner_prep: PreparedOperand | None = None  # see take_prepared()

    @property
    def backend_token(self) -> str:
        """Cache-key component naming the backend search setting, so a
        plan tuned under one backend policy is never served to another
        (e.g. a ``scipy`` plan to a reference-only engine)."""
        if self._backend_mode == "auto":
            return "auto"
        name, params = self._pinned
        if not params:
            return name
        return name + ":" + ",".join(f"{k}={v}" for k, v in params)

    @property
    def calibration_epoch(self) -> int:
        """Epoch of the calibration ranking this planner (0 = static hints)."""
        return self.calibration.epoch if self.calibration is not None else 0

    @property
    def cache_token(self) -> str:
        """Discriminates plan-cache entries across planner settings.

        A calibrated planner appends a *content digest* of its
        calibration table (the epoch counter is resettable, the digest
        is not), so plans ranked under different measurements are never
        served to each other — and uncalibrated tokens stay
        byte-identical to what earlier releases persisted.
        """
        kernel_token = "" if self.kernels is None else ":k=" + ",".join(self.kernels)
        return (
            f"{self.name}:{','.join(self.reorderings)}{kernel_token}:b={self.backend_token}"
            + self._calibration_suffix
        )

    @property
    def _calibration_suffix(self) -> str:
        """``":c<digest>"`` for calibrated planners, ``""`` otherwise —
        every ``cache_token`` (subclass overrides included) must append
        it, or calibrated and uncalibrated plans would share keys."""
        return f":c{self.calibration.digest}" if self.calibration is not None else ""

    def take_prepared(self) -> PreparedOperand | None:
        """Hand over the winning candidate's materialised operand.

        One-shot: the engine seeds its operand cache with this so the
        preprocessing paid during planning is never repeated.
        """
        prep, self._winner_prep = self._winner_prep, None
        return prep

    # -- shared machinery ------------------------------------------------
    def _candidates(self, A: CSRMatrix) -> list[Candidate]:
        square = A.nrows == A.ncols
        if self._backend_mode == "auto":
            return default_candidates(
                square=square,
                reorderings=self.reorderings,
                kernels=self.kernels,
                backends=planner_backends(),
            )
        cands = default_candidates(square=square, reorderings=self.reorderings, kernels=self.kernels)
        name, params = self._pinned
        if name == "reference":
            return cands
        # Pinned non-reference backend: every candidate targets it, and
        # kernels it cannot execute leave the space entirely.
        from ..backends import backend_supports

        cands = [
            replace_candidate(c, name, params)
            for c in cands
            if backend_supports(name, params, c.kernel)
        ]
        if not cands:
            raise ValueError(
                f"backend {name!r} supports none of the planner's kernels"
            )
        return cands

    def _backend_factor(
        self,
        backend: str,
        *,
        kernel: str = "rowwise",
        A: CSRMatrix | None = None,
        params: tuple = (),
    ) -> float:
        """The backend's relative-speed factor.

        With a :class:`~repro.engine.adaptive.CalibrationTable` this is
        the *measured* wall-clock ratio for the matrix's
        ``(n, nnz/row, density)`` bin; otherwise (or for bins the
        calibration never visited) the static ``model_speed_factor``
        registry hint.  Parameterised backends look up their
        configuration-specific row first (pool widths calibrate
        separately), falling back to the bare name inside
        :meth:`~repro.engine.adaptive.CalibrationTable.factor`.
        """
        static = get_component("backend", backend).model_speed_factor
        if self.calibration is None or A is None or backend == "reference":
            return static
        from .adaptive import calibration_backend_key

        measured = self.calibration.factor(
            calibration_backend_key(backend, params),
            kernel,
            n=A.nrows,
            nnz_row=A.nnz / max(1, A.nrows),
            density=A.nnz / max(1, A.nrows * A.ncols),
        )
        return static if measured is None else measured

    def _candidate_factor_fn(self, A: CSRMatrix):
        """Per-candidate backend-factor resolver for the cost estimator."""
        return lambda cand: self._backend_factor(
            cand.backend, kernel=cand.kernel, A=A, params=cand.backend_params
        )

    def _measure(self, A: CSRMatrix, B: CSRMatrix, cand: Candidate) -> tuple[float, PreparedOperand]:
        """Materialise ``cand`` and simulate one multiply (model time).

        Kernels tagged ``requires_clustering`` are simulated on the
        machine model's cluster-wise path; every other kernel runs on
        the row-wise path over the prepared (possibly
        cluster-order-composed) operand — for ``tiled`` this is a proxy
        estimate, since the simulated machine models dataflow through
        row traversal.  The simulated time is scaled by the candidate
        backend's ``model_speed_factor`` ranking hint (1.0 for
        ``reference``), mirroring that the same dataflow runs faster on
        a native implementation.
        """
        if not self.tracer.enabled:
            return self._measure_impl(A, B, cand)
        with self.tracer.span("planner.trial", candidate=cand.label):
            return self._measure_impl(A, B, cand)

    def _measure_impl(self, A: CSRMatrix, B: CSRMatrix, cand: Candidate) -> tuple[float, PreparedOperand]:
        k_info = get_component("kernel", cand.kernel)
        prep = prepare_candidate(
            A,
            cand.reordering,
            cand.clustering,
            self.cfg,
            self.machine.cost,
            seed=self.seed,
            cluster_operand=k_info.requires_clustering,
        )
        if k_info.requires_clustering:
            res = self.machine.run_clusterwise(prep.Ac, B)
        else:
            res = self.machine.run_rowwise(prep.Ar, B)
        # The kernel's model_speed_factor mirrors the backend one: same
        # simulated dataflow, faster numeric phase.  The engine's drift
        # probe applies the identical factors, so an unchanged workload
        # measures exactly predicted_cost.
        return (
            res.time
            * k_info.model_speed_factor
            * self._backend_factor(cand.backend, kernel=cand.kernel, A=A, params=cand.backend_params),
            prep,
        )

    def _baseline(self, A: CSRMatrix, B: CSRMatrix) -> float:
        return self.machine.run_rowwise(A, B).time

    def _apply_backend(self, cand: Candidate, A: CSRMatrix | None = None) -> Candidate:
        """Re-target a policy-chosen candidate along the backend axis.

        Used by policies that pick a candidate outside
        :meth:`_candidates` (the predictor).  Pinned mode applies the
        pinned backend (a pin that cannot execute the chosen kernel is a
        configuration error); ``auto`` mode picks the planner-ranked
        backend with the best speed factor — measured when calibrated,
        the static ``model_speed_factor`` hint otherwise — that supports
        the kernel: same dataflow, so the factor alone orders the
        choices (``reference`` wins ties via its rank).
        """
        from ..backends import backend_supports

        if self._backend_mode == "auto":
            choices = [
                c
                for c in components("backend", planned=True)
                if backend_supports(c.name, (), cand.kernel)
            ]
            best = min(
                choices,
                key=lambda c: (
                    self._backend_factor(c.name, kernel=cand.kernel, A=A),
                    c.planner_rank,
                ),
            )
            if best.name != "reference":
                return replace_candidate(cand, best.name)
            return cand
        if self._backend_mode != "pinned":
            return cand
        name, params = self._pinned
        if not backend_supports(name, params, cand.kernel):
            raise ValueError(
                f"pinned backend {name!r} does not support the chosen kernel {cand.kernel!r}"
            )
        return replace_candidate(cand, name, params)

    def _assemble(
        self,
        cand: Candidate,
        prep: PreparedOperand,
        fp: MatrixFingerprint,
        workload: str,
        *,
        predicted: float,
        baseline: float,
        planning: float,
    ) -> ExecutionPlan:
        # Kernels with a binned dispatch record their ladder so cached
        # plans replay the exact same per-bin execution.
        k_info = get_component("kernel", cand.kernel)
        return ExecutionPlan(
            reordering=cand.reordering,
            clustering=cand.clustering,
            kernel=cand.kernel,
            backend=cand.backend,
            backend_params=cand.backend_params,
            bin_map=getattr(k_info.factory, "default_bin_map", ()),
            policy=self.name,
            workload=workload,
            fingerprint_key=fp.key,
            seed=self.seed,
            params=prep.params,
            predicted_cost=predicted,
            baseline_cost=baseline,
            pre_cost=prep.pre_cost,
            planning_cost=planning,
            calibration_epoch=self.calibration_epoch,
        )

    def _select(
        self, A: CSRMatrix, B: CSRMatrix, fp: MatrixFingerprint, baseline: float
    ) -> tuple[Candidate, float, PreparedOperand, float]:
        """Policy hook: return ``(winner, predicted, prep, trial_cost)``.

        ``trial_cost`` is the simulation time of trials *beyond* the
        baseline simulation and the winner's own measurement, which the
        base class always charges.
        """
        raise NotImplementedError

    def warm_candidate(self, plan: "ExecutionPlan | None", A: CSRMatrix) -> Candidate | None:
        """Reconcile a warm-start hint (a neighbour's cached plan) with
        this planner's constraints: squareness and the backend mode.

        Returns ``None`` when the hint cannot apply (rectangular operand
        vs a square-only reordering, or a pinned backend that cannot run
        the hinted kernel) — a warm start is an optimisation, never a
        constraint.  The engine calls this once and passes the resolved
        :class:`Candidate` straight to :meth:`plan`.
        """
        if plan is None:
            return None
        if (
            A.nrows != A.ncols
            and plan.reordering != "original"
            and get_component("reordering", plan.reordering).square_only
        ):
            return None
        from ..backends import backend_supports

        cand = Candidate(plan.reordering, plan.clustering, plan.kernel)
        if self._backend_mode == "auto":
            if plan.backend != "reference" and backend_supports(
                plan.backend, plan.backend_params, plan.kernel
            ):
                cand = replace_candidate(cand, plan.backend, plan.backend_params)
        elif self._backend_mode == "pinned":
            name, params = self._pinned
            if not backend_supports(name, params, cand.kernel):
                return None
            cand = replace_candidate(cand, name, params)
        return cand

    def plan(
        self,
        A: CSRMatrix,
        B: CSRMatrix,
        fp: MatrixFingerprint,
        workload: str = "asquare",
        *,
        warm_start: "ExecutionPlan | Candidate | None" = None,
    ) -> ExecutionPlan:
        """Produce the plan for ``A @ B``-shaped workloads on ``A``'s pattern.

        ``warm_start`` is the nearest cached neighbour's plan (plan-cache
        warm starts, DESIGN.md §11): search policies treat it as the
        first trial candidate so structurally similar patterns start
        from a proven configuration instead of a cold ranking.  An
        already-reconciled :class:`Candidate` (from
        :meth:`warm_candidate`) is used as-is.
        """
        if isinstance(warm_start, Candidate):
            self._warm = warm_start
        else:
            self._warm = self.warm_candidate(warm_start, A)
        if not self.tracer.enabled:
            return self._plan_impl(A, B, fp, workload, sp=None)
        with self.tracer.span("planner.plan", policy=self.name, workload=workload) as sp:
            return self._plan_impl(A, B, fp, workload, sp=sp)

    def _plan_impl(self, A, B, fp, workload, *, sp) -> ExecutionPlan:
        try:
            baseline = self._baseline(A, B)
            cand, predicted, prep, trial_cost = self._select(A, B, fp, baseline)
        finally:
            self._warm = None
        self._winner_prep = prep  # engine picks this up via take_prepared()
        if sp is not None:
            sp.tag(plan=cand.label)
        # Planning charged: every simulation the planner ran — the
        # baseline, the winner's measurement, and any extra trials.
        planning = baseline + predicted + trial_cost
        return self._assemble(
            cand, prep, fp, workload, predicted=predicted, baseline=baseline, planning=planning
        )


class HeuristicPlanner(Planner):
    """Rank candidates with the closed-form cost estimates; pick rank 1."""

    name = "heuristic"

    def choose(self, A: CSRMatrix, B: CSRMatrix, fp: MatrixFingerprint) -> Candidate:
        cands = self._candidates(A)
        est = _estimate_candidate_costs(
            A, B, fp.feature_array(), cands, self.machine.cost, self.cfg,
            backend_factor=self._candidate_factor_fn(A),
        )
        return cands[int(np.argmin(est))]

    def _select(self, A, B, fp, baseline):
        cand = self.choose(A, B, fp)
        predicted, prep = self._measure(A, B, cand)
        return cand, predicted, prep, 0.0


class PredictorPlanner(Planner):
    """Delegate the configuration choice to the k-NN predictor (§5).

    A fitted :class:`~repro.analysis.predictor.ConfigurationPredictor`
    can be supplied; otherwise a small built-in corpus of synthetic
    matrices is swept once (per config) and cached in-process.  The
    predictor models the (reordering, clustering, kernel) triple only;
    the backend axis is applied afterwards via
    :meth:`Planner._apply_backend` (pinned backend, or the best-ranked
    supporting backend under ``backend="auto"``).
    """

    name = "predictor"

    def __init__(self, *, predictor: ConfigurationPredictor | None = None, **kw) -> None:
        super().__init__(**kw)
        self._predictor = predictor

    @property
    def predictor(self) -> ConfigurationPredictor:
        if self._predictor is None:
            mats, sweeps = default_training_corpus(self.cfg, seed=self.seed)
            self._predictor = ConfigurationPredictor(k=3).fit(mats, sweeps)
        return self._predictor

    def choose(self, A: CSRMatrix, B: CSRMatrix, fp: MatrixFingerprint) -> Candidate:
        # Reuse the fingerprint's feature vector only when its sampling
        # seed matches the predictor's training convention (seed 0,
        # matrix_features' default); otherwise let the predictor sample
        # its own so query and training features stay comparable.
        features = fp.feature_array() if self.seed == 0 else None
        algo, variant = self.predictor.predict(A, features=features)
        if variant == "cluster":
            # Label shape ("<clustering>", "cluster"): the clustering
            # embeds its own order, so it rides the natural order.
            return Candidate("original", algo, "cluster")
        if (
            A.nrows != A.ncols
            and algo != "original"
            and get_component("reordering", algo).square_only
        ):
            algo = "original"  # graph reorderings need a square adjacency
        if variant == "rowwise":
            return Candidate(algo, None, "rowwise")
        # Any other variant names a clustering scheme.
        return Candidate(algo, variant, "cluster")

    def _select(self, A, B, fp, baseline):
        cand = self._apply_backend(self.choose(A, B, fp), A)
        predicted, prep = self._measure(A, B, cand)
        return cand, predicted, prep, 0.0


class AutotunePlanner(Planner):
    """Measured trial of the heuristic ranking's top-k candidates.

    Every trial's simulated time is charged to ``planning_cost``: the
    engine reports break-even iterations *including* the tuning bill.
    """

    name = "autotune"
    uses_warm_start = True

    def __init__(self, *, top_k: int = 3, **kw) -> None:
        super().__init__(**kw)
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.top_k = int(top_k)

    @property
    def cache_token(self) -> str:
        return f"{super().cache_token}:k{self.top_k}"

    def _select(self, A, B, fp, baseline):
        cands = self._candidates(A)
        est = _estimate_candidate_costs(
            A, B, fp.feature_array(), cands, self.machine.cost, self.cfg,
            backend_factor=self._candidate_factor_fn(A),
        )
        order = np.argsort(est, kind="stable")[: self.top_k]
        trial_cands = [cands[int(i)] for i in order]
        # Plan-cache warm start: the nearest cached neighbour's
        # configuration is the *first* measured trial, whether or not
        # the cold ranking would have shortlisted it.
        if self._warm is not None and self._warm not in trial_cands:
            trial_cands.insert(0, self._warm)
        # The reference baseline is always a contender (never tune *into*
        # a slowdown blindly) — its measurement is the baseline
        # simulation the base class already ran, so it costs no extra
        # trial.  A *pinned* non-reference backend is the user's explicit
        # choice, so the reference baseline leaves the contest (the best
        # measured pinned candidate wins).
        baseline_cand = Candidate("original", None, "rowwise")
        baseline_contends = self._backend_mode != "pinned"
        measured = []
        for cand in trial_cands:
            if baseline_contends and cand == baseline_cand:
                continue
            t, prep = self._measure(A, B, cand)
            measured.append((cand, t, prep))
        if baseline_contends:
            best_cand, best_time, best_prep = baseline_cand, baseline, None
        else:
            best_cand, best_time, best_prep = measured[0]
        for cand, t, prep in measured:
            if t < best_time:
                best_cand, best_time, best_prep = cand, t, prep
        # Losing trials are pure tuning bill: both their simulated
        # multiply AND the preprocessing spent materialising them (the
        # winner's preprocessing lives on in plan.pre_cost instead).
        extra = sum(t + prep.pre_cost for cand, t, prep in measured if cand != best_cand)
        if best_prep is None:  # baseline won: its "preparation" is a no-op
            best_prep = prepare_candidate(A, "original", None, self.cfg, self.machine.cost, seed=self.seed)
            extra -= baseline  # winner's measurement *is* the already-charged baseline sim
        return best_cand, best_time, best_prep, extra


class PipelinePlanner(Planner):
    """Fixed-configuration "planner": execute one declarative
    :class:`~repro.pipeline.spec.PipelineSpec` instead of searching.

    This is how explicit ``--pipeline`` requests flow through the engine
    with full cost accounting: the spec's operand is materialised and
    simulated once (like any candidate), so break-even book-keeping and
    plan caching behave exactly as for searched plans.
    """

    name = "pipeline"

    def __init__(self, *, spec: PipelineSpec | str, **kw) -> None:
        super().__init__(**kw)
        self.spec = PipelineSpec.parse(spec)

    @property
    def cache_token(self) -> str:
        return f"{self.name}:{self.spec}" + self._calibration_suffix

    def _select(self, A, B, fp, baseline):
        spec = self.spec
        if spec.square_only and A.nrows != A.ncols:
            raise ValueError(
                f"pipeline {spec} needs a square left operand, got {A.shape}"
            )
        built = spec.build(A, seed=self.seed, mode="rows", cfg=self.cfg)
        prep = _prepared_from_built(built, self.machine.cost)
        if spec.kernel_info.requires_clustering:
            res = self.machine.run_clusterwise(prep.Ac, B)
        else:
            res = self.machine.run_rowwise(prep.Ar, B)
        cand = Candidate(
            spec.reordering, spec.clustering, spec.kernel, spec.backend, spec.backend_params
        )
        factor = spec.kernel_info.model_speed_factor * self._backend_factor(
            spec.backend, kernel=spec.kernel, A=A, params=spec.backend_params
        )
        return cand, res.time * factor, prep, 0.0

    def _assemble(self, cand, prep, fp, workload, *, predicted, baseline, planning):
        # Serialise through the spec so reordering/kernel parameters and
        # the accumulator survive into the plan (and round-trip back via
        # ExecutionPlan.pipeline()).
        return self.spec.to_plan(
            policy=self.name,
            workload=workload,
            fingerprint_key=fp.key,
            seed=self.seed,
            predicted_cost=predicted,
            baseline_cost=baseline,
            pre_cost=prep.pre_cost,
            planning_cost=planning,
            calibration_epoch=self.calibration_epoch,
        )


# ----------------------------------------------------------------------
# Built-in predictor training corpus
# ----------------------------------------------------------------------
@lru_cache(maxsize=4)
def _corpus_cached(cfg: ExperimentConfig, seed: int):
    from ..matrices import generators as G
    from ..matrices.perturb import scramble
    from ..experiments.runner import run_matrix_sweep

    builders = [
        ("train_grid", lambda: G.grid2d(16, 16, seed=seed)),
        ("train_grid_scr", lambda: scramble(G.grid2d(16, 16, seed=seed + 1), seed=seed + 1)),
        ("train_block", lambda: G.block_diagonal(12, 10, density=0.5, seed=seed + 2)),
        ("train_block_scr", lambda: scramble(G.block_diagonal(12, 10, density=0.5, seed=seed + 3), seed=seed + 3)),
        ("train_web", lambda: G.web_graph(260, seed=seed + 4)),
        ("train_banded", lambda: G.banded_random(240, bandwidth=8, fill=0.4, seed=seed + 5)),
    ]
    train_cfg = ExperimentConfig(
        n_threads=cfg.n_threads,
        cache_lines=cfg.cache_lines,
        line_bytes=cfg.line_bytes,
        jacc_th=cfg.jacc_th,
        max_cluster_th=cfg.max_cluster_th,
        fixed_cluster_size=cfg.fixed_cluster_size,
        column_cap=cfg.column_cap,
        seed=seed,
        reorderings=DEFAULT_TRAINING_REORDERINGS,
    )
    mats, sweeps = [], []
    for name, build in builders:
        A = build()
        mats.append(A)
        sweeps.append(run_matrix_sweep(name, train_cfg, A=A))
    return tuple(mats), tuple(sweeps)


def default_training_corpus(cfg: ExperimentConfig, *, seed: int = 0):
    """Small synthetic (matrices, sweeps) corpus for the predictor policy.

    Swept once per ``(config, seed)`` and memoised in-process; the
    matrices span the structural families of the suite (mesh, block,
    web, banded — each in ordered and scrambled form) at tiny sizes so
    the first predictor-policy plan stays affordable.
    """
    mats, sweeps = _corpus_cached(cfg, int(seed))
    return list(mats), list(sweeps)


_POLICIES = {
    "heuristic": HeuristicPlanner,
    "predictor": PredictorPlanner,
    "autotune": AutotunePlanner,
    "pipeline": PipelinePlanner,
}


def make_planner(policy: str, **kw) -> Planner:
    """Instantiate a planner policy by name."""
    try:
        cls = _POLICIES[policy]
    except KeyError:
        raise ValueError(f"unknown planner policy {policy!r}; available: {sorted(_POLICIES)}") from None
    return cls(**kw)
