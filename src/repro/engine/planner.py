"""Pluggable planning policies: heuristic, autotune, pipeline.

A planner turns ``(A, B, fingerprint, workload)`` into an
:class:`~repro.engine.plan.ExecutionPlan`.  The candidate space is
enumerated from :mod:`repro.pipeline` registry capability queries
(:func:`planner_reorderings`, :func:`planner_kernels`,
:func:`default_candidates`) — registering a component with the right
tags makes it planned, with no lists to keep in sync here.

Every planner targets one execution backend (:mod:`repro.backends`):
``reference`` by default — preserving the engine's bitwise contract —
or the backend it is constructed with (``"auto"`` is an alias of
``scipy``).  On a backend that does not honour the kernel choice
(``scipy``) only the reordering reaches the product, so its candidates
are ``(reordering, backend)`` pairs — see :func:`executed_candidate`.
``reference`` remains the correctness oracle either way: plans are
validated against it and non-bitwise backends guarantee ``allclose``
results (``scipy`` minus exact-zero sums).  Two search policies are
provided, plus a fixed-spec one:

* :class:`HeuristicPlanner` (``"heuristic"``) — ranks a candidate space
  with closed-form :class:`~repro.machine.cost.CostModel` estimates
  driven by the fingerprint's structural features, then materialises and
  simulates only the winner.  Cheapest; no training data.
* :class:`AutotunePlanner` (``"autotune"``) — measured trial: takes the
  heuristic ranking's top :data:`AUTOTUNE_TRIALS` candidates, actually
  reorders/clusters and simulates each on the machine model, and picks
  the fastest.  The trial
  cost is charged to ``plan.planning_cost`` so the engine's break-even
  accounting stays honest.
* :class:`PipelinePlanner` (``"pipeline"``) — no search: executes one
  explicit :class:`~repro.pipeline.spec.PipelineSpec` (the engine's
  ``pipeline=`` argument / the CLI's ``--pipeline``), still measured
  once so cost accounting and plan caching behave like searched plans.

The k-NN :class:`~repro.analysis.predictor.ConfigurationPredictor` (the
paper's §5 learned choice) is not a policy: fitted on sweeps, its
prediction becomes a :class:`~repro.pipeline.spec.PipelineSpec` run by
the ``pipeline`` policy (``examples/autotune_predictor.py``).

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

import numpy as np

from ..analysis.predictor import FEATURE_NAMES
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
    "AutotunePlanner",
    "PipelinePlanner",
    "make_planner",
    "default_candidates",
    "planner_reorderings",
    "planner_kernels",
    "replace_candidate",
    "executed_candidate",
    "prepare_candidate",
    "AUTOTUNE_TRIALS",
]

#: Candidates the ``autotune`` policy measures (the heuristic ranking's
#: top ones); part of its plan-cache token (``:k3``).
AUTOTUNE_TRIALS = 3


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


def default_candidates(
    *,
    square: bool,
    reorderings: tuple[str, ...] | None = None,
) -> list[Candidate]:
    """The reference-backend candidate space, enumerated from the
    registry.

    Non-square operands cannot take the graph reorderings (they need a
    square adjacency), so their space reduces to clustering choices on
    the natural order.  Clusterings tagged ``embeds_reordering``
    (hierarchical, paper §3.4) are paired only with the natural order —
    their cluster formation *is* a reordering.
    """
    if reorderings is None:
        reorderings = planner_reorderings()
    clusterings = components("clustering")
    kernels = planner_kernels()
    cluster_kernels = _cluster_kernels()
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
    return cands


def replace_candidate(cand: Candidate, backend: str, params: tuple = ()) -> Candidate:
    """Copy of ``cand`` re-targeted at another execution backend."""
    return _dc_replace(cand, backend=backend, backend_params=params)


def _kernel_blind(cand: Candidate) -> bool:
    from ..backends import get_backend

    return not get_backend(cand.backend, cand.backend_params).honours_kernel


def executed_candidate(cand: Candidate) -> Candidate:
    """What ``cand``'s backend actually executes.

    A backend that does not honour the kernel choice (``scipy``) runs
    every kernel as the same product over ``Ar``: no ``CSR_Cluster``
    operand and no kernel reaches it, so only the reordering changes
    its result.  There the candidate is ``(reordering, None,
    "rowwise")``, which builds no clustering.  Candidates on every
    other backend are returned unchanged.
    """
    if not _kernel_blind(cand):
        return cand
    return Candidate(cand.reordering, None, "rowwise", cand.backend, cand.backend_params)


def _executed_space(cands: list[Candidate]) -> list[Candidate]:
    """``cands`` rewritten by :func:`executed_candidate`, duplicates
    dropped (the first keeps its rank), with the natural order a
    candidate on every kernel-blind backend the space reaches."""
    out: dict[Candidate, None] = {}
    for cand in cands:
        if _kernel_blind(cand):
            out.setdefault(
                Candidate("original", None, "rowwise", cand.backend, cand.backend_params)
            )
        out.setdefault(executed_candidate(cand))
    return list(out)


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
        out.append(float(t))
    return out


# ----------------------------------------------------------------------
# Planner policies
# ----------------------------------------------------------------------
class Planner:
    """Base planner: candidate measurement + plan assembly."""

    name = "base"

    def __init__(
        self,
        *,
        cfg: ExperimentConfig | None = None,
        machine: SimulatedMachine | None = None,
        seed: int = 0,
        backend: "str | tuple | None" = None,
        tracer=None,
    ) -> None:
        from ..experiments.runner import machine_for  # local: avoid import cycle at module load
        from ..obs import NOOP_TRACER

        self.cfg = cfg or ExperimentConfig()
        self.machine = machine or machine_for(self.cfg)
        self.seed = int(seed)
        # Read once, so the candidate space and the cache token agree.
        self.reorderings = planner_reorderings()
        #: Observability hook (DESIGN.md §12): an enabled tracer wraps
        #: :meth:`plan` in a ``planner.plan`` span and every candidate
        #: measurement in a ``planner.trial`` span.
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        # The backend every candidate targets (DESIGN.md §10): None →
        # reference (the bitwise default), anything else is parsed
        # ("auto" resolves to scipy there).
        from ..backends import parse_backend

        self._backend = ("reference", ()) if backend is None else parse_backend(backend)
        self._winner_prep: PreparedOperand | None = None  # see take_prepared()

    @property
    def backend_token(self) -> str:
        """Cache-key component naming the backend the planner targets,
        so a plan tuned for one backend is never served to another
        (e.g. a ``scipy`` plan to a reference-only engine)."""
        name, params = self._backend
        if not params:
            return name
        return name + ":" + ",".join(f"{k}={v}" for k, v in params)

    @property
    def cache_token(self) -> str:
        """Discriminates plan-cache entries across planner settings."""
        return f"{self.name}:{','.join(self.reorderings)}:b={self.backend_token}"

    def take_prepared(self) -> PreparedOperand | None:
        """Hand over the winning candidate's materialised operand.

        One-shot: the engine seeds its operand cache with this so the
        preprocessing paid during planning is never repeated.
        """
        prep, self._winner_prep = self._winner_prep, None
        return prep

    # -- shared machinery ------------------------------------------------
    def _candidates(self, A: CSRMatrix) -> list[Candidate]:
        cands = default_candidates(square=A.nrows == A.ncols, reorderings=self.reorderings)
        name, params = self._backend
        if name == "reference":
            return cands
        # Every candidate targets the planner's backend, and kernels it
        # cannot execute leave the space entirely.
        from ..backends import backend_supports

        cands = _executed_space(
            [
                replace_candidate(c, name, params)
                for c in cands
                if backend_supports(name, params, c.kernel)
            ]
        )
        if not cands:
            raise ValueError(
                f"backend {name!r} supports none of the planner's kernels"
            )
        return cands

    def _measure(
        self, A: CSRMatrix, B: CSRMatrix, cand: Candidate, baseline: float
    ) -> tuple[float, PreparedOperand, float]:
        """Materialise ``cand`` and simulate one multiply (model time).

        Kernels tagged ``requires_clustering`` are simulated on the
        machine model's cluster-wise path; every other kernel runs on
        the row-wise path over the prepared (possibly
        cluster-order-composed) operand — for ``tiled`` this is a proxy
        estimate, since the simulated machine models dataflow through
        row traversal.

        Returns ``(time, prep, simulated)``.  A natural-order candidate
        without clustering and with a row kernel simulates exactly the
        ``baseline`` run the planner already made, so it reuses that
        time and ``simulated`` (the model time to charge) is 0.
        """
        if not self.tracer.enabled:
            return self._measure_impl(A, B, cand, baseline)
        with self.tracer.span("planner.trial", candidate=cand.label):
            return self._measure_impl(A, B, cand, baseline)

    def _measure_impl(
        self, A: CSRMatrix, B: CSRMatrix, cand: Candidate, baseline: float
    ) -> tuple[float, PreparedOperand, float]:
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
        reused = (
            cand.reordering == "original"
            and cand.clustering is None
            and not k_info.requires_clustering
        )
        if reused:
            t = baseline
        elif k_info.requires_clustering:
            t = self.machine.run_clusterwise(prep.Ac, B).time
        else:
            t = self.machine.run_rowwise(prep.Ar, B).time
        return t, prep, 0.0 if reused else t

    def _baseline(self, A: CSRMatrix, B: CSRMatrix) -> float:
        return self.machine.run_rowwise(A, B).time

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
        return ExecutionPlan(
            reordering=cand.reordering,
            clustering=cand.clustering,
            kernel=cand.kernel,
            backend=cand.backend,
            backend_params=cand.backend_params,
            policy=self.name,
            workload=workload,
            fingerprint_key=fp.key,
            seed=self.seed,
            params=prep.params,
            predicted_cost=predicted,
            baseline_cost=baseline,
            pre_cost=prep.pre_cost,
            planning_cost=planning,
        )

    def _select(
        self, A: CSRMatrix, B: CSRMatrix, fp: MatrixFingerprint, baseline: float
    ) -> tuple[Candidate, float, PreparedOperand, float]:
        """Policy hook: return ``(winner, predicted, prep, trial_cost)``.

        ``trial_cost`` is the planning cost *beyond* the baseline
        simulation, which the base class always charges: every trial
        simulation the policy ran (the winner's included) plus the
        preprocessing spent on losing trials.
        """
        raise NotImplementedError

    def plan(
        self,
        A: CSRMatrix,
        B: CSRMatrix,
        fp: MatrixFingerprint,
        workload: str = "asquare",
    ) -> ExecutionPlan:
        """Produce the plan for ``A @ B``-shaped workloads on ``A``'s pattern."""
        if not self.tracer.enabled:
            return self._plan_impl(A, B, fp, workload, sp=None)
        with self.tracer.span("planner.plan", policy=self.name, workload=workload) as sp:
            return self._plan_impl(A, B, fp, workload, sp=sp)

    def _plan_impl(self, A, B, fp, workload, *, sp) -> ExecutionPlan:
        baseline = self._baseline(A, B)
        cand, predicted, prep, trial_cost = self._select(A, B, fp, baseline)
        self._winner_prep = prep  # engine picks this up via take_prepared()
        if sp is not None:
            sp.tag(plan=cand.label)
        # Planning charged: the baseline simulation plus the policy's
        # trials (see _select).
        planning = baseline + trial_cost
        return self._assemble(
            cand, prep, fp, workload, predicted=predicted, baseline=baseline, planning=planning
        )


class HeuristicPlanner(Planner):
    """Rank candidates with the closed-form cost estimates; pick rank 1."""

    name = "heuristic"

    def choose(self, A: CSRMatrix, B: CSRMatrix, fp: MatrixFingerprint) -> Candidate:
        cands = self._candidates(A)
        est = _estimate_candidate_costs(A, B, fp.feature_array(), cands, self.machine.cost, self.cfg)
        return cands[int(np.argmin(est))]

    def _select(self, A, B, fp, baseline):
        cand = self.choose(A, B, fp)
        return (cand, *self._measure(A, B, cand, baseline))


class AutotunePlanner(Planner):
    """Measured trial of the heuristic ranking's top
    :data:`AUTOTUNE_TRIALS` candidates.

    Every trial's simulated time is charged to ``planning_cost``: the
    engine reports break-even iterations *including* the tuning bill.
    """

    name = "autotune"

    @property
    def cache_token(self) -> str:
        return f"{super().cache_token}:k{AUTOTUNE_TRIALS}"

    def _select(self, A, B, fp, baseline):
        cands = self._candidates(A)
        est = _estimate_candidate_costs(A, B, fp.feature_array(), cands, self.machine.cost, self.cfg)
        order = np.argsort(est, kind="stable")[:AUTOTUNE_TRIALS]
        trial_cands = [cands[int(i)] for i in order]
        # The reference baseline is always a contender (never tune *into*
        # a slowdown blindly) — its measurement is the baseline
        # simulation the base class already ran, so it costs no extra
        # trial.  A non-reference backend is the user's explicit choice,
        # so the reference baseline leaves the contest (the best measured
        # candidate on that backend wins).
        baseline_cand = Candidate("original", None, "rowwise")
        baseline_contends = self._backend[0] == "reference"
        measured = [
            (cand, *self._measure(A, B, cand, baseline))
            for cand in trial_cands
            if not (baseline_contends and cand == baseline_cand)
        ]
        if baseline_contends:
            best_cand, best_time, best_prep = baseline_cand, baseline, None
        else:
            best_cand, best_time, best_prep, _ = measured[0]
        for cand, t, prep, _ in measured:
            if t < best_time:
                best_cand, best_time, best_prep = cand, t, prep
        # Tuning bill: every trial simulation, plus the preprocessing
        # spent materialising losing trials (the winner's lives on in
        # plan.pre_cost instead).
        extra = sum(
            simulated + (prep.pre_cost if cand != best_cand else 0.0)
            for cand, _, prep, simulated in measured
        )
        if best_prep is None:  # baseline won: its "preparation" is a no-op
            best_prep = prepare_candidate(A, "original", None, self.cfg, self.machine.cost, seed=self.seed)
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
        return f"{self.name}:{self.spec}"

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
        return cand, res.time, prep, res.time

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
        )


_POLICIES = {
    "heuristic": HeuristicPlanner,
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
