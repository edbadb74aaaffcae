"""Pluggable planning policies: heuristic, autotune, pipeline.

A planner turns ``(A, B, fingerprint, workload)`` into an
:class:`~repro.engine.plan.ExecutionPlan` plus the
:class:`~repro.pipeline.spec.BuiltPipeline` it measured, which the
engine caches as the plan's prepared operand.  Every candidate is a
:class:`~repro.pipeline.spec.PipelineSpec`.  The candidate space is
enumerated from :mod:`repro.pipeline` registry capability queries
(:func:`planner_reorderings`, :func:`planner_kernels`,
:func:`default_candidates`) — registering a component with the right
tags makes it planned, with no lists to keep in sync here.

Every planner targets one execution backend (:mod:`repro.backends`):
the one it is constructed with (``"auto"`` is an alias of ``scipy``),
or by default ``scipy`` — ``reference`` when scipy is not registered
(:func:`~repro.backends.default_backend`).  Either way the product is
bitwise-equal to row-wise SpGEMM once exact-zero sums are dropped.  On
a backend that does not honour the kernel choice (``scipy``) only the
reordering reaches the product, so its candidates are
``reordering@backend`` specs — see :meth:`Planner._candidates`.  Two
search policies are provided, plus a fixed-spec one:

* :class:`HeuristicPlanner` (``"heuristic"``) — ranks a candidate space
  with closed-form :class:`~repro.machine.cost.CostModel` estimates
  driven by the fingerprint's structural features, then materialises
  only the winner (and, on a kernel-honouring backend, simulates it).
  Cheapest; no training data.
* :class:`AutotunePlanner` (``"autotune"``) — measured trial: takes the
  heuristic ranking's top :data:`AUTOTUNE_TRIALS` candidates, actually
  reorders/clusters and simulates each on the machine model, and picks
  the fastest.  The trial
  cost is charged to ``plan.planning_cost`` so the engine's break-even
  accounting stays honest.  Simulated time is evidence only for a
  backend that runs the modelled dataflow, so ``autotune`` plans on
  ``reference`` alone and rejects kernel-blind backends.
* :class:`PipelinePlanner` (``"pipeline"``) — no search: executes one
  explicit :class:`~repro.pipeline.spec.PipelineSpec` (the engine's
  ``pipeline=`` argument / the CLI's ``--pipeline``), built (and on a
  kernel-honouring backend simulated) once, like a searched winner.

The simulated 64-core machine (:mod:`repro.machine`) models the
kernels' dataflow, which a kernel-blind backend (``scipy``) does not
run.  So a plan for such a backend is made without simulation: the
planner builds only the winner, and the plan's ``predicted_cost``,
``baseline_cost`` and ``planning_cost`` are ``nan``.  Its ``pre_cost``
stays the closed-form preprocessing charge of the build.  Plans for
``reference`` carry all four model costs.

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

import math

import numpy as np

from ..analysis.predictor import FEATURE_NAMES
from ..core.csr import CSRMatrix
from ..core.spgemm import flops_rowwise
from ..experiments.config import ExperimentConfig
from ..machine.layout import ENTRY_BYTES
from ..pipeline import BuiltPipeline, PipelineSpec, components, get_component
from .fingerprint import MatrixFingerprint
from .plan import ExecutionPlan

__all__ = [
    "Planner",
    "HeuristicPlanner",
    "AutotunePlanner",
    "PipelinePlanner",
    "make_planner",
    "default_candidates",
    "planner_reorderings",
    "planner_kernels",
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
    cfg: ExperimentConfig | None = None,
    backend: tuple[str, tuple] = ("reference", ()),
) -> list[PipelineSpec]:
    """The candidate space of a backend that honours the kernel choice,
    enumerated from the registry (``backend`` is its ``(name, params)``;
    by default ``reference``).

    Non-square operands cannot take the graph reorderings (they need a
    square adjacency), so their space reduces to clustering choices on
    the natural order.  Clusterings tagged ``embeds_reordering``
    (hierarchical, paper §3.4) are paired only with the natural order —
    their cluster formation *is* a reordering.  Each clustering carries
    its parameters resolved under ``cfg`` (default
    :class:`~repro.experiments.config.ExperimentConfig`), so a plan's
    spec records the values its build uses.
    """
    if reorderings is None:
        reorderings = planner_reorderings()
    cfg = cfg or ExperimentConfig()
    name, params = backend
    clusterings = [
        (c, tuple(c.resolve_params((), cfg).items())) for c in components("clustering")
    ]
    kernels = planner_kernels()
    cluster_kernels = _cluster_kernels()

    def specs(r: str, with_clusterings) -> list[PipelineSpec]:
        out = [PipelineSpec(r, None, k, name, backend_params=params) for k in kernels]
        out += [
            PipelineSpec(r, c.name, ck, name, clustering_params=c_params, backend_params=params)
            for c, c_params in with_clusterings
            for ck in cluster_kernels
        ]
        return out

    cands = specs("original", clusterings)
    if square:
        ordered = [(c, c_params) for c, c_params in clusterings if not c.embeds_reordering]
        for r in reorderings:
            cands += specs(r, ordered)
    return cands


# ----------------------------------------------------------------------
# Closed-form candidate scoring (the heuristic)
# ----------------------------------------------------------------------
def _estimate_candidate_costs(
    A: CSRMatrix,
    B: CSRMatrix,
    feats: np.ndarray,
    candidates: list[PipelineSpec],
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
        if not cand.kernel_info.requires_clustering:
            t = (
                cost.alpha_rowwise * fl
                + cost.beta_miss_byte * miss_bytes(loc)
                + cost.stream_byte * nnz_a * ENTRY_BYTES
                + cost.gamma_brow * nnz_a
            )
        else:
            c_info = cand.clustering_info
            c_params = c_info.resolve_params(cand.clustering_params, cfg)
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
    """Base planner: candidate measurement + plan assembly.

    Stateless once constructed: :meth:`plan` returns the plan together
    with the operand it built, so concurrent callers never share a
    result."""

    name = "base"

    def __init__(
        self,
        *,
        cfg: ExperimentConfig | None = None,
        backend: "str | tuple | None" = None,
        tracer=None,
    ) -> None:
        from ..experiments.runner import machine_for  # local: avoid import cycle at module load
        from ..obs import NOOP_TRACER

        self.cfg = cfg or ExperimentConfig()
        #: Simulated machine for trials and costs: always the config's.
        self.machine = machine_for(self.cfg)
        # Read once, so the candidate space and the cache token agree.
        self.reorderings = planner_reorderings()
        #: Observability hook (DESIGN.md §12): an enabled tracer wraps
        #: :meth:`plan` in a ``planner.plan`` span and every candidate
        #: measurement in a ``planner.trial`` span.
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        # The backend every candidate targets (DESIGN.md §10): None →
        # scipy (reference without scipy), anything else is parsed
        # ("auto" resolves to scipy there).
        from ..backends import default_backend, parse_backend

        self._backend = default_backend() if backend is None else parse_backend(backend)

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

    # -- shared machinery ------------------------------------------------
    def _candidates(self, A: CSRMatrix) -> list[PipelineSpec]:
        """Every candidate, on the planner's backend.

        A backend that does not honour the kernel choice (``scipy``)
        runs every kernel as the same product over ``Ar``: no
        ``CSR_Cluster`` operand and no kernel reaches it, so only the
        reordering changes its result.  Its space is the
        ``reordering@backend`` specs, natural order first, which build no
        clustering.
        """
        square = A.nrows == A.ncols
        name, params = self._backend
        if self.honours_kernel:
            return default_candidates(
                square=square, reorderings=self.reorderings, cfg=self.cfg, backend=self._backend
            )
        orders = ("original", *self.reorderings) if square else ("original",)
        return [PipelineSpec(r, backend=name, backend_params=params) for r in orders]

    @property
    def honours_kernel(self) -> bool:
        """The planner's backend runs the plan's kernel, so the simulated
        machine models its dataflow and plans carry model costs.  A
        kernel-blind backend (``scipy``) is planned without simulation
        (module docstring)."""
        from ..backends import get_backend

        return get_backend(*self._backend).honours_kernel

    def _build(self, A: CSRMatrix, spec: PipelineSpec) -> BuiltPipeline:
        """Materialise ``spec``'s operand for ``A`` (row-gather mode)."""
        return spec.build(A, seed=self.cfg.seed, mode="rows", cfg=self.cfg)

    def _simulate(self, built: BuiltPipeline, B: CSRMatrix) -> float:
        """Model time of one multiply over ``built``.

        Kernels tagged ``requires_clustering`` are simulated on the
        machine model's cluster-wise path; every other kernel runs on
        the row-wise path over the built (possibly
        cluster-order-composed) operand — for ``tiled`` this is a proxy
        estimate, since the simulated machine models dataflow through
        row traversal.
        """
        if built.spec.kernel_info.requires_clustering:
            return self.machine.run_clusterwise(built.Ac, B).time
        return self.machine.run_rowwise(built.Ar, B).time

    def _measure(
        self, A: CSRMatrix, B: CSRMatrix, spec: PipelineSpec, baseline: float
    ) -> tuple[float, BuiltPipeline, float]:
        """Build ``spec`` and simulate one multiply (model time).

        Returns ``(time, built, simulated)``.  A natural-order spec
        without clustering and with a row kernel simulates exactly the
        ``baseline`` run the planner already made, so it reuses that
        time and ``simulated`` (the model time to charge) is 0.
        """
        if not self.tracer.enabled:
            return self._measure_impl(A, B, spec, baseline)
        with self.tracer.span("planner.trial", candidate=spec.label):
            return self._measure_impl(A, B, spec, baseline)

    def _measure_impl(
        self, A: CSRMatrix, B: CSRMatrix, spec: PipelineSpec, baseline: float
    ) -> tuple[float, BuiltPipeline, float]:
        built = self._build(A, spec)
        if spec.reordering == "original" and spec.clustering is None and not spec.kernel_info.requires_clustering:
            return baseline, built, 0.0
        t = self._simulate(built, B)
        return t, built, t

    def _baseline(self, A: CSRMatrix, B: CSRMatrix) -> float:
        return self.machine.run_rowwise(A, B).time

    def choose(self, A: CSRMatrix, B: CSRMatrix, fp: MatrixFingerprint) -> PipelineSpec:
        """Policy hook: the spec to plan, chosen without simulation."""
        raise NotImplementedError

    def _select(
        self, A: CSRMatrix, B: CSRMatrix, fp: MatrixFingerprint, baseline: float
    ) -> tuple[PipelineSpec, float, BuiltPipeline, float]:
        """Return ``(winner, predicted, built, trial_cost)`` on a
        kernel-honouring backend: :meth:`choose`'s spec, measured.

        ``trial_cost`` is the planning cost *beyond* the baseline
        simulation, which the base class always charges: every trial
        simulation the policy ran (the winner's included) plus the
        preprocessing spent on losing trials.
        """
        spec = self.choose(A, B, fp)
        return (spec, *self._measure(A, B, spec, baseline))

    def plan(
        self,
        A: CSRMatrix,
        B: CSRMatrix,
        fp: MatrixFingerprint,
        workload: str = "asquare",
    ) -> tuple[ExecutionPlan, BuiltPipeline]:
        """The plan for ``A @ B``-shaped workloads on ``A``'s pattern, and
        the winning operand built while making it (the engine caches
        it, so the preprocessing is never paid twice)."""
        if not self.tracer.enabled:
            return self._plan_impl(A, B, fp, workload, sp=None)
        with self.tracer.span("planner.plan", policy=self.name, workload=workload) as sp:
            return self._plan_impl(A, B, fp, workload, sp=sp)

    def _plan_impl(self, A, B, fp, workload, *, sp) -> tuple[ExecutionPlan, BuiltPipeline]:
        if self.honours_kernel:
            baseline = self._baseline(A, B)
            spec, predicted, built, trial_cost = self._select(A, B, fp, baseline)
            # Planning charged: the baseline simulation plus the
            # policy's trials (see _select).
            planning = baseline + trial_cost
        else:
            spec = self.choose(A, B, fp)
            built = self._build(A, spec)
            baseline = predicted = planning = math.nan
        if sp is not None:
            sp.tag(plan=spec.label)
        plan = ExecutionPlan(
            spec,
            policy=self.name,
            workload=workload,
            fingerprint_key=fp.key,
            seed=self.cfg.seed,
            predicted_cost=predicted,
            baseline_cost=baseline,
            pre_cost=built.pre_cost(self.machine.cost),
            planning_cost=planning,
        )
        return plan, built


class HeuristicPlanner(Planner):
    """Rank candidates with the closed-form cost estimates; pick rank 1."""

    name = "heuristic"

    def choose(self, A: CSRMatrix, B: CSRMatrix, fp: MatrixFingerprint) -> PipelineSpec:
        cands = self._candidates(A)
        est = _estimate_candidate_costs(A, B, fp.feature_array(), cands, self.machine.cost, self.cfg)
        return cands[int(np.argmin(est))]


class AutotunePlanner(Planner):
    """Measured trial of the heuristic ranking's top
    :data:`AUTOTUNE_TRIALS` candidates.

    Every trial's simulated time is charged to ``planning_cost``: the
    engine reports break-even iterations *including* the tuning bill.
    Construction raises ``ValueError`` on a kernel-blind backend
    (``scipy``, the default), whose products the simulation does not
    model.
    """

    name = "autotune"

    def __init__(self, **kw) -> None:
        super().__init__(**kw)
        if not self.honours_kernel:
            raise ValueError(
                f"autotune ranks candidates by simulated time, which is no evidence for "
                f"the kernel-blind backend {self._backend[0]!r}; use policy=\"heuristic\" "
                f"on it, or autotune with backend=\"reference\""
            )

    @property
    def cache_token(self) -> str:
        return f"{super().cache_token}:k{AUTOTUNE_TRIALS}"

    def _select(self, A, B, fp, baseline):
        cands = self._candidates(A)
        est = _estimate_candidate_costs(A, B, fp.feature_array(), cands, self.machine.cost, self.cfg)
        order = np.argsort(est, kind="stable")[:AUTOTUNE_TRIALS]
        trial_specs = [cands[int(i)] for i in order]
        # The natural order is always a contender (never tune *into* a
        # slowdown blindly) — its measurement is the baseline simulation
        # the base class already ran, so it costs no extra trial.
        name, params = self._backend
        baseline_spec = PipelineSpec(backend=name, backend_params=params)
        measured = [
            (spec, *self._measure(A, B, spec, baseline))
            for spec in trial_specs
            if spec != baseline_spec
        ]
        best_spec, best_time, best_built = baseline_spec, baseline, None
        for spec, t, built, _ in measured:
            if t < best_time:
                best_spec, best_time, best_built = spec, t, built
        # Tuning bill: every trial simulation, plus the preprocessing
        # spent materialising losing trials (the winner's lives on in
        # plan.pre_cost instead).
        cost = self.machine.cost
        extra = sum(
            simulated + (built.pre_cost(cost) if spec != best_spec else 0.0)
            for spec, _, built, simulated in measured
        )
        if best_built is None:  # baseline won: its "preparation" is a no-op
            best_built = self._build(A, baseline_spec)
        return best_spec, best_time, best_built, extra


class PipelinePlanner(Planner):
    """Fixed-configuration "planner": execute one declarative
    :class:`~repro.pipeline.spec.PipelineSpec` instead of searching.

    This is how explicit ``--pipeline`` requests flow through the engine
    with full cost accounting: the spec is built (and, on a
    kernel-honouring backend, simulated) once like a searched winner, so
    break-even book-keeping and plan caching behave exactly as for
    searched plans, and the plan's ``spec`` is this spec, parameters
    included.  The spec's own backend decides whether it is simulated.
    """

    name = "pipeline"

    def __init__(self, *, spec: PipelineSpec | str, **kw) -> None:
        super().__init__(**kw)
        self.spec = PipelineSpec.parse(spec)
        self._backend = (self.spec.backend, self.spec.backend_params)

    @property
    def cache_token(self) -> str:
        return f"{self.name}:{self.spec}"

    def choose(self, A, B, fp):
        spec = self.spec
        if spec.square_only and A.nrows != A.ncols:
            raise ValueError(
                f"pipeline {spec} needs a square left operand, got {A.shape}"
            )
        return spec


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
