"""Declarative pipeline specifications with a round-trippable string form.

A :class:`PipelineSpec` names one point of the (reordering, clustering,
kernel, backend) configuration space the paper studies, validated
against the component registry at construction.  The string grammar::

    spec     := segment ('+' segment)* ['@' segment]
    segment  := name [':' params]
    params   := param (',' param)*
    param    := [key '='] value          # bare values bind positionally

Segments may appear in any order and any kind may be omitted — names
identify their kind via the registry, whose namespaces are disjoint.
Missing parts default to ``original`` / no clustering / ``rowwise``
(``cluster`` when a clustering is present).  ``none`` (or ``csr``) names
the empty clustering explicitly.  The ``@`` suffix selects the
*execution backend* (:mod:`repro.backends`; default ``reference``, which
is omitted from the canonical string form).  Examples::

    rcm+hierarchical:max_th=8+cluster     # ISSUE acceptance spec
    rcm+fixed:8+cluster                   # positional param (cluster_size)
    rcm@scipy                             # scipy: only the reordering reaches it
    original+none+rowwise                 # the baseline, fully spelled
    rabbit+tiled:tile_cols=128            # reordered tiled SpGEMM

``parse(str(spec)) == spec`` holds for every valid spec: parameters are
alias-resolved, type-coerced and stored in schema order at construction.

``spec.build(A)`` materialises the pipeline (reorder → cluster →
operand formats) and ``spec.run(A, B)`` executes it through the spec's
backend.  Under every backend the product is **bitwise-identical** to
``spgemm_rowwise(A, B)`` once exact-zero sums are dropped (NaNs by
position; :mod:`repro.backends.base`): permutations gather whole rows
and the execution preserves per-row summation order, so only row
placement changes — and is inverted at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping

import numpy as np

from .registry import (
    ComponentInfo,
    components,
    find_component,
    get_component,
)

__all__ = ["PipelineSpec", "BuiltPipeline", "enumerate_compatible"]

#: Spec-segment spellings of "no clustering".
_NONE_NAMES = ("none", "csr")

Params = "tuple[tuple[str, Any], ...]"


def _canon(kind: str, name: str, params) -> tuple[tuple[str, Any], ...]:
    if isinstance(params, Mapping):
        params = tuple(params.items())
    return get_component(kind, name).canonical_params(tuple(params))


def _format_value(v: Any) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _segment(name: str, params: Iterable[tuple[str, Any]]) -> str:
    params = list(params)
    if not params:
        return name
    return name + ":" + ",".join(f"{k}={_format_value(v)}" for k, v in params)


@dataclass(frozen=True)
class PipelineSpec:
    """One declarative SpGEMM configuration (see module docstring).

    Parameters are stored as canonical ``(name, value)`` tuples in the
    component's schema order, so equal configurations compare equal
    however they were spelled.
    """

    reordering: str = "original"
    clustering: str | None = None
    kernel: str = "rowwise"
    backend: str = "reference"
    reordering_params: tuple[tuple[str, Any], ...] = ()
    clustering_params: tuple[tuple[str, Any], ...] = ()
    kernel_params: tuple[tuple[str, Any], ...] = ()
    backend_params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "reordering_params", _canon("reordering", self.reordering, self.reordering_params)
        )
        if self.clustering is None:
            if self.clustering_params:
                raise ValueError("clustering_params given without a clustering")
        else:
            object.__setattr__(
                self, "clustering_params", _canon("clustering", self.clustering, self.clustering_params)
            )
        object.__setattr__(self, "kernel_params", _canon("kernel", self.kernel, self.kernel_params))
        object.__setattr__(self, "backend_params", _canon("backend", self.backend, self.backend_params))
        if self.kernel_info.requires_clustering and self.clustering is None:
            raise ValueError(
                f"kernel {self.kernel!r} requires a clustering; "
                f"available: {[c.name for c in components('clustering')]}"
            )

    # ------------------------------------------------------------------
    # Registry access
    # ------------------------------------------------------------------
    @property
    def reordering_info(self) -> ComponentInfo:
        return get_component("reordering", self.reordering)

    @property
    def clustering_info(self) -> ComponentInfo | None:
        return None if self.clustering is None else get_component("clustering", self.clustering)

    @property
    def kernel_info(self) -> ComponentInfo:
        return get_component("kernel", self.kernel)

    @property
    def square_only(self) -> bool:
        """Whether the pipeline needs a square left operand."""
        return self.reordering_info.square_only

    # ------------------------------------------------------------------
    # String form
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        mid = "none" if self.clustering is None else _segment(self.clustering, self.clustering_params)
        text = "+".join(
            [
                _segment(self.reordering, self.reordering_params),
                mid,
                _segment(self.kernel, self.kernel_params),
            ]
        )
        # The default backend is omitted so pre-backend spec strings stay
        # canonical; `reference` takes no parameters by construction.
        if self.backend != "reference":
            text += "@" + _segment(self.backend, self.backend_params)
        return text

    @property
    def label(self) -> str:
        """Engine-style short label (matches ``ExecutionPlan.label``)."""
        from ..engine.plan import backend_label_suffix

        suffix = backend_label_suffix(self.backend, self.backend_params)
        return f"{self.reordering}+{self.clustering or 'csr'}/{self.kernel}{suffix}"

    @classmethod
    def parse(cls, text: str) -> "PipelineSpec":
        """Parse a spec string (see module docstring for the grammar).

        Unknown component names raise ``KeyError`` listing the valid
        names of every kind; unknown or ill-typed parameters raise
        ``ValueError`` naming the component's schema.
        """
        if isinstance(text, PipelineSpec):
            return text
        core, at, btext = str(text).partition("@")
        backend, b_params = "reference", []
        if at:
            if "@" in btext:
                raise ValueError(f"pipeline spec {text!r} names two backends (one '@' allowed)")
            bname, _, bptext = btext.strip().partition(":")
            if not bname.strip():
                raise ValueError(f"empty backend after '@' in pipeline spec {text!r}")
            b_info = get_component("backend", bname.strip())  # KeyError lists backends
            backend = b_info.name
            b_params = b_info.parse_params_text(bptext)
        segments = [s.strip() for s in core.split("+")]
        if not any(segments):
            if at:  # "@scipy" alone: every pipeline default, pinned backend
                segments = []
            else:
                raise ValueError("empty pipeline spec")
        by_kind: dict[str, tuple[str, list[tuple[str, Any]]]] = {}
        explicit_none = False
        for seg in segments:
            if not seg:
                raise ValueError(f"empty segment in pipeline spec {text!r}")
            name, _, ptext = seg.partition(":")
            name = name.strip()
            if name in _NONE_NAMES:
                if ptext:
                    raise ValueError(f"clustering {name!r} takes no parameters")
                explicit_none = True
                continue
            info = find_component(name)
            if info.kind == "backend":
                raise ValueError(
                    f"{name!r} is an execution backend; select it with '@{name}', "
                    f"e.g. 'rcm+fixed:8+cluster@{name}'"
                )
            if info.kind in by_kind:
                raise ValueError(
                    f"pipeline spec {text!r} names two {info.kind}s: "
                    f"{by_kind[info.kind][0]!r} and {name!r}"
                )
            by_kind[info.kind] = (name, cls._parse_params(info, ptext))
        if explicit_none and "clustering" in by_kind:
            raise ValueError(f"pipeline spec {text!r} both names a clustering and 'none'")
        reordering, r_params = by_kind.get("reordering", ("original", []))
        clustering, c_params = by_kind.get("clustering", (None, []))
        default_kernel = "cluster" if clustering is not None else "rowwise"
        kernel, k_params = by_kind.get("kernel", (default_kernel, []))
        return cls(
            reordering=reordering,
            clustering=clustering,
            kernel=kernel,
            backend=backend,
            reordering_params=tuple(r_params),
            clustering_params=tuple(c_params),
            kernel_params=tuple(k_params),
            backend_params=tuple(b_params),
        )

    @staticmethod
    def _parse_params(info: ComponentInfo, ptext: str) -> list[tuple[str, Any]]:
        return info.parse_params_text(ptext)

    # ------------------------------------------------------------------
    # Derivation helpers
    # ------------------------------------------------------------------
    def with_clustering(self, name: str | None, **params: Any) -> "PipelineSpec":
        """Copy with a different clustering (``None`` clears it).

        The kernel follows the clustering where the result would
        otherwise be surprising: clearing the clustering under a
        cluster-requiring kernel falls back to ``rowwise``, and adding a
        clustering to the *default* kernel (parameterless ``rowwise``)
        upgrades to ``cluster``.  An explicitly chosen kernel — ``tiled``,
        or ``rowwise`` with parameters — is preserved (clusterings are
        compatible with any kernel: they contribute their implicit row
        order, paper §3.4)."""
        kernel, kernel_params = self.kernel, self.kernel_params
        if name is None and self.kernel_info.requires_clustering:
            kernel, kernel_params = "rowwise", ()
        elif name is not None and kernel == "rowwise" and not kernel_params:
            kernel = "cluster"
        return replace(
            self,
            clustering=name,
            clustering_params=tuple(params.items()),
            kernel=kernel,
            kernel_params=kernel_params,
        )

    def with_kernel(self, name: str, **params: Any) -> "PipelineSpec":
        return replace(self, kernel=name, kernel_params=tuple(params.items()))

    def with_backend(self, name: str, **params: Any) -> "PipelineSpec":
        """Copy with a different execution backend.

        ``name`` may carry spec-style parameters
        (``"name:param=value"``) when no keyword parameters are given;
        it is resolved by :func:`~repro.backends.parse_backend`, so
        ``"auto"`` pins ``scipy``.
        """
        from ..backends import parse_backend

        name, parsed = parse_backend((name, params) if params else name)
        return replace(self, backend=name, backend_params=parsed)

    # ------------------------------------------------------------------
    # Build & run
    # ------------------------------------------------------------------
    def build(
        self,
        A,
        *,
        seed: int = 0,
        mode: str = "rows",
        cfg: Any = None,
        base: "BuiltPipeline | None" = None,
    ) -> "BuiltPipeline":
        """Materialise the pipeline on operand ``A``.

        ``mode`` selects how permutations are applied (DESIGN.md §4):
        ``"rows"`` (gather ``P·A``, the engine's bitwise-safe mode) or
        ``"symmetric"`` (``P A Pᵀ``, the experiment sweeps' mode).
        ``cfg`` supplies parameter defaults via each
        :class:`ParamSpec`'s ``config_attr``.  ``base`` is an optional
        previously built pipeline on the *same operand, seed and mode*
        whose matching reordering (and clustering) stages are reused
        instead of recomputed — the sweep runner's amortisation.
        """
        if mode not in ("rows", "symmetric"):
            raise ValueError(f"unknown mode {mode!r} (expected 'rows' or 'symmetric')")
        r_info = self.reordering_info
        if r_info.square_only and A.nrows != A.ncols:
            raise ValueError(
                f"reordering {self.reordering!r} needs a square operand, got {A.shape}"
            )

        def stage_matches(b: "BuiltPipeline | None") -> bool:
            return (
                b is not None
                and b.A is A
                and b.mode == mode
                and b.seed == seed
                and b.cfg == cfg  # config supplies parameter defaults
                and b.spec.reordering == self.reordering
                and b.spec.reordering_params == self.reordering_params
            )

        info: dict[str, Any] = {}
        if stage_matches(base):
            perm, Ar, reorder_work = base.reorder_perm, base.Ar_reordered, base.reorder_work
            info.update(base.info)
        elif self.reordering == "original":
            perm, Ar, reorder_work = None, A, 0
        else:
            r = r_info.factory(A, seed=seed, **r_info.resolve_params(self.reordering_params, cfg))
            perm, reorder_work = r.perm, r.work
            Ar = A.permute_symmetric(perm) if mode == "symmetric" else A.permute_rows(perm)
            info.update(r.info)
        reorder_perm, Ar_reordered = perm, Ar

        clustering = None
        Ac = None
        cluster_work = 0
        c_info = self.clustering_info
        if c_info is not None:
            if (
                stage_matches(base)
                and base.spec.clustering == self.clustering
                and base.spec.clustering_params == self.clustering_params
                and base.clustering is not None
            ):
                clustering = base.clustering
            else:
                clustering = c_info.factory(
                    Ar, **c_info.resolve_params(self.clustering_params, cfg)
                )
            cluster_work = clustering.work
            if self.kernel_info.requires_clustering:
                Ac = base.Ac if (clustering is getattr(base, "clustering", None) and base.Ac is not None) else clustering.to_csr_cluster(Ar)
            else:
                # Non-cluster kernels consume the clustering as its
                # *implicit row reordering* (paper §3.4): compose the
                # cluster order onto the operand.
                cperm = clustering.permutation()
                Ar = Ar.permute_symmetric(cperm) if mode == "symmetric" else Ar.permute_rows(cperm)
                perm = cperm if perm is None else perm[cperm]

        inv = None
        if perm is not None:
            inv = np.empty_like(perm)
            inv[perm] = np.arange(perm.size, dtype=np.int64)
        return BuiltPipeline(
            spec=self,
            A=A,
            Ar=Ar,
            Ac=Ac,
            perm=perm,
            inv=inv,
            clustering=clustering,
            reorder_perm=reorder_perm,
            Ar_reordered=Ar_reordered,
            reorder_work=reorder_work,
            cluster_work=cluster_work,
            seed=seed,
            mode=mode,
            cfg=cfg,
            info=info,
        )

    def run(self, A, B=None, *, seed: int = 0, cfg: Any = None):
        """Execute the pipeline: ``A @ B`` (``A²`` when ``B`` is omitted).

        Builds in ``rows`` mode and inverts the row gather at the end,
        so the result is bitwise-identical to ``spgemm_rowwise(A, B)``
        once exact-zero sums are dropped, on every backend (the spec's
        default ``reference`` keeps them too).
        """
        built = self.build(A, seed=seed, mode="rows", cfg=cfg)
        return built.execute(A if B is None else B, cfg=cfg)

    # ------------------------------------------------------------------
    # ExecutionPlan interop
    # ------------------------------------------------------------------
    def to_plan(self, **overrides: Any):
        """Serialise into an :class:`~repro.engine.plan.ExecutionPlan`.

        Numeric parameters are flattened (as floats, the plan's legacy
        convention) into ``plan.params``; a ``rowwise`` accumulator
        parameter maps onto the plan's ``accumulator`` field.  Cost /
        policy fields are left for the planner via ``overrides``.
        """
        from ..engine.plan import ExecutionPlan

        params: list[tuple[str, Any]] = []
        for name, value in (*self.clustering_params, *self.kernel_params):
            if name == "accumulator":
                overrides.setdefault("accumulator", value)
            else:
                params.append((name, float(value) if isinstance(value, (int, float)) else value))
        for name, value in self.reordering_params:
            params.append((name, float(value) if isinstance(value, (int, float)) else value))
        return ExecutionPlan(
            reordering=self.reordering,
            clustering=self.clustering,
            kernel=self.kernel,
            backend=self.backend,
            backend_params=self.backend_params,
            params=tuple(params),
            **overrides,
        )

    @classmethod
    def from_plan(cls, plan) -> "PipelineSpec":
        """Recover the spec a plan describes (inverse of :meth:`to_plan`)."""
        r_info = get_component("reordering", plan.reordering)
        c_info = None if plan.clustering is None else get_component("clustering", plan.clustering)
        k_info = get_component("kernel", plan.kernel)
        r_params, c_params, k_params = [], [], []
        for name, value in plan.params:
            for info, bucket in ((c_info, c_params), (k_info, k_params), (r_info, r_params)):
                if info is not None and any(name == p.name or name in p.aliases for p in info.params):
                    bucket.append((name, value))
                    break
        if plan.accumulator != "sort" and any(p.name == "accumulator" for p in k_info.params):
            k_params.append(("accumulator", plan.accumulator))
        return cls(
            reordering=plan.reordering,
            clustering=plan.clustering,
            kernel=plan.kernel,
            backend=plan.backend,
            reordering_params=tuple(r_params),
            clustering_params=tuple(c_params),
            kernel_params=tuple(k_params),
            backend_params=plan.backend_params,
        )


@dataclass
class BuiltPipeline:
    """A materialised pipeline: the prepared left operand plus the
    preprocessing accounting needed by the amortisation studies.

    The one prepared operand: planners build it while measuring a
    candidate, the engine caches it, and every execution backend
    receives it.  Satisfies the
    :class:`~repro.pipeline.registry.ClusteredOperand` protocol
    (``Ar`` / ``Ac``) consumed by kernels.
    ``reorder_perm`` / ``Ar_reordered`` preserve the reordering-stage
    intermediates so later builds can reuse them via ``build(base=…)``
    even when the final ``Ar`` composes a clustering order on top.
    """

    spec: PipelineSpec
    A: Any
    Ar: Any
    Ac: Any
    perm: np.ndarray | None
    inv: np.ndarray | None
    clustering: Any
    reorder_perm: np.ndarray | None
    Ar_reordered: Any
    reorder_work: int
    cluster_work: int
    seed: int = 0
    mode: str = "rows"
    cfg: Any = None
    info: dict = field(default_factory=dict)
    #: Execution-backend state owned by this operand (the ``scipy``
    #: backend's recorded product structure); dropped with it.
    backend_state: dict = field(default_factory=dict, repr=False, compare=False)

    def pre_cost(self, cost) -> float:
        """Model preprocessing time under ``cost``, charged at each
        component's registry rate (the Fig. 10 accounting)."""
        t = 0.0
        if self.reorder_work:
            t += cost.preprocessing_time(self.reorder_work, kind=self.spec.reordering_info.pre_cost_kind)
        if self.cluster_work:
            t += cost.preprocessing_time(self.cluster_work, kind=self.spec.clustering_info.pre_cost_kind)
        return t

    def execute(self, B, *, cfg: Any = None, ctx: Any = None):
        """Run the spec's kernel through its execution backend, with the
        product in the original row order (bitwise-identical to row-wise
        SpGEMM in ``rows`` mode under a bitwise backend).

        Dispatch goes through :func:`repro.backends.execute` — the one
        kernel-execution path shared with the engine.  ``ctx`` is an
        optional :class:`~repro.backends.base.ExecutionContext` for
        callers that accumulate backend statistics.

        Only ``rows`` builds execute: a ``symmetric`` build's ``Ar`` is
        ``P A Pᵀ``, whose product with ``B`` is not ``P·(A B)``, so it
        raises ``ValueError`` (those builds feed the simulated sweeps).
        """
        from ..backends import execute as backend_execute

        if self.mode != "rows":
            raise ValueError(
                f"cannot execute a mode={self.mode!r} build: its Ar is P A Pᵀ; "
                "build with mode='rows' to execute"
            )
        spec = self.spec
        if cfg is None:
            cfg = self.cfg
        return backend_execute(
            self,
            B,
            kernel=spec.kernel,
            kernel_params=spec.kernel_info.resolve_params(spec.kernel_params, cfg),
            backend=spec.backend,
            backend_params=spec.backend_params,
            cfg=cfg,
            ctx=ctx,
            original_order=True,
        )


def enumerate_compatible(
    *,
    square: bool = True,
    reorderings: Iterable[str] | None = None,
    backends: Iterable[str] | None = None,
) -> list[PipelineSpec]:
    """Every (reordering, clustering, kernel[, backend]) composition the
    registry calls compatible, as default-parameter specs.

    Compatibility rules (all registry-tag driven): square-only
    reorderings are dropped for rectangular operands, and kernels that
    require a clustering pair only with actual clusterings.  When
    ``backends`` is given (``None`` keeps the historical reference-only
    enumeration), each triple is emitted once per backend.
    """
    r_names = [
        c.name
        for c in components("reordering", square_ok=None if square else False)
        if reorderings is None or c.name in set(reorderings)
    ]
    b_names = ["reference"] if backends is None else list(backends)
    out: list[PipelineSpec] = []
    for r in r_names:
        for c in [None, *(ci.name for ci in components("clustering"))]:
            for k in components("kernel"):
                if k.requires_clustering and c is None:
                    continue
                out += [
                    PipelineSpec(reordering=r, clustering=c, kernel=k.name, backend=b)
                    for b in b_names
                ]
    return out
