"""Capability-tagged component registry — the one namespace for SpGEMM
pipeline building blocks.

The paper's thesis is that SpGEMM performance comes from *composing* a
reordering, a clustering and a kernel.  This registry makes that triple
an enumerable configuration space: every component is described by a
:class:`ComponentInfo` carrying its kind, a typed parameter schema
(:class:`ParamSpec`), and capability tags (square-only, embedded
reordering, preprocessing cost kind, planner rank, family affinity).

Components are *sourced*, not duplicated: reorderings mirror
:mod:`repro.reordering`'s registry (with the :class:`ReorderingMeta`
tags declared at their ``@register`` sites), clusterings mirror
:mod:`repro.clustering`'s registry, and kernels are
:data:`KernelBackend` wrappers over the concrete SpGEMM implementations
(:mod:`repro.pipeline.builtin`).  Registries registered *after*
import — e.g. a user algorithm added at runtime — are picked up lazily
on the next query, so new components become spec-addressable and
planner-visible without touching any other layer.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Protocol, runtime_checkable

__all__ = [
    "KINDS",
    "ParamSpec",
    "ComponentInfo",
    "KernelBackend",
    "ClusteredOperand",
    "register_component",
    "get_component",
    "find_component",
    "available_components",
    "components",
]

#: The component kinds a pipeline composes: the paper's (reordering,
#: clustering, kernel) triple plus the execution backend that runs it.
KINDS = ("reordering", "clustering", "kernel", "backend")


@runtime_checkable
class ClusteredOperand(Protocol):
    """What a kernel backend consumes: a prepared left operand.

    ``Ar`` is the (possibly row-gathered) CSR matrix; ``Ac`` its
    ``CSR_Cluster`` materialisation when the pipeline clusters (``None``
    otherwise).  Both :class:`repro.pipeline.spec.BuiltPipeline` and
    :class:`repro.engine.planner.PreparedOperand` satisfy this.
    """

    Ar: Any
    Ac: Any


@runtime_checkable
class KernelBackend(Protocol):
    """A SpGEMM kernel as a pipeline component.

    Called as ``backend(operand, B, **params)``; must return the product
    in the *operand's* row order (callers apply the inverse permutation)
    and must keep each output row's floating-point summation order
    identical to row-wise SpGEMM so the engine's bitwise contract holds.
    """

    def __call__(self, operand: ClusteredOperand, B: Any, **params: Any) -> Any: ...


@dataclass(frozen=True)
class ParamSpec:
    """One typed parameter of a component.

    Attributes
    ----------
    name:
        Canonical name (what ``str(spec)`` emits and builders receive).
    type:
        ``int`` / ``float`` / ``str``; spec strings are coerced to it.
    default:
        Fallback when neither the spec nor the config supplies a value.
    aliases:
        Accepted alternative spellings in spec strings (``max_th`` for
        ``max_cluster_th``).
    config_attr:
        Name of the :class:`~repro.experiments.config.ExperimentConfig`
        attribute that supplies the default under a config, keeping
        specs and sweep configs consistent without an elif-chain.
    """

    name: str
    type: type = float
    default: Any = None
    aliases: tuple[str, ...] = ()
    config_attr: str | None = None

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` (possibly a spec-string token) to the
        declared type, raising a clear ``ValueError`` on mismatch."""
        try:
            if self.type is int:
                coerced = int(float(value))
                if float(value) != coerced:
                    raise ValueError
                return coerced
            if self.type is float:
                return float(value)
            if self.type is str:
                return str(value)
            return self.type(value)
        except (TypeError, ValueError):
            raise ValueError(
                f"parameter {self.name!r} expects {self.type.__name__}, got {value!r}"
            ) from None


@dataclass(frozen=True)
class ComponentInfo:
    """Registry entry: one pipeline component and its capabilities.

    Attributes
    ----------
    name, kind:
        Identity; ``kind`` ∈ :data:`KINDS`.
    factory:
        The callable that realises the component — reorderings:
        ``(A, *, seed=0, **params) -> ReorderingResult``; clusterings:
        ``(A, **params) -> Clustering``; kernels: a
        :class:`KernelBackend`.
    params:
        Typed parameter schema in declaration order (the order spec
        strings print and positional spec values bind in).
    square_only:
        The component needs a square operand (adjacency-based vertex
        orderings).
    family:
        Reordering family affinity tag (``bandwidth`` / ``hub`` /
        ``baseline``) consumed by the heuristic planner's cost model.
    embeds_reordering:
        The component performs its own row reordering while building
        (hierarchical clustering, paper §3.4); planners pair it only
        with the natural order.
    requires_clustering:
        Kernel capability: needs a ``CSR_Cluster`` operand.
    similarity_driven:
        Clustering capability: groups rows by measured pattern
        similarity (variable/hierarchical) rather than blind position
        (fixed) — drives the heuristic planner's padding estimate.
    planner_rank:
        When non-``None``, part of the planners' default candidate
        space, tried in ascending rank order.
    pre_cost_kind:
        Cost hint: which :meth:`CostModel.preprocessing_time` rate the
        component's ``work`` counter is charged at (``graph`` for
        reorderings, ``kernel`` for clustering scans).
    description:
        One-line human summary for ``repro.pipeline.describe()``.
    """

    name: str
    kind: str
    factory: Callable[..., Any]
    params: tuple[ParamSpec, ...] = ()
    square_only: bool = False
    family: str = "other"
    embeds_reordering: bool = False
    requires_clustering: bool = False
    similarity_driven: bool = False
    planner_rank: int | None = None
    pre_cost_kind: str = "kernel"
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown component kind {self.kind!r}; expected one of {KINDS}")

    # ------------------------------------------------------------------
    def param_spec(self, name: str) -> ParamSpec:
        """Resolve a parameter by canonical name or alias."""
        for p in self.params:
            if name == p.name or name in p.aliases:
                return p
        valid = [p.name for p in self.params]
        raise ValueError(
            f"{self.kind} {self.name!r} has no parameter {name!r}; valid parameters: {valid or 'none'}"
        )

    def canonical_params(self, given: Mapping[str, Any] | Iterable[tuple[str, Any]]) -> tuple[tuple[str, Any], ...]:
        """Validate, alias-resolve and type-coerce ``given`` parameters.

        Returns ``(name, value)`` pairs in schema declaration order —
        the canonical form :class:`~repro.pipeline.spec.PipelineSpec`
        stores so spec equality and string round-trips are stable.
        """
        items = given.items() if isinstance(given, Mapping) else list(given)
        resolved: dict[str, Any] = {}
        for key, value in items:
            p = self.param_spec(key)
            if p.name in resolved:
                raise ValueError(f"{self.kind} {self.name!r}: parameter {p.name!r} given twice")
            resolved[p.name] = p.coerce(value)
        return tuple((p.name, resolved[p.name]) for p in self.params if p.name in resolved)

    def bind_positional(self, values: Iterable[Any]) -> list[tuple[str, Any]]:
        """Bind bare spec-string values (``fixed:8``) to schema order."""
        values = list(values)
        if len(values) > len(self.params):
            raise ValueError(
                f"{self.kind} {self.name!r} takes at most {len(self.params)} parameters, got {len(values)}"
            )
        return [(p.name, v) for p, v in zip(self.params, values)]

    def parse_params_text(self, ptext: str) -> list[tuple[str, Any]]:
        """Parse a spec-string parameter list (``"8"`` / ``"k=v,k2=v2"``).

        Bare values bind positionally in schema order; named values may
        use aliases.  Values are *not* coerced here — canonicalisation
        happens in :meth:`canonical_params` so error messages are
        uniform however parameters arrive.
        """
        if not ptext.strip():
            return []
        named: list[tuple[str, Any]] = []
        positional: list[str] = []
        for token in ptext.split(","):
            token = token.strip()
            if not token:
                raise ValueError(f"empty parameter in {self.kind} {self.name!r} spec")
            key, eq, value = token.partition("=")
            if eq:
                named.append((key.strip(), value.strip()))
            else:
                if named:
                    raise ValueError(
                        f"{self.kind} {self.name!r}: positional value {token!r} after named parameters"
                    )
                positional.append(token)
        return self.bind_positional(positional) + named

    def resolve_params(self, given: Iterable[tuple[str, Any]], cfg: Any = None) -> dict[str, Any]:
        """Full parameter dict for a build: spec values, then config
        values (via ``config_attr``), then schema defaults."""
        out = dict(self.canonical_params(given))
        for p in self.params:
            if p.name in out:
                continue
            if cfg is not None and p.config_attr and hasattr(cfg, p.config_attr):
                out[p.name] = p.coerce(getattr(cfg, p.config_attr))
            elif p.default is not None:
                out[p.name] = p.coerce(p.default)
        return out


# ----------------------------------------------------------------------
# The registry proper
# ----------------------------------------------------------------------
_REGISTRY: dict[tuple[str, str], ComponentInfo] = {}
_bootstrapped = False


def register_component(info: ComponentInfo) -> ComponentInfo:
    """Add a component; names must be unique across *all* kinds.

    Spec-string segments identify their kind by name alone, so a
    clustering called ``rowwise`` (say) would make previously valid
    spec strings ambiguous — rejected here rather than discovered at
    parse time.
    """
    key = (info.kind, info.name)
    if key in _REGISTRY:
        raise ValueError(f"duplicate {info.kind} component {info.name!r}")
    for other_kind, name in _REGISTRY:
        if name == info.name:
            raise ValueError(
                f"component name {info.name!r} already registered as a {other_kind}; "
                "names must be unique across kinds (spec segments resolve by name)"
            )
    _REGISTRY[key] = info
    return info


def _ensure_current() -> None:
    """Bootstrap the built-in components and pick up late registrations
    in the reordering / clustering source registries."""
    global _bootstrapped
    import importlib

    # importlib, not ``from . import``: the package re-exports the
    # ``components()`` query function, which shadows the submodule name.
    _components = importlib.import_module(".builtin", package=__package__)

    if not _bootstrapped:
        _bootstrapped = True
        _components.register_builtin()
    _components.sync_source_registries()


def get_component(kind: str, name: str) -> ComponentInfo:
    """Look up one component, with a listing ``KeyError`` on a miss."""
    _ensure_current()
    if kind not in KINDS:
        raise ValueError(f"unknown component kind {kind!r}; expected one of {KINDS}")
    try:
        return _REGISTRY[(kind, name)]
    except KeyError:
        raise KeyError(
            f"unknown {kind} {name!r}; available: {available_components(kind)}"
        ) from None


def find_component(name: str) -> ComponentInfo:
    """Resolve a bare spec-segment name across all kinds.

    Kind namespaces are disjoint by construction, so a name identifies
    its kind; unknown names raise a ``KeyError`` listing every valid
    name per kind (the satellite requirement for bad spec strings).
    """
    _ensure_current()
    hits = [info for (kind, n), info in _REGISTRY.items() if n == name]
    if len(hits) == 1:
        return hits[0]
    if hits:  # pragma: no cover - registration guards make this unreachable
        raise KeyError(f"ambiguous component name {name!r}: {[h.kind for h in hits]}")
    listing = "; ".join(f"{kind}s: {available_components(kind)}" for kind in KINDS)
    raise KeyError(f"unknown pipeline component {name!r}; {listing}")


def available_components(kind: str) -> list[str]:
    """Registered names of one kind, in registration order."""
    _ensure_current()
    return [n for (k, n) in _REGISTRY if k == kind]


def components(
    kind: str | None = None,
    *,
    family: str | None = None,
    planned: bool | None = None,
    square_ok: bool | None = None,
) -> list[ComponentInfo]:
    """Capability query over the registry.

    ``planned=True`` restricts to components with a ``planner_rank``
    (sorted by rank); ``square_ok=False`` restricts to components usable
    on rectangular operands.  This is the query the engine planner
    derives its candidate space from — there is no hardcoded algorithm
    list anywhere downstream.
    """
    _ensure_current()
    out = [info for info in _REGISTRY.values() if kind is None or info.kind == kind]
    if family is not None:
        out = [c for c in out if c.family == family]
    if planned is not None:
        out = [c for c in out if (c.planner_rank is not None) == planned]
    if square_ok is False:
        out = [c for c in out if not c.square_only]
    if planned:
        out.sort(key=lambda c: c.planner_rank)
    return out
