"""Capability-tagged component registry — the one namespace for SpGEMM
pipeline building blocks.

The paper's thesis is that SpGEMM performance comes from *composing* a
reordering, a clustering and a kernel.  This registry makes that triple
an enumerable configuration space: every component is described by a
:class:`ComponentInfo` carrying its kind, a typed parameter schema
(:class:`ParamSpec`), and capability tags (square-only, embedded
reordering, preprocessing cost kind, planner rank, family affinity).

This module holds the only copy of the list.  Reorderings and
clusterings write their entries here when their decorators run
(:func:`repro.reordering.register`,
:func:`repro.clustering.register_clustering`), with parameter schemas
introspected from their keyword defaults (:func:`_introspect_params`).
The first query imports those packages and registers the kernels and
execution backends (:mod:`repro.pipeline.builtin`); later queries are
plain dict reads.  A component registered at runtime is therefore
spec-addressable, and planned if it carries a ``planner_rank``, as soon
as its decorator returns.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Protocol, runtime_checkable

__all__ = [
    "KINDS",
    "PARAM_EXTRAS",
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
    otherwise).  :class:`repro.pipeline.spec.BuiltPipeline`, the one
    prepared operand the planners build, the engine caches and the
    execution backends receive, satisfies this.
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
    choices:
        The accepted values, when the parameter names one of a fixed set
        (the ``rowwise`` accumulator); empty accepts any value of
        ``type``.
    """

    name: str
    type: type = float
    default: Any = None
    aliases: tuple[str, ...] = ()
    config_attr: str | None = None
    choices: tuple[Any, ...] = ()

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` (possibly a spec-string token) to the
        declared type, raising a clear ``ValueError`` on mismatch."""
        try:
            if self.type is int:
                coerced = int(float(value))
                if float(value) != coerced:
                    raise ValueError
            elif self.type is float:
                coerced = float(value)
            elif self.type is str:
                coerced = str(value)
            else:
                coerced = self.type(value)
        except (TypeError, ValueError):
            raise ValueError(
                f"parameter {self.name!r} expects {self.type.__name__}, got {value!r}"
            ) from None
        if self.choices and coerced not in self.choices:
            raise ValueError(
                f"unknown {self.name} {coerced!r}; expected one of {list(self.choices)}"
            )
        return coerced


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


#: Aliases and ExperimentConfig attribute mappings for well-known
#: parameters, applied by name during signature introspection.
PARAM_EXTRAS: dict[str, dict[str, Any]] = {
    "cluster_size": {"aliases": ("size",), "config_attr": "fixed_cluster_size"},
    "jacc_th": {"aliases": ("th",), "config_attr": "jacc_th"},
    "max_cluster_th": {"aliases": ("max_th",), "config_attr": "max_cluster_th"},
    "column_cap": {"aliases": ("cap",), "config_attr": "column_cap"},
    "tile_cols": {"aliases": ("tile",), "config_attr": None},
    "accumulator": {"aliases": ("acc",), "config_attr": None, "choices": ("sort", "dense", "hash")},
}

# Threaded separately by every caller for plan determinism, not
# spec-addressable.
_SKIP_PARAMS = {"seed"}


def _introspect_params(fn: Callable[..., Any]) -> tuple[ParamSpec, ...]:
    """Derive a :class:`ParamSpec` schema from keyword(-only) defaults."""
    specs: list[ParamSpec] = []
    for p in inspect.signature(fn).parameters.values():
        if p.kind not in (p.KEYWORD_ONLY, p.POSITIONAL_OR_KEYWORD):
            continue
        if p.default is inspect.Parameter.empty or p.name in _SKIP_PARAMS:
            continue
        extras = PARAM_EXTRAS.get(p.name, {})
        ptype = type(p.default) if isinstance(p.default, (int, float, str)) else str
        if isinstance(p.default, bool):  # bool is an int subclass; keep it out
            continue
        specs.append(
            ParamSpec(
                name=p.name,
                type=ptype,
                default=p.default,
                aliases=tuple(extras.get("aliases", ())),
                config_attr=extras.get("config_attr"),
                choices=tuple(extras.get("choices", ())),
            )
        )
    return tuple(specs)


def _first_line(obj: Any) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.splitlines()[0] if doc else ""


# ----------------------------------------------------------------------
# The registry proper
# ----------------------------------------------------------------------
_REGISTRY: dict[str, ComponentInfo] = {}
_bootstrapped = False


def register_component(info: ComponentInfo) -> ComponentInfo:
    """Add a component; names must be unique across *all* kinds.

    Spec-string segments identify their kind by name alone, so a
    clustering called ``rowwise`` (say) would make previously valid
    spec strings ambiguous — rejected here rather than discovered at
    parse time.
    """
    other = _REGISTRY.get(info.name)
    if other is not None:
        if other.kind == info.kind:
            raise ValueError(f"duplicate {info.kind} component {info.name!r}")
        raise ValueError(
            f"component name {info.name!r} already registered as a {other.kind}; "
            "names must be unique across kinds (spec segments resolve by name)"
        )
    _REGISTRY[info.name] = info
    return info


def _bootstrap() -> None:
    """Register the built-in kernels and backends and import the packages
    whose decorators register the reorderings and clusterings.  Runs on
    the first query only."""
    global _bootstrapped
    _bootstrapped = True
    from .builtin import register_builtin

    register_builtin()


def get_component(kind: str, name: str) -> ComponentInfo:
    """Look up one component, with a listing ``KeyError`` on a miss."""
    if not _bootstrapped:
        _bootstrap()
    info = _REGISTRY.get(name)
    if info is not None and info.kind == kind:
        return info
    if kind not in KINDS:
        raise ValueError(f"unknown component kind {kind!r}; expected one of {KINDS}")
    raise KeyError(f"unknown {kind} {name!r}; available: {available_components(kind)}")


def find_component(name: str) -> ComponentInfo:
    """Resolve a bare spec-segment name across all kinds.

    Kind namespaces are disjoint by construction, so a name identifies
    its kind; unknown names raise a ``KeyError`` listing every valid
    name per kind.
    """
    if not _bootstrapped:
        _bootstrap()
    try:
        return _REGISTRY[name]
    except KeyError:
        listing = "; ".join(f"{kind}s: {available_components(kind)}" for kind in KINDS)
        raise KeyError(f"unknown pipeline component {name!r}; {listing}") from None


def available_components(kind: str) -> list[str]:
    """Registered names of one kind, in registration order."""
    if not _bootstrapped:
        _bootstrap()
    return [n for n, info in _REGISTRY.items() if info.kind == kind]


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
    if not _bootstrapped:
        _bootstrap()
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
