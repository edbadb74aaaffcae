"""Built-in pipeline components: the bridge from the per-layer
registries to the unified one.

* **Reorderings** mirror :mod:`repro.reordering`'s registry; capability
  tags come from the :class:`~repro.reordering.base.ReorderingMeta`
  declared at each ``@register`` site, and parameter schemas are
  introspected from the algorithm's keyword-only signature (``seed`` is
  threaded separately by every caller and excluded).
* **Clusterings** mirror :mod:`repro.clustering`'s registry with the
  uniform ``(A, **params) -> Clustering`` signature; well-known
  parameters gain spec-string aliases and their
  :class:`~repro.experiments.config.ExperimentConfig` attribute mapping
  from :data:`PARAM_EXTRAS`.
* **Kernels** are :class:`~repro.pipeline.registry.KernelBackend`
  wrappers over :func:`~repro.core.spgemm.spgemm_rowwise`,
  :func:`~repro.core.cluster_spgemm.cluster_spgemm` and
  :func:`~repro.core.tiled_spgemm.tiled_spgemm`.  Each returns the
  product in the *operand's* row order and preserves per-row summation
  order, so any pipeline stays bitwise-identical to the row-wise
  reference after the final inverse gather.
* **Backends** come from :mod:`repro.backends`
  (:func:`~repro.backends.register_builtin_backends`): each
  :class:`~repro.backends.base.ExecutionBackend` class registers as a
  ``kind="backend"`` component with its capability tags (supported
  kernels, bitwise flag, speed hint), making backends
  spec-addressable (``…@scipy``).

Both source registries are re-synced lazily on every registry query, so
an algorithm registered at runtime is immediately addressable in specs
(and, if it carries a ``planner_rank``, planned) with no further wiring.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable

from .registry import ComponentInfo, ParamSpec, register_component

__all__ = ["register_builtin", "sync_source_registries", "PARAM_EXTRAS"]

#: Aliases and ExperimentConfig attribute mappings for well-known
#: parameters, applied by name during signature introspection.
PARAM_EXTRAS: dict[str, dict[str, Any]] = {
    "cluster_size": {"aliases": ("size",), "config_attr": "fixed_cluster_size"},
    "jacc_th": {"aliases": ("th",), "config_attr": "jacc_th"},
    "max_cluster_th": {"aliases": ("max_th",), "config_attr": "max_cluster_th"},
    "column_cap": {"aliases": ("cap",), "config_attr": "column_cap"},
    "tile_cols": {"aliases": ("tile",), "config_attr": None},
    "accumulator": {"aliases": ("acc",), "config_attr": None},
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
            )
        )
    return tuple(specs)


def _first_line(obj: Any) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.splitlines()[0] if doc else ""


# ----------------------------------------------------------------------
# Kernel backends (the KernelBackend protocol instances)
# ----------------------------------------------------------------------
def rowwise_kernel(operand, B, *, accumulator: str = "sort"):
    """Row-wise Gustavson SpGEMM on the prepared operand (the reference)."""
    from ..core.spgemm import spgemm_rowwise

    return spgemm_rowwise(operand.Ar, B, accumulator=accumulator)  # repro: allow[RA001] registry kernel wrapper: this IS the callable backends.execute dispatches


def cluster_kernel(operand, B):
    """Cluster-wise SpGEMM (paper Alg. 1) over the ``CSR_Cluster`` operand.

    ``restore_order=True`` scatters rows back to the operand's row order
    so the caller's single inverse gather restores the original order.
    """
    from ..core.cluster_spgemm import cluster_spgemm

    return cluster_spgemm(operand.Ac, B, restore_order=True)  # repro: allow[RA001] registry kernel wrapper: this IS the callable backends.execute dispatches


def tiled_kernel(operand, B, *, tile_cols: int = 256):
    """Column-tiled SpGEMM (paper §5 alternative dataflow)."""
    from ..core.tiled_spgemm import tiled_spgemm

    return tiled_spgemm(operand.Ar, B, tile_cols=tile_cols)  # repro: allow[RA001] registry kernel wrapper: this IS the callable backends.execute dispatches


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------
_seen_reorderings: set[str] = set()
_seen_clusterings: set[str] = set()


def _register_reordering(name: str) -> None:
    from ..reordering import base as rbase

    fn = rbase._REGISTRY[name]
    meta = rbase._META[name]
    register_component(
        ComponentInfo(
            name=name,
            kind="reordering",
            factory=fn,
            params=_introspect_params(fn),
            square_only=meta.square_only,
            family=meta.family,
            planner_rank=meta.planner_rank,
            pre_cost_kind="graph",
            description=_first_line(fn),
        )
    )
    _seen_reorderings.add(name)


def _register_clustering(name: str) -> None:
    from ..clustering import base as cbase

    fn = cbase._REGISTRY[name]
    params = _introspect_params(fn)
    register_component(
        ComponentInfo(
            name=name,
            kind="clustering",
            factory=fn,
            params=params,
            embeds_reordering=(name == "hierarchical"),
            # A similarity threshold in the schema marks the strategy as
            # similarity-driven (vs blind positional grouping).
            similarity_driven=any(p.name == "jacc_th" for p in params),
            pre_cost_kind="kernel",
            description=_first_line(fn),
        )
    )
    _seen_clusterings.add(name)


def sync_source_registries() -> None:
    """Mirror reorderings/clusterings registered since the last query."""
    from ..clustering import base as cbase
    from ..reordering import base as rbase

    if len(rbase._REGISTRY) != len(_seen_reorderings):
        for name in rbase._REGISTRY:
            if name not in _seen_reorderings:
                _register_reordering(name)
    if len(cbase._REGISTRY) != len(_seen_clusterings):
        for name in cbase._REGISTRY:
            if name not in _seen_clusterings:
                _register_clustering(name)


def register_builtin() -> None:
    """One-time bootstrap: kernels, execution backends + the current
    source registries."""
    # Importing the packages populates their registries.
    import repro.clustering  # noqa: F401
    import repro.reordering  # noqa: F401

    # ``planner_rank`` puts a kernel in the planners' default candidate
    # space (rank order; ``rowwise`` first, so exact cost ties keep the
    # historical choice).
    register_component(
        ComponentInfo(
            name="rowwise",
            kind="kernel",
            factory=rowwise_kernel,
            params=_introspect_params(rowwise_kernel),
            planner_rank=0,
            description="row-wise Gustavson SpGEMM (two-phase; the bitwise reference)",
        )
    )
    register_component(
        ComponentInfo(
            name="cluster",
            kind="kernel",
            factory=cluster_kernel,
            params=_introspect_params(cluster_kernel),
            requires_clustering=True,
            planner_rank=1,
            description="cluster-wise SpGEMM over CSR_Cluster fibers (paper Alg. 1)",
        )
    )
    register_component(
        ComponentInfo(
            name="tiled",
            kind="kernel",
            factory=tiled_kernel,
            params=_introspect_params(tiled_kernel),
            description="column-tiled SpGEMM (paper §5 alternative dataflow)",
        )
    )
    # Execution backends register after the kernels they support.
    from ..backends import register_builtin_backends

    register_builtin_backends()
    sync_source_registries()
