"""Shared clustering result type, statistics and registration decorator.

Every clustering strategy (fixed, variable, hierarchical) returns a
:class:`Clustering`: an ordered partition of the matrix rows.  The order
of the clusters — and of rows inside each cluster — *is* the implicit
row reordering the paper discusses (hierarchical clustering "inherently
performs row reordering during cluster formation", §3.4).

:func:`register_clustering` enters a strategy into the component
registry (:mod:`repro.pipeline.registry`); list them with
``repro.pipeline.available_components("clustering")`` and look one up
with ``repro.pipeline.get_component("clustering", name)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.csr import CSRMatrix
from ..core.csr_cluster import CSRCluster
from ..pipeline.registry import (
    ComponentInfo,
    _first_line,
    _introspect_params,
    register_component,
)

__all__ = [
    "Clustering",
    "clustering_stats",
    "register_clustering",
]

def register_clustering(name: str, *, embeds_reordering: bool = False):
    """Decorator registering a strategy under the paper's scheme name.

    Every registered strategy exposes the uniform signature
    ``(A: CSRMatrix, **params) -> Clustering`` so callers (the engine
    planner, the sweep runner) can build any scheme without per-method
    constructors.  ``embeds_reordering`` marks a strategy whose cluster
    formation reorders rows itself (hierarchical, paper §3.4); planners
    pair it only with the natural order.  A ``jacc_th`` parameter marks
    the strategy as similarity-driven.
    """

    def deco(fn: Callable[..., "Clustering"]):
        params = _introspect_params(fn)
        register_component(
            ComponentInfo(
                name=name,
                kind="clustering",
                factory=fn,
                params=params,
                embeds_reordering=embeds_reordering,
                # A similarity threshold in the schema marks the strategy as
                # similarity-driven (vs blind positional grouping).
                similarity_driven=any(p.name == "jacc_th" for p in params),
                pre_cost_kind="kernel",
                description=_first_line(fn),
            )
        )
        return fn

    return deco


@dataclass
class Clustering:
    """An ordered partition of ``range(nrows)`` into clusters.

    Attributes
    ----------
    clusters:
        List of ``int64`` arrays of original row ids.  Concatenation order
        defines the implicit row reordering.
    method:
        ``"fixed"``, ``"variable"`` or ``"hierarchical"``.
    nrows:
        Total rows covered (must equal the sum of cluster lengths).
    work:
        Preprocessing operation count (model work units — same unit as
        SpGEMM flops) charged by Fig. 10's amortisation study.
    params:
        The parameters the clustering was built with.
    """

    clusters: list[np.ndarray]
    method: str
    nrows: int
    work: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        covered = sum(len(c) for c in self.clusters)
        if covered != self.nrows:
            raise ValueError(f"clusters cover {covered} rows, expected {self.nrows}")

    @property
    def nclusters(self) -> int:
        return len(self.clusters)

    def sizes(self) -> np.ndarray:
        return np.array([len(c) for c in self.clusters], dtype=np.int64)

    def permutation(self) -> np.ndarray:
        """The implicit row reordering (gather convention): new row ``k``
        is original row ``perm[k]``."""
        if not self.clusters:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate([np.asarray(c, dtype=np.int64) for c in self.clusters])

    def to_csr_cluster(self, A: CSRMatrix) -> CSRCluster:
        """Materialise the ``CSR_Cluster`` representation of ``A``."""
        fixed = self.params.get("cluster_size") if self.method == "fixed" else None
        return CSRCluster.from_clusters(A, self.clusters, fixed_size=fixed)


def clustering_stats(clustering: Clustering) -> dict:
    """Summary statistics used by the evaluation tables."""
    sizes = clustering.sizes()
    return {
        "method": clustering.method,
        "nclusters": clustering.nclusters,
        "mean_size": float(sizes.mean()) if sizes.size else 0.0,
        "max_size": int(sizes.max()) if sizes.size else 0,
        "singletons": int(np.count_nonzero(sizes == 1)),
        "work": clustering.work,
    }
