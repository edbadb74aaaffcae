"""Clustering strategies of the paper (§3): fixed-length, variable-length
(Alg. 2) and hierarchical (Alg. 3).

Importing this package registers every strategy in the component
registry, like :mod:`repro.reordering`'s algorithms:
``repro.pipeline.get_component("clustering", name).factory`` is a
uniform ``(A, **params) -> Clustering`` builder and
``repro.pipeline.available_components("clustering")`` lists the scheme
names.
"""

from .base import Clustering, clustering_stats, register_clustering
from .fixed import fixed_length_clustering
from .hierarchical import hierarchical_clustering
from .unionfind import UnionFind
from .variable import jaccard_sorted, variable_length_clustering

__all__ = [
    "Clustering",
    "clustering_stats",
    "register_clustering",
    "UnionFind",
    "fixed_length_clustering",
    "variable_length_clustering",
    "hierarchical_clustering",
    "jaccard_sorted",
]
