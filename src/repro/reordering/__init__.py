"""The 10 reordering algorithms of paper Table 1 plus the baselines.

Importing this package registers every algorithm in the component
registry; run one with :func:`repro.reordering.reorder` and list them
with ``repro.pipeline.available_components("reordering")``.

Registry names (paper Table 1):
``original``, ``shuffled``, ``rcm``, ``amd``, ``nd``, ``gp``, ``hp``,
``gray``, ``rabbit``, ``degree``, ``slashburn``.
(The paper's eleventh row, *Hierarchical*, is a clustering that induces
an ordering; :mod:`repro.experiments` treats it via
:func:`repro.clustering.hierarchical_clustering`.)
"""

from .base import (
    ReorderingResult,
    apply_permutation,
    bandwidth,
    register,
    reorder,
)
from .graph import Adjacency, bfs_levels, connected_components, pseudo_peripheral_node

# Importing the implementation modules populates the registry (order
# matches paper Table 1).
from . import simple as _simple  # original, shuffled → degree, gray  # noqa: F401
from . import rcm as _rcm  # noqa: F401
from . import amd as _amd  # noqa: F401
from . import nd as _nd  # noqa: F401
from . import gp as _gp  # noqa: F401
from . import hp as _hp  # noqa: F401
from . import rabbit as _rabbit  # noqa: F401
from . import slashburn as _slashburn  # noqa: F401

#: Table-1 presentation order used by the evaluation tables.
TABLE1_ORDER = [
    "shuffled",
    "rabbit",
    "amd",
    "rcm",
    "nd",
    "gp",
    "hp",
    "gray",
    "degree",
    "slashburn",
]

__all__ = [
    "ReorderingResult",
    "reorder",
    "register",
    "apply_permutation",
    "bandwidth",
    "Adjacency",
    "bfs_levels",
    "connected_components",
    "pseudo_peripheral_node",
    "TABLE1_ORDER",
]
