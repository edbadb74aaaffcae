"""Reordering result type and registration decorator (paper Table 1).

Every algorithm is a function ``(A: CSRMatrix, *, seed: int, **params)
-> ReorderingResult`` that :func:`register` enters into the component
registry (:mod:`repro.pipeline.registry`) under the paper's name, with
its capability tags.  List them with
``repro.pipeline.available_components("reordering")`` and look one up
with ``repro.pipeline.get_component("reordering", name)``.  Results carry a
*gather* permutation (new row ``k`` ← old row ``perm[k]``) plus the
preprocessing ``work`` counter consumed by the Fig. 10 amortisation
study (model work units — same scale as SpGEMM flops; see DESIGN.md).

Application modes (DESIGN.md §4):

* ``symmetric`` — ``P A Pᵀ``; the standard way solver-style vertex
  orderings are applied, used for the ``A²`` workload.
* ``rows`` — permute rows only (``P A``); used for tall-skinny SpGEMM
  where ``B``'s rows are aligned with ``A``'s columns, not its rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.csr import CSRMatrix
from ..pipeline.registry import (
    ComponentInfo,
    _first_line,
    _introspect_params,
    get_component,
    register_component,
)

__all__ = [
    "ReorderingResult",
    "register",
    "reorder",
    "apply_permutation",
]


@dataclass
class ReorderingResult:
    """Outcome of a reordering algorithm.

    Attributes
    ----------
    perm:
        Gather permutation over rows/vertices.
    algorithm:
        Registry name.
    work:
        Preprocessing operation count in model work units.
    info:
        Algorithm-specific diagnostics (bandwidth, cut size, #parts, …).
    """

    perm: np.ndarray
    algorithm: str
    work: int = 0
    info: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.perm = np.asarray(self.perm, dtype=np.int64)
        n = self.perm.size
        seen = np.zeros(n, dtype=bool)
        seen[self.perm] = True
        if not seen.all():
            raise ValueError(f"{self.algorithm}: result is not a permutation")

    def inverse(self) -> np.ndarray:
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(self.perm.size, dtype=np.int64)
        return inv


def register(
    name: str,
    *,
    family: str = "other",
    square_only: bool = True,
    planner_rank: int | None = None,
):
    """Decorator registering a reordering under the paper's name.

    Keyword arguments are the algorithm's capability tags (see
    :class:`~repro.pipeline.registry.ComponentInfo`): ``family``
    (``"bandwidth"``, ``"hub"`` or ``"baseline"``; the heuristic
    planner's affinity term), ``square_only`` (adjacency-based orders
    need a square operand) and ``planner_rank`` (membership and order in
    the planners' default candidate space).  The parameter schema comes
    from the function's keyword defaults (``seed`` excluded).
    """

    def deco(fn: Callable[..., ReorderingResult]):
        register_component(
            ComponentInfo(
                name=name,
                kind="reordering",
                factory=fn,
                params=_introspect_params(fn),
                square_only=square_only,
                family=family,
                planner_rank=planner_rank,
                pre_cost_kind="graph",
                description=_first_line(fn),
            )
        )
        return fn

    return deco


def reorder(A: CSRMatrix, name: str, *, seed: int = 0, **kwargs) -> ReorderingResult:
    """Run the named reordering on ``A``."""
    return get_component("reordering", name).factory(A, seed=seed, **kwargs)


def apply_permutation(A: CSRMatrix, perm: np.ndarray, *, mode: str = "symmetric") -> CSRMatrix:
    """Apply a reordering permutation to ``A`` (see module docstring)."""
    if mode == "symmetric":
        return A.permute_symmetric(perm)
    if mode == "rows":
        return A.permute_rows(perm)
    raise ValueError(f"unknown mode {mode!r} (expected 'symmetric' or 'rows')")


def bandwidth(A: CSRMatrix) -> int:
    """Matrix bandwidth: max |i - j| over stored entries (RCM's objective)."""
    if A.nnz == 0:
        return 0
    row_of = np.repeat(np.arange(A.nrows, dtype=np.int64), np.diff(A.indptr))
    return int(np.abs(row_of - A.indices).max())
