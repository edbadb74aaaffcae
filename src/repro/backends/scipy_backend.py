"""The ``scipy`` backend — native CSR matmul fast path.

Replaces the numeric computation wholesale: the prepared operand's CSR
form is handed to :mod:`scipy.sparse` (compiled SMMP matmul, the
row-by-row sparse product algorithm), and the product is canonicalised
back into our :class:`~repro.core.csr.CSRMatrix`.  Values are
``allclose`` but not bitwise: scipy's per-row accumulation order
differs, so this backend declares ``bitwise_reference=False``.

Pattern contract: scipy's numeric phase stores only nonzero sums, so an
entry whose products cancel to exactly ``0.0`` is *dropped*.  The output
pattern is therefore the row-wise SpGEMM pattern minus exact numeric
zeros — the same as raw ``scipy.sparse`` — and identical to it whenever
nothing cancels.  Keeping the zeros would need a second, symbolic scipy
product on every call.

Product structure (DESIGN.md §10): for a product the engine *hints*
(``B is A``: ``ctx.operand_tokens`` carries B's pattern:value digest),
the backend records, on the operand's :attr:`backend_state`, where each
entry of the canonical result sits in scipy's raw output.  Later calls
skip the sort and the row un-permute: one matmul plus one gather of
indices and values.  Unhinted products (general B, operands without
``backend_state``) take the plain path: sort, then a C++ row gather when
the original row order is asked for.

The backend accepts every kernel: kernels only restructure the *order*
of the same multiply-adds, and the contract (product in the operand's
row order) is defined by ``operand.Ar`` regardless of dataflow.  It is
registered only when scipy imports, so environments without scipy keep a
valid (reference-only) backend registry.
"""

from __future__ import annotations

from typing import Any, ClassVar, NamedTuple

import numpy as np

from ..core.csr import CSRMatrix
from .base import ExecutionBackend, ExecutionContext

__all__ = ["ScipyBackend"]


def scipy_available() -> bool:
    """Whether :mod:`scipy.sparse` imports in this environment."""
    try:
        import scipy.sparse  # noqa: F401
    except Exception:  # pragma: no cover - exercised only without scipy
        return False
    return True


#: ``backend_state`` marker: the hinted product was seen once and not
#: recorded yet (recording on the first call costs memory for operands
#: that are never multiplied again).
_SEEN = "seen"


class _Structure(NamedTuple):
    """One recorded product structure, published as an immutable tuple.

    ``order[k]`` is the raw-output position of canonical entry ``k``;
    ``raw_indptr`` is scipy's raw row pointer (the reuse check) and
    ``indptr`` the canonical one (int64, copied into every result).
    """

    order: np.ndarray  # int32, nnz(C)
    raw_indptr: np.ndarray
    indptr: np.ndarray


def _plain(Cs, inv) -> CSRMatrix:
    """Canonicalise scipy's raw product: sort, row-gather, cast."""
    Cs.sort_indices()
    if inv is not None:
        Cs = Cs[inv]  # C++ row gather
    return CSRMatrix(
        Cs.indptr.astype(np.int64), Cs.indices.astype(np.int64), Cs.data, Cs.shape, check=False
    )


def _record(Cs, inv) -> tuple[_Structure, CSRMatrix]:
    """Record the structure of raw product ``Cs`` and return it with the
    canonical product (``Cs``'s indices are sorted in place)."""
    import scipy.sparse as sp

    raw_indptr = Cs.indptr.copy()
    # The raw positions ride through scipy's own sort and row gather as
    # the data array.
    T = sp.csr_matrix((np.arange(Cs.nnz, dtype=np.int32), Cs.indices, Cs.indptr), shape=Cs.shape)
    T.sort_indices()
    if inv is not None:
        T = T[inv]
    rec = _Structure(T.data.astype(np.int32, copy=False), raw_indptr, T.indptr.astype(np.int64))
    C = CSRMatrix(
        rec.indptr.copy(), T.indices.astype(np.int64), Cs.data[rec.order], Cs.shape, check=False
    )
    return rec, C


def _gather(rec: _Structure, Cs):
    """Column indices (int32) and values of the canonical product through
    a recorded structure, or ``None`` when the raw output no longer
    matches it."""
    if not np.array_equal(Cs.indptr, rec.raw_indptr):
        return None
    idx = Cs.indices[rec.order]
    # Column indices must increase strictly inside every canonical row;
    # comparisons across a row boundary are masked out.
    rising = idx[1:] > idx[:-1]
    starts = rec.indptr[1:-1]
    rising[starts[(starts > 0) & (starts < idx.size)] - 1] = True
    if not rising.all():
        return None
    return idx, Cs.data[rec.order]


class ScipyBackend(ExecutionBackend):
    """Native scipy CSR matmul over the prepared operand."""

    name: ClassVar[str] = "scipy"
    parallelism: ClassVar[str] = "serial"
    planner_rank: ClassVar[int | None] = 10
    model_speed_factor: ClassVar[float] = 0.35
    description: ClassVar[str] = "native scipy CSR matmul (allclose values, pattern minus exact zeros)"

    @property
    def bitwise_reference(self) -> bool:
        return False

    def execute(
        self,
        operand: Any,
        B: Any,
        *,
        kernel: str,
        kernel_params: dict[str, Any],
        ctx: ExecutionContext,
    ) -> Any:
        return self._product(operand, B, ctx, original_order=False)

    def execute_original_order(
        self,
        operand: Any,
        B: Any,
        *,
        kernel: str,
        kernel_params: dict[str, Any],
        ctx: ExecutionContext,
    ) -> Any:
        return self._product(operand, B, ctx, original_order=True)

    def _product(self, operand: Any, B: Any, ctx: ExecutionContext, *, original_order: bool):
        import scipy.sparse as sp  # registration guarantees importability

        ctx.bump("scipy_calls")
        Ar = operand.Ar
        As = sp.csr_matrix((Ar.values, Ar.indices, Ar.indptr), shape=Ar.shape)
        Bs = sp.csr_matrix((B.values, B.indices, B.indptr), shape=B.shape)
        Cs = As @ Bs
        del As, Bs
        inv = getattr(operand, "inv", None) if original_order else None
        state = getattr(operand, "backend_state", None)
        token = ctx.operand_tokens.get(id(B)) if state is not None else None
        if token is None or Cs.nnz > np.iinfo(np.int32).max:  # order is int32
            return _plain(Cs, inv)
        key = (token, original_order)
        rec = state.get(key)
        if rec is None:
            state[key] = _SEEN
            return _plain(Cs, inv)
        if rec is not _SEEN:
            got = _gather(rec, Cs)
            if got is not None:
                ctx.bump("scipy_structure_reuses")
                shape = Cs.shape
                del Cs  # free the raw product before the int64 cast
                idx, values = got
                return CSRMatrix(rec.indptr.copy(), idx.astype(np.int64), values, shape, check=False)
            ctx.bump("scipy_structure_rebuilds")
        else:
            ctx.bump("scipy_structure_records")
        rec, C = _record(Cs, inv)
        state[key] = rec
        return C
