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
entry of the canonical result sits in scipy's raw output, and scipy's
symbolic count of the product (``maxnnz``).  Later calls skip the sort,
the row un-permute and scipy's counting pass: one numeric pass
(``csr_matmat`` into buffers of ``maxnnz`` entries) plus one gather of
indices and values.  Unhinted products (general B, operands without
``backend_state``) take the plain path: sort, then a C++ row gather when
the original row order is asked for.

Numeric-only calls: ``csr_matmat`` is scipy's private C++ entry point
and writes without bounds checks, so it runs only on a square of one of
the backend's own handles (``As @ As``, ``L @ L``), whose count was taken
on those same index arrays.  A product with any other right operand stays
on the public ``@``.  The entry points are imported and probed once, at
import, against the public product on a matrix with an exactly cancelling
entry; if either fails, every call stays on the public ``@``.

Symmetric A²: when the hinted B is checked (once, bitwise) to be the
source of a permuted rows-mode operand, the recorded product is
``L @ L`` with ``L = P A Pᵀ`` — ``Ar`` with its columns relabelled
through ``inv``, each row's entries kept in their stored order.  Row
``i`` of ``L @ L`` sums the same products in the same order as row
``perm[i]`` of raw ``A @ A``, so its values and dropped exact zeros are
bitwise those of raw scipy; the recorded gather maps the columns back
through ``perm``.  ``L`` costs 4 bytes per nonzero of ``A`` (int32
indices; row pointer and values shared with the operand's handle).

The backend accepts every kernel: kernels only restructure the *order*
of the same multiply-adds, and the contract (product in the operand's
row order) is defined by ``operand.Ar`` regardless of dataflow.  So it
declares ``honours_kernel=False``, and planners give it only
``(reordering, None, "rowwise")`` candidates (DESIGN.md §10).  It is
registered only when scipy imports, so environments without scipy keep a
valid (reference-only) backend registry.
"""

from __future__ import annotations

from typing import Any, ClassVar, NamedTuple

import numpy as np

from ..core.csr import CSRMatrix
from .base import ExecutionBackend, ExecutionContext

__all__ = ["ScipyBackend"]

try:  # scipy's two C++ passes of ``S @ S``; private, so probed below
    from scipy.sparse._sparsetools import csr_matmat as _csr_matmat
    from scipy.sparse._sparsetools import csr_matmat_maxnnz as _csr_matmat_maxnnz
except ImportError:  # pragma: no cover - scipy missing, or the module moved
    _csr_matmat = _csr_matmat_maxnnz = None


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
#: ``backend_state`` keys: the operand's scipy handle of ``Ar`` and its
#: symmetric handle ``L = P A Pᵀ``.
_HANDLE = "handle"
_SYMMETRIC = "symmetric"
#: Largest product a structure is recorded for (``order`` is int32).
_MAX_RECORDED_NNZ = np.iinfo(np.int32).max


class _Structure(NamedTuple):
    """One recorded product structure, published as an immutable tuple.

    ``order[k]`` is the raw-output position of canonical entry ``k``;
    ``raw_indptr`` is scipy's raw row pointer (the reuse check) and
    ``indptr`` the canonical one (int64, copied into every result).
    ``symmetric`` records that the raw output is ``L @ L``, whose column
    labels map back through the operand's ``perm``.  ``maxnnz`` is
    scipy's symbolic count of the product, taken on the backend's own
    handle; ``None`` when the product is not a square of one.
    """

    order: np.ndarray  # int32, nnz(C)
    raw_indptr: np.ndarray
    indptr: np.ndarray
    symmetric: bool
    maxnnz: int | None


def _wrap(M):
    """``M`` as a scipy CSR matrix (values shared, indices int32 when
    they fit)."""
    import scipy.sparse as sp

    return sp.csr_matrix((M.values, M.indices, M.indptr), shape=M.shape)


def _handle(operand, state):
    """The operand's ``Ar`` as a scipy matrix, kept in ``state`` (when
    the operand has one) so later products skip the conversion."""
    if state is None:
        return _wrap(operand.Ar)
    As = state.get(_HANDLE)
    if As is None:
        As = state[_HANDLE] = _wrap(operand.Ar)
    return As


def _symmetric_handle(operand, As, state):
    """``L = P A Pᵀ``: ``As`` with every column relabelled through
    ``operand.inv``, rows left in their stored order; kept in ``state``."""
    import scipy.sparse as sp

    L = state.get(_SYMMETRIC)
    if L is None:
        relabelled = operand.inv.astype(As.indices.dtype)[As.indices]
        L = state[_SYMMETRIC] = sp.csr_matrix((As.data, relabelled, As.indptr), shape=As.shape)
    return L


def _is_source(operand, B, token, state) -> bool:
    """Whether the hinted ``B`` is the source of a rows-mode operand:
    ``B`` with the operand's row gather applied equals ``Ar`` bitwise.
    Checked once per token."""
    key = ("source", token)
    ok = state.get(key)
    if ok is None:
        Ar, perm = operand.Ar, getattr(operand, "perm", None)
        ok = getattr(operand, "mode", "rows") == "rows" and B.shape == Ar.shape
        if ok:
            PB = B if perm is None else B.permute_rows(perm)
            ok = all(
                np.array_equal(x, y)
                for x, y in ((PB.indptr, Ar.indptr), (PB.indices, Ar.indices), (PB.values, Ar.values))
            )
        state[key] = ok
    return ok


def _right(operand, B, As, state, token):
    """scipy form of ``B`` for ``As @ B``: the operand's own handle when
    ``B`` is the source of an unpermuted operand."""
    if getattr(operand, "perm", None) is None and (
        B is operand.Ar or (token is not None and state.get(("source", token)))
    ):
        return As
    return _wrap(B)


def _count(S) -> int:
    """scipy's symbolic pass of ``S @ S``: an upper bound on nnz(S²)
    (exact zeros not yet dropped)."""
    n = S.shape[0]
    return int(_csr_matmat_maxnnz(n, n, S.indptr, S.indices, S.indptr, S.indices))


def _square(S, maxnnz: int):
    """scipy's numeric pass of ``S @ S`` into fresh buffers of ``maxnnz``
    entries, trimmed to the entries it stored.  ``maxnnz`` must be
    :func:`_count` of ``S``'s own index arrays: the pass writes without
    bounds checks."""
    import scipy.sparse as sp

    n = S.shape[0]
    indptr = np.empty(n + 1, dtype=S.indices.dtype)
    indices = np.empty(maxnnz, dtype=S.indices.dtype)
    data = np.empty(maxnnz, dtype=S.dtype)
    _csr_matmat(n, n, S.indptr, S.indices, S.data, S.indptr, S.indices, S.data, indptr, indices, data)
    nnz = int(indptr[-1])
    return sp.csr_matrix((data[:nnz], indices[:nnz], indptr), shape=S.shape)


def _probe() -> bool:
    """Whether :func:`_count` and :func:`_square` reproduce the public
    ``S @ S`` bitwise on a matrix whose square cancels an entry to
    exactly ``0.0``."""
    if _csr_matmat is None or _csr_matmat_maxnnz is None:
        return False
    try:
        import scipy.sparse as sp

        S = sp.csr_matrix(np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 2.0], [0.0, 3.0, 0.5]]))
        maxnnz = _count(S)
        got, want = _square(S, maxnnz), S @ S
        return got.nnz < maxnnz and all(
            x.dtype == y.dtype and np.array_equal(x, y)
            for x, y in ((got.indptr, want.indptr), (got.indices, want.indices), (got.data, want.data))
        )
    except Exception:  # any failure of the private entry points disables them
        return False


#: Whether warm squares may call scipy's passes directly; otherwise every
#: product takes the public ``@``.
_NUMERIC_ONLY = _probe()


def _plain(Cs, inv, relabel=None) -> CSRMatrix:
    """Canonicalise scipy's raw product: relabel columns (``L @ L``),
    sort, row-gather, cast."""
    if relabel is not None:
        import scipy.sparse as sp

        Cs = sp.csr_matrix((Cs.data, relabel[Cs.indices], Cs.indptr), shape=Cs.shape)
    Cs.sort_indices()
    if inv is not None:
        Cs = Cs[inv]  # C++ row gather
    return CSRMatrix(
        Cs.indptr.astype(np.int64), Cs.indices.astype(np.int64), Cs.data, Cs.shape, check=False
    )


def _record(Cs, inv, relabel=None, maxnnz=None) -> tuple[_Structure, CSRMatrix]:
    """Record the structure of raw product ``Cs`` (columns relabelled
    through ``relabel`` for ``L @ L``; ``maxnnz`` its symbolic count) and
    return it with the canonical product (``Cs``'s indices are relabelled
    and sorted in place)."""
    import scipy.sparse as sp

    raw_indptr = Cs.indptr.copy()
    if relabel is not None:
        Cs.indices = relabel[Cs.indices]  # replaced, not copied: peak memory
    # The raw positions ride through scipy's own sort and row gather as
    # the data array.
    T = sp.csr_matrix((np.arange(Cs.nnz, dtype=np.int32), Cs.indices, Cs.indptr), shape=Cs.shape)
    T.sort_indices()
    if inv is not None:
        T = T[inv]
    rec = _Structure(
        T.data.astype(np.int32, copy=False),
        raw_indptr,
        T.indptr.astype(np.int64),
        relabel is not None,
        maxnnz,
    )
    C = CSRMatrix(
        rec.indptr.copy(), T.indices.astype(np.int64), Cs.data[rec.order], Cs.shape, check=False
    )
    return rec, C


def _gather(rec: _Structure, Cs, relabel=None):
    """Column indices and values of the canonical product through a
    recorded structure, or ``None`` when the raw output no longer
    matches it."""
    if not np.array_equal(Cs.indptr, rec.raw_indptr):
        return None
    # ``take`` gathers int32 faster than fancy indexing.
    idx = Cs.indices.take(rec.order)
    if relabel is not None:
        idx = relabel.take(idx)
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
    planner_rank: ClassVar[int | None] = 10
    model_speed_factor: ClassVar[float] = 0.35
    description: ClassVar[str] = "native scipy CSR matmul (allclose values, pattern minus exact zeros)"

    @property
    def bitwise_reference(self) -> bool:
        return False

    @property
    def honours_kernel(self) -> bool:
        return False  # every kernel runs as one matmul over Ar

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
        ctx.bump("scipy_calls")
        state = getattr(operand, "backend_state", None)
        As = _handle(operand, state)
        inv = getattr(operand, "inv", None) if original_order else None
        token = ctx.operand_tokens.get(id(B)) if state is not None else None
        key = (token, original_order)
        rec = None if token is None else state.get(key)
        if rec is None:
            if token is not None:
                state[key] = _SEEN
            return _plain(As @ _right(operand, B, As, state, token), inv)
        perm = getattr(operand, "perm", None)
        if rec is _SEEN:
            # Checked for unpermuted operands too: ``_right`` reuses it.
            symmetric = _is_source(operand, B, token, state) and perm is not None
        else:
            symmetric = rec.symmetric
        relabel = None
        if symmetric:
            # The handle's index dtype: relabelled columns stay int32.
            relabel = perm.astype(As.indices.dtype)
            S = R = _symmetric_handle(operand, As, state)
            ctx.bump("scipy_symmetric_products")
        else:
            S, R = As, _right(operand, B, As, state, token)
        # Only a square of the backend's own handle runs scipy's passes
        # directly: its count, taken once, sizes every later numeric pass.
        counted = rec is not _SEEN and rec.maxnnz is not None
        maxnnz = None
        if R is S and _NUMERIC_ONLY:
            maxnnz = rec.maxnnz if counted else _count(S)
        if maxnnz is not None and maxnnz <= _MAX_RECORDED_NNZ:
            Cs = _square(S, maxnnz)
            if counted:
                ctx.bump("scipy_numeric_products")
        else:
            Cs, maxnnz = S @ R, None
        if Cs.nnz > _MAX_RECORDED_NNZ:
            return _plain(Cs, inv, relabel)
        if rec is not _SEEN:
            got = _gather(rec, Cs, relabel)
            if got is not None:
                ctx.bump("scipy_structure_reuses")
                shape = Cs.shape
                del Cs  # free the raw product before the int64 cast
                idx, values = got
                return CSRMatrix(rec.indptr.copy(), idx.astype(np.int64), values, shape, check=False)
            ctx.bump("scipy_structure_rebuilds")
        else:
            ctx.bump("scipy_structure_records")
        rec, C = _record(Cs, inv, relabel, maxnnz)
        state[key] = rec
        return C
