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
indices and values.

Unhinted products (a general B, every product of an operand without
``backend_state``; not ``Ar @ Ar`` of an unpermuted operand, which
squares its handle) keep no record, so they build no scipy object:
scipy's C++ passes run on the :class:`CSRMatrix` arrays themselves, in
their own int64 index dtype — count, numeric pass into fresh buffers of
that length, row sort in place, and, for the original row order of a
permuted operand, a row gather through ``inv``.  The result is wrapped
without a cast.  ``C`` stays canonical, so scipy's row sort stays too.

Private passes: ``csr_matmat`` writes without bounds checks, so its
buffers are sized by ``csr_matmat_maxnnz`` on the exact index arrays it
is given — in the same call for an unhinted product, once per record for
a square of one of the backend's own handles (``As @ As``, ``L @ L``) —
and both operands are validated first: ``Ar`` once per operand, an
unhinted ``B`` on every call, a hinted ``B`` once per token.  A hinted
product with any other right operand stays on the public ``@``.  The
entry points are imported and probed once, at import, against the public
product on matrices with an exactly cancelling entry; if any fails, every
call stays on the public ``@``.

Batches (DESIGN.md §10): :meth:`ScipyBackend.execute_many` runs a batch
of unhinted products on one operand over the same chain.  It validates
``Ar`` and every ``B`` in the calling thread before any product starts,
then, when the batch's mean estimated work per product (``A.nrows +
A.nnz`` plus the product's flops) reaches :data:`_SPLIT_MIN_WORK` and the
process may run on two cores, cuts the batch into two shares of
near-equal work and runs one share on a second thread, started and
joined inside the call.  scipy's passes release the GIL, so the shares
overlap; each product is computed exactly as in series, so results are
bitwise those of the serial loop.  Hinted products, batches of one and
1-core hosts keep the serial loop.

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

import os
from threading import Thread
from typing import Any, ClassVar, NamedTuple

import numpy as np

from ..core.csr import CSRMatrix
from .base import ExecutionBackend, ExecutionContext

__all__ = ["ScipyBackend"]

try:  # scipy's C++ passes of ``A @ B``, row sort and row gather; private, so probed below
    from scipy.sparse._sparsetools import csr_matmat as _csr_matmat
    from scipy.sparse._sparsetools import csr_matmat_maxnnz as _csr_matmat_maxnnz
    from scipy.sparse._sparsetools import csr_row_index as _csr_row_index
    from scipy.sparse._sparsetools import csr_sort_indices as _csr_sort_indices
except ImportError:  # pragma: no cover - scipy missing, or the module moved
    _csr_matmat = _csr_matmat_maxnnz = _csr_row_index = _csr_sort_indices = None


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
#: ``backend_state`` key: the operand's ``Ar`` passed ``CSRMatrix._check``.
_CHECKED = "checked"
#: Largest product a structure is recorded for (``order`` is int32).
_MAX_RECORDED_NNZ = np.iinfo(np.int32).max
#: Smallest mean estimated work per product (:func:`_work`) of a batch
#: split across two threads.  Below it a product is mostly Python run
#: under the GIL, and a second thread only adds its start and switches:
#: the ``serve_zipf`` members estimate at most about 48k per product, the
#: ``bc_frontiers`` graphs 275k (``road_scr``) to 2.5M (``web_scr``).
_SPLIT_MIN_WORK = 100_000


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


def _count(A, B=None) -> int:
    """scipy's symbolic pass of ``A @ B`` (``A @ A`` when ``B`` is
    ``None``) on the operands' own index arrays: an upper bound on the
    product's nnz (exact zeros not yet dropped)."""
    B = A if B is None else B
    return int(_csr_matmat_maxnnz(A.shape[0], B.shape[1], A.indptr, A.indices, B.indptr, B.indices))


def _matmat(A, Ax, B, Bx, maxnnz: int):
    """scipy's numeric pass of ``A @ B`` (values ``Ax``, ``Bx``) into
    fresh buffers of ``maxnnz`` entries in ``A``'s index dtype, trimmed to
    the entries it stored: raw ``(indptr, indices, values)``, rows
    unsorted.  ``maxnnz`` must be :func:`_count` of these same index
    arrays: the pass writes without bounds checks."""
    n = A.shape[0]
    indptr = np.empty(n + 1, dtype=A.indices.dtype)
    indices = np.empty(maxnnz, dtype=A.indices.dtype)
    values = np.empty(maxnnz, dtype=np.float64)
    _csr_matmat(n, B.shape[1], A.indptr, A.indices, Ax, B.indptr, B.indices, Bx, indptr, indices, values)
    nnz = int(indptr[-1])
    return indptr, indices[:nnz], values[:nnz]


def _square(S, maxnnz: int):
    """:func:`_matmat` of ``S @ S`` for a scipy handle ``S``, as a scipy
    matrix."""
    import scipy.sparse as sp

    indptr, indices, data = _matmat(S, S.data, S, S.data, maxnnz)
    return sp.csr_matrix((data, indices, indptr), shape=S.shape)


def _check_operand(operand, state) -> None:
    """Validate the operand's ``Ar`` once (every call when it keeps no
    ``state``): scipy's passes read it without bounds checks."""
    if state is None or not state.get(_CHECKED):
        operand.Ar._check()
        if state is not None:
            state[_CHECKED] = True


def _check_right(Ar, B) -> None:
    """Validate the right operand of ``Ar @ B`` before any scipy call."""
    if B.shape[0] != Ar.shape[1]:
        raise ValueError(f"dimension mismatch: {Ar.shape} @ {B.shape}")
    B._check()


def _sort_rows(indptr, indices, values) -> None:
    """scipy's row sort of a raw product, in place."""
    _csr_sort_indices(indptr.size - 1, indptr, indices, values)


def _row_gather(indptr, indices, values, inv):
    """Rows ``inv`` of a product, through scipy's C++ row gather into
    fresh buffers."""
    out_indptr = np.zeros(inv.size + 1, dtype=np.int64)
    np.cumsum(np.diff(indptr)[inv], out=out_indptr[1:])
    nnz = int(out_indptr[-1])
    out_indices = np.empty(nnz, dtype=np.int64)
    out_values = np.empty(nnz, dtype=np.float64)
    _csr_row_index(inv.size, inv, indptr, indices, values, out_indices, out_values)
    return out_indptr, out_indices, out_values


def _direct(A, B, inv) -> CSRMatrix:
    """Canonical ``A @ B`` (rows ``inv`` of it when given) from scipy's
    C++ passes on the operands' own arrays: count and numeric pass in one
    call, row sort, row gather.  Both operands must be validated."""
    shape = (A.shape[0], B.shape[1])
    maxnnz = _count(A, B)
    if maxnnz == 0:  # as scipy's own product: no pass over A's rows
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        return CSRMatrix(indptr, indptr[:0], np.zeros(0), shape, check=False)
    indptr, indices, values = _matmat(A, A.values, B, B.values, maxnnz)
    _sort_rows(indptr, indices, values)
    if inv is not None:
        indptr, indices, values = _row_gather(indptr, indices, values, inv)
    elif 2 * indices.size < indices.base.size:
        # Many sums cancelled: do not keep the count's buffers alive
        # (scipy's own rule for a trimmed product).
        indices, values = indices.copy(), values.copy()
    return CSRMatrix(indptr, indices, values, shape, check=False)


def _cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS, Windows)
        return os.cpu_count() or 1


def _work(A, Bs) -> np.ndarray:
    """Estimated work of each product ``A @ B``: ``A.nrows + A.nnz`` plus
    its flops, ``bincount(A.indices) @ diff(B.indptr)``.  Every operand
    must be validated."""
    per_column = np.bincount(A.indices, minlength=A.shape[1])
    return np.array([A.shape[0] + A.nnz + int(per_column @ np.diff(B.indptr)) for B in Bs])


def _halves(work) -> tuple[list, list]:
    """Two shares of a batch's products with near-equal total work: each
    product, largest first, joins the lighter share."""
    shares, loads = ([], []), [0, 0]
    for i in np.argsort(-work, kind="stable").tolist():
        lighter = int(loads[1] < loads[0])
        shares[lighter].append(i)
        loads[lighter] += int(work[i])
    return shares


def _run_shares(run, shares) -> None:
    """``run(share)`` for each share: the first in the calling thread,
    the others on threads started and joined here.  A thread's exception
    is re-raised after every thread has been joined."""
    errors = []

    def worker(share):
        try:
            run(share)
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)

    threads = [Thread(target=worker, args=(share,), name="repro-scipy-batch") for share in shares[1:]]
    for t in threads:
        t.start()
    try:
        run(shares[0])
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


def _probe() -> bool:
    """Whether scipy's private passes reproduce the public product
    bitwise: :func:`_count` and :func:`_square` against ``S @ S``, and
    :func:`_direct`'s chain on two distinct int64 operands against
    ``(S @ R)`` sorted and row-gathered.  Both products cancel an entry
    to exactly ``0.0``; ``S @ R``'s raw rows are unsorted."""
    if any(f is None for f in (_csr_matmat, _csr_matmat_maxnnz, _csr_row_index, _csr_sort_indices)):
        return False

    def same(got, want) -> bool:
        return all(np.array_equal(x, y) for x, y in zip(got, (want.indptr, want.indices, want.data)))

    try:
        import scipy.sparse as sp

        S = sp.csr_matrix(np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 2.0], [0.0, 3.0, 0.5]]))
        maxnnz = _count(S)
        got, want = _square(S, maxnnz), S @ S
        if got.nnz >= maxnnz or not all(
            x.dtype == y.dtype and np.array_equal(x, y)
            for x, y in ((got.indptr, want.indptr), (got.indices, want.indices), (got.data, want.data))
        ):
            return False
        R = sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        A, B = (CSRMatrix(M.indptr, M.indices, M.data, M.shape) for M in (S, R))
        maxnnz = _count(A, B)
        raw, want = _matmat(A, A.values, B, B.values, maxnnz), S @ R
        if want.has_sorted_indices or raw[1].size >= maxnnz or not same(raw, want):
            return False
        _sort_rows(*raw)
        want.sort_indices()
        inv = np.array([2, 0, 1], dtype=np.int64)
        return same(_row_gather(*raw, inv), want[inv])
    except Exception:  # any failure of the private entry points disables them
        return False


#: Whether warm squares and unhinted products may call scipy's passes
#: directly; otherwise every product takes the public ``@``.
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

    def execute_many(
        self,
        operand: Any,
        Bs: list,
        *,
        kernel: str,
        kernel_params: dict[str, Any],
        ctx: ExecutionContext,
        original_order: bool = False,
    ) -> tuple[list, int]:
        """The batch on :func:`_direct`'s chain, split across two threads
        when large enough (module docstring); otherwise the serial loop."""
        state = getattr(operand, "backend_state", None)
        Ar, perm = operand.Ar, getattr(operand, "perm", None)
        tokens = ctx.operand_tokens if state is not None else {}
        if (
            not _NUMERIC_ONLY
            or len(Bs) < 2
            or _cores() < 2
            or any(id(B) in tokens or (perm is None and B is Ar) for B in Bs)
        ):
            return super().execute_many(
                operand, Bs, kernel=kernel, kernel_params=kernel_params, ctx=ctx, original_order=original_order
            )
        # Every unhinted product, validated before any starts.
        _check_operand(operand, state)
        for B in Bs:
            _check_right(Ar, B)
        inv = getattr(operand, "inv", None) if original_order else None
        work = _work(Ar, Bs)
        if work.mean() >= _SPLIT_MIN_WORK:
            shares = [share for share in _halves(work) if share]
        else:
            shares = [range(len(Bs))]
        Cs = [None] * len(Bs)

        def run(share):
            for i in share:
                Cs[i] = _direct(Ar, Bs[i], inv)

        _run_shares(run, shares)
        ctx.bump("scipy_calls", len(Bs))
        ctx.bump("scipy_direct_products", len(Bs))
        if len(shares) > 1:
            ctx.bump("scipy_split_batches")
        return Cs, len(shares)

    def _product(self, operand: Any, B: Any, ctx: ExecutionContext, *, original_order: bool):
        ctx.bump("scipy_calls")
        state = getattr(operand, "backend_state", None)
        _check_operand(operand, state)
        inv = getattr(operand, "inv", None) if original_order else None
        perm = getattr(operand, "perm", None)
        token = ctx.operand_tokens.get(id(B)) if state is not None else None
        if token is None and not (perm is None and B is operand.Ar):
            # Unhinted: no record to keep, so no scipy object either
            # (``Ar @ Ar`` of an unpermuted operand squares its handle).
            _check_right(operand.Ar, B)
            if _NUMERIC_ONLY:
                ctx.bump("scipy_direct_products")
                return _direct(operand.Ar, B, inv)
            return _plain(_handle(operand, state) @ _wrap(B), inv)
        As = _handle(operand, state)
        key = (token, original_order)
        rec = None if token is None else state.get(key)
        if rec is None:
            if token is not None:
                # Once per token: the token names B's pattern and values.
                _check_right(operand.Ar, B)
                state[key] = _SEEN
            return _plain(As @ _right(operand, B, As, state, token), inv)
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
