"""The ``scipy`` backend — native CSR matmul fast path.

Replaces the numeric computation wholesale: the prepared operand's CSR
form is handed to :mod:`scipy.sparse` (compiled SMMP matmul, the
row-by-row sparse product algorithm), and the product is canonicalised
back into our :class:`~repro.core.csr.CSRMatrix`.  scipy's numeric pass
adds each output entry's products in the order of A's stored row
entries, as Gustavson row-wise SpGEMM does, so every value is bitwise
that of :func:`~repro.core.spgemm.spgemm_rowwise` (NaNs by position;
the contract of :mod:`repro.backends.base`).

Pattern: scipy's numeric phase stores only nonzero sums, so an entry
whose products cancel to exactly ``0.0`` is *dropped*.  The output
pattern is therefore the row-wise SpGEMM pattern minus exact numeric
zeros — the same as raw ``scipy.sparse`` — and identical to it whenever
nothing cancels.  Keeping the zeros would need a second, symbolic scipy
product on every call.

One entry point, three paths (DESIGN.md §10).  Every product goes
through :meth:`ScipyBackend.execute_many`, which validates the operand
and every right operand first, then picks one path per product from what
it can observe:

* **direct** — an unhinted product (``ctx.operand_tokens`` has no entry
  for ``B``).  scipy's C++ passes run on the :class:`CSRMatrix` arrays
  themselves, in their own int64 index dtype: count, numeric pass into
  fresh buffers of that length, row sort in place, and, for the original
  row order of a permuted operand, a row gather through ``inv``.  The
  result is wrapped without a cast; no scipy object is built and nothing
  is recorded.
* **recorded square** — a hinted product (the engine hints ``B is A``)
  whose ``B`` is the operand's source (checked once per token, bitwise),
  from its second sighting on.  The backend squares its own handle —
  ``Ar`` as a scipy matrix, or ``L = P A Pᵀ`` for a permuted operand —
  with scipy's numeric pass alone, its symbolic count (``maxnnz``) taken
  once, and gathers the canonical product through a structure recorded
  on the operand's :attr:`backend_state`: where each entry of the
  canonical result sits in scipy's raw output.  No sort, no row
  un-permute, no counting pass.
* **plain** — everything else: the public ``@`` of the operand's handle
  and ``B``, sorted, row-gathered and cast, with nothing recorded.  That
  is a hinted product's first sighting (a one-off operand pays for no
  record, and the int32 public product beats the int64 direct chain), a
  hinted ``B`` that is not the operand's source, a square whose count
  exceeds :data:`_MAX_RECORDED_NNZ` (counted once, then remembered), and
  every product when the probe below fails.

Private passes: ``csr_matmat`` writes without bounds checks, so its
buffers are sized by ``csr_matmat_maxnnz`` on the exact index arrays it
is given — in the same call for a direct product, once per record for a
recorded square — and both operands are validated first: ``Ar`` once per
operand, an unhinted ``B`` on every call, a hinted ``B`` once per token.
The entry points are imported and probed once, at import, against the
public product on matrices with an exactly cancelling entry.

Batches: a batch of two or more direct products, on a process that may
run on two cores, whose mean estimated work per product (``A.nrows +
A.nnz`` plus the product's flops) reaches :data:`_SPLIT_MIN_WORK`, is cut
into two shares of near-equal work, one run on a second thread started
and joined inside the call.  scipy's passes release the GIL, so the
shares overlap; each product is computed exactly as in series, so
results are bitwise those of the serial loop.

Symmetric A²: the recorded square of a permuted rows-mode operand is
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
#: ``backend_state`` marker: the hinted product's count exceeded
#: :data:`_MAX_RECORDED_NNZ`, so every later sighting takes the plain path
#: without counting again.
_UNRECORDABLE = "unrecordable"
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
    ``maxnnz`` is scipy's symbolic count of the squared handle.
    """

    order: np.ndarray  # int32, nnz(C)
    raw_indptr: np.ndarray
    indptr: np.ndarray
    maxnnz: int


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


#: Whether the direct and recorded-square paths may call scipy's passes
#: directly; otherwise every product takes the plain path.
_NUMERIC_ONLY = _probe()


def _plain(operand, B, state, inv) -> CSRMatrix:
    """The plain path: the public ``Ar @ B`` on the operand's scipy
    handle (both operands when ``B`` is ``Ar``), sorted, rows ``inv`` of
    it when given, cast."""
    As = _handle(operand, state)
    Cs = As @ (As if B is operand.Ar else _wrap(B))
    Cs.sort_indices()
    if inv is not None:
        Cs = Cs[inv]  # C++ row gather
    return CSRMatrix(
        Cs.indptr.astype(np.int64), Cs.indices.astype(np.int64), Cs.data, Cs.shape, check=False
    )


def _record(Cs, inv, relabel, maxnnz: int) -> tuple[_Structure, CSRMatrix]:
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
    rec = _Structure(T.data.astype(np.int32, copy=False), raw_indptr, T.indptr.astype(np.int64), maxnnz)
    C = CSRMatrix(
        rec.indptr.copy(), T.indices.astype(np.int64), Cs.data[rec.order], Cs.shape, check=False
    )
    return rec, C


def _gather(rec: _Structure, Cs, relabel):
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


def _recorded_square(operand, B, token, state, inv, original_order, ctx) -> CSRMatrix | None:
    """The recorded-square path of a hinted product: ``S @ S`` by scipy's
    numeric pass alone (``S`` the operand's handle, ``L`` when permuted),
    canonicalised through the structure recorded on the product's second
    sighting.  ``None`` sends the product to the plain path: its first
    sighting, a ``B`` that is not the operand's source, or a count over
    :data:`_MAX_RECORDED_NNZ` (counted once per key)."""
    key = (token, original_order)
    rec = state.get(key)
    if rec is None:
        state[key] = _SEEN
        return None
    if rec is _UNRECORDABLE:
        return None
    if not _is_source(operand, B, token, state):
        return None
    S = _handle(operand, state)
    perm = getattr(operand, "perm", None)
    relabel = None
    if perm is not None:
        # The handle's index dtype: relabelled columns stay int32.
        relabel = perm.astype(S.indices.dtype)
        S = _symmetric_handle(operand, S, state)
    if rec is _SEEN:
        maxnnz = _count(S)
        if maxnnz > _MAX_RECORDED_NNZ:
            state[key] = _UNRECORDABLE
            return None
    else:
        maxnnz = rec.maxnnz
    if perm is not None:
        ctx.bump("scipy_symmetric_products")
    Cs = _square(S, maxnnz)
    if rec is _SEEN:
        ctx.bump("scipy_structure_records")
    else:
        ctx.bump("scipy_numeric_products")
        got = _gather(rec, Cs, relabel)
        if got is not None:
            ctx.bump("scipy_structure_reuses")
            shape = Cs.shape
            del Cs  # free the raw product before the int64 cast
            idx, values = got
            return CSRMatrix(rec.indptr.copy(), idx.astype(np.int64), values, shape, check=False)
        ctx.bump("scipy_structure_rebuilds")
    rec, C = _record(Cs, inv, relabel, maxnnz)
    state[key] = rec
    return C


class ScipyBackend(ExecutionBackend):
    """Native scipy CSR matmul over the prepared operand."""

    name: ClassVar[str] = "scipy"
    description: ClassVar[str] = "native scipy CSR matmul (row-wise values, pattern minus exact zeros)"

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
        return self.execute_many(operand, [B], kernel=kernel, kernel_params=kernel_params, ctx=ctx)[0][0]

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
        """Every product on its path, a large batch of direct products
        split across two threads (module docstring)."""
        state = getattr(operand, "backend_state", None)
        Ar = operand.Ar
        inv = getattr(operand, "inv", None) if original_order else None
        tokens = [None if state is None else ctx.operand_tokens.get(id(B)) for B in Bs]
        # Every operand validated before any product starts; a token
        # names B's pattern and values, so a hinted B once per token.
        _check_operand(operand, state)
        for B, token in zip(Bs, tokens):
            if token is None or state.get((token, original_order)) is None:
                _check_right(Ar, B)
        direct = sum(token is None for token in tokens) if _NUMERIC_ONLY else 0
        shares = [range(len(Bs))]
        if len(Bs) > 1 and direct == len(Bs) and _cores() > 1:
            work = _work(Ar, Bs)
            if work.mean() >= _SPLIT_MIN_WORK:
                shares = [share for share in _halves(work) if share]

        def product(B, token):
            if _NUMERIC_ONLY:
                if token is None:
                    return _direct(Ar, B, inv)
                C = _recorded_square(operand, B, token, state, inv, original_order, ctx)
                if C is not None:
                    return C
            ctx.bump("scipy_plain_products")
            return _plain(operand, B, state, inv)

        Cs = [None] * len(Bs)

        def run(share):
            for i in share:
                Cs[i] = product(Bs[i], tokens[i])

        _run_shares(run, shares)
        ctx.bump("scipy_calls", len(Bs))
        if direct:
            ctx.bump("scipy_direct_products", direct)
        if len(shares) > 1:
            ctx.bump("scipy_split_batches")
        return Cs, len(shares)
