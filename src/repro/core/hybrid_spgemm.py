"""Per-row symbolic workloads of ``A @ B``.

:func:`row_workloads` is the O(nnz) vectorised symbolic pre-pass that
sizes every row of the product: its multiply-add count and the upper
bound on its output nonzeros.  The module keeps its historical name
because the end-to-end harness (``benchmarks/e2e/layers.py``) imports
the function from this path to count ``kernel.flops``.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRMatrix

__all__ = ["row_workloads"]


def row_workloads(A: CSRMatrix, B: CSRMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ``(flops, upper_bound_nnz)`` of ``A @ B`` — the symbolic
    pre-pass, O(nnz(A)) fully vectorised.

    ``flops[i] = Σ_{a_ik ≠ 0} nnz(B[k, :])`` (segment sums over ``A``'s
    rows via the cumsum trick) and the output of row ``i`` can have at
    most ``min(flops[i], B.ncols)`` nonzeros.
    """
    if A.ncols != B.nrows:
        raise ValueError(f"inner dimensions differ: {A.shape} x {B.shape}")
    b_lens = np.diff(B.indptr)
    contrib = b_lens[A.indices]
    cum = np.zeros(contrib.size + 1, dtype=np.int64)
    np.cumsum(contrib, out=cum[1:])
    flops = cum[A.indptr[1:]] - cum[A.indptr[:-1]]
    return flops, np.minimum(flops, np.int64(B.ncols))
