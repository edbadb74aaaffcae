"""The ``vectorized`` backend — numpy-batched numeric phases.

Runs the paper's cluster-wise SpGEMM (Alg. 1) with one fused
``np.add.at`` scatter-accumulate per cluster instead of the reference
kernel's per-``(cluster, column)`` python loop.  All of a cluster's
``B``-row contributions are gathered at once (the concatenated slices of
``B`` selected by the cluster's distinct columns), compressed to the
cluster's touched-column set, and accumulated into a dense
``(touched, cluster_size)`` block in a single unbuffered ufunc call.

**Bitwise contract.**  ``np.add.at`` applies contributions sequentially
in index order; the contribution stream is ordered by cluster column
``p`` ascending (then by ``B``-row column, where each output element
appears at most once per ``p``) — exactly the per-element addition order
of :func:`~repro.core.cluster_spgemm.cluster_spgemm`'s rank-1 updates.
Products are the same scalar multiplies.  The result is therefore
bit-identical to the reference cluster kernel, and this backend declares
``bitwise_reference=True``.  The structural pattern is accumulated
separately from the padding mask (``np.logical_or.at``), so padded slots
never create output entries — same as the reference.

The ``rowwise`` kernel is served by a blocked dense scatter: one ordered
``np.add.at`` per panel of rows into a dense ``(rows, ncols)`` block —
the same sequential-application argument as above, so it is
bitwise-identical to :func:`~repro.core.spgemm.spgemm_rowwise` too.
"""

from __future__ import annotations

from typing import Any, ClassVar

import numpy as np

from .base import ExecutionBackend, ExecutionContext

__all__ = ["VectorizedBackend", "vectorized_cluster_spgemm", "vectorized_rowwise_spgemm"]


def vectorized_cluster_spgemm(Ac, B, *, restore_order: bool = False):
    """Batch-vectorised cluster-wise ``Ac @ B`` (see module docstring).

    Mirrors :func:`~repro.core.cluster_spgemm.cluster_spgemm` semantics:
    row ``r`` of the result is original row ``Ac.row_ids[r]`` unless
    ``restore_order`` scatters rows back.
    """
    from ..core.csr import CSRMatrix, _concat_ranges

    if Ac.ncols != B.nrows:
        raise ValueError(f"inner dimensions differ: {Ac.shape} x {B.shape}")
    n, m = Ac.nrows, B.ncols
    b_lens = np.diff(B.indptr)

    row_indices: list[np.ndarray] = []
    row_values: list[np.ndarray] = []
    row_counts = np.zeros(n, dtype=np.int64)

    out_row = 0
    for c in range(Ac.nclusters):
        ccols = Ac.cluster_cols(c)
        block, mblock = Ac.cluster_block(c)  # (k, size_c)
        size_c = block.shape[1]
        lens = b_lens[ccols] if ccols.size else np.zeros(0, dtype=np.int64)
        total = int(lens.sum())
        if total == 0:
            out_row += size_c  # rows with no B contributions stay empty
            continue
        take = _concat_ranges(B.indptr[ccols], lens)
        bcols_all = B.indices[take]
        bvals_all = B.values[take]
        p_idx = np.repeat(np.arange(ccols.size, dtype=np.int64), lens)
        ucols, comp = np.unique(bcols_all, return_inverse=True)

        # One ordered scatter-accumulate per cluster: contribution e adds
        # fiber p_idx[e] (scaled by its B value) into touched column
        # comp[e] — p ascending, the reference kernel's addition order.
        acc = np.zeros((ucols.size, size_c), dtype=np.float64)
        np.add.at(acc, comp, block[p_idx] * bvals_all[:, None])
        struct = np.zeros((ucols.size, size_c), dtype=bool)
        np.logical_or.at(struct, comp, mblock[p_idx])

        for r_local in range(size_c):
            hit = struct[:, r_local]
            row_indices.append(ucols[hit])
            row_values.append(acc[hit, r_local])
            row_counts[out_row] = int(hit.sum())
            out_row += 1

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(row_counts, out=indptr[1:])
    indices = np.concatenate(row_indices) if row_indices else np.zeros(0, np.int64)
    values = np.concatenate(row_values) if row_values else np.zeros(0, np.float64)
    C = CSRMatrix(indptr, indices, values, (n, m), check=False)
    if restore_order:
        inv = np.empty(n, dtype=np.int64)
        inv[Ac.row_ids] = np.arange(n, dtype=np.int64)
        C = C.permute_rows(inv)
    return C


#: Dense-entry budget of one scatter panel (``rows_per_panel * ncols``).
_PANEL_ENTRIES = 1 << 22


def vectorized_rowwise_spgemm(A, B):
    """Batch-vectorised row-wise ``A @ B``: a blocked dense scatter.

    Rows are processed in panels of ``_PANEL_ENTRIES / ncols`` rows.
    Each panel gathers its contribution stream in the reference order
    (rows ascending; within a row, ``A``'s columns in CSR order, each
    expanded to its ``B`` row) and applies it with one ``np.add.at`` into
    a dense ``(rows, ncols)`` block: the unbuffered ufunc adds in index
    order, so every output element sums in the order
    :func:`~repro.core.spgemm.spgemm_rowwise` does.  ``np.nonzero`` on the
    touched mask then emits the panel's rows in order with columns
    ascending, so the result is bitwise-identical to the reference.
    """
    from ..core.csr import CSRMatrix, _concat_ranges
    from ..core.hybrid_spgemm import row_workloads

    flops, _ = row_workloads(A, B)  # also checks the inner dimensions
    n, m = A.nrows, B.ncols
    b_lens = np.diff(B.indptr)
    per_panel = max(1, _PANEL_ENTRIES // max(1, m))
    cols_parts: list[np.ndarray] = []
    vals_parts: list[np.ndarray] = []
    counts = np.zeros(n, dtype=np.int64)
    for start in range(0, n, per_panel):
        stop = min(n, start + per_panel)
        lo, hi = A.indptr[start], A.indptr[stop]
        ks = A.indices[lo:hi]
        lens = b_lens[ks]
        take = _concat_ranges(B.indptr[ks], lens)
        gcols = B.indices[take]
        gvals = B.values[take] * np.repeat(A.values[lo:hi], lens)
        rloc = np.repeat(np.arange(stop - start, dtype=np.int64), flops[start:stop])
        acc = np.zeros((stop - start, m), dtype=np.float64)
        np.add.at(acc, (rloc, gcols), gvals)
        touched = np.zeros((stop - start, m), dtype=bool)
        touched[rloc, gcols] = True
        r_idx, c_idx = np.nonzero(touched)
        cols_parts.append(c_idx.astype(np.int64, copy=False))
        vals_parts.append(acc[r_idx, c_idx])
        counts[start:stop] = np.bincount(r_idx, minlength=stop - start)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.concatenate(cols_parts) if cols_parts else np.zeros(0, np.int64)
    values = np.concatenate(vals_parts) if vals_parts else np.zeros(0, np.float64)
    return CSRMatrix(indptr, indices, values, (n, m), check=False)


class VectorizedBackend(ExecutionBackend):
    """numpy batch-vectorised numeric phases (cluster / rowwise)."""

    name: ClassVar[str] = "vectorized"
    description: ClassVar[str] = "numpy-batched numeric phases (bitwise; cluster/rowwise)"

    @property
    def bitwise_reference(self) -> bool:
        return True

    @property
    def supported_kernels(self) -> tuple[str, ...] | None:
        return ("cluster", "rowwise")

    def execute(
        self,
        operand: Any,
        B: Any,
        *,
        kernel: str,
        kernel_params: dict[str, Any],
        ctx: ExecutionContext,
    ) -> Any:
        ctx.bump("vectorized_calls")
        if kernel == "cluster":
            if operand.Ac is None:
                raise ValueError(
                    "vectorized backend needs a clustered operand (operand.Ac is None)"
                )
            # restore_order=True returns the operand's row order, matching
            # the reference cluster kernel's contract.
            return vectorized_cluster_spgemm(operand.Ac, B, restore_order=True)
        if kernel == "rowwise":
            # The accumulator parameter is irrelevant here: every
            # accumulator is bitwise-identical and the scatter panel IS
            # the dense one.
            return vectorized_rowwise_spgemm(operand.Ar, B)
        raise ValueError(
            f"vectorized backend supports {self.supported_kernels}, got kernel {kernel!r}"
        )
