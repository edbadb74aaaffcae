"""The ``vectorized`` backend — numpy-batched cluster numeric phase.

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

The ``rowwise`` kernel is served by the blocked dense-scatter numeric
phase of :mod:`repro.core.hybrid_spgemm` (one ordered ``np.add.at`` per
row panel — the same sequential-application argument as above), and the
``hybrid`` kernel is executed directly: its bin executors are already
the batched numpy phases this backend exists for.  All three paths are
bitwise-identical to the reference.
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


#: All rows in the catch-all scatter bin: the blocked ``np.add.at``
#: dense panel *is* the whole numeric phase.
_SCATTER_ONLY = ((-1, "scatter"),)


def vectorized_rowwise_spgemm(A, B):
    """Batch-vectorised row-wise ``A @ B`` — the PR 3 tail.

    Runs the hybrid kernel's blocked dense-scatter executor over every
    row: one ordered ``np.add.at`` scatter-accumulate per row panel
    instead of the reference kernel's per-row python loop.  Bitwise-
    identical to :func:`~repro.core.spgemm.spgemm_rowwise` (sequential
    unbuffered application in stream order; columns emitted ascending).
    """
    from ..core.hybrid_spgemm import hybrid_spgemm

    return hybrid_spgemm(A, B, bin_map=_SCATTER_ONLY)


class VectorizedBackend(ExecutionBackend):
    """numpy batch-vectorised numeric phases (cluster / rowwise / hybrid)."""

    name: ClassVar[str] = "vectorized"
    planner_rank: ClassVar[int | None] = 20
    model_speed_factor: ClassVar[float] = 0.7
    description: ClassVar[str] = "numpy-batched numeric phases (bitwise; cluster/rowwise/hybrid)"

    @property
    def bitwise_reference(self) -> bool:
        return True

    @property
    def supported_kernels(self) -> tuple[str, ...] | None:
        return ("cluster", "rowwise", "hybrid")

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
        if kernel == "hybrid":
            from ..core.hybrid_spgemm import hybrid_spgemm

            return hybrid_spgemm(operand.Ar, B, **kernel_params)
        raise ValueError(
            f"vectorized backend supports {self.supported_kernels}, got kernel {kernel!r}"
        )
