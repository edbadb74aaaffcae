"""Tiled (column-blocked) SpGEMM — the paper's §5 alternative scheme.

The paper's future work names "exploring reordering for alternative
SpGEMM schemes (e.g., based on tiling)".  This module implements the
classical column-tiled variant so the study can be extended to it:

``B`` is split into column tiles ``B = [B_0 | B_1 | … ]``; the kernel
computes ``C_t = A · B_t`` tile by tile and concatenates.  Each pass
touches only the tile's slice of every ``B`` row, so the tile working
set is ``nnz(B_t)`` — cache-resident for a suitable tile width — at the
price of re-streaming ``A`` once per tile.  Reordering interacts with
tiling differently than with clustering: it changes which rows are
*consecutive*, while tiling changes which columns are *co-resident*,
which is exactly the interaction the paper proposes studying.

The numeric kernel is exact (validated against row-wise SpGEMM); the
trace/cost integration mirrors the row-wise machinery so the simulated
machine can compare all three dataflows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csr import CSRMatrix, _concat_ranges
from .spgemm import spgemm_rowwise

__all__ = ["TiledSpGEMMStats", "split_column_tiles", "tiled_spgemm"]


@dataclass
class TiledSpGEMMStats:
    """Work accounting of one tiled SpGEMM execution.

    ``a_restreams`` counts how many times the ``A`` operand is read end
    to end (= number of non-empty tiles) — tiling's characteristic
    overhead term.
    """

    flops: int = 0
    out_nnz: int = 0
    tiles: int = 0
    a_restreams: int = 0
    per_tile_nnz: list[int] = field(default_factory=list)


def split_column_tiles(B: CSRMatrix, tile_cols: int) -> list[tuple[int, CSRMatrix]]:
    """Split ``B`` into column tiles of width ``tile_cols``.

    Returns ``(col_offset, tile)`` pairs; each tile is a canonical CSR
    over the narrowed column range.  Empty tiles are kept so offsets
    stay regular (callers may skip them).
    """
    if tile_cols < 1:
        raise ValueError(f"tile_cols must be >= 1, got {tile_cols}")
    tiles: list[tuple[int, CSRMatrix]] = []
    n, m = B.shape
    row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(B.indptr))
    for lo in range(0, m, tile_cols):
        hi = min(lo + tile_cols, m)
        keep = (B.indices >= lo) & (B.indices < hi)
        t_rows = row_of[keep]
        t_cols = B.indices[keep] - lo
        t_vals = B.values[keep]
        counts = np.bincount(t_rows, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        # Entries stay row-major/col-sorted because the mask preserves order.
        tiles.append((lo, CSRMatrix(indptr, t_cols, t_vals, (n, hi - lo), check=False)))
    return tiles


def tiled_spgemm(
    A: CSRMatrix,
    B: CSRMatrix,
    *,
    tile_cols: int = 256,
    stats: TiledSpGEMMStats | None = None,
) -> CSRMatrix:
    """Compute ``C = A @ B`` with column-blocked tiles of ``B``.

    Semantically identical to :func:`~repro.core.spgemm.spgemm_rowwise`;
    the dataflow differs (see module docstring).
    """
    if A.ncols != B.nrows:
        raise ValueError(f"inner dimensions differ: {A.shape} x {B.shape}")
    if stats is None:
        stats = TiledSpGEMMStats()
    n, m = A.nrows, B.ncols

    tiles = split_column_tiles(B, tile_cols)
    stats.tiles = len(tiles)

    # Per-tile partial outputs; merged row-wise at the end.
    partials: list[tuple[int, CSRMatrix]] = []
    for off, Bt in tiles:
        if Bt.nnz == 0:
            stats.per_tile_nnz.append(0)
            continue
        Ct = spgemm_rowwise(A, Bt, two_phase=False)
        stats.flops += int(np.diff(Bt.indptr)[A.indices].sum())
        stats.a_restreams += 1
        stats.per_tile_nnz.append(Bt.nnz)
        partials.append((off, Ct))

    # Merge: per row, concatenate each tile's (offset-shifted) columns.
    # Tiles are processed left-to-right so per-row concatenation is sorted.
    lens = np.zeros(n, dtype=np.int64)
    for _, Ct in partials:
        lens += np.diff(Ct.indptr)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    indices = np.empty(int(lens.sum()), dtype=np.int64)
    values = np.empty(int(lens.sum()), dtype=np.float64)
    cursor = indptr[:-1].copy()
    for off, Ct in partials:
        t_lens = np.diff(Ct.indptr)
        nz = np.flatnonzero(t_lens)
        for r in nz.tolist():
            k = int(t_lens[r])
            pos = int(cursor[r])
            indices[pos : pos + k] = Ct.indices[Ct.indptr[r] : Ct.indptr[r + 1]] + off
            values[pos : pos + k] = Ct.values[Ct.indptr[r] : Ct.indptr[r + 1]]
            cursor[r] += k
    C = CSRMatrix(indptr, indices, values, (n, m), check=False)
    stats.out_nnz = C.nnz
    return C


def tiled_b_trace(A: CSRMatrix, B: CSRMatrix, tile_cols: int, *, line_bytes: int = 64) -> np.ndarray:
    """B-line access trace of tiled ``A @ B`` for the cache simulator.

    Tile ``t``'s pass touches, for each stored ``a_ik`` in row order, the
    lines of ``B_t``'s row ``k`` slice.  Tile arrays are laid out
    contiguously one after another (each tile is materialised, as real
    tiled implementations do).
    """
    from ..machine.layout import BLayout
    from ..machine.trace import rowwise_b_trace

    parts: list[np.ndarray] = []
    line_base = 0
    for _, Bt in split_column_tiles(B, tile_cols):
        if Bt.nnz == 0:
            continue
        layout = BLayout.of(Bt, line_bytes=line_bytes)
        tr = rowwise_b_trace(A, layout)
        parts.append(tr + line_base)
        line_base += layout.total_lines + 1
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
