"""Memory layout model for sparse-matrix arrays.

Maps the entries of the ``B`` matrix (the cache-sensitive operand — the
paper's locality optimisations all target reuse of ``B`` rows) onto cache
lines.  Entry ``e`` of ``B`` (a column-index + value pair) is modelled as
``ENTRY_BYTES`` contiguous bytes, so row ``k`` spans lines::

    line_start[k] = (indptr[k]   * ENTRY_BYTES) // line_bytes
    line_end[k]   = ceil(indptr[k+1] * ENTRY_BYTES / line_bytes)

Packing the 4-byte index and 8-byte value into one 12-byte logical entry
(instead of two parallel arrays) changes the touched-line count by at most
a small constant factor and keeps the trace machinery simple; DESIGN.md
documents this choice.

The ``A`` operand and the ``C`` output are *streamed* (consecutive
addresses, one pass) in every kernel variant, so their traffic is charged
analytically by the cost model rather than simulated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.csr import CSRMatrix

__all__ = ["BLayout", "ENTRY_BYTES"]

#: Logical bytes per stored entry: 4-byte column index + 8-byte value.
ENTRY_BYTES = 12


@dataclass
class BLayout:
    """Cache-line extents of every row of a CSR matrix.

    Attributes
    ----------
    line_start, line_end:
        Per-row half-open line-id ranges ``[line_start[k], line_end[k])``.
        Empty rows have ``line_start == line_end``.
    line_bytes:
        Cache-line size the layout was computed for.
    total_lines:
        Number of distinct lines backing the matrix (its cache footprint).
    """

    line_start: np.ndarray
    line_end: np.ndarray
    line_bytes: int
    total_lines: int

    @classmethod
    def of(cls, B: CSRMatrix, *, line_bytes: int = 64) -> "BLayout":
        if line_bytes <= 0:
            raise ValueError(f"line_bytes must be positive, got {line_bytes}")
        byte_lo = B.indptr[:-1] * ENTRY_BYTES
        byte_hi = B.indptr[1:] * ENTRY_BYTES
        line_start = byte_lo // line_bytes
        line_end = -(-byte_hi // line_bytes)  # ceil division
        # Empty rows touch no lines.
        empty = byte_lo == byte_hi
        line_end = np.where(empty, line_start, line_end)
        total = int(-(-B.nnz * ENTRY_BYTES // line_bytes))
        return cls(line_start.astype(np.int64), line_end.astype(np.int64), line_bytes, total)

    def row_lines(self, k: int) -> np.ndarray:
        """Line ids touched when row ``k`` is read."""
        return np.arange(self.line_start[k], self.line_end[k], dtype=np.int64)
