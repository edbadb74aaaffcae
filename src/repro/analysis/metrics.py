"""Speedup statistics used throughout the paper's evaluation.

Table 2 reports, per (reordering × SpGEMM-variant):

* **GM** — geometric mean speedup over all matrices,
* **Pos.%** — fraction of matrices with speedup > 1,
* **+GM** — geometric mean over only the improved matrices,

plus a **Best Reordering** row taking the per-matrix maximum.  These are
implemented here exactly, together with the box-plot five-number summary
used by Figs. 2 and 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["geomean", "positive_fraction", "positive_geomean", "SpeedupSummary", "summarize_speedups", "best_of"]


def geomean(values) -> float:
    """Geometric mean; ignores NaNs; 0 values clipped to a tiny epsilon."""
    v = np.asarray([x for x in values if not np.isnan(x)], dtype=np.float64)
    if v.size == 0:
        return float("nan")
    v = np.maximum(v, 1e-300)
    return float(np.exp(np.mean(np.log(v))))


def positive_fraction(values) -> float:
    """Fraction of entries strictly above 1.0 (Table 2's Pos.%)."""
    v = np.asarray([x for x in values if not np.isnan(x)], dtype=np.float64)
    if v.size == 0:
        return float("nan")
    return float(np.count_nonzero(v > 1.0)) / v.size


def positive_geomean(values) -> float:
    """Geometric mean over only the entries above 1.0 (Table 2's +GM)."""
    v = [x for x in values if not np.isnan(x) and x > 1.0]
    return geomean(v) if v else float("nan")


@dataclass
class SpeedupSummary:
    """The three Table-2 statistics plus the box-plot five numbers."""

    gm: float
    pos_pct: float
    pos_gm: float
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    count: int


def summarize_speedups(values) -> SpeedupSummary:
    """Full summary of a speedup distribution (one Fig. 2/3 box)."""
    v = np.asarray([x for x in values if not np.isnan(x)], dtype=np.float64)
    if v.size == 0:
        nan = float("nan")
        return SpeedupSummary(nan, nan, nan, nan, nan, nan, nan, nan, 0)
    q1, med, q3 = (float(q) for q in np.percentile(v, [25, 50, 75]))
    return SpeedupSummary(
        gm=geomean(v),
        pos_pct=positive_fraction(v),
        pos_gm=positive_geomean(v),
        minimum=float(v.min()),
        q1=q1,
        median=med,
        q3=q3,
        maximum=float(v.max()),
        count=int(v.size),
    )


def best_of(per_algorithm: dict[str, list[float]]) -> list[float]:
    """Per-matrix maximum across algorithms (Table 2's Best Reordering).

    Input: ``{algorithm: [speedup per matrix, aligned]}``.
    """
    if not per_algorithm:
        return []
    arrays = [np.asarray(v, dtype=np.float64) for v in per_algorithm.values()]
    lengths = {a.size for a in arrays}
    if len(lengths) != 1:
        raise ValueError(f"misaligned speedup lists: lengths {sorted(lengths)}")
    return np.nanmax(np.vstack(arrays), axis=0).tolist()
