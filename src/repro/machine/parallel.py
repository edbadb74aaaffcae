"""Simulated shared-memory parallel machine.

The paper runs on 64 OpenMP threads with per-core private caches.  The
:class:`SimulatedMachine` reproduces that setting deterministically:

* rows (or clusters) are partitioned across ``n_threads`` in contiguous
  chunks balanced by per-unit work — the locality-preserving analogue of
  OpenMP ``schedule(static)`` / ``schedule(dynamic, chunk)``;
* each thread simulates its private LRU cache over its own ``B``-line
  trace;
* the machine's time is the *makespan* (max thread time) under the cost
  model, matching how wall-clock behaves for a parallel-for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.csr import CSRMatrix
from ..core.csr_cluster import CSRCluster
from .cache import CacheStats, LRUCache
from .cost import CostModel, KernelCost
from .layout import BLayout, ENTRY_BYTES
from .trace import clusterwise_b_trace, rowwise_b_trace

__all__ = [
    "MachineResult",
    "SimulatedMachine",
    "balanced_contiguous_partition",
    "amortization_iterations",
]


def balanced_contiguous_partition(weights: np.ndarray, parts: int) -> list[np.ndarray]:
    """Split ``range(len(weights))`` into ``parts`` contiguous chunks of
    roughly equal total weight (prefix-sum splitting).

    Zero-weight prefixes/suffixes are tolerated; every index lands in
    exactly one chunk and chunk order preserves index order — matching
    OpenMP static scheduling over a contiguous iteration space.
    """
    n = int(weights.size)
    parts = max(1, int(parts))
    if n == 0:
        return [np.zeros(0, dtype=np.int64) for _ in range(parts)]
    prefix = np.cumsum(weights, dtype=np.float64)
    total = prefix[-1]
    if total <= 0:
        bounds = np.linspace(0, n, parts + 1).astype(np.int64)
    else:
        targets = total * np.arange(1, parts) / parts
        cuts = np.searchsorted(prefix, targets, side="left") + 1
        bounds = np.concatenate([[0], np.clip(cuts, 0, n), [n]])
        bounds = np.maximum.accumulate(bounds)
    return [np.arange(bounds[t], bounds[t + 1], dtype=np.int64) for t in range(parts)]


@dataclass
class MachineResult:
    """Simulated execution outcome: aggregate (makespan) + per-thread costs."""

    cost: KernelCost
    per_thread: list[KernelCost] = field(default_factory=list)

    @property
    def time(self) -> float:
        return self.cost.time

    @property
    def load_imbalance(self) -> float:
        """max/mean thread time — 1.0 is perfectly balanced."""
        times = [t.time for t in self.per_thread if t.time > 0]
        if not times:
            return 1.0
        return max(times) / (sum(times) / len(times))


class SimulatedMachine:
    """Deterministic model of a ``n_threads``-core machine (see module doc).

    Parameters
    ----------
    n_threads:
        Simulated core count (paper: 64; default 8 to match the scaled
        matrix suite — see DESIGN.md).
    cache_lines:
        Per-thread private cache capacity in lines.
    line_bytes:
        Cache-line size.
    cost_model:
        Weights of the time model; defaults to the memory-bound
        calibration in :class:`~repro.machine.cost.CostModel`.
    """

    def __init__(
        self,
        n_threads: int = 8,
        cache_lines: int = 1024,
        line_bytes: int = 64,
        cost_model: CostModel | None = None,
    ) -> None:
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        self.n_threads = int(n_threads)
        self.cache_lines = int(cache_lines)
        self.line_bytes = int(line_bytes)
        self.cost = cost_model or CostModel(line_bytes=line_bytes)

    # ------------------------------------------------------------------
    def _thread_cost(self, trace: np.ndarray, work: int, streamed: int, b_visits: int, kernel: str) -> KernelCost:
        stats = LRUCache(self.cache_lines).run(trace)
        t = self.cost.kernel_time(
            work=work, cache=stats, streamed_bytes=streamed, b_row_visits=b_visits, kernel=kernel
        )
        return KernelCost(t, work, stats, streamed, self.line_bytes, b_visits)

    def _aggregate(self, per_thread: list[KernelCost]) -> MachineResult:
        agg_cache = CacheStats()
        work = 0
        streamed = 0
        visits = 0
        makespan = 0.0
        for tc in per_thread:
            agg_cache = agg_cache + tc.cache
            work += tc.work
            streamed += tc.streamed_bytes
            visits += tc.b_row_visits
            makespan = max(makespan, tc.time)
        return MachineResult(KernelCost(makespan, work, agg_cache, streamed, self.line_bytes, visits), per_thread)

    # ------------------------------------------------------------------
    def run_rowwise(self, A: CSRMatrix, B: CSRMatrix, *, out_nnz: int | None = None) -> MachineResult:
        """Simulate row-wise Gustavson ``A @ B``.

        ``out_nnz`` (optional, permutation-invariant) adds the streaming
        write traffic of ``C``; the experiment runner computes it once per
        (matrix, workload) pair and reuses it across all configurations.
        """
        layout = BLayout.of(B, line_bytes=self.line_bytes)
        b_lens = np.diff(B.indptr)
        a_lens = np.diff(A.indptr)
        # Per-row work: flops of each A row.
        row_flops = np.zeros(A.nrows, dtype=np.int64)
        if A.nnz:
            row_of = np.repeat(np.arange(A.nrows, dtype=np.int64), a_lens)
            np.add.at(row_flops, row_of, b_lens[A.indices])
        # Balance chunks by modelled per-row time (flops alone degenerates
        # when B is tiny — e.g. late BFS frontiers — leaving visits-heavy
        # chunks wildly imbalanced, which OpenMP scheduling would fix).
        row_weight = self.cost.alpha_rowwise * row_flops + self.cost.gamma_brow * a_lens
        chunks = balanced_contiguous_partition(row_weight, self.n_threads)
        out_bytes_per_row = self._c_bytes_per_row(out_nnz, row_flops)
        per_thread = []
        for rows in chunks:
            trace = rowwise_b_trace(A, layout, rows=rows)
            work = int(row_flops[rows].sum())
            streamed = int(a_lens[rows].sum()) * ENTRY_BYTES + int(out_bytes_per_row[rows].sum())
            visits = int(a_lens[rows].sum())  # row-wise opens a B row per A entry
            per_thread.append(self._thread_cost(trace, work, streamed, visits, "rowwise"))
        return self._aggregate(per_thread)

    def run_clusterwise(self, Ac: CSRCluster, B: CSRMatrix, *, out_nnz: int | None = None) -> MachineResult:
        """Simulate cluster-wise ``Ac @ B`` (paper Alg. 1)."""
        layout = BLayout.of(B, line_bytes=self.line_bytes)
        b_lens = np.diff(B.indptr)
        sizes = Ac.cluster_sizes()
        # Per-cluster padded work = size_c * Σ nnz(B row k) over distinct cols.
        ncl = Ac.nclusters
        cluster_flops = np.zeros(ncl, dtype=np.int64)
        if Ac.cols.size:
            col_of_cluster = np.repeat(np.arange(ncl, dtype=np.int64), np.diff(Ac.col_ptr))
            np.add.at(cluster_flops, col_of_cluster, b_lens[Ac.cols])
            cluster_flops *= sizes
        cluster_weight = self.cost.alpha_cluster * cluster_flops + self.cost.gamma_brow * np.diff(Ac.col_ptr)
        chunks = balanced_contiguous_partition(cluster_weight, self.n_threads)
        slot_counts = np.diff(Ac.val_ptr)
        col_counts = np.diff(Ac.col_ptr)
        out_nnz_total = out_nnz if out_nnz is not None else 0
        total_work = max(1, int(cluster_flops.sum()))
        per_thread = []
        for cl in chunks:
            trace = clusterwise_b_trace(Ac, layout, clusters=cl)
            work = int(cluster_flops[cl].sum())
            # Streaming: the cluster's own storage (col ids + padded value
            # fibers) read once, plus a proportional share of C writes.
            fmt_bytes = int(slot_counts[cl].sum()) * 8 + int(col_counts[cl].sum()) * 4
            c_share = int(out_nnz_total * ENTRY_BYTES * (work / total_work))
            visits = int(col_counts[cl].sum())  # one B-row open per (cluster, col)
            per_thread.append(self._thread_cost(trace, work, fmt_bytes + c_share, visits, "cluster"))
        return self._aggregate(per_thread)

    # ------------------------------------------------------------------
    @staticmethod
    def _c_bytes_per_row(out_nnz: int | None, row_flops: np.ndarray) -> np.ndarray:
        """Apportion C's write traffic to rows proportionally to flops.

        The exact per-row output size would need a symbolic pass per
        configuration; proportional attribution keeps the (permutation-
        invariant) total right, which is all the aggregate model uses.
        """
        if out_nnz is None or row_flops.sum() == 0:
            return np.zeros(row_flops.size, dtype=np.int64)
        share = row_flops.astype(np.float64) / float(row_flops.sum())
        return (share * out_nnz * ENTRY_BYTES).astype(np.int64)


def amortization_iterations(pre_time: float, baseline_time: float, optimized_time: float) -> float:
    """SpGEMM runs needed to amortise preprocessing (paper Fig. 10).

    Returns ``inf`` when the optimisation does not improve the kernel.
    """
    gain = baseline_time - optimized_time
    if gain <= 0:
        return float("inf")
    return pre_time / gain
