"""Hierarchical clustering for SpGEMM — paper Algorithm 3 (§3.3).

The paper's central contribution: find similar rows *anywhere* in the
matrix (not just consecutive ones) cheaply, and merge them greedily.

Pipeline (paper Alg. 3):

1. Candidate generation: one binarised ``SpGEMM(A, Aᵀ)`` retaining the
   top-K Jaccard-scored pairs per row (:func:`spgemm_topk_similarity`),
   where ``K = max_cluster_th − 1``.
2. A max-heap of candidate pairs ordered by Jaccard score.
3. Greedy union-find merging: pop the best pair ``(i, j)``; when both are
   cluster representatives, merge (size-capped).  Otherwise re-resolve to
   the current representatives ``(Find(i), Find(j))`` and, if that pair is
   unseen, score it directly and (above threshold) push it back — the lazy
   re-evaluation of Alg. 3 lines 12-21.
4. The resulting clusters feed :class:`CSRCluster` directly (no separate
   reorder-then-rescan as in prior work [32]).

Work accounting: the ``A·Aᵀ`` candidate work plus every heap operation
(log cost) and every lazy Jaccard re-evaluation.  This is the
"preprocessing below 20 SpGEMMs on 90% of inputs" the paper claims.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from ..core.csr import CSRMatrix
from ..core.topk import spgemm_topk_similarity
from .base import Clustering, register_clustering
from .unionfind import UnionFind
from .variable import jaccard_sorted

__all__ = ["hierarchical_clustering"]


@register_clustering("hierarchical", embeds_reordering=True)
def hierarchical_clustering(
    A: CSRMatrix,
    *,
    jacc_th: float = 0.3,
    max_cluster_th: int = 8,
    column_cap: int = 256,
) -> Clustering:
    """Build hierarchical clusters of ``A`` (paper Alg. 3).

    Parameters
    ----------
    A:
        Canonical CSR matrix (values irrelevant — candidates use the
        binarised pattern).
    jacc_th:
        Similarity threshold for candidate admission (paper: 0.3).
    max_cluster_th:
        Cluster size cap; also sets candidate top-K to ``max_cluster_th-1``
        (paper Alg. 3 line 2; paper uses 8).
    column_cap:
        Hub-column cap forwarded to candidate generation (see
        :mod:`repro.core.topk`).

    Returns
    -------
    Clustering
        Ordered clusters; ordering groups merged rows together, which is
        the method's "inherent" reordering (paper §3.4).
    """
    n = A.nrows
    topk = max(1, max_cluster_th - 1)
    candidates = spgemm_topk_similarity(A, topk=topk, jacc_th=jacc_th, column_cap=column_cap)
    work = candidates.work

    # Max-heap via negated scores.  Ties are broken by |i − j|: among
    # equally-similar candidates (ubiquitous on stencil matrices, where
    # every face neighbour scores the same) merging *nearby* rows first
    # preserves the streaming locality of the surrounding order instead
    # of shredding it — a quality heuristic on top of paper Alg. 3.
    heap: list[tuple[float, int, int, int]] = [
        (-s, int(j) - int(i), int(i), int(j))
        for s, i, j in zip(candidates.scores.tolist(), candidates.rows_i.tolist(), candidates.rows_j.tolist())
    ]
    heapq.heapify(heap)
    seen: set[tuple[int, int]] = candidates.as_set()
    uf = UnionFind(n, max_size=max_cluster_th)
    log_n = max(1, int(math.log2(max(2, n))))

    while heap:
        neg_s, _dist, i, j = heapq.heappop(heap)
        work += log_n  # heap pop
        ri, rj = uf.find(i), uf.find(j)
        if ri == rj:
            continue
        if i == ri and j == rj:
            # Both are current representatives — merge (Alg. 3 line 11).
            uf.union(ri, rj)
            continue
        # Stale pair: lazily re-evaluate its representatives (lines 13-20).
        a, b = (ri, rj) if ri < rj else (rj, ri)
        if (a, b) in seen:
            continue
        seen.add((a, b))
        cols_a, cols_b = A.row_cols(a), A.row_cols(b)
        work += int(cols_a.size + cols_b.size)
        score = jaccard_sorted(cols_a, cols_b)
        if score > jacc_th:
            heapq.heappush(heap, (-score, b - a, a, b))
            work += log_n

    clusters = uf.groups()
    return Clustering(
        clusters=clusters,
        method="hierarchical",
        nrows=n,
        work=work,
        params={
            "jacc_th": jacc_th,
            "max_cluster_th": max_cluster_th,
            "column_cap": column_cap,
            "candidates": len(candidates),
        },
    )
