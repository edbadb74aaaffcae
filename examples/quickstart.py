"""Quickstart: the paper's worked example, end to end.

Reproduces, executably, the schematic figures of the paper:

* Fig. 1/4 — the 6×6 example matrix and its CSR arrays,
* Fig. 5(b) — variable-length clustering (Alg. 2) with the §3.2 Jaccard
  walk-through,
* Fig. 6 — the CSR_Cluster layout for fixed and variable clusters,
* Fig. 7 — similar-row discovery via binarised A·Aᵀ (Alg. 3's input),

then runs every SpGEMM variant, shows the declarative pipeline-spec API
naming whole configurations (including the ``@backend`` execution axis:
scipy and reference executors behind one result contract), and shows
hierarchical clustering speeding up a scrambled block matrix on the
simulated machine.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    COOMatrix,
    CSRMatrix,
    PipelineSpec,
    cluster_spgemm,
    spgemm_rowwise,
    spgemm_topk_similarity,
)
from repro.clustering import hierarchical_clustering, variable_length_clustering
from repro.core import CSRCluster
from repro.machine import SimulatedMachine
from repro.matrices import generators as G, scramble


def paper_matrix() -> CSRMatrix:
    rows = [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5]
    cols = [0, 1, 2, 1, 2, 5, 0, 1, 5, 3, 4, 5, 2, 4, 5, 0, 3]
    return CSRMatrix.from_coo(
        COOMatrix(np.array(rows), np.array(cols), np.ones(len(rows)), (6, 6))
    )


def main() -> None:
    A = paper_matrix()
    print("=== Paper Fig. 4: CSR arrays of the example matrix ===")
    print("row-ptrs:", A.indptr.tolist())
    print("col-id:  ", A.indices.tolist())

    print("\n=== Paper Fig. 5(b) / §3.2: variable-length clustering (Alg. 2) ===")
    for i in range(1, 6):
        print(f"  J(row {i - 1 if i in (1, 2, 3) else 3}, row {i}) demo:", end=" ")
        print(f"J(0,{i}) = {A.jaccard_similarity(0, i):.2f}")
    vc = variable_length_clustering(A, jacc_th=0.3, max_cluster_th=8)
    print("clusters:", [c.tolist() for c in vc.clusters], "(paper: [0,1,2], [3,4], [5])")

    print("\n=== Paper Fig. 6: CSR_Cluster layouts ===")
    fixed = CSRCluster.from_clusters(A, [np.arange(0, 3), np.arange(3, 6)], fixed_size=3)
    print("fixed-length   col-id:", fixed.cols.tolist(), " cluster-ptrs:", fixed.col_ptr.tolist())
    print(f"               {fixed.nnz} structural values in {fixed.padded_slots} padded slots")
    var = vc.to_csr_cluster(A)
    print("variable       col-id:", var.cols.tolist(), " cluster-sz:", var.cluster_sizes().tolist())

    print("\n=== Paper Fig. 7: similar rows via binarised A·Aᵀ (Alg. 3 input) ===")
    cand = spgemm_topk_similarity(A, topk=7, jacc_th=0.2)
    for i, j, s in zip(cand.rows_i, cand.rows_j, cand.scores):
        print(f"  rows ({i},{j}): Jaccard {s:.2f}")

    print("\n=== All SpGEMM variants agree ===")
    C_row = spgemm_rowwise(A, A, accumulator="hash")
    C_cluster = cluster_spgemm(var, A, restore_order=True)
    print("row-wise (hash SPA) == cluster-wise:", C_row.allclose(C_cluster))

    print("\n=== Pipeline specs: one string names a whole configuration ===")
    C_ref = spgemm_rowwise(A, A)
    for text in ("rcm+variable+cluster", "rcm+hierarchical:max_th=8+cluster", "degree+tiled:tile_cols=3"):
        spec = PipelineSpec.parse(text)
        C = spec.run(A)  # bitwise-identical to spgemm_rowwise(A, A)
        ok = np.array_equal(C.values, C_ref.values)
        print(f"  {text:38s} -> {spec}   bitwise vs row-wise: {ok}")

    print("\n=== Execution backends: '@' picks how the pipeline runs ===")
    # One contract: bitwise-equal to row-wise once exact-zero sums are dropped.
    want = C_ref.drop_explicit_zeros()
    for text in (
        "rcm+variable+rowwise@scipy",            # native matmul over the cluster order
        "rcm+variable+cluster@reference",        # the pure-python oracle (a spec's default)
    ):
        C = PipelineSpec.parse(text).run(A).drop_explicit_zeros()
        same = C.same_pattern(want) and np.array_equal(C.values, want.values)
        print(f"  {text:42s} bitwise vs row-wise (exact zeros dropped): {same}")

    print("\n=== Hierarchical clustering on a scrambled block matrix ===")
    big = scramble(G.block_diagonal(24, 16, density=0.5, seed=1), seed=7)
    machine = SimulatedMachine(n_threads=8, cache_lines=512)
    base = machine.run_rowwise(big, big)
    hc = hierarchical_clustering(big)
    opt = machine.run_clusterwise(hc.to_csr_cluster(big), big)
    print(f"matrix: n={big.nrows}, nnz={big.nnz}; clusters: {hc.nclusters}")
    print(f"row-wise model time:     {base.time:,.0f}")
    print(f"cluster-wise model time: {opt.time:,.0f}")
    print(f"speedup: {base.time / opt.time:.2f}x  (paper: 1.39x geomean, up to 4.68x)")


if __name__ == "__main__":
    main()
