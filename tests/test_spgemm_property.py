"""Property-based tests for the SpGEMM kernels (hypothesis).

Core invariants exercised on random inputs:

* row-wise output matches the scipy oracle for every accumulator,
* cluster-wise matches row-wise for *arbitrary* row partitions,
* the symbolic phase agrees with the numeric pattern,
* the per-row workload pre-pass matches a brute-force count,
* permutation equivariance: ``(PAPᵀ)(PBQ?) = P(AB)…`` for our modes.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import random_partition, square_csr
from repro.core import (
    CSRCluster,
    cluster_spgemm,
    row_workloads,
    spgemm_rowwise,
    spgemm_symbolic,
)


@given(square_csr())
@settings(max_examples=30, deadline=None)
def test_row_workloads_match_bruteforce(A):
    flops, ub = row_workloads(A, A)
    b_lens = np.diff(A.indptr)
    for i in range(A.nrows):
        expect = int(sum(b_lens[j] for j in A.row_cols(i)))
        assert flops[i] == expect
        assert ub[i] == min(expect, A.ncols)


@given(square_csr(), st.sampled_from(["sort", "dense", "hash"]))
@settings(max_examples=40, deadline=None)
def test_rowwise_matches_dense_oracle(A, acc):
    C = spgemm_rowwise(A, A, accumulator=acc)
    ref = A.to_dense() @ A.to_dense()
    assert np.allclose(C.to_dense(), ref, atol=1e-9)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_clusterwise_equals_rowwise_any_partition(data):
    A = data.draw(square_csr())
    clusters = data.draw(random_partition(A.nrows))
    Ac = CSRCluster.from_clusters(A, clusters)
    C = cluster_spgemm(Ac, A, restore_order=True)
    assert C.allclose(spgemm_rowwise(A, A))


@given(square_csr())
@settings(max_examples=40, deadline=None)
def test_symbolic_equals_numeric_pattern(A):
    counts = spgemm_symbolic(A, A)
    C = spgemm_rowwise(A, A)
    assert np.array_equal(counts, np.diff(C.indptr))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_symmetric_permutation_equivariance(data):
    A = data.draw(square_csr())
    seed = data.draw(st.integers(0, 2**31 - 1))
    perm = np.random.default_rng(seed).permutation(A.nrows)
    C = spgemm_rowwise(A, A)
    Ap = A.permute_symmetric(perm)
    Cp = spgemm_rowwise(Ap, Ap)
    assert Cp.allclose(C.permute_symmetric(perm))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_cluster_memory_at_least_shared_colids(data):
    """CSR_Cluster stores ≥ nnz value slots and ≤ nnz column ids."""
    A = data.draw(square_csr())
    clusters = data.draw(random_partition(A.nrows))
    Ac = CSRCluster.from_clusters(A, clusters)
    assert Ac.padded_slots >= A.nnz
    assert Ac.cols.size <= A.nnz or A.nnz == 0
