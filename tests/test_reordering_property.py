"""Property-based tests on reordering invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import square_csr
from repro.core import spgemm_rowwise
from repro.pipeline import available_components
from repro.reordering import apply_permutation, bandwidth, reorder
from repro.reordering.simple import _gray_decode


def small_square():
    """Structure-only square operands (shared strategy, unit values)."""
    return square_csr(max_n=16, max_nnz=48, unit_values=True)


@given(small_square(), st.sampled_from(sorted(set(available_components("reordering")) - {"original"})))
@settings(max_examples=60, deadline=None)
def test_every_algorithm_yields_permutation(A, algo):
    res = reorder(A, algo, seed=0)
    assert sorted(res.perm.tolist()) == list(range(A.nrows))


@given(small_square(), st.sampled_from(["rcm", "gp", "degree", "rabbit"]))
@settings(max_examples=30, deadline=None)
def test_reordered_square_is_permutation_equivalent(A, algo):
    """(PAPᵀ)² must equal P·A²·Pᵀ for every produced permutation."""
    res = reorder(A, algo, seed=1)
    Ar = apply_permutation(A, res.perm)
    C = spgemm_rowwise(A, A)
    Cr = spgemm_rowwise(Ar, Ar)
    assert Cr.allclose(C.permute_symmetric(res.perm))


@given(small_square())
@settings(max_examples=30, deadline=None)
def test_bandwidth_invariants(A):
    bw = bandwidth(A)
    assert 0 <= bw < A.nrows
    # Reversal preserves bandwidth (|i-j| symmetric under reversal).
    rev = A.permute_symmetric(np.arange(A.nrows)[::-1].copy())
    assert bandwidth(rev) == bw


@given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_gray_decode_is_bijective_involution_property(xs):
    """Gray decode inverts Gray encode (b ^ (b >> 1))."""
    b = np.array(xs, dtype=np.uint64)
    g = b ^ (b >> np.uint64(1))
    assert np.array_equal(_gray_decode(g), b)


@given(small_square())
@settings(max_examples=20, deadline=None)
def test_preprocessing_work_nonnegative_all_algorithms(A):
    for algo in available_components("reordering"):
        assert reorder(A, algo).work >= 0
