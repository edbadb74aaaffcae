"""Shared fixtures, builders and hypothesis strategies for the test-suite.

The ad-hoc random-CSR/COO generators and bitwise assertion helpers that
used to be copy-pasted across ``test_*.py`` live here once, seeded and
shape-parameterised:

* :func:`random_csr` — scipy-backed random rectangular CSR;
* :func:`square_csr` / :func:`coo_matrices` / :func:`permutations` /
  :func:`random_partition` — hypothesis strategies for property tests;
* :func:`scrambled_blocks_matrix` — the "hidden block structure"
  operand the engine/pipeline suites use as a gainful planning target;
* :func:`assert_bitwise_equal` — the bitwise (not allclose) oracle
  comparison backing the engine's correctness contract;
* ``fig1`` — the paper's 6×6 worked example.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import strategies as st

from repro.core import COOMatrix, CSRMatrix


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running end-to-end test (e.g. an example script)")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# ----------------------------------------------------------------------
# Deterministic builders
# ----------------------------------------------------------------------
def random_csr(n: int, m: int, density: float, seed: int) -> CSRMatrix:
    """Random CSR via scipy (the test oracle's own generator)."""
    mat = sp.random(n, m, density=density, random_state=seed, format="csr")
    mat.data[:] = np.random.default_rng(seed).uniform(0.5, 1.5, size=mat.nnz)
    return CSRMatrix.from_scipy(mat)


def scrambled_blocks_matrix(
    nblocks: int = 24,
    bsize: int = 16,
    *,
    density: float = 0.5,
    coupling: float = 0.0,
    seed: int = 1,
    scramble_seed: int = 7,
) -> CSRMatrix:
    """A block-diagonal matrix under a hidden symmetric permutation.

    The canonical "reordering + clustering should win here" operand:
    scrambling destroys the natural block locality that a good plan
    recovers (paper Figs. 2–3's scrambled regime).
    """
    from repro.matrices import generators as G
    from repro.matrices.perturb import scramble

    A = G.block_diagonal(nblocks, bsize, density=density, coupling=coupling, seed=seed)
    return scramble(A, seed=scramble_seed)


def paper_fig1_matrix() -> CSRMatrix:
    """The 6×6 worked example of paper Figs. 1/4/5/6.

    Rows: {0,1,2}, {1,2,5}, {0,1,5}, {3,4,5}, {2,4,5}, {0,3} — its CSR
    arrays are printed in paper Fig. 4.
    """
    rows = [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5]
    cols = [0, 1, 2, 1, 2, 5, 0, 1, 5, 3, 4, 5, 2, 4, 5, 0, 3]
    vals = np.arange(1.0, len(rows) + 1.0)
    return CSRMatrix.from_coo(COOMatrix(np.array(rows), np.array(cols), vals, (6, 6)))


@pytest.fixture
def fig1():
    return paper_fig1_matrix()


@pytest.fixture(scope="session")
def gainful_matrix():
    """A scrambled block matrix where clustering beats the baseline."""
    return scrambled_blocks_matrix(24, 16)


# ----------------------------------------------------------------------
# Assertions
# ----------------------------------------------------------------------
def assert_bitwise_equal(C, ref):
    """The engine/pipeline bitwise contract: identical pattern *and*
    bit-identical values (``array_equal``, never ``allclose``)."""
    assert C.shape == ref.shape
    assert np.array_equal(C.indptr, ref.indptr)
    assert np.array_equal(C.indices, ref.indices)
    assert np.array_equal(C.values, ref.values)  # bitwise, not allclose


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
@st.composite
def square_csr(draw, max_n=14, max_nnz=50, value_range=4.0, unit_values=False):
    """Random square CSR: duplicate-summed COO of up to ``max_nnz``
    entries.  ``unit_values=True`` draws structure only (all-ones
    values), for properties where numerics are irrelevant."""
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(0, max_nnz))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    cols = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    if unit_values:
        vals = np.ones(k)
    else:
        vals = np.array(
            draw(st.lists(st.floats(-value_range, value_range, allow_nan=False), min_size=k, max_size=k))
        )
    return CSRMatrix.from_coo(
        COOMatrix(np.array(rows, np.int64), np.array(cols, np.int64), vals, (n, n))
    )


@st.composite
def coo_matrices(draw, max_n=12, max_nnz=40):
    """Random rectangular COO (possibly with duplicate coordinates)."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_n))
    k = draw(st.integers(0, max_nnz))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    cols = draw(st.lists(st.integers(0, m - 1), min_size=k, max_size=k))
    vals = draw(st.lists(st.floats(-10, 10, allow_nan=False), min_size=k, max_size=k))
    return COOMatrix(np.array(rows, np.int64), np.array(cols, np.int64), np.array(vals), (n, m))


@st.composite
def permutations(draw, n):
    seed = draw(st.integers(0, 2**31 - 1))
    return np.random.default_rng(seed).permutation(n)


@st.composite
def random_partition(draw, n):
    """A random ordered partition of range(n) into clusters."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    ncuts = draw(st.integers(0, max(0, n - 1)))
    cuts = np.sort(rng.choice(np.arange(1, n), size=min(ncuts, n - 1), replace=False)) if n > 1 else []
    return [np.array(c) for c in np.split(order, cuts)]
