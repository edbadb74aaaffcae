"""Property coverage for the one result contract: every
registry-compatible (pipeline, backend) pair, and the default engine
over signed special values, equals row-wise SpGEMM bitwise once
exact-zero sums are dropped, NaNs matched by position
(:func:`conftest.assert_contract_equal`)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_contract_equal
from repro.core import COOMatrix, CSRMatrix, spgemm_rowwise
from repro.engine import SpGEMMEngine
from repro.matrices import generators as G
from repro.pipeline import available_components, enumerate_compatible

#: Keep the exhaustive pairing affordable: two reordering families are
#: enough to cover permuted + natural operands (test_pipeline_exec
#: already sweeps every reordering on the reference backend).
REORDERINGS = ("original", "rcm")

#: Three structure classes: a web graph, a banded matrix and an R-MAT
#: power-law graph — the only one with empty rows and a hub row
#: (12 empty rows, 71 entries in the densest).
MATRICES = {
    "web": G.web_graph(180, seed=7),
    "banded": G.banded_random(160, bandwidth=6, fill=0.5, seed=7),
    "powerlaw": G.rmat(7, seed=7),
}

ALL_PAIRS = enumerate_compatible(
    square=True, reorderings=REORDERINGS, backends=available_components("backend")
)

#: Signed values whose products and sums cancel to ±0.0, overflow to
#: ±inf and meet inf - inf or inf * 0 (NaN).
SPECIAL_VALUES = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, np.inf, -np.inf, np.nan)


def test_backend_axis_enumerates_every_compatible_pair():
    triples = {(s.reordering, s.clustering, s.kernel) for s in ALL_PAIRS}
    for spec in enumerate_compatible(square=True, reorderings=REORDERINGS):
        assert (spec.reordering, spec.clustering, spec.kernel) in triples
    # Every backend appears with every kernel.
    by_backend = {}
    for s in ALL_PAIRS:
        by_backend.setdefault(s.backend, set()).add(s.kernel)
    assert set(by_backend) == set(available_components("backend"))
    assert by_backend["scipy"] == by_backend["reference"]


@pytest.mark.parametrize("matname", sorted(MATRICES))
@pytest.mark.parametrize("spec", ALL_PAIRS, ids=str)
def test_every_backend_pair_matches_reference(matname, spec):
    A = MATRICES[matname]
    assert_contract_equal(spec.run(A), spgemm_rowwise(A, A))


@st.composite
def special_csr(draw, nrows, ncols, max_nnz=40):
    """CSR with distinct coordinates and values drawn from
    :data:`SPECIAL_VALUES` (stored zeros included)."""
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)),
            max_size=max_nnz,
            unique=True,
        )
    )
    vals = draw(st.lists(st.sampled_from(SPECIAL_VALUES), min_size=len(cells), max_size=len(cells)))
    rows = np.array([r for r, _ in cells], dtype=np.int64)
    cols = np.array([c for _, c in cells], dtype=np.int64)
    return CSRMatrix.from_coo(COOMatrix(rows, cols, np.array(vals, dtype=float), (nrows, ncols)))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf, inf * 0
@pytest.mark.parametrize("pipeline", [None, "rcm@scipy"], ids=["default", "rcm"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_default_engine_meets_the_contract_on_special_values(pipeline, data):
    n = data.draw(st.integers(1, 12), label="n")
    A = data.draw(special_csr(n, n), label="A")
    m = data.draw(st.integers(1, 12), label="m")
    Bs = [data.draw(special_csr(n, m), label=f"B{i}") for i in range(2)]
    eng = SpGEMMEngine(pipeline=pipeline)
    assert eng.plan_for(A).spec.backend == "scipy"
    ref = spgemm_rowwise(A, A)
    for _ in range(3):  # cold, then warm (recorded and numeric-only) squares
        assert_contract_equal(eng.multiply(A), ref)
    for C, B in zip(eng.multiply_many(A, Bs), Bs):
        assert_contract_equal(C, spgemm_rowwise(A, B))
    # Each step of the chain is one product under the contract.
    want = A
    for _ in range(2):
        want = spgemm_rowwise(A, want).drop_explicit_zeros()
    assert_contract_equal(eng.power(A, 3), want)


#: Value families for the accumulator cross-check: exact cancellation to
#: ±0.0, infinities meeting finite values (and inf - inf), NaN operands,
#: products that overflow to ±inf, and inexact values whose rounded sums
#: change with the order of addition.
VALUE_FAMILIES = {
    "signed_halves": (0.0, -0.0, 0.5, -0.5, 1.0, -1.0),
    "infinities": (np.inf, -np.inf, 1.0, -1.0, 0.5, -0.5, 0.0, -0.0),
    "nan": (np.nan, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0, -0.0),
    "huge": (1e308, -1e308, 1.0, -0.5),
    "inexact": (0.1, -0.3, 1 / 3, -1e-17, 1e16, 7.0),
}


def _with_values(A, family, seed):
    rng = np.random.default_rng(seed)
    vals = rng.choice(np.array(VALUE_FAMILIES[family]), size=A.nnz)
    return CSRMatrix(A.indptr.copy(), A.indices.copy(), vals, A.shape)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf, inf * 0
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # 1e308 * 1e308
@pytest.mark.parametrize("matname", sorted(MATRICES))
@pytest.mark.parametrize("accumulator", ["sort", "dense", "hash"])
@pytest.mark.parametrize("family", sorted(VALUE_FAMILIES))
def test_default_engine_matches_every_rowwise_accumulator(family, accumulator, matname):
    """The three accumulators add each entry's products in one order, the
    order of A's stored row entries, so the default (scipy) engine meets
    the contract against each of them on the suite's structure classes."""
    A = _with_values(MATRICES[matname], family, seed=len(family))
    eng = SpGEMMEngine()
    assert eng.plan_for(A).spec.backend == "scipy"
    assert_contract_equal(eng.multiply(A), spgemm_rowwise(A, A, accumulator=accumulator))


SCIPY_PIPELINES = [s for s in ALL_PAIRS if s.backend == "scipy"]


@pytest.mark.parametrize("spec", SCIPY_PIPELINES, ids=str)
def test_every_scipy_pipeline_meets_the_contract_in_a_batch(spec):
    """``multiply_many`` with a fixed scipy pipeline: one plan of ``A``
    (reordered and clustered as the spec says) against tall-skinny
    operands, each product under the contract."""
    A = MATRICES["powerlaw"]
    rng = np.random.default_rng(11)
    Bs = [
        CSRMatrix.from_dense(np.where(rng.random((A.ncols, 9)) < 0.2, rng.standard_normal((A.ncols, 9)), 0.0))
        for _ in range(3)
    ]
    eng = SpGEMMEngine(pipeline=spec)
    assert eng.plan_for(A).spec.backend == "scipy"
    for C, B in zip(eng.multiply_many(A, Bs), Bs):
        assert_contract_equal(C, spgemm_rowwise(A, B))
