"""Property coverage for the backend axis: every registry-compatible
(pipeline, backend) pair agrees with ``reference`` — bitwise when the
backend claims it, allclose on the identical sparsity pattern otherwise
(scipy)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.core import CSRMatrix, spgemm_rowwise
from repro.core.cluster_spgemm import cluster_spgemm
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


def test_backend_axis_enumerates_every_compatible_pair():
    triples = {(s.reordering, s.clustering, s.kernel) for s in ALL_PAIRS}
    for spec in enumerate_compatible(square=True, reorderings=REORDERINGS):
        assert (spec.reordering, spec.clustering, spec.kernel) in triples
    # Every non-reference backend appears, restricted to kernels it supports.
    by_backend = {}
    for s in ALL_PAIRS:
        by_backend.setdefault(s.backend, set()).add(s.kernel)
    assert by_backend["vectorized"] == {"cluster", "rowwise", "hybrid"}
    assert by_backend["scipy"] == by_backend["reference"]  # scipy accepts every kernel


@pytest.mark.parametrize("matname", sorted(MATRICES))
@pytest.mark.parametrize("spec", ALL_PAIRS, ids=str)
def test_every_backend_pair_matches_reference(matname, spec):
    A = MATRICES[matname]
    ref = spgemm_rowwise(A, A)
    C = spec.run(A)
    assert C.same_pattern(ref), f"{spec}: pattern differs from reference"
    if get_backend(spec.backend, spec.backend_params).bitwise_reference:
        assert np.array_equal(C.values, ref.values), f"{spec}: bitwise contract violated"
    else:
        assert C.allclose(ref), f"{spec}: values not allclose"


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    density=st.floats(min_value=0.02, max_value=0.35),
    size=st.integers(min_value=1, max_value=7),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_vectorized_numeric_phase_is_bitwise_on_random_clusterings(n, density, size, seed):
    """The numpy-batched numeric phase replays the reference kernel's
    addition order exactly, for arbitrary patterns and cluster shapes."""
    from repro.backends import vectorized_cluster_spgemm
    from repro.clustering import get_clustering

    rng = np.random.default_rng(seed)
    dense = rng.random((n, n)) * (rng.random((n, n)) < density)
    A = CSRMatrix.from_dense(dense)
    Ac = get_clustering("fixed")(A, cluster_size=size).to_csr_cluster(A)
    want = cluster_spgemm(Ac, A, restore_order=True)
    got = vectorized_cluster_spgemm(Ac, A, restore_order=True)
    assert got.same_pattern(want)
    assert np.array_equal(got.values, want.values)
