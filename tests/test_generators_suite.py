"""Matrix generator and suite registry tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_bitwise_equal, square_csr
from repro.core import CSRMatrix, is_canonical, spgemm_rowwise
from repro.engine import SpGEMMEngine, fingerprint
from repro.experiments import ExperimentConfig
from repro.matrices import (
    REPRESENTATIVE,
    SUITE,
    TALLSKINNY,
    generators as G,
    get_entry,
    get_matrix,
    perturb_values,
    scramble,
    scramble_partial,
    suite_names,
)


class TestGenerators:
    def test_grid2d_5pt_structure(self):
        A = G.grid2d(4, 3, stencil=5, seed=0)
        assert A.shape == (12, 12)
        # Interior vertex has 4 neighbours + diagonal = 5 entries.
        assert int(A.row_nnz().max()) == 5

    def test_grid2d_9pt_has_diagonal_links(self):
        A = G.grid2d(5, 5, stencil=9, seed=0)
        assert int(A.row_nnz().max()) == 9

    def test_grid2d_rejects_bad_stencil(self):
        with pytest.raises(ValueError, match="stencil"):
            G.grid2d(3, 3, stencil=7)

    def test_grid3d_stencils(self):
        A7 = G.grid3d(4, 4, 4, stencil=7)
        A27 = G.grid3d(4, 4, 4, stencil=27)
        assert int(A7.row_nnz().max()) == 7
        assert int(A27.row_nnz().max()) == 27
        with pytest.raises(ValueError, match="stencil"):
            G.grid3d(3, 3, 3, stencil=9)

    def test_symmetric_families_are_symmetric(self):
        for A in [
            G.grid2d(5, 4),
            G.grid3d(3, 3, 3),
            G.banded_random(60, bandwidth=5, seed=1),
            G.block_diagonal(4, 8, seed=1),
            G.rmat(6, edge_factor=4, seed=1),
            G.erdos_renyi(50, avg_degree=4, seed=1),
            G.road_network(49, seed=1),
        ]:
            d = A.to_dense()
            assert np.array_equal(d != 0, (d != 0).T)

    def test_citation_graph_is_strictly_lower_triangular(self):
        A = G.citation_graph(100, seed=2)
        row_of = np.repeat(np.arange(A.nrows), A.row_nnz())
        assert np.all(A.indices < row_of)

    def test_web_graph_host_template_similarity(self):
        """Pages of one host must be highly similar (the generator's point)."""
        A = G.web_graph(300, seed=3)
        sims = [A.jaccard_similarity(i, i + 1) for i in range(0, 60)]
        assert np.mean(sims) > 0.25

    def test_banded_group_rows_nearly_identical(self):
        A = G.banded_random(80, bandwidth=8, group=4, seed=4)
        # Rows 0..3 share one pattern (plus their own diagonal entries).
        assert A.jaccard_similarity(0, 1) > 0.5

    def test_qcd_site_dofs_identical_patterns(self):
        A = G.qcd_lattice(3, dofs=2, seed=5)
        assert A.jaccard_similarity(0, 1) == 1.0  # same site, same couplings

    def test_kkt_saddle_structure(self):
        A = G.kkt_system(10, 20, seed=6)
        assert A.shape == (30, 30)
        d = A.to_dense()
        assert d[20:, 20:].sum() == 0.0  # zero (2,2) block

    def test_rmat_power_law_skew(self):
        A = G.rmat(9, edge_factor=8, seed=7)
        deg = A.row_nnz()
        assert deg.max() > 8 * deg.mean() / 4  # heavy tail exists

    def test_all_generators_canonical(self):
        for A in [G.triangular_mesh(8, 6), G.cage_like(100), G.web_graph(120)]:
            assert is_canonical(A)


class TestPerturb:
    def test_scramble_preserves_nnz_and_values(self):
        A = G.grid2d(6, 6)
        S = scramble(A, seed=1)
        assert S.nnz == A.nnz
        assert np.allclose(np.sort(S.values), np.sort(A.values))

    def test_scramble_partial_fraction_zero_is_identity(self):
        A = G.grid2d(5, 5)
        S = scramble_partial(A, fraction=0.0, seed=1)
        assert S.allclose(A)

    def test_scramble_partial_rejects_bad_fraction(self):
        with pytest.raises(ValueError, match="fraction"):
            scramble_partial(G.grid2d(3, 3), fraction=1.5)


def _coords(A: CSRMatrix) -> np.ndarray:
    rows = np.repeat(np.arange(A.nrows, dtype=np.int64), np.diff(A.indptr))
    return rows * A.ncols + A.indices


def check_dropout(A: CSRMatrix, *, dropout: float, seed: int, scale: float = 0.1) -> CSRMatrix:
    """Assert what ``perturb_values(dropout=)`` promises and return it:
    a valid CSR on A's shape whose entries are a subset of A's pattern,
    carrying exactly the values the ``dropout=0`` call gives them."""
    B = perturb_values(A, scale=scale, seed=seed, dropout=dropout)
    assert B.shape == A.shape
    CSRMatrix(B.indptr, B.indices, B.values, B.shape)  # validates
    kept = np.isin(_coords(A), _coords(B))
    assert int(kept.sum()) == B.nnz  # no entry outside A's pattern
    assert is_canonical(B) == is_canonical(A)
    # Factors are drawn before the dropout mask, so the kept values are
    # the jittered values of the same seed without dropout.
    full = perturb_values(A, scale=scale, seed=seed)
    assert np.array_equal(B.values, full.values[kept])
    return B


class TestPerturbValuesDropout:
    MATRICES = {
        "grid2d": lambda: G.grid2d(12, 12, seed=1),
        "web_graph": lambda: G.web_graph(300, seed=2),
        "rmat": lambda: G.rmat(8, seed=3),
    }

    @pytest.mark.parametrize("dropout", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("name", list(MATRICES))
    def test_dropout_prunes_a_subset_of_the_pattern(self, name, dropout):
        A = self.MATRICES[name]()
        B = check_dropout(A, dropout=dropout, seed=5)
        # Each entry is dropped independently: stay within 5 sigma of
        # the binomial mean.
        dropped = A.nnz - B.nnz
        sigma = np.sqrt(A.nnz * dropout * (1.0 - dropout))
        assert abs(dropped - A.nnz * dropout) <= 5 * sigma
        assert fingerprint(B).key != fingerprint(A).key

    @given(A=square_csr(max_n=12, max_nnz=60), dropout=st.floats(0.0, 0.99), seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_dropout_subset_property(self, A, dropout, seed):
        check_dropout(A, dropout=dropout, seed=seed)

    def test_dropout_is_deterministic_per_seed(self):
        A = G.web_graph(300, seed=2)
        a = perturb_values(A, seed=7, dropout=0.3)
        b = perturb_values(A, seed=7, dropout=0.3)
        assert_bitwise_equal(a, b)
        c = perturb_values(A, seed=8, dropout=0.3)
        assert not c.same_pattern(a)

    def test_zero_dropout_keeps_pattern_in_fresh_arrays(self):
        A = G.grid2d(6, 6, seed=9)
        B = perturb_values(A, seed=1, dropout=0.0)
        assert B.same_pattern(A)
        for mine, theirs in ((B.indptr, A.indptr), (B.indices, A.indices), (B.values, A.values)):
            assert not np.shares_memory(mine, theirs)

    @pytest.mark.parametrize("dropout", [-0.1, 1.0, 1.5, float("nan")])
    def test_dropout_out_of_range_rejected(self, dropout):
        with pytest.raises(ValueError, match="dropout"):
            perturb_values(G.grid2d(3, 3), dropout=dropout)

    def test_dropout_makes_engine_plan_afresh(self):
        # The trace replay's churn: new values on the same pattern hit
        # the plan cache, a pruned pattern is planned anew.
        eng = SpGEMMEngine(config=ExperimentConfig(n_threads=2, cache_lines=128))
        A = G.grid2d(10, 10, seed=4)
        for M in (A, perturb_values(A, seed=1), perturb_values(A, seed=2, dropout=0.3)):
            assert_bitwise_equal(eng.multiply(M), spgemm_rowwise(M, M))
        stats = eng.stats()
        assert stats.plans_built == 2
        assert (stats.plan_cache_hits, stats.plan_cache_misses) == (1, 2)


class TestSuite:
    def test_registry_has_110_matrices(self):
        assert len(SUITE) == 110

    def test_subsets(self):
        assert len(suite_names("representative")) == 10
        assert len(suite_names("tallskinny")) == 10
        assert len(suite_names("full")) == 110
        assert set(suite_names("standard")) <= set(suite_names("full"))
        with pytest.raises(ValueError, match="subset"):
            suite_names("tiny")

    def test_paper_named_analogs_present(self):
        for name in REPRESENTATIVE + TALLSKINNY:
            assert name in SUITE
            assert SUITE[name].analog_of is not None

    def test_get_matrix_deterministic(self):
        a = get_matrix.__wrapped__("pdb1")
        b = get_matrix.__wrapped__("pdb1")
        assert a.allclose(b)

    def test_get_entry_unknown(self):
        with pytest.raises(KeyError, match="unknown suite matrix"):
            get_entry("nonexistent")

    def test_sample_entries_buildable_and_square(self):
        for name in ["cage12", "grid3d_0", "rmat_0", "web_1", "kkt_1"]:
            A = get_matrix(name)
            assert A.nrows == A.ncols
            assert A.nnz > 0
