"""Failure-injection tests: malformed structures must be detected, and
the public APIs must fail loudly rather than compute garbage."""

import numpy as np
import pytest

from repro.core import CSRMatrix, assert_canonical, is_canonical
from repro.core.validate import assert_same_shape
from repro.reordering.base import ReorderingResult

from conftest import random_csr


class TestCanonicalDetection:
    def test_sorted_unique_is_canonical(self):
        A = random_csr(10, 10, 0.3, seed=71)
        assert is_canonical(A)
        assert_canonical(A)

    def test_unsorted_row_detected(self):
        A = CSRMatrix(np.array([0, 2]), np.array([3, 1]), np.ones(2), (1, 5), check=False)
        assert not is_canonical(A)
        with pytest.raises(ValueError, match="row 0"):
            assert_canonical(A)

    def test_duplicate_column_detected(self):
        A = CSRMatrix(np.array([0, 2]), np.array([1, 1]), np.ones(2), (1, 5), check=False)
        assert not is_canonical(A)

    def test_row_boundaries_are_exempt(self):
        # Row 0 ends at col 4; row 1 starts at col 0 — legal.
        A = CSRMatrix(np.array([0, 1, 2]), np.array([4, 0]), np.ones(2), (2, 5))
        assert is_canonical(A)

    def test_single_entry_rows(self):
        A = CSRMatrix(np.array([0, 1]), np.array([0]), np.ones(1), (1, 1))
        assert is_canonical(A)

    def test_structural_check_rerun(self):
        bad = CSRMatrix(np.array([0, 5]), np.array([0]), np.ones(1), (1, 2), check=False)
        with pytest.raises(ValueError):
            assert_canonical(bad)


def test_assert_same_shape():
    a = random_csr(3, 4, 0.5, seed=72)
    b = random_csr(3, 5, 0.5, seed=73)
    with pytest.raises(ValueError, match="shape mismatch"):
        assert_same_shape(a, b)


def test_reordering_result_rejects_bad_perm():
    with pytest.raises(ValueError, match="not a permutation"):
        ReorderingResult(np.array([0, 0, 2]), "x")


def test_indptr_decreasing_rejected():
    with pytest.raises(ValueError, match="non-decreasing"):
        CSRMatrix(np.array([0, 2, 1, 2]), np.array([0, 1]), np.ones(2), (3, 2))


def test_negative_column_rejected():
    with pytest.raises(ValueError, match="out of range"):
        CSRMatrix(np.array([0, 1]), np.array([-1]), np.ones(1), (1, 2))


class TestGracefulEmptyInputs:
    """Every public entry point must handle degenerate (empty) inputs."""

    def test_empty_matrix_through_pipeline(self):
        from repro.clustering import (
            fixed_length_clustering,
            hierarchical_clustering,
            variable_length_clustering,
        )
        from repro.core import cluster_spgemm, spgemm_rowwise

        A = CSRMatrix.empty((8, 8))
        assert spgemm_rowwise(A, A).nnz == 0
        for cl in (
            fixed_length_clustering(A, cluster_size=3),
            variable_length_clustering(A),
            hierarchical_clustering(A),
        ):
            Ac = cl.to_csr_cluster(A)
            assert cluster_spgemm(Ac, A).nnz == 0

    def test_empty_matrix_reorderings(self):
        from repro.pipeline import available_components
        from repro.reordering import reorder

        A = CSRMatrix.empty((6, 6))
        for name in available_components("reordering"):
            res = reorder(A, name)
            assert sorted(res.perm.tolist()) == list(range(6)), name

    def test_zero_row_matrix(self):
        A = CSRMatrix.empty((0, 0))
        from repro.core import spgemm_rowwise

        assert spgemm_rowwise(A, A).shape == (0, 0)

    def test_machine_on_empty(self):
        from repro.machine import SimulatedMachine

        A = CSRMatrix.empty((4, 4))
        res = SimulatedMachine(n_threads=2, cache_lines=8).run_rowwise(A, A)
        assert res.time >= 0.0
