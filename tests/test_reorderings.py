"""Reordering algorithm tests: validity, objectives, registry (Table 1)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import CSRMatrix
from repro.pipeline import available_components
from repro.reordering import TABLE1_ORDER, apply_permutation, bandwidth, reorder
from repro.reordering.graph import Adjacency, bfs_levels, connected_components, pseudo_peripheral_node

from conftest import random_csr

ALL_ALGOS = ["original", "shuffled", "degree", "gray", "rcm", "amd", "nd", "gp", "hp", "rabbit", "slashburn"]


def banded_shuffled(n=200, seed=3):
    diags = sp.diags([np.ones(n - o) for o in (0, 1, 2)], [0, 1, 2], format="csr")
    A = CSRMatrix.from_scipy((diags + diags.T).tocsr())
    rng = np.random.default_rng(seed)
    return A, A.permute_symmetric(rng.permutation(n))


class TestRegistry:
    def test_all_table1_algorithms_registered(self):
        avail = set(available_components("reordering"))
        for name in ALL_ALGOS:
            assert name in avail
        for name in TABLE1_ORDER:
            assert name in avail

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown reordering"):
            reorder(random_csr(4, 4, 0.5, seed=0), "magic")


@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_produces_valid_permutation(algo):
    A = random_csr(60, 60, 0.08, seed=17)
    res = reorder(A, algo, seed=1)
    assert sorted(res.perm.tolist()) == list(range(60))
    assert res.algorithm == algo
    assert res.work >= 0


@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_deterministic_given_seed(algo):
    A = random_csr(40, 40, 0.1, seed=23)
    r1 = reorder(A, algo, seed=5)
    r2 = reorder(A, algo, seed=5)
    assert np.array_equal(r1.perm, r2.perm)


def test_original_is_identity():
    A = random_csr(10, 10, 0.3, seed=2)
    assert reorder(A, "original").perm.tolist() == list(range(10))


def test_shuffle_changes_order():
    A = random_csr(50, 50, 0.1, seed=2)
    assert not np.array_equal(reorder(A, "shuffled", seed=1).perm, np.arange(50))


def test_degree_sorts_descending():
    A = random_csr(30, 30, 0.2, seed=3)
    res = reorder(A, "degree")
    lens = np.diff(A.indptr)
    assert np.all(np.diff(lens[res.perm]) <= 0)


def test_rcm_recovers_band_structure():
    A, Ash = banded_shuffled()
    res = reorder(Ash, "rcm")
    recovered = apply_permutation(Ash, res.perm)
    assert bandwidth(recovered) <= 4  # original band is 2
    assert bandwidth(recovered) < bandwidth(Ash) // 10


def test_amd_reduces_fill_proxy():
    """AMD should order a star graph's hub last (classic min-degree)."""
    n = 20
    dense = np.zeros((n, n))
    dense[0, :] = dense[:, 0] = 1.0  # vertex 0 is the hub
    np.fill_diagonal(dense, 1.0)
    A = CSRMatrix.from_dense(dense)
    res = reorder(A, "amd")
    # Leaves (degree 1) are eliminated first; the hub survives until its
    # degree finally drops to a tie with the last leaf.
    assert 0 in res.perm[-2:].tolist()


def test_nd_separator_last_structure():
    A, Ash = banded_shuffled(n=128)
    res = reorder(Ash, "nd", leaf_size=16)
    assert sorted(res.perm.tolist()) == list(range(128))


def test_gp_groups_partitions_contiguously():
    # Two disconnected cliques must land in different, contiguous parts.
    blocks = sp.block_diag([np.ones((10, 10)), np.ones((10, 10))], format="csr")
    A = CSRMatrix.from_scipy(blocks.tocsr())
    rng = np.random.default_rng(0)
    perm_hidden = rng.permutation(20)
    Ash = A.permute_symmetric(perm_hidden)
    res = reorder(Ash, "gp", k=2)
    out = apply_permutation(Ash, res.perm)
    # After ordering, the first 10 rows and last 10 rows are the cliques:
    # no nonzeros in the off-diagonal 10×10 corners.
    dense = out.to_dense()
    assert dense[:10, 10:].sum() == 0.0
    assert dense[10:, :10].sum() == 0.0


def test_hp_clique_vs_cutnet_methods():
    A = random_csr(60, 60, 0.08, seed=29)
    r1 = reorder(A, "hp", method="clique")
    r2 = reorder(A, "hp", method="cutnet")
    assert sorted(r1.perm.tolist()) == list(range(60))
    assert sorted(r2.perm.tolist()) == list(range(60))
    with pytest.raises(ValueError, match="HP method"):
        reorder(A, "hp", method="quantum")


def test_rabbit_groups_communities():
    blocks = sp.block_diag([np.ones((8, 8))] * 4, format="csr")
    A = CSRMatrix.from_scipy(blocks.tocsr())
    rng = np.random.default_rng(1)
    hidden = rng.permutation(32)
    Ash = A.permute_symmetric(hidden)
    res = reorder(Ash, "rabbit")
    out = apply_permutation(Ash, res.perm)
    # Communities contiguous → block-diagonal structure restored.
    dense = out.to_dense()
    for lo in range(0, 32, 8):
        assert dense[lo : lo + 8, lo : lo + 8].sum() > 0


def test_slashburn_places_hubs_first():
    n = 40
    dense = np.zeros((n, n))
    dense[0, :] = dense[:, 0] = 1.0  # hub 0
    dense[1, 2:20] = dense[2:20, 1] = 1.0  # hub 1
    np.fill_diagonal(dense, 1.0)
    A = CSRMatrix.from_dense(dense)
    res = reorder(A, "slashburn", k_ratio=0.05)
    assert 0 in res.perm[:4].tolist()


def test_gray_splits_dense_rows_first():
    dense = np.zeros((10, 32))
    dense[3, :] = 1.0  # one very dense row
    for i in range(10):
        dense[i, i % 32] = 1.0
    A = CSRMatrix.from_dense(dense)
    res = reorder(A, "gray")
    assert res.perm[0] == 3


def test_apply_permutation_modes(fig1):
    perm = np.array([1, 0, 2, 3, 4, 5])
    sym = apply_permutation(fig1, perm, mode="symmetric")
    rows = apply_permutation(fig1, perm, mode="rows")
    assert np.array_equal(sym.to_dense(), fig1.to_dense()[np.ix_(perm, perm)])
    assert np.array_equal(rows.to_dense(), fig1.to_dense()[perm])
    with pytest.raises(ValueError, match="unknown mode"):
        apply_permutation(fig1, perm, mode="cols")


class TestGraphUtils:
    def test_adjacency_symmetric_no_selfloops(self, fig1):
        adj = Adjacency.from_matrix(fig1)
        dense = np.zeros((6, 6))
        row_of = np.repeat(np.arange(6), np.diff(adj.indptr))
        dense[row_of, adj.indices] = 1
        assert np.array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 0)

    def test_bfs_levels_path_graph(self):
        path = sp.diags([np.ones(9), np.ones(9)], [1, -1], format="csr")
        adj = Adjacency.from_matrix(CSRMatrix.from_scipy(path.tocsr()))
        lv = bfs_levels(adj, 0)
        assert lv.tolist() == list(range(10))

    def test_pseudo_peripheral_reaches_end(self):
        path = sp.diags([np.ones(19), np.ones(19)], [1, -1], format="csr")
        adj = Adjacency.from_matrix(CSRMatrix.from_scipy(path.tocsr()))
        p = pseudo_peripheral_node(adj, 10)
        assert p in (0, 19)

    def test_connected_components(self):
        blocks = sp.block_diag([np.ones((3, 3)), np.ones((4, 4))], format="csr")
        adj = Adjacency.from_matrix(CSRMatrix.from_scipy(blocks.tocsr()))
        comp = connected_components(adj)
        assert len(set(comp[:3])) == 1
        assert len(set(comp[3:])) == 1
        assert comp[0] != comp[5]
