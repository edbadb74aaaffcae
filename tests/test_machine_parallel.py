"""Simulated machine and cost model tests."""

import numpy as np
import pytest

from repro.core import CSRCluster
from repro.machine import (
    CacheStats,
    CostModel,
    SimulatedMachine,
    amortization_iterations,
    balanced_contiguous_partition,
)

from conftest import random_csr


class TestPartition:
    def test_covers_all_indices(self):
        w = np.ones(10)
        chunks = balanced_contiguous_partition(w, 3)
        flat = np.concatenate(chunks)
        assert flat.tolist() == list(range(10))

    def test_balances_weights(self):
        w = np.array([1, 1, 1, 1, 100, 1, 1, 1])
        chunks = balanced_contiguous_partition(w, 2)
        sums = [w[c].sum() for c in chunks]
        # The heavy element dominates; split must isolate it reasonably.
        assert max(sums) <= 104

    def test_more_parts_than_items(self):
        chunks = balanced_contiguous_partition(np.ones(2), 5)
        assert sum(c.size for c in chunks) == 2

    def test_empty(self):
        chunks = balanced_contiguous_partition(np.zeros(0), 3)
        assert all(c.size == 0 for c in chunks)

    def test_zero_weights(self):
        chunks = balanced_contiguous_partition(np.zeros(6), 2)
        assert np.concatenate(chunks).tolist() == list(range(6))


class TestCostModel:
    def test_kernel_rates_differ(self):
        cm = CostModel()
        st = CacheStats(0, 0)
        t_row = cm.kernel_time(work=100, cache=st, kernel="rowwise")
        t_cl = cm.kernel_time(work=100, cache=st, kernel="cluster")
        assert t_row == pytest.approx(cm.alpha_rowwise * 100)
        assert t_cl == pytest.approx(cm.alpha_cluster * 100)

    def test_miss_and_visit_terms(self):
        cm = CostModel(line_bytes=64)
        t = cm.kernel_time(work=0, cache=CacheStats(0, 3), b_row_visits=2, kernel="cluster")
        assert t == pytest.approx(cm.beta_miss_byte * 3 * 64 + cm.gamma_brow * 2)

    def test_preprocessing_kinds(self):
        cm = CostModel()
        assert cm.preprocessing_time(10, kind="graph") == pytest.approx(10 * cm.alpha_pre)
        assert cm.preprocessing_time(10, kind="kernel") == pytest.approx(10 * cm.alpha_rowwise)
        with pytest.raises(ValueError, match="preprocessing kind"):
            cm.preprocessing_time(10, kind="gpu")


class TestSimulatedMachine:
    def test_rowwise_deterministic(self):
        A = random_csr(60, 60, 0.1, seed=5)
        m = SimulatedMachine(n_threads=4, cache_lines=64)
        r1 = m.run_rowwise(A, A)
        r2 = m.run_rowwise(A, A)
        assert r1.time == r2.time
        assert r1.cost.cache.misses == r2.cost.cache.misses

    def test_makespan_is_max_thread_time(self):
        A = random_csr(40, 40, 0.15, seed=6)
        m = SimulatedMachine(n_threads=4, cache_lines=64)
        res = m.run_rowwise(A, A)
        assert res.time == pytest.approx(max(t.time for t in res.per_thread))
        assert res.load_imbalance >= 1.0

    def test_more_threads_never_slower(self):
        A = random_csr(80, 80, 0.08, seed=7)
        t1 = SimulatedMachine(n_threads=1, cache_lines=64).run_rowwise(A, A).time
        t8 = SimulatedMachine(n_threads=8, cache_lines=64).run_rowwise(A, A).time
        assert t8 <= t1

    def test_bigger_cache_fewer_misses(self):
        A = random_csr(100, 100, 0.08, seed=8)
        small = SimulatedMachine(n_threads=1, cache_lines=8).run_rowwise(A, A)
        big = SimulatedMachine(n_threads=1, cache_lines=4096).run_rowwise(A, A)
        assert big.cost.cache.misses <= small.cost.cache.misses

    def test_clusterwise_visits_reduced(self, fig1):
        m = SimulatedMachine(n_threads=1, cache_lines=64)
        row = m.run_rowwise(fig1, fig1)
        clusters = [np.array([0, 1, 2]), np.array([3, 4]), np.array([5])]
        Ac = CSRCluster.from_clusters(fig1, clusters)
        cl = m.run_clusterwise(Ac, fig1)
        assert row.cost.b_row_visits == fig1.nnz  # one open per A entry
        assert cl.cost.b_row_visits == 10  # distinct cols: 4 + 4 + 2 (Fig. 6b)

    def test_out_nnz_adds_stream_traffic(self):
        A = random_csr(50, 50, 0.1, seed=9)
        m = SimulatedMachine(n_threads=2, cache_lines=64)
        without = m.run_rowwise(A, A)
        with_c = m.run_rowwise(A, A, out_nnz=10_000)
        assert with_c.time > without.time

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError, match="n_threads"):
            SimulatedMachine(n_threads=0)


class TestAmortization:
    def test_basic(self):
        assert amortization_iterations(100.0, 10.0, 5.0) == pytest.approx(20.0)

    def test_no_gain_is_inf(self):
        assert amortization_iterations(100.0, 10.0, 10.0) == float("inf")
        assert amortization_iterations(100.0, 10.0, 12.0) == float("inf")
