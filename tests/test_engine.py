"""End-to-end tests of the ``repro.engine`` subsystem.

Covers the acceptance bar of the engine PR: bitwise-identical output vs
row-wise SpGEMM for every planner policy on a suite matrix, plan
determinism under a fixed seed, pattern-keyed plan-cache hits across
value-perturbed operands, and amortisation-accounting monotonicity on a
repeated-multiply (BC-style) run.
"""

import numpy as np
import pytest

from conftest import assert_bitwise_equal
from repro.core import spgemm_rowwise
from repro.engine import SpGEMMEngine
from repro.experiments import ExperimentConfig
from repro.matrices import generators as G
from repro.matrices import get_matrix, perturb_values, scramble
from repro.workloads import bc_frontiers

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

SMALL_CFG = ExperimentConfig(n_threads=2, cache_lines=128)

#: Every planner policy; ``pipeline`` runs the fixed plan the k-NN
#: configuration predictor picks for these inputs.
POLICIES = {
    "heuristic": dict(policy="heuristic"),
    "autotune": dict(policy="autotune"),
    "pipeline": dict(pipeline="rcm+variable+cluster"),
}


@pytest.fixture(scope="module")
def suite_matrix():
    """A named suite matrix (the acceptance criterion's operand)."""
    return get_matrix("pdb1")


# ----------------------------------------------------------------------
# Correctness: every policy, bitwise vs the row-wise ground truth
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", POLICIES)
def test_policy_output_bitwise_identical_on_suite_matrix(policy, suite_matrix):
    A = suite_matrix
    ref = spgemm_rowwise(A, A)
    eng = SpGEMMEngine(config=SMALL_CFG, **POLICIES[policy])
    C = eng.multiply(A)
    assert_bitwise_equal(C, ref)


@pytest.mark.parametrize("policy", POLICIES)
def test_policy_output_bitwise_identical_on_gainful_matrix(policy, gainful_matrix):
    A = gainful_matrix
    ref = spgemm_rowwise(A, A)
    eng = SpGEMMEngine(config=SMALL_CFG, **POLICIES[policy])
    assert_bitwise_equal(eng.multiply(A), ref)


def test_rectangular_product_matches_rowwise():
    A = G.grid2d(10, 10, seed=0)
    import scipy.sparse as sp

    from repro.core import CSRMatrix

    B = CSRMatrix.from_scipy(sp.random(A.ncols, 7, density=0.3, random_state=2, format="csr"))
    eng = SpGEMMEngine(config=SMALL_CFG)
    assert_bitwise_equal(eng.multiply(A, B), spgemm_rowwise(A, B))


def test_rectangular_left_operand_skips_reorderings():
    # Non-square A: plan must not pick a graph reordering.
    A = G.grid2d(8, 8, seed=3).extract_rows(np.arange(40))
    eng = SpGEMMEngine(policy="autotune", config=SMALL_CFG)
    B = G.grid2d(8, 8, seed=3)
    plan = eng.plan_for(A, B)
    assert plan.reordering == "original"
    assert_bitwise_equal(eng.multiply(A, B), spgemm_rowwise(A, B))


def test_power_matches_repeated_rowwise():
    A = G.grid2d(8, 8, seed=5)
    eng = SpGEMMEngine(config=SMALL_CFG)
    ref = spgemm_rowwise(A, spgemm_rowwise(A, A))
    assert_bitwise_equal(eng.power(A, 3), ref)
    # One plan, one prepared operand for both multiplies.
    s = eng.stats()
    assert s.multiplies == 2
    assert s.plans_built == 1


def test_dimension_mismatch_raises():
    A = G.grid2d(6, 6, seed=0)
    B = G.grid2d(5, 5, seed=0)
    with pytest.raises(ValueError, match="inner dimensions"):
        SpGEMMEngine(config=SMALL_CFG).multiply(A, B)


def test_multiply_many_rejects_bad_batch_before_any_work(suite_matrix):
    # Every B is checked up front: a rejected batch neither executes
    # its leading products nor plans for A.
    A = suite_matrix
    bad = G.grid2d(5, 5, seed=0)
    eng = SpGEMMEngine(config=SMALL_CFG)
    for batch in ([A, A, bad], [bad]):
        with pytest.raises(ValueError, match="inner dimensions"):
            eng.multiply_many(A, batch)
    s = eng.stats()
    assert (s.multiplies, s.plans_built, s.plan_cache_misses) == (0, 0, 0)


# ----------------------------------------------------------------------
# Plan determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", ("heuristic", "autotune"))
def test_plan_deterministic_under_fixed_seed(policy, gainful_matrix):
    A = gainful_matrix
    p1 = SpGEMMEngine(policy=policy, config=SMALL_CFG, seed=0).plan_for(A)
    p2 = SpGEMMEngine(policy=policy, config=SMALL_CFG, seed=0).plan_for(A)
    assert p1 == p2
    assert p1.to_dict() == p2.to_dict()


def test_plan_records_fingerprint_and_policy(gainful_matrix):
    eng = SpGEMMEngine(policy="autotune", config=SMALL_CFG)
    plan = eng.plan_for(gainful_matrix)
    assert plan.policy == "autotune"
    assert plan.fingerprint_key
    assert plan.workload == "asquare"


# ----------------------------------------------------------------------
# Plan-cache behaviour: pattern-keyed reuse
# ----------------------------------------------------------------------
def test_value_perturbed_matrix_hits_plan_cache(gainful_matrix):
    A = gainful_matrix
    eng = SpGEMMEngine(policy="heuristic", config=SMALL_CFG)
    eng.multiply(A)
    assert eng.stats().plan_cache_hits == 0

    A2 = perturb_values(A, scale=0.2, seed=11)
    C2 = eng.multiply(A2)
    s = eng.stats()
    assert s.plan_cache_hits >= 1  # same pattern, new values → plan reused
    assert s.plans_built == 1
    # Values changed, so the prepared operand must be rebuilt — and the
    # result must be exact for the *new* values.
    assert s.operands_prepared == 2
    assert_bitwise_equal(C2, spgemm_rowwise(A2, A2))


def test_repeated_multiply_reuses_plan_and_operand(gainful_matrix):
    A = gainful_matrix
    eng = SpGEMMEngine(policy="autotune", config=SMALL_CFG)
    for _ in range(3):
        eng.multiply(A)
    s = eng.stats()
    assert s.multiplies == 3
    assert s.plans_built == 1
    assert s.plan_cache_hits == 2
    # The winning operand materialised during planning is handed to the
    # engine, so preprocessing happens exactly once and every multiply
    # reuses it.
    assert s.operands_prepared == 1
    assert s.operands_reused == 3


def test_same_shape_different_pattern_never_shares_plan():
    # Same (shape, nnz) but different sparsity → distinct fingerprints,
    # no false plan-cache hit (regression guard for memoisation bugs).
    A = G.grid2d(8, 8, seed=1)
    B = scramble(A, seed=5)
    assert A.nnz == B.nnz and A.shape == B.shape
    eng = SpGEMMEngine(config=SMALL_CFG)
    eng.multiply(A)
    eng.multiply(B)
    s = eng.stats()
    assert s.plans_built == 2
    assert s.plan_cache_hits == 0


# ----------------------------------------------------------------------
# Amortisation accounting
# ----------------------------------------------------------------------
def test_amortization_progress_monotone_and_break_even_finite(gainful_matrix):
    A = gainful_matrix
    eng = SpGEMMEngine(policy="autotune", config=SMALL_CFG)
    plan = eng.plan_for(A)
    assert plan.predicted_gain > 0, "autotune should find a win on a scrambled block matrix"
    progress = []
    for _ in range(5):
        eng.multiply(A)
        progress.append(eng.stats().amortization_progress())
    assert all(b >= a for a, b in zip(progress, progress[1:]))
    assert progress[-1] > progress[0]
    be = eng.stats().break_even_iterations()
    assert np.isfinite(be) and be > 0
    # Constant per-multiply gain ⇒ the ledger's break-even matches the plan's
    # prediction (which additionally folds in nothing the engine didn't pay).
    assert be == pytest.approx(plan.invested_cost / plan.predicted_gain, rel=1e-9)


def test_plan_break_even_math(gainful_matrix):
    eng = SpGEMMEngine(policy="autotune", config=SMALL_CFG)
    plan = eng.plan_for(gainful_matrix)
    assert plan.break_even_iterations() == pytest.approx(
        (plan.pre_cost + plan.planning_cost) / (plan.baseline_cost - plan.predicted_cost)
    )
    assert plan.amortized_cost(10) < plan.amortized_cost(1)


def test_baseline_plan_never_amortizes(suite_matrix):
    # pdb1 arrives well-ordered: when the planner keeps the baseline
    # (original order, plain CSR, *row-wise* kernel) the break-even
    # count is infinite (nothing invested to recoup a gain).
    eng = SpGEMMEngine(policy="autotune", config=SMALL_CFG)
    plan = eng.plan_for(suite_matrix)
    if plan.reordering == "original" and plan.clustering is None and plan.kernel == "rowwise":
        assert plan.break_even_iterations() == float("inf")


# ----------------------------------------------------------------------
# BC-style batch (the acceptance criterion's repeated-multiply run)
# ----------------------------------------------------------------------
def test_multiply_many_bc_style_run(gainful_matrix):
    A = gainful_matrix
    frontiers = bc_frontiers(A, batch=12, depth=6, seed=2).frontiers
    eng = SpGEMMEngine(policy="autotune", config=SMALL_CFG)
    products = eng.multiply_many(A, frontiers)
    assert len(products) == len(frontiers)
    for C, F in zip(products, frontiers):
        assert_bitwise_equal(C, spgemm_rowwise(A, F))
    s = eng.stats()
    assert s.plan_cache_hits > 0
    assert s.plans_built == 1


def test_plan_for_is_a_noncounting_peek(gainful_matrix):
    # Display lookups must not inflate the execution ledger.
    eng = SpGEMMEngine(config=SMALL_CFG)
    eng.multiply(gainful_matrix)
    before = eng.stats().plan_cache_hits
    eng.plan_for(gainful_matrix)
    eng.plan_for(gainful_matrix)
    assert eng.stats().plan_cache_hits == before


def test_shared_plan_cache_does_not_cross_machines(gainful_matrix):
    # Two engines sharing a PlanCache but running different machine
    # models must not serve each other plans (costs are machine-bound).
    from repro.engine import PlanCache
    from repro.machine import SimulatedMachine

    shared = PlanCache()
    e1 = SpGEMMEngine(config=SMALL_CFG, plan_cache=shared)
    e2 = SpGEMMEngine(
        config=SMALL_CFG,
        machine=SimulatedMachine(n_threads=2, cache_lines=8),
        plan_cache=shared,
    )
    e1.multiply(gainful_matrix)
    e2.multiply(gainful_matrix)
    assert e1.stats().plans_built == 1
    assert e2.stats().plans_built == 1  # not a stale hit from e1's machine


def test_stats_snapshot_is_isolated(gainful_matrix):
    eng = SpGEMMEngine(config=SMALL_CFG)
    eng.multiply(gainful_matrix)
    snap = eng.stats()
    eng.multiply(gainful_matrix)
    assert snap.multiplies == 1
    assert eng.stats().multiplies == 2
    eng.reset_stats()
    assert eng.stats().multiplies == 0


def test_operand_cache_holds_ten_round_robin_inputs():
    # Ten distinct operands cycled through the default engine must not
    # thrash its prepared-operand LRU: the second round prepares nothing.
    mats = [G.web_graph(60 + 7 * i, seed=i) for i in range(10)]
    eng = SpGEMMEngine(config=SMALL_CFG, backend="scipy")
    for A in mats:
        eng.multiply(A)
    first = eng.stats()
    for A in mats:
        eng.multiply(A)
    second = eng.stats()
    assert second.operands_prepared == first.operands_prepared
    assert second.operands_reused - first.operands_reused == 10
