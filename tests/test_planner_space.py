"""The planners' candidate space per backend: a kernel-blind backend
(``scipy``) is searched over reorderings only, every other backend keeps
the full kernel × clustering space, and a natural-order winner reuses
the baseline simulation instead of running it twice."""

import pytest

from repro.backends import get_backend
from repro.engine import SpGEMMEngine
from repro.engine.fingerprint import fingerprint
from repro.engine.planner import (
    Candidate,
    HeuristicPlanner,
    PredictorPlanner,
    default_candidates,
    executed_candidate,
    planner_kernels,
    planner_reorderings,
)
from repro.experiments import ExperimentConfig
from repro.matrices import generators as G
from repro.matrices.perturb import scramble
from repro.pipeline import components, get_component
from repro.workloads import bc_frontiers

SMALL_CFG = ExperimentConfig(n_threads=2, cache_lines=128)
A = G.web_graph(220, seed=3)


def _assert_reordering_pairs(cands, backend="scipy"):
    """Every ``backend`` candidate is ``(r, None, "rowwise")``, the
    natural order is one of them, and none repeats."""
    blind = [c for c in cands if c.backend == backend]
    assert blind
    assert all(c.clustering is None and c.kernel == "rowwise" for c in blind), blind
    assert Candidate("original", None, "rowwise", blind[0].backend, blind[0].backend_params) in blind
    assert len(set(cands)) == len(cands)


def test_honours_kernel_capability():
    assert get_backend("reference").honours_kernel
    assert get_backend("vectorized").honours_kernel
    assert not get_backend("scipy").honours_kernel


@pytest.mark.parametrize("backend", ["auto", "scipy"])
def test_scipy_candidates_are_reordering_pairs(backend):
    planner = HeuristicPlanner(cfg=SMALL_CFG, backend=backend)
    cands = planner._candidates(A)
    _assert_reordering_pairs(cands)
    assert {c.reordering for c in cands if c.backend == "scipy"} == {
        "original",
        *planner_reorderings(),
    }


def test_pinned_kernel_subset_keeps_the_natural_order_on_scipy():
    # Only cluster kernels pinned: every scipy candidate still collapses
    # to a reordering pair, and the natural order stays in the space.
    planner = HeuristicPlanner(cfg=SMALL_CFG, backend="scipy", kernels=("cluster",))
    _assert_reordering_pairs(planner._candidates(A))


def test_reference_only_space_is_unchanged():
    cands = default_candidates(square=True)
    assert HeuristicPlanner(cfg=SMALL_CFG)._candidates(A) == cands
    assert {c.backend for c in cands} == {"reference"}
    row = planner_kernels()
    cluster_kernels = [c.name for c in components("kernel", planned=True) if c.requires_clustering]
    clusterings = components("clustering")
    expected = [Candidate("original", None, k) for k in row]
    expected += [Candidate("original", c.name, k) for c in clusterings for k in cluster_kernels]
    for r in planner_reorderings():
        expected += [Candidate(r, None, k) for k in row]
        expected += [
            Candidate(r, c.name, k)
            for c in clusterings
            if not c.embeds_reordering
            for k in cluster_kernels
        ]
    assert cands == expected


def test_kernel_honouring_backends_keep_the_full_space():
    pinned = HeuristicPlanner(cfg=SMALL_CFG, backend="vectorized")._candidates(A)
    assert any(c.clustering is not None for c in pinned)
    assert {c.kernel for c in pinned} == {"cluster", "rowwise", "hybrid"}
    auto = HeuristicPlanner(cfg=SMALL_CFG, backend="auto")._candidates(A)
    assert [c for c in auto if c.backend == "reference"] == default_candidates(square=True)


@pytest.mark.parametrize("backend", ["auto", "scipy"])
def test_predictor_candidates_are_what_scipy_executes(backend):
    planner = PredictorPlanner(cfg=SMALL_CFG, backend=backend)
    for chosen in (
        Candidate("original", "hierarchical", "cluster"),
        Candidate("rcm", "variable", "cluster"),
        Candidate("rabbit", None, "hybrid"),
    ):
        got = planner._apply_backend(chosen)
        assert got == Candidate(chosen.reordering, None, "rowwise", "scipy")
        assert executed_candidate(got) == got


def test_pipeline_specs_are_untouched():
    eng = SpGEMMEngine(config=SMALL_CFG, pipeline="rcm+fixed:8+cluster@scipy")
    plan = eng.plan_for(A)
    assert (plan.reordering, plan.clustering, plan.kernel) == ("rcm", "fixed", "cluster")


def test_auto_engine_builds_no_clustering_for_scipy():
    # scipy never reads a CSR_Cluster operand, so none may be built; on
    # this input the model ranks a variable clustering first.
    R = scramble(G.road_network(600, seed=0), seed=160)
    Bs = list(bc_frontiers(R, batch=8, depth=3, seed=0).frontiers)
    eng = SpGEMMEngine(backend="auto")
    eng.multiply_many(R, Bs)
    plan = eng.plan_for(R, Bs[0])
    assert plan.backend == "scipy" and plan.label.endswith("+csr/rowwise@scipy")
    (prep,) = eng._operands.values()
    assert prep.Ac is None


@pytest.mark.parametrize("backend", [None, "scipy"])
def test_natural_order_winner_reuses_the_baseline_simulation(backend, monkeypatch):
    B = G.grid2d(12, 12, seed=0)
    planner = HeuristicPlanner(cfg=SMALL_CFG, backend=backend)
    fresh = planner.machine.run_rowwise(B, B).time
    calls = []
    run_rowwise = planner.machine.run_rowwise

    def spy(*args, **kw):
        calls.append(args)
        return run_rowwise(*args, **kw)

    monkeypatch.setattr(planner.machine, "run_rowwise", spy)
    plan = planner.plan(B, B, fingerprint(B), "asquare")
    assert plan.reordering == "original" and plan.clustering is None
    assert len(calls) == 1
    k_factor = get_component("kernel", plan.kernel).model_speed_factor
    b_factor = get_component("backend", plan.backend).model_speed_factor
    assert plan.predicted_cost == fresh * k_factor * b_factor
    assert plan.baseline_cost == fresh
    assert plan.planning_cost == fresh  # the one simulation, charged once
