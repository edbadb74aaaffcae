"""The planners' candidate space per backend: a kernel-blind backend
(``scipy``, and ``auto``, its alias) is searched over reorderings only
and planned without simulation (nan model costs; ``autotune`` refuses
it), ``reference`` keeps the full kernel × clustering space, and its
natural-order winner reuses the baseline simulation instead of running
it twice."""

import math

import pytest

from repro.backends import get_backend
from repro.engine import PlanCache, SpGEMMEngine
from repro.engine.fingerprint import fingerprint
from repro.engine.planner import (
    AutotunePlanner,
    HeuristicPlanner,
    default_candidates,
    planner_kernels,
    planner_reorderings,
)
from repro.experiments import ExperimentConfig
from repro.matrices import generators as G
from repro.matrices.perturb import scramble
from repro.pipeline import PipelineSpec, components
from repro.workloads import bc_frontiers

SMALL_CFG = ExperimentConfig(n_threads=2, cache_lines=128)
A = G.web_graph(220, seed=3)


def _assert_reordering_pairs(cands, backend="scipy"):
    """Every ``backend`` candidate is ``r@backend`` (no clustering, the
    ``rowwise`` kernel), the natural order is one of them, and none
    repeats."""
    blind = [c for c in cands if c.backend == backend]
    assert blind
    assert all(c.clustering is None and c.kernel == "rowwise" for c in blind), blind
    assert PipelineSpec(backend=blind[0].backend, backend_params=blind[0].backend_params) in blind
    assert len(set(cands)) == len(cands)


def test_honours_kernel_capability():
    assert get_backend("reference").honours_kernel
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
    assert cands == HeuristicPlanner(cfg=SMALL_CFG, backend="scipy")._candidates(A)


def test_reference_only_space_is_unchanged():
    cands = default_candidates(square=True)
    assert HeuristicPlanner(cfg=SMALL_CFG, backend="reference")._candidates(A) == cands
    assert {c.backend for c in cands} == {"reference"}
    row = planner_kernels()
    cluster_kernels = [c.name for c in components("kernel", planned=True) if c.requires_clustering]
    clusterings = components("clustering")
    cfg = ExperimentConfig()

    def clustered(r, c, k):
        # Candidates carry their clustering parameters resolved under
        # the planner's config, as the build uses them.
        return PipelineSpec(r, c.name, k, clustering_params=tuple(c.resolve_params((), cfg).items()))

    expected = [PipelineSpec("original", None, k) for k in row]
    expected += [clustered("original", c, k) for c in clusterings for k in cluster_kernels]
    for r in planner_reorderings():
        expected += [PipelineSpec(r, None, k) for k in row]
        expected += [
            clustered(r, c, k)
            for c in clusterings
            if not c.embeds_reordering
            for k in cluster_kernels
        ]
    assert cands == expected
    assert all(c.clustering_params for c in cands if c.clustering is not None)


def test_candidate_params_follow_the_planner_config():
    # A clustering parameter set on the config reaches the candidate
    # spec, and so the plan made from it.
    cfg = ExperimentConfig(n_threads=2, cache_lines=128, max_cluster_th=4)
    cands = HeuristicPlanner(cfg=cfg, backend="reference")._candidates(A)
    variable = [c for c in cands if c.clustering == "variable"]
    assert variable and all(dict(c.clustering_params)["max_cluster_th"] == 4 for c in variable)


@pytest.mark.parametrize("policy", ["heuristic", "autotune"])
def test_auto_and_scipy_engines_share_one_plan(policy):
    cache = PlanCache()
    if policy == "autotune":
        # autotune plans on reference only: both spellings of scipy are
        # refused alike, before anything reaches the shared cache.
        for backend in ("auto", "scipy"):
            with pytest.raises(ValueError, match="kernel-blind backend 'scipy'"):
                SpGEMMEngine(policy=policy, backend=backend, plan_cache=cache)
        assert len(cache) == 0
        return
    auto = SpGEMMEngine(policy=policy, backend="auto", plan_cache=cache)
    scipy = SpGEMMEngine(policy=policy, backend="scipy", plan_cache=cache)
    assert auto.planner.cache_token == scipy.planner.cache_token
    assert ":b=scipy" in auto.planner.cache_token
    label = auto.plan_for(A).label
    assert scipy.plan_for(A).label == label and label.endswith("@scipy")
    assert len(cache) == 1
    assert (auto.stats().plans_built, scipy.stats().plans_built) == (1, 0)
    # Executing on the scipy engine addresses the same entry.
    scipy.multiply(A)
    assert scipy.stats().plan_cache_hits == 1 and len(cache) == 1


def test_pipeline_specs_are_untouched():
    eng = SpGEMMEngine(config=SMALL_CFG, pipeline="rcm+fixed:8+cluster@scipy")
    plan = eng.plan_for(A)
    assert plan.spec == PipelineSpec.parse("rcm+fixed:8+cluster@scipy")


def test_auto_engine_builds_no_clustering_for_scipy():
    # scipy never reads a CSR_Cluster operand, so none may be built; on
    # this input the model ranks a variable clustering first.
    R = scramble(G.road_network(600, seed=0), seed=160)
    Bs = list(bc_frontiers(R, batch=8, depth=3, seed=0).frontiers)
    eng = SpGEMMEngine(backend="auto")
    eng.multiply_many(R, Bs)
    plan = eng.plan_for(R, Bs[0])
    assert plan.spec.backend == "scipy" and plan.label.endswith("+csr/rowwise@scipy")
    (prep,) = eng._operands.values()
    assert prep.Ac is None


@pytest.mark.parametrize("backend", [None, "scipy", "reference"])
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
    plan, built = planner.plan(B, B, fingerprint(B), "asquare")
    assert built.perm is None and built.Ac is None
    assert plan.spec.reordering == "original" and plan.spec.clustering is None
    if planner.honours_kernel:
        assert len(calls) == 1
        assert plan.predicted_cost == plan.baseline_cost == fresh
        assert plan.planning_cost == fresh  # the one simulation, charged once
    else:
        # scipy (the default too) is planned without any simulation, and
        # the plan carries no model costs.
        assert calls == []
        assert not plan.has_model_costs
        assert all(math.isnan(c) for c in (plan.predicted_cost, plan.baseline_cost, plan.planning_cost))
        assert plan.pre_cost == 0.0  # closed-form: nothing to reorder


@pytest.mark.parametrize("pipeline", ["original", "original@scipy"])
def test_identity_plan_predicts_no_gain_on_any_backend(pipeline):
    # A plan that neither reorders nor clusters runs the baseline's
    # dataflow: on reference its predicted cost is the baseline's, and
    # like a searched natural-order winner it reuses the baseline
    # simulation, charged once.  On scipy it is planned without
    # simulation, so it predicts nothing.  Either way it never breaks
    # even.
    A = G.grid2d(40, 40)
    plan = SpGEMMEngine(config=SMALL_CFG, pipeline=pipeline).plan_for(A)
    if plan.spec.backend == "reference":
        assert plan.predicted_cost == plan.baseline_cost == plan.planning_cost
        assert plan.predicted_speedup == 1.0
    else:
        assert all(math.isnan(c) for c in (plan.predicted_cost, plan.baseline_cost, plan.planning_cost))
        assert math.isnan(plan.predicted_speedup)
    assert plan.pre_cost == 0.0
    assert plan.break_even_iterations() == math.inf


def _count_simulations(planner, monkeypatch) -> list:
    """Record every simulated run the planner's machine makes."""
    calls = []
    for name in ("run_rowwise", "run_clusterwise"):
        real = getattr(planner.machine, name)

        def spy(*args, _name=name, _real=real, **kw):
            calls.append(_name)
            return _real(*args, **kw)

        monkeypatch.setattr(planner.machine, name, spy)
    return calls


GRID = scramble(G.grid2d(14, 14, seed=0), seed=7)


@pytest.mark.parametrize(
    "kw, label",
    [
        (dict(policy="heuristic"), "rcm+csr/rowwise@scipy"),
        (dict(pipeline="rcm+variable+cluster@scipy"), "rcm+variable/cluster@scipy"),
    ],
    ids=["heuristic", "pipeline"],
)
def test_cold_scipy_plan_runs_no_simulation(kw, label, monkeypatch):
    # A cold multiply on scipy builds the winner (here a reordering, and
    # a clustering the pipeline asks for) but never simulates it, nor
    # the baseline.
    eng = SpGEMMEngine(config=SMALL_CFG, **kw)
    calls = _count_simulations(eng.planner, monkeypatch)
    eng.multiply(GRID)
    plan = eng.plan_for(GRID)
    assert plan.label == label
    assert calls == []
    assert not plan.has_model_costs and plan.pre_cost > 0


@pytest.mark.parametrize(
    "kw, winner",
    [
        (dict(policy="heuristic", backend="reference"), "run_clusterwise"),
        (dict(pipeline="rcm+variable+cluster"), "run_clusterwise"),
        (dict(pipeline="rcm"), "run_rowwise"),
    ],
    ids=["heuristic", "pipeline", "pipeline-rowwise"],
)
def test_reference_plan_simulates_baseline_and_winner(kw, winner, monkeypatch):
    eng = SpGEMMEngine(config=SMALL_CFG, **kw)
    calls = _count_simulations(eng.planner, monkeypatch)
    plan = eng.plan_for(GRID)
    assert calls == ["run_rowwise", winner]
    assert plan.has_model_costs
    assert plan.planning_cost == plan.baseline_cost + plan.predicted_cost


@pytest.mark.parametrize("backend", [None, "scipy", "auto"])
def test_autotune_refuses_kernel_blind_backends(backend):
    with pytest.raises(ValueError, match='policy="heuristic".*backend="reference"'):
        AutotunePlanner(cfg=SMALL_CFG, backend=backend)
    with pytest.raises(ValueError, match="kernel-blind"):
        SpGEMMEngine(policy="autotune", backend=backend)
    assert AutotunePlanner(cfg=SMALL_CFG, backend="reference").honours_kernel
