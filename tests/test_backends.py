"""The execution-backend API: registry entries and capability tags, the
``@backend`` spec grammar, the single dispatch path, sharded pool
fallback, engine integration and backend-aware plan-cache keys."""

import numpy as np
import pytest

from repro.backends import (
    ExecutionContext,
    backend_supports,
    execute,
    get_backend,
    parse_backend,
)
from repro.core import spgemm_rowwise
from repro.engine import ExecutionPlan, SpGEMMEngine
from repro.matrices import generators as G
from repro.pipeline import PipelineSpec, available_components, components, get_component

A = G.web_graph(220, seed=3)
REF = spgemm_rowwise(A, A)


def _bitwise(C):
    return C.same_pattern(REF) and np.array_equal(C.values, REF.values)


# ----------------------------------------------------------------------
# Registry entries and capability tags
# ----------------------------------------------------------------------
def test_builtin_backends_registered_with_capabilities():
    names = available_components("backend")
    assert names[0] == "reference"
    assert {"reference", "vectorized", "sharded"} <= set(names)
    ref = get_component("backend", "reference")
    assert ref.bitwise_reference and ref.supported_kernels is None
    vec = get_component("backend", "vectorized")
    assert vec.bitwise_reference and vec.supported_kernels == ("cluster", "rowwise", "hybrid")
    sh = get_component("backend", "sharded")
    assert sh.parallelism == "process"
    assert sh.planner_rank is None  # composite: pinned explicitly, never searched
    assert [p.name for p in sh.params] == ["workers", "inner"]


def test_scipy_backend_registered_when_scipy_importable():
    import scipy  # noqa: F401  (the test env has it; skip-free assertion)

    info = get_component("backend", "scipy")
    assert not info.bitwise_reference  # allclose + identical pattern only
    assert info.model_speed_factor < 1.0
    assert info.planner_rank is not None


def test_get_backend_memoises_per_canonical_params():
    assert get_backend("reference") is get_backend("reference")
    a = get_backend("sharded", (("workers", 4),))
    b = get_backend("sharded", {"workers": 4})
    assert a is b and a.workers == 4
    assert get_backend("sharded") is not a  # different canonical params
    with pytest.raises(KeyError) as e:
        get_backend("nope")
    assert "reference" in str(e.value)


def test_parse_backend_and_supports():
    assert parse_backend("scipy") == ("scipy", ())
    name, params = parse_backend("sharded:workers=4,inner=vectorized")
    assert name == "sharded" and dict(params) == {"workers": 4, "inner": "vectorized"}
    # Instance-level compatibility: sharded answers from its inner.
    assert backend_supports("sharded", params, "cluster")
    assert backend_supports("sharded", params, "rowwise")  # vectorized rowwise path
    assert not backend_supports("sharded", params, "tiled")
    assert backend_supports("sharded", (), "rowwise")  # inner=reference
    assert not backend_supports("vectorized", (), "tiled")


def test_sharded_rejects_self_nesting():
    with pytest.raises(ValueError, match="nest"):
        get_backend("sharded", (("inner", "sharded"),))


def test_describe_lists_backends():
    from repro.pipeline import describe

    text = describe()
    assert "backends:" in text
    assert "sharded" in text and "process" in text


# ----------------------------------------------------------------------
# Spec grammar: @backend round-trips and errors
# ----------------------------------------------------------------------
def test_spec_backend_round_trip():
    for s in (
        "rcm+fixed:8+cluster@scipy",
        "rcm+fixed:8+cluster@sharded:workers=2",
        "original+variable+cluster@sharded:workers=2,inner=vectorized",
        "rcm+hierarchical:max_th=8+cluster@vectorized",
    ):
        spec = PipelineSpec.parse(s)
        assert PipelineSpec.parse(str(spec)) == spec
        assert "@" in str(spec)


def test_spec_default_backend_is_reference_and_omitted():
    spec = PipelineSpec.parse("rcm+fixed:8+cluster")
    assert spec.backend == "reference" and spec.backend_params == ()
    assert "@" not in str(spec)
    assert spec == PipelineSpec.parse("rcm+fixed:8+cluster@reference").with_backend("reference")


def test_spec_backend_only_string():
    spec = PipelineSpec.parse("@scipy")
    assert (spec.reordering, spec.clustering, spec.kernel, spec.backend) == (
        "original",
        None,
        "rowwise",
        "scipy",
    )
    assert PipelineSpec.parse(str(spec)) == spec


def test_spec_backend_errors():
    with pytest.raises(KeyError, match="backend"):
        PipelineSpec.parse("rcm@nope")
    with pytest.raises(ValueError, match="backend"):
        PipelineSpec.parse("rcm@scipy@scipy")
    with pytest.raises(ValueError, match="'@'"):
        PipelineSpec.parse("rcm@")
    # Backend names are not '+' segments.
    with pytest.raises(ValueError, match="@scipy"):
        PipelineSpec.parse("rcm+scipy")
    # Backend–kernel incompatibility is a construction error.
    with pytest.raises(ValueError, match="support"):
        PipelineSpec.parse("rcm+tiled@vectorized")
    with pytest.raises(ValueError, match="support"):
        PipelineSpec(kernel="tiled", backend="sharded", backend_params=(("inner", "vectorized"),))


def test_spec_with_backend_and_label():
    spec = PipelineSpec.parse("rcm+fixed:8+cluster")
    s2 = spec.with_backend("sharded:workers=4")
    assert s2.backend == "sharded" and dict(s2.backend_params)["workers"] == 4
    # Labels carry backend params so distinct configurations stay
    # distinct in the engine ledger.
    assert s2.label.endswith("@sharded:workers=4")
    assert spec.with_backend("scipy").label.endswith("@scipy")
    assert spec.label == "rcm+fixed/cluster"
    assert spec.bitwise and s2.bitwise and not spec.with_backend("scipy").bitwise


# ----------------------------------------------------------------------
# Dispatch: one path, correct results
# ----------------------------------------------------------------------
def test_execute_rejects_incompatible_kernel():
    built = PipelineSpec.parse("original+none+tiled").build(A)
    with pytest.raises(ValueError, match="support"):
        execute(built, A, kernel="tiled", backend="vectorized")


def test_context_accumulates_stats_across_executions():
    ctx = ExecutionContext()
    built = PipelineSpec.parse("original+none+rowwise").build(A)
    execute(built, A, kernel="rowwise", kernel_params={"accumulator": "sort"}, ctx=ctx)
    execute(built, A, kernel="rowwise", kernel_params={"accumulator": "sort"}, ctx=ctx)
    assert ctx.stats["reference_calls"] == 2


def test_vectorized_matches_cluster_kernel_bitwise():
    from repro.backends import vectorized_cluster_spgemm
    from repro.clustering import get_clustering
    from repro.core.cluster_spgemm import cluster_spgemm

    for name, kw in (("fixed", {"cluster_size": 8}), ("variable", {}), ("hierarchical", {})):
        cl = get_clustering(name)(A, **kw)
        Ac = cl.to_csr_cluster(A)
        want = cluster_spgemm(Ac, A, restore_order=True)
        got = vectorized_cluster_spgemm(Ac, A, restore_order=True)
        assert got.same_pattern(want)
        assert np.array_equal(got.values, want.values), name


def test_scipy_backend_pattern_identical_allclose():
    C = PipelineSpec.parse("rcm+fixed:8+cluster@scipy").run(A)
    assert C.same_pattern(REF) and C.allclose(REF)


def test_sharded_backend_bitwise_over_rows_and_clusters():
    assert _bitwise(PipelineSpec.parse("rcm@sharded:workers=2").run(A))
    assert _bitwise(PipelineSpec.parse("rcm+fixed:8+cluster@sharded:workers=2").run(A))
    assert _bitwise(
        PipelineSpec.parse("original+variable+cluster@sharded:workers=3,inner=vectorized").run(A)
    )


def test_sharded_cluster_shards_carry_csr_for_ar_consuming_inners():
    # The CI matrix spec: cluster-kernel shards must expose the matching
    # CSR rows so an inner backend that reads operand.Ar (scipy) works.
    C = PipelineSpec.parse("rcm+fixed:8+cluster@sharded:workers=2,inner=scipy").run(A)
    assert C.same_pattern(REF) and C.allclose(REF)


# ----------------------------------------------------------------------
# Sharded: graceful degradation when the pool is unavailable
# ----------------------------------------------------------------------
def test_sharded_falls_back_in_process_when_pool_unavailable(monkeypatch):
    from repro.backends import sharded as sh_mod
    from repro.backends.sharded import ShardedBackend

    monkeypatch.setenv(sh_mod.CORES_ENV, "2")  # force a pool on any host

    class BrokenPool:
        def __init__(self, *a, **kw):
            raise OSError("no processes in this sandbox")

    monkeypatch.setattr(sh_mod, "_ShardWorkerPool", BrokenPool)
    be = ShardedBackend(workers=2)
    built = PipelineSpec.parse("rcm+fixed:8+cluster").build(A)
    ctx = ExecutionContext()
    C = be.execute(built, A, kernel="cluster", kernel_params={}, ctx=ctx)
    if built.inv is not None:
        C = C.permute_rows(built.inv)
    assert _bitwise(C)
    assert ctx.stats["sharded_pool_fallbacks"] == 1
    assert sh_mod.INPROCESS_ENV == "REPRO_SHARDED_INPROCESS"


def test_sharded_retries_a_fresh_pool_after_transient_failure(monkeypatch):
    # One broken pool must not disable sharding for the rest of the
    # process: the next execution gets a fresh pool.
    from repro.backends import sharded as sh_mod
    from repro.backends.sharded import ShardedBackend

    monkeypatch.setenv(sh_mod.CORES_ENV, "2")  # force a pool on any host
    real_pool = sh_mod._ShardWorkerPool
    calls = {"n": 0}

    class FlakyPool:
        def __new__(cls, *a, **kw):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("transient spawn failure")
            return real_pool(*a, **kw)

    monkeypatch.setattr(sh_mod, "_ShardWorkerPool", FlakyPool)
    be = ShardedBackend(workers=2)
    built = PipelineSpec.parse("rcm").build(A)
    ctx = ExecutionContext()
    C1 = be.execute(built, A, kernel="rowwise", kernel_params={"accumulator": "sort"}, ctx=ctx)
    assert ctx.stats["sharded_pool_fallbacks"] == 1
    C2 = be.execute(built, A, kernel="rowwise", kernel_params={"accumulator": "sort"}, ctx=ctx)
    assert ctx.stats["sharded_pool_fallbacks"] == 1  # second run used the pool
    assert calls["n"] == 2 and be._pool is not None
    for C in (C1, C2):
        assert _bitwise(C.permute_rows(built.inv) if built.inv is not None else C)
    be.close()


def test_sharded_env_kill_switch_runs_in_process(monkeypatch):
    from repro.backends.sharded import INPROCESS_ENV, ShardedBackend

    monkeypatch.setenv(INPROCESS_ENV, "1")
    be = ShardedBackend(workers=2)
    built = PipelineSpec.parse("rcm").build(A)
    ctx = ExecutionContext()
    C = be.execute(built, A, kernel="rowwise", kernel_params={"accumulator": "sort"}, ctx=ctx)
    if built.inv is not None:
        C = C.permute_rows(built.inv)
    assert _bitwise(C)
    # Deliberate in-process execution is not a pool *fallback*.
    assert "sharded_pool_fallbacks" not in ctx.stats
    assert ctx.stats["reference_calls"] == ctx.stats["sharded_shards"]


# ----------------------------------------------------------------------
# Sharded: forced worker pool (shm data plane)
# ----------------------------------------------------------------------
def _pool_run(be, built, B, kernel, kernel_params):
    ctx = ExecutionContext()
    C = be.execute(built, B, kernel=kernel, kernel_params=dict(kernel_params), ctx=ctx)
    if built.inv is not None:
        C = C.permute_rows(built.inv)
    return C, ctx


def test_sharded_pool_matches_inprocess_across_inners(monkeypatch):
    # Bitwise identity pool-vs-in-process for every inner backend the CI
    # matrix exercises; scipy is pattern-identical + allclose (its own
    # contract), everything else must be byte-for-byte.
    from repro.backends import operand_store as ostore
    from repro.backends.sharded import ShardedBackend

    monkeypatch.setenv("REPRO_SHARDED_CORES", "3")
    cases = [
        ("rcm", "rowwise", {"accumulator": "sort"}, "reference", True),
        ("rcm+fixed:8+cluster", "cluster", {}, "reference", True),
        ("rcm+fixed:8+cluster", "cluster", {}, "vectorized", True),
        ("rcm+fixed:8+cluster", "cluster", {}, "scipy", False),
    ]
    for spec, kernel, params, inner, bitwise in cases:
        built = PipelineSpec.parse(spec).build(A)
        be = ShardedBackend(workers=3, inner=inner)
        try:
            C_pool, ctx = _pool_run(be, built, A, kernel, params)
            assert "sharded_pool_fallbacks" not in ctx.stats, (spec, inner)
            monkeypatch.setenv("REPRO_SHARDED_INPROCESS", "1")
            C_seq, _ = _pool_run(be, built, A, kernel, params)
            monkeypatch.delenv("REPRO_SHARDED_INPROCESS")
            assert C_pool.same_pattern(C_seq), (spec, inner)
            if bitwise:
                assert np.array_equal(C_pool.values, C_seq.values), (spec, inner)
            else:
                assert C_pool.allclose(C_seq), (spec, inner)
        finally:
            be.close()
    assert ostore.leaked_segments() == []


def test_spec_run_and_engine_close_release_their_sharded_resources(monkeypatch):
    # A backend holding worker processes and shm segments belongs to
    # the pipeline or engine that opened it, never to the process-wide
    # get_backend() memo: spec.run() releases it before returning, a
    # built pipeline or an engine keeps it resident until close().
    from repro.backends import open_backend
    from repro.backends import operand_store as ostore

    monkeypatch.setenv("REPRO_SHARDED_CORES", "2")
    shared = get_backend("sharded", {"workers": 2})
    opened = open_backend("sharded", {"workers": 2})
    assert opened is not shared and opened.workers == 2
    opened.close()
    assert open_backend("scipy") is get_backend("scipy")  # stateless: shared
    before = set(ostore.leaked_segments())

    spec = PipelineSpec.parse("rcm@sharded:workers=2")
    assert _bitwise(spec.run(A))
    assert set(ostore.leaked_segments()) == before
    built = spec.build(A)
    assert _bitwise(built.execute(A))
    assert set(ostore.leaked_segments()) > before
    built.close()
    assert set(ostore.leaked_segments()) == before

    with SpGEMMEngine(pipeline="rcm@sharded:workers=2") as eng:
        assert _bitwise(eng.multiply(A))
        assert _bitwise(eng.multiply(A))
        assert set(ostore.leaked_segments()) > before  # warm operands stay resident
    assert set(ostore.leaked_segments()) == before
    assert _bitwise(eng.multiply(A))  # a closed engine reopens on demand
    eng.close()
    assert set(ostore.leaked_segments()) == before
    assert shared._store.resident_tokens() == ()


def test_sharded_pool_warm_calls_ship_nothing(monkeypatch):
    # The PR's acceptance number: repeated multiplies against the same B
    # must cut per-call serialized operand bytes >= 10x.  With shm
    # residency the warm-call shipped delta is zero — only descriptors
    # cross the pipe.
    from repro.backends.sharded import ShardedBackend

    monkeypatch.setenv("REPRO_SHARDED_CORES", "3")
    be = ShardedBackend(workers=3)  # dedicated instance: cold store
    built = PipelineSpec.parse("rcm+fixed:8+cluster").build(A)
    try:
        _, ctx1 = _pool_run(be, built, A, "cluster", {})
        cold = ctx1.stats["sharded_bytes_shipped"]
        assert cold > 0 and ctx1.stats.get("sharded_bytes_reused", 0) == 0
        _, ctx2 = _pool_run(be, built, A, "cluster", {})
        warm = ctx2.stats.get("sharded_bytes_shipped", 0)
        assert ctx2.stats["sharded_bytes_reused"] >= cold  # resident hits
        assert warm * 10 <= cold  # >= 10x reduction (delta is in fact 0)
    finally:
        be.close()


def test_sharded_pool_inner_spec_round_trips_to_workers(monkeypatch):
    # Satellite of the pickling fix: the parsed inner spec (name +
    # params) reaches the worker processes, which construct the same
    # inner backend — not a default-params lookalike.
    from repro.backends.sharded import ShardedBackend

    monkeypatch.setenv("REPRO_SHARDED_CORES", "3")
    name, params = parse_backend("vectorized")
    be = ShardedBackend(workers=3, inner="vectorized")
    assert (be.inner_name, be.inner_params) == (name, params)
    assert be.inner is get_backend(name, params)
    built = PipelineSpec.parse("rcm+fixed:8+cluster").build(A)
    try:
        C, ctx = _pool_run(be, built, A, "cluster", {})
        assert "sharded_pool_fallbacks" not in ctx.stats
        assert _bitwise(C)
    finally:
        be.close()


def test_sharded_worker_kernel_error_reraises_without_fallback(monkeypatch):
    # A deterministic compute error in a worker must re-raise in the
    # parent (classified as non-infra) — never silently re-execute the
    # shards in-process.  The poison patch rides into the workers via
    # fork, firing only off the parent pid, so the leader's shard 0
    # succeeds while every worker shard raises.
    import os as _os

    from repro.backends.reference import ReferenceBackend
    from repro.backends.sharded import ShardedBackend

    monkeypatch.setenv("REPRO_SHARDED_CORES", "3")
    parent = _os.getpid()
    real_exec = ReferenceBackend.execute

    def poisoned(self, operand, B, **kw):
        if _os.getpid() != parent:
            raise ValueError("poisoned shard kernel")
        return real_exec(self, operand, B, **kw)

    monkeypatch.setattr(ReferenceBackend, "execute", poisoned)
    be = ShardedBackend(workers=3)
    built = PipelineSpec.parse("rcm").build(A)
    ctx = ExecutionContext()
    try:
        with pytest.raises(ValueError, match="poisoned shard kernel"):
            be.execute(
                built, A, kernel="rowwise", kernel_params={"accumulator": "sort"}, ctx=ctx
            )
        assert "sharded_pool_fallbacks" not in ctx.stats  # no double execution
    finally:
        be.close()


def test_sharded_pool_recovers_from_sigkilled_worker(monkeypatch):
    # Kill -9 a worker between calls: the next execute detects the dead
    # pool, rebuilds it, and the fresh workers re-attach the *resident*
    # segments (reuse, not a fallback).  Nothing leaks in /dev/shm.
    import signal

    from repro.backends import operand_store as ostore
    from repro.backends.sharded import ShardedBackend

    monkeypatch.setenv("REPRO_SHARDED_CORES", "3")
    be = ShardedBackend(workers=3)
    built = PipelineSpec.parse("rcm").build(A)
    try:
        C1, ctx1 = _pool_run(be, built, A, "rowwise", {"accumulator": "sort"})
        import os as _os

        victim = be._pool.workers[0].proc
        _os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5)
        C2, ctx2 = _pool_run(be, built, A, "rowwise", {"accumulator": "sort"})
        assert "sharded_pool_fallbacks" not in ctx2.stats  # rebuilt, not degraded
        assert ctx2.stats["sharded_bytes_reused"] > 0  # segments survived
        assert _bitwise(C1) and _bitwise(C2)
    finally:
        be.close()
    assert ostore.leaked_segments() == []


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
def test_engine_default_backend_stays_bitwise():
    eng = SpGEMMEngine(policy="heuristic")
    assert _bitwise(eng.multiply(A))
    assert eng.plan_for(A).backend == "reference"


def test_engine_constructor_backend_pins_every_plan():
    eng = SpGEMMEngine(policy="heuristic", backend="scipy")
    C = eng.multiply(A)
    plan = eng.plan_for(A)
    assert plan.backend == "scipy" and plan.label.endswith("@scipy")
    assert C.same_pattern(REF) and C.allclose(REF)
    assert eng.stats().backend_events.get("scipy_calls") == 1


def test_engine_per_call_backend_override():
    eng = SpGEMMEngine(policy="heuristic")
    eng.multiply(A)
    C = eng.multiply(A, backend="sharded:workers=2,inner=vectorized")
    assert _bitwise(C)
    plan = eng.plan_for(A, backend="sharded:workers=2,inner=vectorized")
    assert plan.backend == "sharded"
    assert dict(plan.backend_params) == {"workers": 2, "inner": "vectorized"}
    # Pinning vectorized-inner sharding restricts the space to the
    # kernels vectorized supports; the planner's model picks hybrid
    # (rowwise dataflow at the hybrid speed factor, no cluster build).
    assert plan.kernel in {"cluster", "rowwise", "hybrid"}


def test_plan_cache_keys_include_backend():
    # A plan tuned for scipy must never be served to a reference call:
    # the two calls build two distinct cache entries.
    eng = SpGEMMEngine(policy="heuristic")
    eng.multiply(A)
    eng.multiply(A, backend="scipy")
    st = eng.stats()
    assert st.plans_built == 2 and st.plan_cache_hits == 0
    assert len(eng.plan_cache) == 2
    # And repeating each call hits its own entry.
    eng.multiply(A)
    eng.multiply(A, backend="scipy")
    assert eng.stats().plan_cache_hits == 2
    assert eng.stats().plans_built == 2


def test_engine_auto_backend_plans_and_matches_pattern():
    eng = SpGEMMEngine(policy="autotune", backend="auto")
    C = eng.multiply(A)
    plan = eng.plan_for(A)
    # Whatever backend wins, the execution contract holds.
    assert C.same_pattern(REF) and C.allclose(REF)
    assert plan.backend in available_components("backend")


def test_predictor_policy_honours_auto_backend():
    # backend="auto" is an explicit opt-in; the predictor applies it by
    # re-targeting its chosen triple at the best-ranked supporting
    # backend (scipy, given its model_speed_factor), not by silently
    # staying on reference.
    eng = SpGEMMEngine(policy="predictor", backend="auto")
    C = eng.multiply(A)
    plan = eng.plan_for(A)
    assert plan.backend != "reference"
    assert C.same_pattern(REF) and C.allclose(REF)


def test_engine_pipeline_spec_with_backend():
    eng = SpGEMMEngine(pipeline="rcm+fixed:8+cluster@sharded:workers=2")
    assert _bitwise(eng.multiply(A))
    plan = eng.plan_for(A)
    assert plan.backend == "sharded" and plan.pipeline().backend == "sharded"
    ev = eng.stats().backend_events
    assert ev.get("sharded_executions", 0) >= 1


def test_engine_multiply_many_with_backend():
    Bs = [G.web_graph(220, seed=s) for s in (10, 11)]
    eng = SpGEMMEngine(policy="heuristic")
    outs = eng.multiply_many(A, Bs, backend="scipy")
    for B, C in zip(Bs, outs):
        want = spgemm_rowwise(A, B)
        assert C.same_pattern(want) and C.allclose(want)


# ----------------------------------------------------------------------
# Planner robustness: reference-only registries
# ----------------------------------------------------------------------
def test_planner_valid_with_only_reference_registered(monkeypatch):
    from repro.engine.planner import HeuristicPlanner, planner_backends
    from repro.pipeline import registry as reg

    only_ref = {
        k: v for k, v in reg._REGISTRY.items() if v.kind != "backend" or v.name == "reference"
    }
    monkeypatch.setattr(reg, "_REGISTRY", only_ref)
    assert planner_backends() == ("reference",)
    planner = HeuristicPlanner(backend="auto", seed=0)
    from repro.engine.fingerprint import fingerprint

    plan = planner.plan(A, A, fingerprint(A), "asquare")
    assert plan.backend == "reference"
    assert {c.backend for c in planner._candidates(A)} == {"reference"}


# ----------------------------------------------------------------------
# Plan serialisation with the backend axis
# ----------------------------------------------------------------------
def test_plan_backend_serialisation_round_trip():
    plan = ExecutionPlan(
        reordering="rcm",
        clustering="fixed",
        kernel="cluster",
        backend="sharded",
        backend_params=(("workers", 2), ("inner", "vectorized")),
        predicted_cost=10.0,
        baseline_cost=12.0,
    )
    again = ExecutionPlan.from_json(plan.to_json())
    assert again == plan and again.backend_params == plan.backend_params


def test_plan_dicts_without_backend_fields_load_as_reference():
    # A plan persisted before the backend axis *and* before the adaptive
    # runtime: no backend fields (and its cache file carries no
    # fingerprint features — covered in test_engine_cache).  It must
    # still load — as reference — and still execute.
    d = ExecutionPlan(reordering="rcm", clustering=None, kernel="rowwise").to_dict()
    d.pop("backend")
    d.pop("backend_params")
    plan = ExecutionPlan.from_dict(d)
    assert plan.backend == "reference" and plan.backend_params == ()
    C = plan.pipeline().run(A)
    assert _bitwise(C)  # executes on the reference backend, bitwise


def test_plan_dicts_with_a_calibration_epoch_still_load():
    # Plans persisted while backend calibration existed carry its epoch;
    # the key is dropped on load and the plan still executes.
    want = ExecutionPlan(reordering="rcm", clustering="fixed", kernel="cluster", backend="scipy")
    plan = ExecutionPlan.from_dict(dict(want.to_dict(), calibration_epoch=2))
    assert plan == want
    C = plan.pipeline().run(A)
    assert C.same_pattern(REF) and C.allclose(REF)


def test_plan_rejects_unknown_or_incompatible_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        ExecutionPlan(reordering="original", clustering=None, kernel="rowwise", backend="nope")
    with pytest.raises(ValueError, match="support"):
        ExecutionPlan(
            reordering="original", clustering=None, kernel="tiled", backend="vectorized"
        )
