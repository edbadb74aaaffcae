"""Unit tests: fingerprints, plan keys, pinned plans and the engine's
lookup, execution plans, the in-memory plan cache (LRU eviction,
membership, tracer events, engines sharing one cache), and the
experiments cache's corrupt-entry warning."""

import dataclasses
import math
import re
import sys
import threading
import time
import warnings
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_bitwise_equal
from repro.core import spgemm_rowwise
from repro.engine import ExecutionPlan, PlanCache, SpGEMMEngine, fingerprint, value_digest
from repro.engine import engine as engine_mod
from repro.engine.plan_cache import PLAN_CACHE_SIZE
from repro.engine.planner import Planner
from repro.experiments import ExperimentConfig
from repro.experiments.cache import _load
from repro.matrices import generators as G
from repro.matrices import perturb_values, scramble
from repro.obs import RingSink, Tracer
from repro.pipeline import PipelineSpec

PLAN_SPEC = PipelineSpec.parse("rcm+variable:jacc_th=0.3,max_cluster_th=8+cluster")


def make_plan(**over) -> ExecutionPlan:
    base = dict(
        spec=PLAN_SPEC,
        policy="autotune",
        workload="asquare",
        fingerprint_key="k",
        seed=0,
        predicted_cost=50.0,
        baseline_cost=100.0,
        pre_cost=200.0,
        planning_cost=300.0,
    )
    base.update(over)
    return ExecutionPlan(**base)


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_is_pattern_keyed():
    A = G.grid2d(8, 8, seed=1)
    B = perturb_values(A, scale=0.5, seed=2)
    fa, fb = fingerprint(A), fingerprint(B)
    assert fa.same_pattern(fb)
    assert fa.key == fb.key  # plan-cache key ignores values…
    assert value_digest(A) != value_digest(B)  # …the operand cache does not


def test_fingerprint_distinguishes_patterns():
    A = G.grid2d(8, 8, seed=1)
    C = scramble(A, seed=3)
    assert fingerprint(A).key != fingerprint(C).key


def test_fingerprint_features_deterministic():
    A = G.web_graph(200, seed=4)
    assert fingerprint(A, seed=0) == fingerprint(A, seed=0)


# ----------------------------------------------------------------------
# Plan keys, pinned plans and the engine's lookup
# ----------------------------------------------------------------------
SMALL_CFG = ExperimentConfig(n_threads=2, cache_lines=128)


@pytest.mark.parametrize(
    "kw, token",
    [
        (dict(backend="reference"), "heuristic:rcm,amd,rabbit,degree,slashburn:b=reference"),
        (dict(backend="scipy"), "heuristic:rcm,amd,rabbit,degree,slashburn:b=scipy"),
        (dict(policy="autotune", backend="reference"), "autotune:rcm,amd,rabbit,degree,slashburn:b=reference:k3"),
        # autotune ranks by simulated time, so kernel-blind scipy is refused.
        (dict(policy="autotune", backend="auto"), ValueError),
        (dict(pipeline="rcm+variable+cluster"), "pipeline:rcm+variable+cluster"),
        (dict(pipeline="rcm", backend="auto"), "pipeline:rcm+none+rowwise@scipy"),
        # The default engine plans on scipy: it shares the scipy engine's token.
        (dict(), "heuristic:rcm,amd,rabbit,degree,slashburn:b=scipy"),
        (dict(policy="autotune"), ValueError),
    ],
    ids=[
        "heuristic", "heuristic-scipy", "autotune", "autotune-auto", "pipeline", "pipeline-auto",
        "default", "autotune-default",
    ],
)
def test_planner_cache_tokens_are_stable(kw, token):
    # Plan-cache keys embed the token, and engines share a cache's plans
    # only when their tokens agree, so the strings are pinned.
    if token is ValueError:
        with pytest.raises(ValueError, match="backend=\"reference\""):
            SpGEMMEngine(**kw)
        return
    assert SpGEMMEngine(**kw).planner.cache_token == token


OTHER_CFG = dataclasses.replace(SMALL_CFG, n_threads=3, cache_lines=8, seed=5)


@pytest.mark.parametrize("cfg", [SMALL_CFG, OTHER_CFG], ids=["small", "other"])
def test_plan_key_suffix_derives_from_the_config(cfg):
    # The engine and its planner run the config's machine, and every
    # plan key ends in that machine's token and the config's seed.
    from repro.experiments.runner import machine_for

    A = G.grid2d(8, 8, seed=1)
    eng = SpGEMMEngine(config=cfg)
    m, want = eng.machine, machine_for(cfg)
    assert eng.planner.machine is m
    assert (m.n_threads, m.cache_lines, m.line_bytes, m.cost) == (
        want.n_threads, want.cache_lines, want.line_bytes, want.cost,
    )
    key = eng._key_for(A, fingerprint(A).key, "asquare")
    prefix = re.escape(f"|asquare|{eng.planner.cache_token}|{cfg.cache_key()}|")
    machine = rf"m{cfg.n_threads}t{cfg.cache_lines}l{m.line_bytes}b\[[^|]*\]"
    assert re.search(rf"{prefix}{machine}\|{cfg.seed}$", key), key


def test_plans_carry_the_configs_seed():
    A = scramble(G.grid2d(14, 14, seed=0), seed=7)
    assert SpGEMMEngine(config=OTHER_CFG).plan_for(A).seed == OTHER_CFG.seed
    assert SpGEMMEngine(config=SMALL_CFG).plan_for(A).seed == SMALL_CFG.seed


# Whole plans, costs included, pinned on two inputs: the spec string,
# policy, workload, fingerprint key, seed and the four model costs
# (predicted, baseline, pre, planning).  A change to how the planners
# search, build or simulate shows up here.  scipy plans are made
# without simulation, so their predicted, baseline and planning costs
# are nan (compared with math.isnan: nan never equals itself by value);
# autotune refuses scipy (ValueError).
NAN = math.nan
PLAN_PINS = {
    ("web", "heuristic", "scipy"): ("original+none+rowwise@scipy", "heuristic", "asquare", "300x300_2579_a6c7b4aea9abbe094c05", 0, NAN, NAN, 0.0, NAN),
    ("web", "heuristic", "reference"): ("original+none+rowwise", "heuristic", "asquare", "300x300_2579_a6c7b4aea9abbe094c05", 0, 56087.0, 56087.0, 0.0, 56087.0),
    ("web", "autotune", "scipy"): ValueError,
    ("web", "autotune", "reference"): ("original+none+rowwise", "autotune", "asquare", "300x300_2579_a6c7b4aea9abbe094c05", 0, 56087.0, 56087.0, 0.0, 3335139.0),
    ("web", "pipeline", "scipy"): ("rcm+variable+cluster@scipy", "pipeline", "asquare", "300x300_2579_a6c7b4aea9abbe094c05", 0, NAN, NAN, 552951.0, NAN),
    ("web", "pipeline", "reference"): ("rcm+variable+cluster", "pipeline", "asquare", "300x300_2579_a6c7b4aea9abbe094c05", 0, 72578.0, 56087.0, 552951.0, 128665.0),
    ("grid", "heuristic", "scipy"): ("rcm+none+rowwise@scipy", "heuristic", "asquare", "196x196_924_b45e4c79122c5bb0af66", 0, NAN, NAN, 87360.0, NAN),
    ("grid", "heuristic", "reference"): ("original+variable:jacc_th=0.3,max_cluster_th=8+cluster", "heuristic", "asquare", "196x196_924_b45e4c79122c5bb0af66", 0, 35115.0, 36241.0, 5517.0, 71356.0),
    ("grid", "autotune", "scipy"): ValueError,
    ("grid", "autotune", "reference"): ("rcm+variable:jacc_th=0.3,max_cluster_th=8+cluster", "autotune", "asquare", "196x196_924_b45e4c79122c5bb0af66", 0, 23307.0, 36241.0, 92880.0, 150227.0),
    ("grid", "pipeline", "scipy"): ("rcm+variable+cluster@scipy", "pipeline", "asquare", "196x196_924_b45e4c79122c5bb0af66", 0, NAN, NAN, 92880.0, NAN),
    ("grid", "pipeline", "reference"): ("rcm+variable+cluster", "pipeline", "asquare", "196x196_924_b45e4c79122c5bb0af66", 0, 23307.0, 36241.0, 92880.0, 59548.0),
}
PIN_MATRICES = {
    "web": lambda: G.web_graph(300, seed=5),
    "grid": lambda: scramble(G.grid2d(14, 14, seed=0), seed=7),
}
PIN_ENGINES = {
    "heuristic": dict(policy="heuristic"),
    "autotune": dict(policy="autotune"),
    "pipeline": dict(pipeline="rcm+variable+cluster"),
}


@pytest.mark.parametrize("case", list(PLAN_PINS), ids=["-".join(case) for case in PLAN_PINS])
def test_plans_are_pinned(case):
    matrix, engine, backend = case
    want = PLAN_PINS[case]
    if want is ValueError:
        with pytest.raises(ValueError, match="kernel-blind"):
            SpGEMMEngine(backend=backend, **PIN_ENGINES[engine])
        return
    plan = SpGEMMEngine(backend=backend, **PIN_ENGINES[engine]).plan_for(PIN_MATRICES[matrix]())
    got = (
        str(plan.spec), plan.policy, plan.workload, plan.fingerprint_key, plan.seed,
        plan.predicted_cost, plan.baseline_cost, plan.pre_cost, plan.planning_cost,
    )
    assert got[:5] == want[:5]
    for g, w in zip(got[5:], want[5:]):
        assert (math.isnan(g) and math.isnan(w)) or g == w, (got, want)
    assert plan.has_model_costs == (backend == "reference")


def test_cold_multiply_caches_the_planners_own_build(monkeypatch):
    # The operand the planner built while measuring its winner is the
    # one the engine caches and executes: nothing is built twice.
    A = scramble(G.grid2d(14, 14, seed=0), seed=7)
    eng = SpGEMMEngine(config=SMALL_CFG, backend="reference")
    builds = []
    build = PipelineSpec.build

    def spy(spec, *args, **kw):
        built = build(spec, *args, **kw)
        builds.append(built)
        return built

    monkeypatch.setattr(PipelineSpec, "build", spy)
    eng.multiply(A)
    (built,) = builds
    assert built.Ac is not None  # the clustered winner of the pinned plan
    (cached,) = eng._operands.values()
    assert cached is built
    s = eng.stats()
    # The call's own bind reuses it as the first cached operand.
    assert (s.operands_prepared, s.operands_reused, s.plan_cache_misses) == (1, 1, 1)
    eng.multiply(A)
    assert len(builds) == 1
    s = eng.stats()
    assert (s.operands_prepared, s.operands_reused, s.plan_cache_hits) == (1, 2, 1)


def test_lookup_hashes_only_what_it_needs(monkeypatch):
    # A warm call keys its plan by the pattern digest alone and never
    # computes structural features; a cold call computes them once and
    # hashes A's values once.
    A = G.web_graph(200, seed=4)
    calls = {"fingerprint": 0, "value_digest": 0}

    def counting(name, fn):
        def wrapped(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)

        monkeypatch.setattr(engine_mod, name, wrapped)

    counting("fingerprint", engine_mod.fingerprint)
    counting("value_digest", engine_mod.value_digest)
    eng = SpGEMMEngine(config=SMALL_CFG)
    eng.multiply(A)
    assert calls == {"fingerprint": 1, "value_digest": 1}
    eng.multiply(A)
    eng.multiply_many(A, [A, A])
    assert calls == {"fingerprint": 1, "value_digest": 3}
    assert eng.stats().plans_built == 1


@pytest.mark.parametrize("n", [300, 50], ids=["wider", "narrower"])
def test_plan_for_checks_the_inner_dimension(n):
    A, B = G.web_graph(200), G.web_graph(n)
    eng = SpGEMMEngine(config=SMALL_CFG)
    with pytest.raises(ValueError, match="inner dimensions differ"):
        eng.plan_for(A, B)
    assert len(eng.plan_cache) == 0
    s = eng.stats()
    assert (s.plans_built, s.plan_cache_misses, s.operands_prepared) == (0, 0, 0)
    assert not eng._operands


# ----------------------------------------------------------------------
# ExecutionPlan
# ----------------------------------------------------------------------
def test_plan_accounting():
    plan = make_plan()
    assert plan.predicted_gain == 50.0
    assert plan.predicted_speedup == pytest.approx(2.0)
    assert plan.invested_cost == 500.0
    assert plan.break_even_iterations() == pytest.approx(10.0)
    assert plan.amortized_cost(100) == pytest.approx(55.0)


def test_plan_without_gain_never_breaks_even():
    plan = make_plan(predicted_cost=100.0, baseline_cost=100.0)
    assert plan.break_even_iterations() == math.inf


def test_plan_label_and_pipeline_come_from_its_spec():
    plan = make_plan()
    assert plan.pipeline() is plan.spec is PLAN_SPEC
    assert plan.label == PLAN_SPEC.label == "rcm+variable/cluster"
    scipy_plan = make_plan(spec=PLAN_SPEC.with_backend("scipy"))
    assert scipy_plan.label == "rcm+variable/cluster@scipy"


def test_plan_is_a_frozen_spec_plus_its_costs():
    # The spec is the plan's only configuration field; nothing copies
    # it into flat fields, and a plan has no serialised form.
    assert [f.name for f in dataclasses.fields(ExecutionPlan)] == [
        "spec", "policy", "workload", "fingerprint_key", "seed",
        "predicted_cost", "baseline_cost", "pre_cost", "planning_cost",
    ]
    plan = make_plan()
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.spec = PLAN_SPEC.with_backend("scipy")
    for name in ("to_dict", "from_dict", "to_json"):
        assert not hasattr(ExecutionPlan, name), name
    assert make_plan() == plan and hash(make_plan()) == hash(plan)


def test_plan_validation():
    # A plan holds a spec, which validated itself against the registry
    # when it was built: every invalid configuration fails there.
    with pytest.raises(ValueError, match="kernel 'cluster' requires a clustering"):
        PipelineSpec("rcm", None, "cluster")
    # Since the pipeline-spec API, hierarchical clustering composes with
    # an explicit reordering (it is built on the reordered operand), so
    # rcm+hierarchical is a *valid* plan now.
    assert make_plan(spec=PLAN_SPEC.with_clustering("hierarchical")).spec.clustering == "hierarchical"
    with pytest.raises(KeyError, match="unknown kernel 'gpu'"):
        PipelineSpec("rcm", "variable", "gpu")
    with pytest.raises(KeyError, match="unknown clustering 'quantum'"):
        PipelineSpec("rcm", "quantum", "cluster")
    with pytest.raises(KeyError, match="unknown reordering 'quantum'"):
        PipelineSpec("quantum")
    with pytest.raises(ValueError, match="unknown accumulator 'bogus'"):
        PipelineSpec(kernel_params=(("accumulator", "bogus"),))


# ----------------------------------------------------------------------
# PlanCache
# ----------------------------------------------------------------------
def test_plan_cache_hit_miss_counters():
    # Hits and misses are the engine's ledger (EngineStats): the cache
    # returns what it holds and counts only evictions.
    cache = PlanCache()
    assert cache.get("a") is None and len(cache) == 0
    plan = make_plan()
    cache.put("a", plan)
    assert cache.get("a") is plan and len(cache) == 1
    stats = cache.stats()
    assert "hits" not in stats and "misses" not in stats
    assert stats == {"size": 1, "capacity": PLAN_CACHE_SIZE, "evictions": 0}


def _cache(capacity: int) -> PlanCache:
    cache = PlanCache()
    cache.capacity = capacity
    return cache


def test_plan_cache_lru_eviction():
    cache = _cache(2)
    cache.put("a", make_plan(fingerprint_key="a"))
    cache.put("b", make_plan(fingerprint_key="b"))
    cache.get("a")  # refresh a → b is now the LRU entry
    cache.put("c", make_plan(fingerprint_key="c"))
    assert "a" in cache and "c" in cache
    assert "b" not in cache
    assert cache.evictions == 1


def test_default_capacity_holds_plan_cache_size_plans():
    cache = PlanCache()
    for i in range(PLAN_CACHE_SIZE):
        cache.put(f"k{i}", make_plan(fingerprint_key=f"k{i}"))
    assert len(cache) == PLAN_CACHE_SIZE and cache.evictions == 0
    cache.put("one-more", make_plan(fingerprint_key="one-more"))
    assert "k0" not in cache and "k1" in cache and "one-more" in cache
    assert len(cache) == PLAN_CACHE_SIZE and cache.evictions == 1


@pytest.mark.parametrize("victim_cost", [0.0, 1e6, float("inf")])
def test_lru_eviction_ignores_replan_cost(victim_cost):
    # Recency alone picks the victim: neither a plan that is dear to
    # rebuild nor one whose rebuild cost is unknown is kept or dropped
    # for its cost.
    cache = _cache(2)
    cache.put("old", make_plan(pre_cost=victim_cost, planning_cost=victim_cost))
    cache.put("cheap", make_plan(pre_cost=1.0, planning_cost=1.0))
    cache.put("new", make_plan(pre_cost=5.0, planning_cost=5.0))
    assert "old" not in cache
    assert "cheap" in cache and "new" in cache


def test_replacing_a_resident_plan_refreshes_it_without_evicting():
    cache = _cache(2)
    cache.put("a", make_plan(fingerprint_key="a"))
    cache.put("b", make_plan(fingerprint_key="b"))
    fresh = make_plan(fingerprint_key="a2")
    cache.put("a", fresh)  # replace: a becomes the most recent
    assert cache.evictions == 0 and len(cache) == 2
    cache.put("c", make_plan(fingerprint_key="c"))
    assert "b" not in cache and cache.get("a") is fresh and "c" in cache
    assert cache.evictions == 1


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_plan_cache_matches_an_lru_model(data):
    capacity = data.draw(st.integers(1, 6), label="capacity")
    ops = data.draw(
        st.lists(st.tuples(st.booleans(), st.integers(0, 9)), max_size=40), label="ops"
    )
    cache = _cache(capacity)
    model: "OrderedDict[str, ExecutionPlan]" = OrderedDict()
    evictions = 0
    for is_put, k in ops:
        key = f"k{k}"
        if is_put:
            plan = make_plan(fingerprint_key=key)
            cache.put(key, plan)
            model[key] = plan
            model.move_to_end(key)
            while len(model) > capacity:
                model.popitem(last=False)
                evictions += 1
        else:
            got = cache.get(key)
            assert got is model.get(key)
            if key in model:
                model.move_to_end(key)
    assert {f"k{k}" for k in range(10) if f"k{k}" in cache} == set(model)
    assert len(cache) == len(model) and cache.evictions == evictions


def test_contains_never_touches_counters_or_recency():
    cache = _cache(2)
    cache.put("a", make_plan())
    cache.put("b", make_plan())
    before = cache.stats()
    assert "a" in cache and "missing" not in cache
    assert cache.stats() == before
    # A get() would have refreshed "a"; membership must not.
    cache.put("c", make_plan())
    assert "a" not in cache and "b" in cache


def test_put_event_flags_replacement():
    sink = RingSink()
    cache = PlanCache()
    cache.tracer = Tracer(sink)
    plan = make_plan()
    cache.put("key", plan)
    cache.put("key", plan)
    puts = sink.by_name("plan_cache.put")
    assert [e.tags["replaced"] for e in puts] == [False, True]
    assert all(e.tags["plan"] == plan.label for e in puts)
    assert len(cache) == 1 and cache.evictions == 0


def test_engines_sharing_a_plan_cache_multiply_concurrently():
    A = G.grid2d(8, 8, seed=1)
    ref = spgemm_rowwise(A, A)
    shared = PlanCache()
    engines = [SpGEMMEngine(config=SMALL_CFG, plan_cache=shared) for _ in range(4)]
    barrier = threading.Barrier(len(engines))
    results: list = []
    errors: list = []

    def run(eng: SpGEMMEngine) -> None:
        barrier.wait()
        try:
            results.append(eng.multiply(A))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(e,)) for e in engines]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == len(engines)
    for C in results:
        assert_bitwise_equal(C, ref)
    # One key: the engines agree on it, so they hold one entry between them.
    assert len(shared) == 1
    assert all(eng.plan_for(A) == engines[0].plan_for(A) for eng in engines)


def test_engines_sharing_a_plan_cache_build_each_cold_plan_once(monkeypatch):
    # Four engines miss one cold key at once; the planner is slowed so
    # their lookups overlap.  The cache lets one of them build, and the
    # others wait for its plan.
    A = G.grid2d(8, 8, seed=1)
    ref = spgemm_rowwise(A, A)
    plan = Planner.plan

    def slow_plan(self, *args, **kwargs):
        time.sleep(0.2)
        return plan(self, *args, **kwargs)

    monkeypatch.setattr(Planner, "plan", slow_plan)
    shared = PlanCache()
    engines = [SpGEMMEngine(config=SMALL_CFG, plan_cache=shared) for _ in range(4)]
    barrier = threading.Barrier(len(engines))
    results: list = []
    errors: list = []

    def run(eng: SpGEMMEngine) -> None:
        barrier.wait()
        try:
            results.append(eng.multiply(A))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(e,)) for e in engines]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == len(engines)
    for C in results:
        assert_bitwise_equal(C, results[0])
        assert_bitwise_equal(C, ref)
    assert sum(eng.stats().plans_built for eng in engines) == 1
    assert sum(eng.stats().plan_cache_misses for eng in engines) == 1
    assert sum(eng.stats().plan_cache_hits for eng in engines) == 3


def test_get_or_build_builds_once_and_retries_after_a_failed_build():
    cache = PlanCache()
    plan = make_plan()
    builds = []

    def failing():
        builds.append("failed")
        raise RuntimeError("planner failed")

    with pytest.raises(RuntimeError, match="planner failed"):
        cache.get_or_build("k", failing)
    assert "k" not in cache
    # A failed build leaves no flight behind: the next caller builds.
    assert cache.get_or_build("k", lambda: builds.append("built") or plan) == (plan, True)
    assert cache.get_or_build("k", failing) == (plan, False)
    assert builds == ["failed", "built"]


def test_concurrent_writers_of_one_key_never_raise():
    # Serve's planner and dispatch threads put into one cache; replacing
    # one key from many threads at once must neither raise nor leave a
    # second entry behind.
    plan = make_plan()
    cache = PlanCache()
    barrier = threading.Barrier(4)
    errors: list = []

    def writer() -> None:
        barrier.wait()
        try:
            for _ in range(1000):
                cache.put("same-key", plan)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(cache) == 1 and cache.get("same-key") is plan
    assert cache.evictions == 0


ENGINE_KW = {
    "heuristic": dict(policy="heuristic"),
    "autotune": dict(policy="autotune", backend="reference"),
    "pipeline": dict(pipeline="rcm+fixed:8+cluster"),
}


@pytest.mark.parametrize("kw", list(ENGINE_KW.values()), ids=list(ENGINE_KW))
def test_fresh_engine_reuses_a_shared_caches_plan(kw):
    A = G.grid2d(10, 10, seed=3)
    ref = spgemm_rowwise(A, A)
    shared = PlanCache()
    first = SpGEMMEngine(config=SMALL_CFG, plan_cache=shared, **kw)
    assert_bitwise_equal(first.multiply(A), ref)
    assert first.stats().plans_built == 1

    fresh = SpGEMMEngine(config=SMALL_CFG, plan_cache=shared, **kw)
    assert_bitwise_equal(fresh.multiply(A), ref)
    assert fresh.stats().plans_built == 0
    assert fresh.stats().plan_cache_hits == 1
    assert fresh.plan_for(A) is first.plan_for(A)


@pytest.mark.parametrize("kw", list(ENGINE_KW.values()), ids=list(ENGINE_KW))
def test_no_engine_path_writes_plan_files(tmp_path, monkeypatch, kw):
    # Plans live only in memory: with the cache directory enabled, a
    # second engine on its own cache plans again and nothing is written.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    A = G.grid2d(8, 8, seed=2)
    for _ in range(2):
        eng = SpGEMMEngine(config=SMALL_CFG, plan_cache=PlanCache(), **kw)
        eng.multiply(A)
        assert eng.stats().plans_built == 1
    assert list(tmp_path.rglob("*")) == []


def test_evicted_plan_is_rebuilt_on_the_next_multiply():
    A = G.grid2d(8, 8, seed=1)
    B = G.grid2d(9, 9, seed=1)
    eng = SpGEMMEngine(config=SMALL_CFG, plan_cache=_cache(1))
    for M in (A, B, A):
        assert_bitwise_equal(eng.multiply(M), spgemm_rowwise(M, M))
    assert eng.stats().plans_built == 3
    assert eng.plan_cache.evictions == 2 and len(eng.plan_cache) == 1


# ----------------------------------------------------------------------
# Experiments cache: corrupt entries must be reported, not swallowed
# ----------------------------------------------------------------------
def test_experiments_cache_warns_on_corrupt_pickle(tmp_path):
    bad = tmp_path / "sweep_unit_deadbeef.pkl"
    bad.write_bytes(b"this is not a pickle")
    with pytest.warns(UserWarning, match="sweep_unit_deadbeef.pkl"):
        assert _load(bad) is None


def test_experiments_cache_loads_valid_pickle(tmp_path):
    import pickle

    path = tmp_path / "ok.pkl"
    path.write_bytes(pickle.dumps({"x": 1}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _load(path) == {"x": 1}


def test_perturb_values_keeps_pattern():
    A = G.grid2d(6, 6, seed=9)
    B = perturb_values(A, scale=0.1, seed=1)
    assert B.same_pattern(A)
    assert not np.array_equal(B.values, A.values)
    with pytest.raises(ValueError):
        perturb_values(A, scale=-1.0)
