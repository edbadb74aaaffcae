"""Unit tests: fingerprints and the engine's fingerprint memo, execution
plans, the plan cache (cost-aware eviction, persistence), and the
experiments cache's corrupt-entry warning."""

import json
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import ExecutionPlan, PlanCache, SpGEMMEngine, fingerprint, value_digest
from repro.engine import engine as engine_mod
from repro.engine.fingerprint import pattern_digest
from repro.experiments import ExperimentConfig
from repro.experiments.cache import _load
from repro.matrices import generators as G
from repro.matrices import perturb_values, scramble


def make_plan(**over) -> ExecutionPlan:
    base = dict(
        reordering="rcm",
        clustering="variable",
        kernel="cluster",
        policy="autotune",
        workload="asquare",
        fingerprint_key="k",
        seed=0,
        params=(("jacc_th", 0.3), ("max_cluster_th", 8.0)),
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
# The engine's fingerprint memo (an LRU of FINGERPRINT_CACHE_SIZE)
# ----------------------------------------------------------------------
SMALL_CFG = ExperimentConfig(n_threads=2, cache_lines=128)


@pytest.fixture
def two_fingerprints(monkeypatch):
    monkeypatch.setattr(engine_mod, "FINGERPRINT_CACHE_SIZE", 2)


def test_fingerprint_memo_capacity_is_bounded(two_fingerprints):
    eng = SpGEMMEngine(config=SMALL_CFG)
    mats = [G.grid2d(4 + i, 4, seed=i) for i in range(3)]
    for A in mats:
        eng._fingerprint(A)
    assert len(eng._fingerprints) == 2  # capacity bound respected
    # The oldest entry was evicted; the two recent ones survive.
    assert pattern_digest(mats[0]) not in eng._fingerprints
    assert pattern_digest(mats[2]) in eng._fingerprints
    # Re-fingerprinting an evicted pattern is correct (recomputed, re-memoised).
    fp = eng._fingerprint(mats[0])
    assert fp.key.startswith(f"{mats[0].nrows}x")


def test_fingerprint_memo_is_lru_not_fifo(two_fingerprints):
    eng = SpGEMMEngine(config=SMALL_CFG)
    A, B, C = (G.grid2d(4 + i, 4, seed=i) for i in range(3))
    eng._fingerprint(A)
    eng._fingerprint(B)
    eng._fingerprint(A)  # touch A → B is now least-recently-used
    eng._fingerprint(C)
    assert pattern_digest(A) in eng._fingerprints
    assert pattern_digest(B) not in eng._fingerprints


@pytest.mark.parametrize(
    "kw, token",
    [
        (dict(backend="reference"), "heuristic:rcm,amd,rabbit,degree,slashburn:b=reference"),
        (dict(backend="scipy"), "heuristic:rcm,amd,rabbit,degree,slashburn:b=scipy"),
        (dict(policy="autotune", backend="reference"), "autotune:rcm,amd,rabbit,degree,slashburn:b=reference:k3"),
        (dict(policy="autotune", backend="auto"), "autotune:rcm,amd,rabbit,degree,slashburn:b=scipy:k3"),
        (dict(pipeline="rcm+variable+cluster"), "pipeline:rcm+variable+cluster"),
        (dict(pipeline="rcm", backend="auto"), "pipeline:rcm+none+rowwise@scipy"),
        # The default engine plans on scipy: it shares the scipy engine's token.
        (dict(), "heuristic:rcm,amd,rabbit,degree,slashburn:b=scipy"),
        (dict(policy="autotune"), "autotune:rcm,amd,rabbit,degree,slashburn:b=scipy:k3"),
    ],
    ids=[
        "heuristic", "heuristic-scipy", "autotune", "autotune-auto", "pipeline", "pipeline-auto",
        "default", "autotune-default",
    ],
)
def test_planner_cache_tokens_are_stable(kw, token):
    # Plan-cache keys embed the token: a changed token orphans every
    # persisted plan, so the strings are pinned.
    assert SpGEMMEngine(**kw).planner.cache_token == token


# ----------------------------------------------------------------------
# ExecutionPlan
# ----------------------------------------------------------------------
def test_plan_json_roundtrip():
    plan = make_plan()
    back = ExecutionPlan.from_json(plan.to_json())
    assert back == plan


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


def test_plan_validation():
    with pytest.raises(ValueError, match="cluster kernel"):
        make_plan(clustering=None)
    # Since the pipeline-spec API, hierarchical clustering composes with
    # an explicit reordering (it is built on the reordered operand), so
    # rcm+hierarchical is a *valid* plan now.
    assert make_plan(clustering="hierarchical").clustering == "hierarchical"
    with pytest.raises(ValueError, match="kernel"):
        make_plan(kernel="gpu")
    with pytest.raises(ValueError, match="clustering"):
        make_plan(clustering="quantum")
    with pytest.raises(ValueError, match="reordering"):
        make_plan(reordering="quantum")


# ----------------------------------------------------------------------
# PlanCache
# ----------------------------------------------------------------------
def test_plan_cache_hit_miss_counters():
    cache = PlanCache(capacity=4)
    assert cache.get("a") is None
    plan = make_plan()
    cache.put("a", plan)
    assert cache.get("a") is plan
    assert cache.stats()["hits"] == 1
    assert cache.stats()["misses"] == 1


def test_plan_cache_lru_eviction():
    cache = PlanCache(capacity=2)
    cache.put("a", make_plan(fingerprint_key="a"))
    cache.put("b", make_plan(fingerprint_key="b"))
    cache.get("a")  # refresh a → b is now the LRU entry
    cache.put("c", make_plan(fingerprint_key="c"))
    assert "a" in cache and "c" in cache
    assert "b" not in cache
    assert cache.evictions == 1


def _plan(invested: float, key: str = "k") -> ExecutionPlan:
    return make_plan(fingerprint_key=key, pre_cost=invested / 2, planning_cost=invested / 2)


def test_cost_aware_eviction_evicts_cheapest_to_replan_first():
    cache = PlanCache(capacity=2)
    cache.put("cheap", _plan(10.0))
    cache.put("expensive", _plan(1000.0))
    cache.get("cheap")  # recency must NOT save the cheap entry
    cache.put("mid", _plan(100.0))
    assert "expensive" in cache and "mid" in cache
    assert "cheap" not in cache


def test_cost_aware_eviction_breaks_ties_by_lru():
    cache = PlanCache(capacity=2)
    cache.put("a", _plan(50.0))
    cache.put("b", _plan(50.0))
    cache.get("a")  # equal costs → LRU decides: b is older
    cache.put("c", _plan(50.0))
    assert "a" in cache and "c" in cache and "b" not in cache


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_cost_aware_eviction_never_evicts_priciest_while_cheaper_exists(data):
    capacity = data.draw(st.integers(1, 6), label="capacity")
    n = data.draw(st.integers(capacity + 1, 20), label="inserts")
    costs = data.draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=n,
            max_size=n,
            unique=True,
        ),
        label="costs",
    )
    cache = PlanCache(capacity=capacity)
    for i, cost in enumerate(costs):
        cache.put(f"k{i}", _plan(cost))
        # Interleave recency touches: recency must never override cost.
        if i % 2 and f"k{i - 1}" in cache:
            cache.get(f"k{i - 1}")
    # Each insert evicts the cheapest *resident* (the newcomer is
    # admitted unconditionally — rejecting inserts would no-op put()),
    # so with all-distinct costs the survivors are exactly the last
    # insert plus the `capacity - 1` most expensive of the rest: the
    # priciest resident is never evicted while a cheaper one exists.
    rest = sorted((i for i in range(n - 1)), key=lambda i: costs[i])
    expect = {f"k{n - 1}"} | {f"k{i}" for i in rest[len(rest) - (capacity - 1):]}
    assert {k for k in (f"k{i}" for i in range(n)) if k in cache} == expect
    assert cache.evictions == n - capacity


def test_plan_cache_disk_persistence(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    plan = make_plan()
    PlanCache(persist=True).put("key1", plan)
    fresh = PlanCache(persist=True)
    got = fresh.get("key1")
    assert got == plan
    assert fresh.disk_hits == 1

    # Backward compat: a file persisted before the backend axis is a
    # bare plan dict with no backend fields.  It must load as a
    # reference plan.
    d = plan.to_dict()
    for legacy_missing in ("backend", "backend_params"):
        d.pop(legacy_missing)
    old = PlanCache(persist=True)
    old._path("old_key").write_text(json.dumps(d))
    loaded = old.get("old_key")
    assert loaded is not None
    assert loaded.backend == "reference"

    # Plans persisted while backend calibration existed carry a
    # calibration_epoch key; they load as the same plan.
    enveloped = {"plan": dict(plan.to_dict(), calibration_epoch=3), "features": None}
    old._path("epoch_key").write_text(json.dumps(enveloped))
    assert old.get("epoch_key") == plan


@pytest.fixture
def plan_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    return tmp_path


def test_plans_persist_as_bare_plan_dicts(plan_dir):
    plan = _plan(10.0)
    PlanCache(persist=True).put("key1", plan)
    fresh = PlanCache(persist=True)
    assert fresh.get("key1") == plan
    (path,) = list(plan_dir.rglob("plan_*.json"))
    assert json.loads(path.read_text()) == plan.to_dict()
    assert not list(plan_dir.rglob("*.tmp"))  # no temporary file left behind


def test_bare_and_enveloped_plan_files_both_load_as_disk_hits(plan_dir):
    # Older files wrap the plan in a {"plan", "features"} envelope;
    # existing cache directories must keep hitting.
    plan = _plan(10.0)
    cache = PlanCache(persist=True)
    cache._path("bare").write_text(json.dumps(plan.to_dict()))
    cache._path("envelope").write_text(
        json.dumps({"plan": plan.to_dict(), "features": [1.0, 2.0, 3.0]})
    )
    assert cache.get("bare") == plan
    assert cache.get("envelope") == plan
    assert cache.disk_hits == 2 and cache.misses == 0


def test_concurrent_writers_of_one_key_never_raise(plan_dir):
    # Separate caches on one directory stand in for engines (or
    # processes) persisting the same pattern at once.  Each writer must
    # go through its own temporary file: with a shared one, a writer's
    # rename finds the file already renamed away by another.
    plan = _plan(10.0)
    caches = [PlanCache(persist=True) for _ in range(4)]
    barrier = threading.Barrier(len(caches))
    errors: list = []

    def writer(cache: PlanCache) -> None:
        barrier.wait()
        try:
            for _ in range(1000):
                cache.put("same-key", plan)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(c,)) for c in caches]
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
    (path,) = list(plan_dir.rglob("plan_*.json"))
    assert ExecutionPlan.from_dict(json.loads(path.read_text())) == plan
    assert not list(plan_dir.rglob("*.tmp"))


def test_plan_cache_respects_no_cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    PlanCache(persist=True).put("key1", make_plan())
    assert not list(tmp_path.rglob("plan_*.json"))
    assert PlanCache(persist=True).get("key1") is None


def test_plan_cache_warns_on_corrupt_disk_entry(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    cache = PlanCache(persist=True)
    cache.put("key1", make_plan())
    (path,) = list(tmp_path.rglob("plan_*.json"))
    path.write_text("{not json")
    with pytest.warns(UserWarning, match="corrupt plan-cache entry"):
        assert PlanCache(persist=True).get("key1") is None


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
