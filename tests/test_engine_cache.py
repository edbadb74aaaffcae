"""Unit tests: fingerprints, execution plans, the plan cache, and the
experiments cache's corrupt-entry warning."""

import math
import warnings

import numpy as np
import pytest

from repro.engine import ExecutionPlan, PlanCache, fingerprint, value_digest
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


def test_plan_cache_disk_persistence(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    plan = make_plan()
    PlanCache(persist=True).put("key1", plan)
    fresh = PlanCache(persist=True)
    got = fresh.get("key1")
    assert got == plan
    assert fresh.disk_hits == 1

    # Backward compat: a file persisted before the adaptive runtime is a
    # *bare* plan dict — no {"plan":…, "features":…} envelope, no
    # backend fields.  It must load as a reference plan with no
    # warm-start features.
    import json

    d = plan.to_dict()
    for legacy_missing in ("backend", "backend_params"):
        d.pop(legacy_missing)
    old = PlanCache(persist=True)
    old._path("old_key").write_text(json.dumps(d))
    loaded = old.get("old_key")
    assert loaded is not None
    assert loaded.backend == "reference"
    assert old.features_for("old_key") is None

    # Plans persisted while backend calibration existed carry a
    # calibration_epoch key; they load as the same plan.
    enveloped = {"plan": dict(plan.to_dict(), calibration_epoch=3), "features": None}
    old._path("epoch_key").write_text(json.dumps(enveloped))
    assert old.get("epoch_key") == plan


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
