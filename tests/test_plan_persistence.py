"""Plan persistence end to end: the plan cache's disk layer (corrupt
files, failed writes, file mode, eviction to disk, ``clear``) and
engines that share one plan directory."""

import json
import stat
import threading

import pytest

from conftest import assert_bitwise_equal
from repro.core import spgemm_rowwise
from repro.engine import ExecutionPlan, PlanCache, SpGEMMEngine
from repro.engine import plan_cache as plan_cache_mod
from repro.experiments import ExperimentConfig
from repro.matrices import generators as G
from repro.obs import RingSink, Tracer

SMALL_CFG = ExperimentConfig(n_threads=2, cache_lines=128)


def make_plan(invested: float = 10.0, **over) -> ExecutionPlan:
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
        pre_cost=invested / 2,
        planning_cost=invested / 2,
    )
    base.update(over)
    return ExecutionPlan(**base)


@pytest.fixture
def plan_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    return tmp_path


def plan_files(root) -> list:
    return sorted(root.rglob("plan_*.json"))


# ----------------------------------------------------------------------
# PlanCache: disk layer
# ----------------------------------------------------------------------
_TRUNCATED = json.dumps(make_plan().to_dict(), sort_keys=True)[:40]

#: Plan files as the row-binned ``hybrid`` kernel's releases wrote them:
#: every plan carries a ``bin_map``, empty unless the kernel is hybrid.
_BINNED_ROWWISE = (
    b'{"accumulator": "sort", "backend": "scipy", "backend_params": [], '
    b'"baseline_cost": 100.0, "bin_map": [], "clustering": null, '
    b'"fingerprint_key": "k", "kernel": "rowwise", "params": [], '
    b'"planning_cost": 5.0, "policy": "heuristic", "pre_cost": 5.0, '
    b'"predicted_cost": 50.0, "reordering": "rcm", "seed": 0, "workload": "asquare"}'
)
_BINNED_HYBRID = (
    b'{"accumulator": "sort", "backend": "reference", "backend_params": [], '
    b'"baseline_cost": 100.0, "bin_map": [[0, "empty"], [128, "merge"], [512, "hash"], '
    b'[2048, "dense"], [-1, "scatter"]], "clustering": null, '
    b'"fingerprint_key": "k", "kernel": "hybrid", "params": [], '
    b'"planning_cost": 5.0, "policy": "heuristic", "pre_cost": 5.0, '
    b'"predicted_cost": 50.0, "reordering": "rcm", "seed": 0, "workload": "asquare"}'
)

CORRUPT = {
    "empty": b"",
    "json_list": b"[]",
    "json_null": b"null",
    "truncated": _TRUNCATED.encode(),
    "envelope_without_plan_fields": b'{"plan": {}, "features": null}',
    "unknown_kernel": json.dumps(dict(make_plan().to_dict(), kernel="gpu")).encode(),
    "deleted_hybrid_kernel": _BINNED_HYBRID,
    "not_utf8": b"\xff\xfe\x00plan",
}


@pytest.mark.parametrize("content", list(CORRUPT.values()), ids=list(CORRUPT))
def test_corrupt_plan_file_warns_misses_and_is_rewritten(plan_dir, content):
    cache = PlanCache(persist=True)
    cache._path("key").write_bytes(content)
    with pytest.warns(UserWarning, match="corrupt plan-cache entry"):
        assert cache.get("key") is None
    assert (cache.misses, cache.disk_hits, len(cache)) == (1, 0, 0)
    # The rebuilt plan replaces the bad file for the next process.
    plan = make_plan()
    cache.put("key", plan)
    fresh = PlanCache(persist=True)
    assert fresh.get("key") == plan
    assert fresh.disk_hits == 1


def test_plan_file_with_an_empty_bin_map_loads_into_an_equal_plan(plan_dir):
    cache = PlanCache(persist=True)
    cache._path("key").write_bytes(_BINNED_ROWWISE)
    want = ExecutionPlan(
        reordering="rcm",
        clustering=None,
        kernel="rowwise",
        backend="scipy",
        policy="heuristic",
        workload="asquare",
        fingerprint_key="k",
        seed=0,
        predicted_cost=50.0,
        baseline_cost=100.0,
        pre_cost=5.0,
        planning_cost=5.0,
    )
    assert cache.get("key") == want
    assert cache.disk_hits == 1
    assert "bin_map" not in want.to_dict()


def test_failed_plan_write_keeps_previous_file_and_no_temporary(plan_dir, monkeypatch):
    old, new = make_plan(10.0), make_plan(20.0)
    cache = PlanCache(persist=True)
    cache.put("key", old)

    def broken_dumps(*args, **kwargs):
        raise OSError("disk full")

    with monkeypatch.context() as m:
        m.setattr(plan_cache_mod.json, "dumps", broken_dumps)
        with pytest.raises(OSError, match="disk full"):
            cache.put("key", new)
    assert not list(plan_dir.rglob("*.tmp"))
    # The rename is atomic: the file still holds the last complete plan.
    assert PlanCache(persist=True).get("key") == old


def test_persisted_plan_file_is_readable_by_other_users(plan_dir):
    PlanCache(persist=True).put("key", make_plan())
    (path,) = plan_files(plan_dir)
    assert stat.S_IMODE(path.stat().st_mode) == 0o644


def test_evicted_plan_reloads_from_disk(plan_dir):
    cache = PlanCache(capacity=1, persist=True)
    a, b = make_plan(10.0), make_plan(20.0)
    cache.put("a", a)
    cache.put("b", b)
    assert "a" not in cache and cache.evictions == 1
    assert cache.get("a") == a  # evicted from memory, not from disk
    assert (cache.hits, cache.disk_hits, cache.misses) == (1, 1, 0)
    assert "a" in cache and "b" not in cache


def test_clear_keeps_plan_files(plan_dir):
    cache = PlanCache(persist=True)
    plan = make_plan()
    cache.put("key", plan)
    cache.clear()
    assert len(cache) == 0
    assert len(plan_files(plan_dir)) == 1
    assert cache.get("key") == plan and cache.disk_hits == 1


def test_clear_disk_removes_plan_files(plan_dir):
    cache = PlanCache(persist=True)
    cache.put("a", make_plan())
    cache.put("b", make_plan(20.0))
    assert len(plan_files(plan_dir)) == 2
    cache.clear(disk=True)
    assert plan_files(plan_dir) == []
    assert cache.get("a") is None and cache.misses == 1


def test_contains_never_touches_counters_or_recency():
    cache = PlanCache(capacity=2)
    cache.put("a", make_plan(50.0))
    cache.put("b", make_plan(50.0))
    before = cache.stats()
    assert "a" in cache and "missing" not in cache
    assert cache.stats() == before
    # A get() would have refreshed "a"; membership must not.
    cache.put("c", make_plan(50.0))
    assert "a" not in cache and "b" in cache


@pytest.mark.parametrize("capacity", [0, -3])
def test_nonpositive_capacity_rejected(capacity):
    with pytest.raises(ValueError, match="capacity"):
        PlanCache(capacity=capacity)


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


def test_plan_with_unknown_replan_cost_is_evicted_first():
    cache = PlanCache(capacity=2)
    cache.put("unknown", make_plan(pre_cost=float("inf"), planning_cost=0.0))
    cache.put("cheap", make_plan(1.0))
    cache.put("new", make_plan(5.0))
    assert "unknown" not in cache
    assert "cheap" in cache and "new" in cache


# ----------------------------------------------------------------------
# Engines persisting plans
# ----------------------------------------------------------------------
ENGINE_KW = {
    "heuristic": dict(policy="heuristic"),
    "autotune": dict(policy="autotune", top_k=2),
    "pipeline": dict(pipeline="rcm+fixed:8+cluster"),
}


@pytest.mark.parametrize("kw", list(ENGINE_KW.values()), ids=list(ENGINE_KW))
def test_fresh_engine_reuses_persisted_plan(plan_dir, kw):
    A = G.grid2d(10, 10, seed=3)
    ref = spgemm_rowwise(A, A)
    first = SpGEMMEngine(config=SMALL_CFG, persist_plans=True, **kw)
    assert_bitwise_equal(first.multiply(A), ref)
    assert first.stats().plans_built == 1
    assert len(plan_files(plan_dir)) == 1

    fresh = SpGEMMEngine(config=SMALL_CFG, persist_plans=True, **kw)
    assert_bitwise_equal(fresh.multiply(A), ref)
    assert fresh.stats().plans_built == 0
    assert fresh.plan_cache.disk_hits == 1
    assert fresh.plan_for(A) == first.plan_for(A)


def test_engines_sharing_a_plan_dir_multiply_concurrently(plan_dir):
    A = G.grid2d(8, 8, seed=1)
    ref = spgemm_rowwise(A, A)
    engines = [SpGEMMEngine(config=SMALL_CFG, persist_plans=True) for _ in range(4)]
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
    (path,) = plan_files(plan_dir)
    assert ExecutionPlan.from_dict(json.loads(path.read_text())) == engines[0].plan_for(A)
    assert not list(plan_dir.rglob("*.tmp"))


def test_no_cache_env_makes_every_engine_plan(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    A = G.grid2d(8, 8, seed=2)
    for _ in range(2):
        eng = SpGEMMEngine(config=SMALL_CFG, persist_plans=True)
        eng.multiply(A)
        assert eng.stats().plans_built == 1
        assert eng.plan_cache.disk_hits == 0
    assert plan_files(tmp_path) == []


def test_persisted_plans_are_keyed_by_engine_seed(plan_dir):
    A = G.grid2d(8, 8, seed=4)
    SpGEMMEngine(config=SMALL_CFG, persist_plans=True, seed=0).multiply(A)
    other = SpGEMMEngine(config=SMALL_CFG, persist_plans=True, seed=1)
    other.multiply(A)
    # Plans embed costs measured from their seed: another seed re-plans.
    assert other.stats().plans_built == 1
    assert other.plan_cache.disk_hits == 0
    assert len(plan_files(plan_dir)) == 2
