"""The adaptive runtime (DESIGN.md §11): measured backend calibration,
drift-triggered re-planning with hysteresis, cost-aware plan-cache
eviction and warm starts — unit coverage plus the ISSUE 4 end-to-end
acceptance scenario."""

import json

import numpy as np
import pytest

from conftest import assert_bitwise_equal, scrambled_blocks_matrix
from repro.core import spgemm_rowwise
from repro.engine import (
    AdaptiveConfig,
    BackendCalibrator,
    CalibrationTable,
    DriftMonitor,
    PlanCache,
    SpGEMMEngine,
    calibration_path,
    feature_distance,
)
from repro.engine.adaptive import density_bin, row_bin, size_bin
from repro.experiments import ExperimentConfig
from repro.matrices import generators as G
from repro.matrices import perturb_values
from repro.obs import RingSink, Tracer

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

SMALL_CFG = ExperimentConfig(n_threads=2, cache_lines=128)


# ----------------------------------------------------------------------
# AdaptiveConfig validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kw",
    [
        {"drift_threshold": 1.0},
        {"drift_threshold": 0.5},
        {"patience": 0},
        {"cooldown": -1},
        {"probe_every": 0},
        {"max_replans": -1},
    ],
)
def test_adaptive_config_rejects_bad_knobs(kw):
    with pytest.raises(ValueError):
        AdaptiveConfig(**kw)


# ----------------------------------------------------------------------
# DriftMonitor: the hysteresis state machine
# ----------------------------------------------------------------------
def test_monitor_stable_when_executed_equals_predicted():
    mon = DriftMonitor(AdaptiveConfig(drift_threshold=1.5, patience=1))
    for _ in range(20):
        assert not mon.observe("k", predicted=100.0, executed=100.0)
    assert mon.state("k")["drifting_probes"] == 0


def test_monitor_needs_patience_consecutive_drifts():
    mon = DriftMonitor(AdaptiveConfig(drift_threshold=1.5, patience=3))
    assert not mon.observe("k", predicted=100.0, executed=400.0)
    assert not mon.observe("k", predicted=100.0, executed=400.0)
    # A stable probe in between resets the streak.
    assert not mon.observe("k", predicted=100.0, executed=100.0)
    assert not mon.observe("k", predicted=100.0, executed=400.0)
    assert not mon.observe("k", predicted=100.0, executed=400.0)
    assert mon.observe("k", predicted=100.0, executed=400.0)


def test_monitor_detects_drift_in_both_directions():
    mon = DriftMonitor(AdaptiveConfig(drift_threshold=2.0, patience=1))
    assert mon.observe("slow", predicted=100.0, executed=250.0)  # too slow
    assert mon.observe("fast", predicted=100.0, executed=30.0)  # leaving wins on the table
    assert not mon.observe("ok", predicted=100.0, executed=150.0)  # inside the band


def test_monitor_cooldown_swallows_probes_after_replan():
    mon = DriftMonitor(AdaptiveConfig(drift_threshold=1.5, patience=1, cooldown=2))
    assert mon.observe("k", predicted=100.0, executed=400.0)
    mon.notify_replanned("k")
    # Two drifting probes fall into the cooldown window …
    assert not mon.observe("k", predicted=100.0, executed=400.0)
    assert not mon.observe("k", predicted=100.0, executed=400.0)
    # … the third fires again.
    assert mon.observe("k", predicted=100.0, executed=400.0)


def test_monitor_max_replans_cap():
    mon = DriftMonitor(AdaptiveConfig(drift_threshold=1.5, patience=1, cooldown=0, max_replans=2))
    fired = 0
    for _ in range(10):
        if mon.observe("k", predicted=100.0, executed=400.0):
            mon.notify_replanned("k")
            fired += 1
    assert fired == 2


def test_monitor_probe_cadence():
    mon = DriftMonitor(AdaptiveConfig(probe_every=3))
    probes = [mon.should_probe("k") for _ in range(7)]
    assert probes == [True, False, False, True, False, False, True]


def test_monitor_ignores_degenerate_costs():
    mon = DriftMonitor(AdaptiveConfig(drift_threshold=1.5, patience=1))
    assert not mon.observe("k", predicted=0.0, executed=100.0)
    assert not mon.observe("k", predicted=float("nan"), executed=100.0)
    assert not mon.observe("k", predicted=100.0, executed=float("inf"))


# ----------------------------------------------------------------------
# CalibrationTable: bins, lookup, persistence
# ----------------------------------------------------------------------
def test_bins_are_monotone_partitions():
    assert [size_bin(n) for n in (10, 256, 1024, 4096, 10**6)] == [0, 1, 2, 3, 3]
    assert [row_bin(r) for r in (0.0, 3.9, 4.0, 15.9, 16.0)] == [0, 0, 1, 1, 2]
    assert [density_bin(d) for d in (1e-4, 1e-2, 0.05, 0.1, 0.9)] == [0, 1, 1, 2, 2]


def test_table_factor_exact_fallback_and_absent():
    table = CalibrationTable(entries={"scipy|rowwise|s1r1d1": 0.02, "scipy|rowwise|s2r1d0": 0.08})
    # Exact bin.
    assert table.factor("scipy", "rowwise", n=500, nnz_row=8, density=0.02) == 0.02
    # Unvisited bin → geomean of the backend's measured bins.
    fallback = table.factor("scipy", "rowwise", n=100, nnz_row=2, density=0.5)
    assert fallback == pytest.approx((0.02 * 0.08) ** 0.5)
    # Never calibrated at all → None (caller keeps the static hint).
    assert table.factor("vectorized", "cluster", n=500, nnz_row=8, density=0.02) is None
    # Degenerate persisted factors never win a ranking: a non-positive
    # exact entry is ignored (geomean fallback / static hint instead).
    bad = CalibrationTable(entries={"scipy|rowwise|s1r1d1": 0.0})
    assert bad.factor("scipy", "rowwise", n=500, nnz_row=8, density=0.02) is None
    assert CalibrationTable.from_dict(
        {"entries": {"scipy|rowwise|s1r1d1": 0.0, "scipy|rowwise|s2r1d0": 0.05}}
    ).entries == {"scipy|rowwise|s2r1d0": 0.05}


def test_table_factor_parameterised_backend_keys():
    from repro.engine.adaptive import calibration_backend_key

    assert calibration_backend_key("scipy") == "scipy"
    assert (
        calibration_backend_key("sharded", (("inner", "scipy"), ("workers", 2)))
        == "sharded:inner=scipy,workers=2"
    )
    table = CalibrationTable(
        entries={"sharded:workers=2|cluster|s1r1d1": 0.9, "sharded|cluster|s1r1d1": 0.6}
    )
    # The configuration-specific row wins over the bare name.
    assert table.factor("sharded:workers=2", "cluster", n=500, nnz_row=8, density=0.02) == 0.9
    # An uncalibrated configuration falls back to bare-name rows.
    assert table.factor("sharded:workers=4", "cluster", n=500, nnz_row=8, density=0.02) == 0.6
    # Nothing under the name at all → None.
    assert table.factor("sharded:workers=4", "rowwise", n=500, nnz_row=8, density=0.02) is None


def test_table_roundtrip_and_epoch(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    table = CalibrationTable(entries={"scipy|rowwise|s1r1d1": 0.02}, epoch=3, host="t")
    table.save()
    loaded = CalibrationTable.load()
    assert loaded is not None
    assert loaded.entries == table.entries and loaded.epoch == 3 and loaded.host == "t"


def test_table_respects_no_cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    CalibrationTable(entries={"scipy|rowwise|s1r1d1": 0.5}).save()
    assert not list(tmp_path.rglob("calibration.json"))
    assert CalibrationTable.load() is None


def test_table_warns_on_corrupt_file(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    CalibrationTable(entries={"scipy|rowwise|s1r1d1": 0.5}).save()
    calibration_path().write_text("{broken")
    with pytest.warns(UserWarning, match="corrupt calibration table"):
        assert CalibrationTable.load() is None


def test_calibrator_validates_reps():
    with pytest.raises(ValueError, match="reps"):
        BackendCalibrator(reps=0)


@pytest.fixture(scope="module")
def calibration_table():
    """One real (cheap) calibration shared by the tests below."""
    return BackendCalibrator(reps=1).calibrate()


def test_calibrator_measures_planner_ranked_backends(calibration_table):
    backends = {key.split("|")[0] for key in calibration_table.entries}
    assert "scipy" in backends  # the test env has scipy
    assert "vectorized" in backends
    assert "reference" not in backends  # the unit everything is relative to
    assert all(v > 0 for v in calibration_table.entries.values())
    assert calibration_table.epoch == 1
    # Re-calibrating against a previous table advances the epoch.
    assert BackendCalibrator(reps=1).calibrate(previous=calibration_table).epoch == 2


def test_calibrator_measures_sharded_pool_configs(calibration_table):
    # The PR 4 remainder: with the shm data plane, sharded pool
    # configurations are worth their own calibration rows (keyed by the
    # canonical parameterised spec), not a guessed static factor.
    backends = {key.split("|")[0] for key in calibration_table.entries}
    assert "sharded:workers=2" in backends
    assert BackendCalibrator().pool_configs == ("sharded:workers=2",)
    # An explicit empty tuple opts out.
    lean = BackendCalibrator(reps=1, pool_configs=())
    assert all(name != "sharded:workers=2" for name, _, _ in lean._specs())


def test_calibration_matrices_cover_the_top_size_bin(calibration_table):
    # The sharded/scipy break-even is size-dependent (BENCH_backends):
    # the n >= 4096 bin must be measured, not inferred from small bins.
    assert any("|s3" in key for key in calibration_table.entries)


def test_cache_token_uses_content_digest_not_epoch():
    # Epoch counters reset when calibration.json disappears; two tables
    # sharing an epoch but measuring different factors must never share
    # a cache token (the digest is content-based).
    from repro.engine.planner import HeuristicPlanner

    t1 = CalibrationTable(entries={"scipy|rowwise|s1r1d1": 0.02}, epoch=1)
    t2 = CalibrationTable(entries={"scipy|rowwise|s1r1d1": 0.70}, epoch=1)
    p1 = HeuristicPlanner(cfg=SMALL_CFG, calibration=t1)
    p2 = HeuristicPlanner(cfg=SMALL_CFG, calibration=t2)
    assert t1.digest != t2.digest
    assert p1.cache_token != p2.cache_token
    assert CalibrationTable(entries=dict(t1.entries), epoch=9).digest == t1.digest


# ----------------------------------------------------------------------
# Engine integration: calibration
# ----------------------------------------------------------------------
def test_calibrated_plans_record_epoch_and_stay_correct(calibration_table, gainful_matrix):
    A = gainful_matrix
    eng = SpGEMMEngine(policy="autotune", config=SMALL_CFG, backend="auto", calibration=calibration_table)
    plan = eng.plan_for(A)
    assert plan.calibration_epoch == calibration_table.epoch
    C = eng.multiply(A)
    ref = spgemm_rowwise(A, A)
    assert C.same_pattern(ref) and np.allclose(C.to_dense(), ref.to_dense())


def test_uncalibrated_plans_record_epoch_zero(gainful_matrix):
    eng = SpGEMMEngine(policy="autotune", config=SMALL_CFG)
    plan = eng.plan_for(gainful_matrix)
    assert plan.calibration_epoch == 0
    # The default cache token is byte-identical to the pre-adaptive
    # format — old persisted plans keep hitting for default engines.
    assert ":c" not in eng.planner.cache_token


def test_calibration_epoch_discriminates_cache_tokens(calibration_table, gainful_matrix):
    static = SpGEMMEngine(policy="heuristic", config=SMALL_CFG)
    calibrated = SpGEMMEngine(policy="heuristic", config=SMALL_CFG, calibration=calibration_table)
    assert static.planner.cache_token != calibrated.planner.cache_token


@pytest.mark.parametrize(
    "kw",
    [
        {"policy": "heuristic"},
        {"policy": "autotune"},
        {"policy": "predictor"},
        {"pipeline": "rcm+fixed:8+cluster"},
    ],
)
def test_every_planner_token_carries_the_calibration_digest(calibration_table, kw):
    # A subclass overriding cache_token (the pipeline planner did) must
    # still append the digest, or calibrated and uncalibrated plans
    # would share persisted cache keys.
    static = SpGEMMEngine(config=SMALL_CFG, **kw)
    calibrated = SpGEMMEngine(config=SMALL_CFG, calibration=calibration_table, **kw)
    assert f":c{calibration_table.digest}" in calibrated.planner.cache_token
    assert static.planner.cache_token != calibrated.planner.cache_token


def test_engine_rejects_bad_calibration_argument():
    with pytest.raises(TypeError, match="calibration"):
        SpGEMMEngine(config=SMALL_CFG, calibration=42)


def test_engine_calibration_true_without_table_is_static(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    eng = SpGEMMEngine(config=SMALL_CFG, calibration=True)
    assert eng.calibration is None  # nothing persisted → static hints


# ----------------------------------------------------------------------
# Engine integration: drift-triggered re-planning
# ----------------------------------------------------------------------
def test_no_drift_when_nothing_changes(gainful_matrix):
    A = gainful_matrix
    eng = SpGEMMEngine(policy="autotune", config=SMALL_CFG, drift_threshold=1.2)
    for _ in range(4):
        eng.multiply(A)
    s = eng.stats()
    assert s.drift_probes == 4
    assert s.drift_detected == 0 and s.replans == 0
    assert eng.drift_state(A)["last_ratio"] == pytest.approx(1.0)


def test_probe_cost_stays_out_of_amortisation_economics(gainful_matrix):
    # Probes are measurement, not investment: with drift armed, the
    # ledger must report the same break-even economics as without it
    # (a real runtime reads executed cost off a timer for free).
    A = gainful_matrix
    plain = SpGEMMEngine(policy="autotune", config=SMALL_CFG)
    armed = SpGEMMEngine(policy="autotune", config=SMALL_CFG, drift_threshold=1.5)
    for _ in range(5):
        plain.multiply(A)
        armed.multiply(A)
    sp_, sa = plain.stats(), armed.stats()
    assert sa.model_probe_cost > 0
    assert sa.invested_cost == sp_.invested_cost
    assert sa.break_even_iterations() == pytest.approx(sp_.break_even_iterations())


def test_drift_disabled_by_default(gainful_matrix):
    eng = SpGEMMEngine(policy="autotune", config=SMALL_CFG)
    eng.multiply(gainful_matrix)
    assert eng.stats().drift_probes == 0
    assert eng.drift_state(gainful_matrix) is None


def test_end_to_end_drift_triggers_replan_and_plan_switch(gainful_matrix):
    """ISSUE 4 acceptance: perturbing the right operand's values so the
    cluster profile degrades makes the engine re-trial and switch plans,
    with the re-plan event recorded in EngineStats — and every result
    stays bitwise-identical to the row-wise oracle throughout."""
    A = gainful_matrix
    # Pin the historical kernel space: the scenario needs the clustered
    # plan to win so the value perturbation can degrade its profile
    # (the hybrid kernel's cost is pattern-only and would never drift).
    sink = RingSink()
    eng = SpGEMMEngine(
        policy="autotune", config=SMALL_CFG, drift_threshold=1.5,
        kernels=("rowwise", "cluster"), tracer=Tracer(sink),
    )
    B0 = perturb_values(A, scale=0.0, seed=0)  # value-twin, same profile
    assert_bitwise_equal(eng.multiply(A, B0), spgemm_rowwise(A, B0))
    plan_before = eng.plan_for(A, B0)
    assert plan_before.clustering is not None  # the gainful plan clusters

    # Values change: 95% of couplings vanish, gutting the cluster profile.
    B1 = perturb_values(A, scale=0.1, seed=3, dropout=0.95)
    for _ in range(5):
        assert_bitwise_equal(eng.multiply(A, B1), spgemm_rowwise(A, B1))

    s = eng.stats()
    assert s.drift_detected >= 2  # patience=2 consecutive drifting probes
    assert s.replans == 1
    (event,) = s.replan_log
    assert event["from"] == plan_before.label
    assert event["executed"] < event["predicted"]  # profile collapsed → cheaper
    plan_after = eng.plan_for(A, B1)
    assert plan_after.label != plan_before.label  # the engine switched plans
    assert event["to"] == plan_after.label
    assert set(s.per_plan) == {plan_before.label, plan_after.label}

    # Back to the full profile in batches: the second batch's probe
    # re-plans, yet its span is tagged by its own lookup — a hit.
    for _ in range(2):
        for C in eng.multiply_many(A, [B0, B0]):
            assert_bitwise_equal(C, spgemm_rowwise(A, B0))
    assert eng.stats().replans == 2
    replanning_batch = sink.by_name("engine.multiply_many")[-1]
    assert replanning_batch.tags["cache"] == "hit"
    eng.power(A, 2)
    (power_span,) = sink.by_name("engine.power")
    assert power_span.tags["cache"] == "miss"  # first asquare lookup
    assert power_span.tags["plan"] == eng.plan_for(A).label


def test_replan_hysteresis_bounds_replans_under_alternation(gainful_matrix):
    """Alternating operands drift on every probe, but cooldown+patience
    keep the re-plan count far below the multiply count."""
    A = gainful_matrix
    cfg = AdaptiveConfig(drift_threshold=1.5, patience=2, cooldown=2, max_replans=3)
    eng = SpGEMMEngine(policy="autotune", config=SMALL_CFG, adaptive=cfg)
    B0 = perturb_values(A, scale=0.0, seed=0)
    B1 = perturb_values(A, scale=0.1, seed=3, dropout=0.9)
    eng.multiply(A, B0)
    for i in range(12):
        eng.multiply(A, B1 if i % 2 else B0)
    assert eng.stats().replans <= 3


def test_multiply_many_probes_once_per_batch(gainful_matrix):
    # The batch API runs one plan for the whole sequence, so it takes
    # one drift probe per batch (on the freshest frontier).
    from repro.workloads import bc_frontiers

    A = gainful_matrix
    frontiers = bc_frontiers(A, batch=8, depth=4, seed=2).frontiers
    eng = SpGEMMEngine(policy="autotune", config=SMALL_CFG, drift_threshold=1.5)
    eng.multiply_many(A, frontiers)
    eng.multiply_many(A, frontiers)
    assert eng.stats().drift_probes == 2


def test_drift_state_is_read_only_and_workload_keyed(gainful_matrix):
    A = gainful_matrix
    eng = SpGEMMEngine(policy="autotune", config=SMALL_CFG, drift_threshold=1.5)
    B = perturb_values(A, scale=0.0, seed=0)
    eng.multiply(A, B)  # distinct B → workload "general"
    assert eng.drift_state(A, workload="general")["probes"] == 1
    # Asking with the wrong workload reads an untouched (all-zero)
    # snapshot and must not allocate monitor state for the unused key.
    before = len(eng._drift._states)
    assert eng.drift_state(A)["probes"] == 0
    assert len(eng._drift._states) == before


def test_from_dict_clamps_epoch_to_calibrated_range():
    # Epoch 0 is reserved for "static hints"; a loaded table must never
    # carry it or calibrated plans would share uncalibrated cache keys.
    table = CalibrationTable.from_dict({"entries": {"scipy|rowwise|s1r1d1": 0.05}, "epoch": 0})
    assert table.epoch == 1


def test_warm_starts_counted_only_when_hint_applies():
    # The nearest neighbour's plan uses a square-only reordering; for a
    # rectangular operand the hint cannot apply and must not be counted.
    A = scrambled_blocks_matrix(24, 16)
    eng = SpGEMMEngine(policy="autotune", config=SMALL_CFG, warm_start=True)
    eng.multiply(A)
    plan = eng.plan_for(A)
    if plan.reordering == "original":
        pytest.skip("gainful plan unexpectedly kept the natural order")
    rect = A.extract_rows(np.arange(A.nrows // 2))
    eng.multiply(rect, A)
    assert eng.stats().warm_starts == 0


def test_drift_threshold_overrides_adaptive_config(gainful_matrix):
    eng = SpGEMMEngine(
        config=SMALL_CFG,
        adaptive=AdaptiveConfig(drift_threshold=5.0, patience=4),
        drift_threshold=1.25,
    )
    assert eng._drift.config.drift_threshold == 1.25
    assert eng._drift.config.patience == 4  # the rest of the config survives


# ----------------------------------------------------------------------
# Engine integration: warm starts
# ----------------------------------------------------------------------
def test_cold_lookup_warm_starts_from_nearest_neighbour():
    A = scrambled_blocks_matrix(24, 16)
    A2 = scrambled_blocks_matrix(24, 16, seed=2, scramble_seed=9)  # same family, new pattern
    eng = SpGEMMEngine(policy="autotune", config=SMALL_CFG, warm_start=True)
    eng.multiply(A)
    assert eng.stats().warm_starts == 0  # nothing cached yet
    assert_bitwise_equal(eng.multiply(A2), spgemm_rowwise(A2, A2))
    s = eng.stats()
    assert s.warm_starts == 1
    assert s.plans_built == 2


def test_warm_start_off_by_default(gainful_matrix):
    eng = SpGEMMEngine(policy="autotune", config=SMALL_CFG)
    eng.multiply(gainful_matrix)
    eng.multiply(G.grid2d(8, 8, seed=1))
    assert eng.stats().warm_starts == 0


def test_warm_start_skipped_for_policies_that_ignore_the_hint(gainful_matrix):
    # Ranking-only policies never consume the hint, so the engine must
    # not scan neighbours (or report warm starts) on their behalf.
    eng = SpGEMMEngine(policy="heuristic", config=SMALL_CFG, warm_start=True)
    eng.multiply(gainful_matrix)
    eng.multiply(G.grid2d(8, 8, seed=1))
    assert eng.stats().warm_starts == 0


def test_feature_distance_properties():
    a = (1.0, 100.0, 0.5)
    assert feature_distance(a, a) == 0.0
    assert feature_distance(a, (2.0, 100.0, 0.5)) > 0.0
    assert feature_distance(a, (1.0, 100.0)) == float("inf")  # shape mismatch
    # Scale invariance: doubling both vectors leaves the distance alone.
    b = (2.0, 150.0, 0.25)
    assert feature_distance(a, b) == pytest.approx(
        feature_distance(tuple(2 * x for x in a), tuple(2 * x for x in b))
    )


# ----------------------------------------------------------------------
# Fingerprint memo LRU (constructor-parameterised)
# ----------------------------------------------------------------------
def test_fingerprint_cache_size_is_constructor_parameter():
    eng = SpGEMMEngine(config=SMALL_CFG, fingerprint_cache_size=2)
    mats = [G.grid2d(4 + i, 4, seed=i) for i in range(3)]
    for A in mats:
        eng._fingerprint(A)
    assert len(eng._fingerprints) == 2  # capacity bound respected
    # The oldest entry was evicted; the two recent ones survive.
    from repro.engine.fingerprint import pattern_digest

    assert pattern_digest(mats[0]) not in eng._fingerprints
    assert pattern_digest(mats[2]) in eng._fingerprints
    # Re-fingerprinting an evicted pattern is correct (recomputed, re-memoised).
    fp = eng._fingerprint(mats[0])
    assert fp.key.startswith(f"{mats[0].nrows}x")


def test_fingerprint_memo_is_lru_not_fifo():
    eng = SpGEMMEngine(config=SMALL_CFG, fingerprint_cache_size=2)
    A, B, C = (G.grid2d(4 + i, 4, seed=i) for i in range(3))
    eng._fingerprint(A)
    eng._fingerprint(B)
    eng._fingerprint(A)  # touch A → B is now least-recently-used
    eng._fingerprint(C)
    from repro.engine.fingerprint import pattern_digest

    assert pattern_digest(A) in eng._fingerprints
    assert pattern_digest(B) not in eng._fingerprints


# ----------------------------------------------------------------------
# Plan cache: cost-aware eviction + persisted features
# ----------------------------------------------------------------------
def _plan(invested: float, key: str = "k"):
    from repro.engine import ExecutionPlan

    return ExecutionPlan(
        reordering="original",
        clustering=None,
        kernel="rowwise",
        fingerprint_key=key,
        predicted_cost=10.0,
        baseline_cost=20.0,
        pre_cost=invested / 2,
        planning_cost=invested / 2,
    )


def test_cost_aware_eviction_evicts_cheapest_to_replan_first():
    cache = PlanCache(capacity=2)
    cache.put("cheap", _plan(10.0))
    cache.put("expensive", _plan(1000.0))
    cache.get("cheap")  # recency must NOT save the cheap entry
    cache.put("mid", _plan(100.0))
    assert "expensive" in cache and "mid" in cache
    assert "cheap" not in cache
    assert cache.stats()["eviction"] == "cost"


def test_cost_aware_eviction_breaks_ties_by_lru():
    cache = PlanCache(capacity=2)
    cache.put("a", _plan(50.0))
    cache.put("b", _plan(50.0))
    cache.get("a")  # equal costs → LRU decides: b is older
    cache.put("c", _plan(50.0))
    assert "a" in cache and "c" in cache and "b" not in cache


def test_lru_eviction_policy_still_available():
    cache = PlanCache(capacity=2, eviction="lru")
    cache.put("cheap", _plan(10.0))
    cache.put("expensive", _plan(1000.0))
    cache.get("cheap")
    cache.put("mid", _plan(100.0))
    assert "cheap" in cache and "mid" in cache
    assert "expensive" not in cache  # recency-only: cost is ignored
    with pytest.raises(ValueError, match="eviction"):
        PlanCache(eviction="random")


def test_features_persist_with_plans(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    feats = (1.0, 2.0, 3.0)
    PlanCache(persist=True).put("key1", _plan(10.0), features=feats)
    fresh = PlanCache(persist=True)
    assert fresh.get("key1") is not None
    assert fresh.features_for("key1") == feats
    (path,) = list(tmp_path.rglob("plan_*.json"))
    payload = json.loads(path.read_text())
    assert payload["features"] == [1.0, 2.0, 3.0]
    assert "plan" in payload


def test_nearest_neighbour_lookup():
    cache = PlanCache()
    cache.put("a", _plan(10.0, "a"), features=(1.0, 1.0))
    cache.put("b", _plan(10.0, "b"), features=(100.0, 100.0))
    cache.put("nofeat", _plan(10.0, "c"))
    near = cache.nearest((1.1, 0.9))
    assert near is not None and near.fingerprint_key == "a"
    # exclude= skips the queried key itself.
    assert cache.nearest((1.1, 0.9), exclude="a").fingerprint_key == "b"
    assert PlanCache().nearest((1.0,)) is None
