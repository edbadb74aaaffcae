"""Cold-plan bench — the wall-clock cost of a cold ``engine.multiply(A)``
in units of one raw scipy ``A @ A``, the paper's preprocessing bar.

The paper finds hierarchical clustering worth its preprocessing because
that costs "less than 20× a single SpGEMM on about 90% of inputs".
This bench holds the runtime's cold call to the same bar.  For every
``asquare_small`` and ``asquare_large`` input of ``benchmarks/e2e``
(seed 1: the ten suite representatives and scrambled grid2d(300, 300),
web(40000), rmat(12)) it records:

* ``cold_ms`` — a fresh default engine's first ``multiply(A)`` (plan
  on scipy, build the operand, first product), median and IQR
  (``cold_iqr_ms``) of :data:`REPEATS` engines;
* the cold call's steps, each run on its own and timed by median:
  ``fingerprint_ms`` (pattern and value digests plus the structural
  features), ``choose_ms`` (the heuristic's closed-form ranking),
  ``build_ms`` (the winner's reordering) and ``first_execute_ms`` (the
  first scipy product on the fresh operand, which records its
  structure).  ``other_ms`` is what the cold call spends beyond their
  sum: plan assembly and engine bookkeeping, plus any model simulation
  the planner runs (a few ms below zero when the steps timed on their
  own ran slower than inside the call);
* ``raw_ms`` — raw scipy ``A @ A`` on the same operand, median of
  :data:`REPEATS`, timed between the cold calls;
* ``cold_over_raw`` = ``cold_ms / raw_ms``.

Every cold product is checked against raw scipy
(``result_mismatches``).  The gate is the paper's bar, per input:
``summary.frac_within_bar`` is the share of inputs whose
``cold_over_raw`` is at most :data:`PAPER_BAR`, and must be at least
0.9.  ``results.baseline`` copies :data:`BASELINE`, the summary this
bench read on the revision it was introduced to beat.

Emits ``BENCH_cold_plan.json`` at the repository root (envelope of
``benchmarks/_common.py``).  Run directly
(``PYTHONPATH=src python benchmarks/bench_cold_plan.py``, about a
minute on a 2-core host) or via pytest.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

from repro.backends import ExecutionContext, execute_many, get_backend
from repro.core import CSRMatrix
from repro.engine import SpGEMMEngine, fingerprint
from repro.engine.fingerprint import pattern_digest, value_digest
from repro.matrices import generators as G

from _common import gate_metric, save_bench_json
from e2e.inputs import build as e2e_inputs

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_cold_plan.json"

#: The e2e workloads whose inputs are measured, and their seed.
WORKLOADS = ("asquare_small", "asquare_large")
SEED = 1

#: Fresh engines (cold calls) and raw products per input.
REPEATS = 5

#: The paper's preprocessing bar: cold/raw at most 20 on >= 90% of inputs.
PAPER_BAR = 20.0
PAPER_SHARE = 0.9

#: This bench's summary at git revision 832a0aa, which ran two machine
#: simulations per cold scipy plan, and the inputs over the bar there.
BASELINE = {
    "git_rev": "832a0aa",
    "within_bar": 10,
    "frac_within_bar": 0.769,
    "geomean_cold_over_raw": 14.214,
    "over_bar": {"AS365": 32.342, "wb": 23.57, "grid2d_scr": 21.226},
    "cold_s": {"asquare_small": 0.763, "asquare_large": 4.646},
}


def _ms(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return (time.perf_counter() - t0) * 1e3, out


def _iqr(xs: list[float]) -> float:
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]


def _bitwise(C: CSRMatrix, ref: CSRMatrix) -> bool:
    return all(
        np.array_equal(x, y)
        for x, y in ((C.indptr, ref.indptr), (C.indices, ref.indices), (C.values, ref.values))
    )


def _steps(A: CSRMatrix) -> dict[str, float]:
    """One cold call's steps, each timed on its own (ms) on a fresh
    engine's planner, in the order the engine runs them."""
    eng = SpGEMMEngine()
    cfg, planner = eng.cfg, eng.planner
    t0 = time.perf_counter()
    digest = pattern_digest(A)
    value_digest(A)
    fp = fingerprint(A, seed=cfg.seed, digest=digest)
    t1 = time.perf_counter()
    spec = planner.choose(A, A, fp)
    t2 = time.perf_counter()
    built = spec.build(A, seed=cfg.seed, mode="rows", cfg=cfg)
    t3 = time.perf_counter()
    execute_many(
        built,
        [None],
        kernel=spec.kernel,
        kernel_params=spec.kernel_info.resolve_params(spec.kernel_params, cfg),
        backend=get_backend(spec.backend, spec.backend_params),
        cfg=cfg,
        ctx=ExecutionContext(cfg=cfg),
        original_order=True,
    )
    t4 = time.perf_counter()
    return {
        "fingerprint_ms": (t1 - t0) * 1e3,
        "choose_ms": (t2 - t1) * 1e3,
        "build_ms": (t3 - t2) * 1e3,
        "first_execute_ms": (t4 - t3) * 1e3,
    }


def measure(workload: str, A: CSRMatrix) -> dict:
    S = A.to_scipy()
    ref = CSRMatrix.from_scipy(S @ S)
    cold, raw, mismatches, label = [], [], 0, None
    steps: dict[str, list[float]] = {}
    for _ in range(REPEATS):
        raw.append(_ms(lambda: S @ S)[0])
        eng = SpGEMMEngine()
        ms, C = _ms(eng.multiply, A)
        cold.append(ms)
        mismatches += not _bitwise(C, ref)
        label = eng.plan_for(A).label
        for k, v in _steps(A).items():
            steps.setdefault(k, []).append(v)
    row = {
        "workload": workload,
        "plan": label,
        "n": A.nrows,
        "nnz": A.nnz,
        "cold_ms": statistics.median(cold),
        "cold_iqr_ms": _iqr(cold),
        "raw_ms": statistics.median(raw),
        **{k: statistics.median(v) for k, v in steps.items()},
        "result_mismatches": mismatches,
    }
    row["other_ms"] = row["cold_ms"] - sum(row[k] for k in steps)
    row["cold_over_raw"] = row["cold_ms"] / row["raw_ms"]
    return {k: round(v, 3) if isinstance(v, float) else v for k, v in row.items()}


def _summary(inputs: dict) -> dict:
    ratios = [m["cold_over_raw"] for m in inputs.values()]
    within = sum(r <= PAPER_BAR for r in ratios)
    worst = max(inputs, key=lambda k: inputs[k]["cold_over_raw"])
    return {
        "inputs": len(ratios),
        "within_bar": within,
        "frac_within_bar": round(within / len(ratios), 3),
        "geomean_cold_over_raw": round(math.exp(sum(map(math.log, ratios)) / len(ratios)), 3),
        "max_cold_over_raw": inputs[worst]["cold_over_raw"],
        "max_input": worst,
        # Sum of the cold medians per workload: comparable to e2e setup_s.
        "cold_s": {
            w: round(sum(m["cold_ms"] for m in inputs.values() if m["workload"] == w) / 1e3, 3)
            for w in WORKLOADS
        },
        "result_mismatches": sum(m["result_mismatches"] for m in inputs.values()),
    }


def run_bench() -> dict:
    SpGEMMEngine().multiply(G.grid2d(4, 4, seed=0))  # import and first-call costs
    inputs = {}
    for workload in WORKLOADS:
        for job in e2e_inputs(workload, SEED):
            inputs[job.name] = measure(workload, job.A)
    return {"inputs": inputs, "summary": _summary(inputs)}


def _gates(results: dict) -> list[dict]:
    s = results["summary"]
    return [
        gate_metric("summary.frac_within_bar", s["frac_within_bar"], "higher"),
        gate_metric("summary.geomean_cold_over_raw", s["geomean_cold_over_raw"], "lower"),
        gate_metric("summary.result_mismatches", s["result_mismatches"], "lower"),
    ]


def save_bench(path: Path = OUT_PATH) -> dict:
    results = {**run_bench(), "baseline": BASELINE}
    save_bench_json(
        path,
        "cold_plan",
        results,
        gate=_gates(results),
        config={
            "workloads": list(WORKLOADS),
            "seed": SEED,
            "repeats": REPEATS,
            "backend": "scipy",
            "paper_bar": PAPER_BAR,
        },
    )
    return results


def test_cold_plan_bench_meets_the_paper_bar(tmp_path):
    """Every cold product is raw scipy's, and a cold call costs at most
    20 raw products on at least 90% of the inputs."""
    out = tmp_path / OUT_PATH.name
    results = save_bench(out)
    s = results["summary"]
    assert s["result_mismatches"] == 0
    assert s["inputs"] == 13
    assert s["frac_within_bar"] >= PAPER_SHARE, s
    assert out.exists()


if __name__ == "__main__":
    res = save_bench()
    print(json.dumps(res["summary"], indent=2))
    print(f"wrote {OUT_PATH}")
