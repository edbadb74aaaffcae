"""Warm A² bench — the layer split of a warm scipy ``engine.multiply(A)``
and the plain-path baseline it beats (DESIGN.md §10).

scipy's ``S @ S`` runs two C++ passes: ``csr_matmat_maxnnz`` counts the
product's entries, ``csr_matmat`` fills them.  The scipy backend records
the count with the product structure and runs only the numeric pass on
warm calls; a square this large runs the numeric pass and the recorded
gather in two row halves, one on a second thread.  This bench rebuilds
the three ``asquare_large`` inputs of ``benchmarks/e2e`` (seed 0:
scrambled grid2d(300, 300) 9-point, web(40000), rmat(12)) from
:mod:`repro.matrices` and reports, per input, the median wall-clock time
of:

* ``raw_ms`` — raw scipy ``A @ A`` on the original operand;
* ``count_ms`` — the counting pass of both row halves on the engine's
  own handle (``L`` for a permuted operand, ``Ar`` else);
* ``numeric_serial_ms`` / ``numeric_split_ms`` — the numeric pass with
  the halves run one after the other, and on two threads;
* ``gather_serial_ms`` / ``gather_split_ms`` — the recorded structure's
  checks plus its gather, on one thread and on two;
* ``warm_numeric_ms`` — warm ``engine.multiply(A)`` on the numeric-only
  path;
* ``warm_public_ms`` — the same call with the numeric-only flag forced
  off, as a failed probe leaves it: the product takes the plain path
  (public ``@``, sort, row gather, casts) and records nothing (the
  baseline).

``split_taken`` says whether the warm calls split (they must on a host
with two CPUs, since every input's work is past ``_SPLIT_MIN_WORK``).
The two warm modes alternate call by call on one engine.  Every warm
product is checked bitwise against raw scipy (``result_mismatches``).
The gate is per input, not a geomean: the smallest ratio of public to
numeric-only warm time (``summary.min_public_over_numeric``) must stay
at or above 1.0.

Emits ``BENCH_warm_square.json`` at the repository root (envelope of
``benchmarks/_common.py``).  Run directly
(``PYTHONPATH=src python benchmarks/bench_warm_square.py``, about a
minute on a 2-core host) or via pytest.
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

import numpy as np

from repro.backends import scipy_backend
from repro.core import CSRMatrix
from repro.engine import SpGEMMEngine
from repro.matrices import generators as G
from repro.matrices.perturb import scramble

from _common import gate_metric, save_bench_json

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_warm_square.json"

#: The ``asquare_large`` inputs of ``benchmarks/e2e`` at seed 0.
MATRICES = {
    "grid2d_scr": lambda: scramble(G.grid2d(300, 300, stencil=9, seed=0), seed=80),
    "web_scr": lambda: scramble(G.web_graph(40000, seed=7), seed=70),
    "rmat_scr": lambda: scramble(G.rmat(12, edge_factor=10, seed=23), seed=72),
}

#: Timed calls per layer and per warm mode.
REPEATS = 9


def _ms(fn, *args) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn(*args)
    return (time.perf_counter() - t0) * 1e3, out


def _median_ms(fn, *args) -> float:
    return statistics.median(_ms(fn, *args)[0] for _ in range(REPEATS))


def _bitwise(C: CSRMatrix, ref: CSRMatrix) -> bool:
    return all(
        np.array_equal(x, y)
        for x, y in ((C.indptr, ref.indptr), (C.indices, ref.indices), (C.values, ref.values))
    )


def _recorded(prep):
    """The operand's recorded A² structure and the handle it squares
    (``L`` for a permuted operand)."""
    state = prep.backend_state
    rec = next(v for v in state.values() if isinstance(v, scipy_backend._Structure))
    S = state[scipy_backend._HANDLE if prep.perm is None else scipy_backend._SYMMETRIC]
    return rec, S


def measure(A: CSRMatrix) -> dict:
    S_raw = A.to_scipy()
    ref = CSRMatrix.from_scipy(S_raw @ S_raw)
    eng = SpGEMMEngine(backend="scipy")
    plan = eng.plan_for(A)
    for _ in range(3):  # cold, recording, first numeric-only call
        eng.multiply(A)
    prep = eng.prepare(A, plan)
    rec, S = _recorded(prep)
    Cs = scipy_backend._square(S, rec.cut, rec.counts)

    row = {
        "plan": plan.label,
        "nnz_A": A.nnz,
        "nnz_C": ref.nnz,
        "maxnnz": rec.maxnnz,
        "cut_row": rec.cut,
        "raw_ms": _median_ms(lambda: S_raw @ S_raw),
        "count_ms": _median_ms(scipy_backend._counts, S, rec.cut),
    }
    for mode, split in (("serial", False), ("split", True)):
        row[f"numeric_{mode}_ms"] = _median_ms(scipy_backend._square, S, rec.cut, rec.counts, split)
        row[f"gather_{mode}_ms"] = _median_ms(scipy_backend._gather, rec, Cs, prep.perm, split)
    del Cs

    times = {True: [], False: []}
    mismatches = 0
    flag = scipy_backend._NUMERIC_ONLY
    try:
        for _ in range(REPEATS):
            for numeric_only in (True, False):
                scipy_backend._NUMERIC_ONLY = numeric_only and flag
                ms, C = _ms(eng.multiply, A)
                times[numeric_only].append(ms)
                mismatches += not _bitwise(C, ref)
    finally:
        scipy_backend._NUMERIC_ONLY = flag
    events = eng.stats().backend_events
    row.update(
        warm_numeric_ms=statistics.median(times[True]),
        warm_public_ms=statistics.median(times[False]),
        numeric_products=events.get("scipy_numeric_products", 0),
        split_taken=events.get("scipy_split_squares", 0) >= REPEATS,
        result_mismatches=mismatches,
    )
    row["numeric_split_speedup"] = row["numeric_serial_ms"] / row["numeric_split_ms"]
    row["gather_split_speedup"] = row["gather_serial_ms"] / row["gather_split_ms"]
    row["public_over_numeric"] = row["warm_public_ms"] / row["warm_numeric_ms"]
    row["raw_over_numeric"] = row["raw_ms"] / row["warm_numeric_ms"]
    return {k: round(v, 3) if isinstance(v, float) else v for k, v in row.items()}


def run_bench() -> dict:
    matrices = {name: measure(make()) for name, make in MATRICES.items()}
    ratios = [m["public_over_numeric"] for m in matrices.values()]
    return {
        "matrices": matrices,
        "summary": {
            "min_public_over_numeric": round(min(ratios), 3),
            "geomean_public_over_numeric": round(math.exp(sum(map(math.log, ratios)) / len(ratios)), 3),
            "geomean_raw_over_numeric": round(
                math.exp(sum(math.log(m["raw_over_numeric"]) for m in matrices.values()) / len(matrices)), 3
            ),
            "result_mismatches": sum(m["result_mismatches"] for m in matrices.values()),
        },
    }


def _gates(results: dict) -> list[dict]:
    s = results["summary"]
    return [
        gate_metric("summary.min_public_over_numeric", s["min_public_over_numeric"], "higher"),
        gate_metric("summary.result_mismatches", s["result_mismatches"], "lower"),
    ]


def save_bench(path: Path = OUT_PATH) -> dict:
    results = run_bench()
    save_bench_json(
        path,
        "warm_square",
        results,
        gate=_gates(results),
        config={"matrices": sorted(MATRICES), "repeats": REPEATS, "backend": "scipy"},
    )
    return results


def test_warm_square_bench_meets_acceptance_bar(tmp_path):
    """Every warm product is raw scipy's, every input ran numeric-only
    (split in two when the host has two CPUs), and no input is slower
    numeric-only than on the public path."""
    out = tmp_path / OUT_PATH.name
    results = save_bench(out)
    assert results["summary"]["result_mismatches"] == 0
    assert all(m["numeric_products"] > 0 for m in results["matrices"].values())
    two_cpus = scipy_backend._cores() > 1
    assert all(m["split_taken"] == two_cpus for m in results["matrices"].values())
    assert results["summary"]["min_public_over_numeric"] >= 1.0
    assert out.exists()


if __name__ == "__main__":
    res = save_bench()
    print(f"wrote {OUT_PATH.name}")
    for name, m in res["matrices"].items():
        print(
            f"  {name:>11} ({m['plan']}): raw {m['raw_ms']:.1f}  count {m['count_ms']:.1f}  "
            f"numeric {m['numeric_serial_ms']:.1f} -> {m['numeric_split_ms']:.1f}  "
            f"gather {m['gather_serial_ms']:.1f} -> {m['gather_split_ms']:.1f}  "
            f"warm numeric-only {m['warm_numeric_ms']:.1f}  public {m['warm_public_ms']:.1f} ms  "
            f"(x{m['public_over_numeric']:.2f})"
        )
    s = res["summary"]
    print(f"  min public/numeric-only: x{s['min_public_over_numeric']}  mismatches: {s['result_mismatches']}")
