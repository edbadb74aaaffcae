"""Backend bench — per-backend wall-clock speedup vs ``reference``.

Seeds the bench trajectory for the execution-backend axis: each
generator-suite matrix is prepared once per kernel dataflow (row-wise on
plain CSR, cluster-wise on ``CSR_Cluster``) and then executed through
every registered backend.  Only the *execution* is timed — preparation
is the amortised one-off the engine already accounts for — so the
numbers isolate exactly what the backend axis changes.

The whole sweep runs :data:`REPEATS` times.  Each repeat yields one
geomean speedup per case (best-of-5 executions per cell); the summary is
the median over repeats, and the interquartile range of those repeats is
committed next to it, because a single run moved by more than the
regression gate's 25% per-metric bound from run to run.

Emits ``BENCH_backends.json`` at the repository root, wrapped in the
schema-versioned envelope of ``benchmarks/_common.py`` (results payload
under ``"results"``, gated median speedups under ``"gate"``)::

    {
      "schema": 1, "bench": "backends", "git_rev": .., "config": {..},
      "gate": [{"metric": "summary.rowwise@scipy", ..}, ..],
      "results": {
        "matrices": {"web1000": {"rowwise": {"scipy": {"seconds": ..,
                                                       "speedup_vs_reference": ..}, ...}}},
        "summary":  {"rowwise@scipy": <median geomean speedup>, ...},
        "summary_iqr": {"rowwise@scipy": [<q1>, <q3>], ...},
      }
    }

Per-matrix cells hold the median over repeats.  Run directly
(``python benchmarks/bench_backends.py``) or via pytest.  The pytest
entry point asserts the acceptance bar: ``scipy`` at least 2× faster
than ``reference`` on at least one generator-suite matrix.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

from repro.backends import time_execution
from repro.matrices import generators as G
from repro.pipeline import PipelineSpec, available_components

from _common import gate_metric, save_bench_json

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_backends.json"

#: Generator-suite matrices (moderate sizes: the reference backend is
#: pure python and is timed too).
MATRICES = {
    "web1000": lambda: G.web_graph(1000, seed=0),
    "grid32": lambda: G.grid2d(32, 32, seed=0),
    "banded900": lambda: G.banded_random(900, bandwidth=10, fill=0.4, seed=0),
    "blocks60x12": lambda: G.block_diagonal(60, 12, density=0.4, seed=0),
}

#: (kernel label, pipeline to prepare).
CASES = [
    ("rowwise", "original+none+rowwise"),
    ("cluster", "original+fixed:8+cluster"),
]

#: Backends timed on every case; ``reference`` first, the 1.0 anchor.
BACKENDS = ["reference", "scipy"]

#: Repeats of the whole sweep; the summary is their median.
REPEATS = 5


def _geomean(values: list[float]) -> float:
    vals = [v for v in values if v > 0 and not math.isnan(v)]
    return math.exp(sum(math.log(v) for v in vals) / len(vals)) if vals else float("nan")


def _sweep(built_cases: dict, registered: set) -> dict:
    """One repeat: ``{(matrix, kernel label, backend): (seconds, speedup)}``."""
    cells = {}
    for (mat_name, kernel_label), (built, A) in built_cases.items():
        t_ref = None
        for backend in BACKENDS:
            if backend not in registered:
                continue  # e.g. scipy-less environment
            # Best-of-5 wall-clock seconds for one execution.
            seconds = time_execution(built, A, backend, reps=5)
            if backend == "reference":
                t_ref = seconds
            cells[mat_name, kernel_label, backend] = (seconds, t_ref / seconds if t_ref else float("nan"))
    return cells


def run_bench() -> dict:
    registered = set(available_components("backend"))
    built_cases = {}
    for mat_name, build_matrix in MATRICES.items():
        A = build_matrix()
        for kernel_label, spec_text in CASES:
            built_cases[mat_name, kernel_label] = (PipelineSpec.parse(spec_text).build(A), A)
    repeats = [_sweep(built_cases, registered) for _ in range(REPEATS)]
    results: dict = {"matrices": {}, "summary": {}, "summary_iqr": {}}
    for key in repeats[0]:
        mat_name, kernel_label, backend = key
        samples = [rep[key] for rep in repeats]
        results["matrices"].setdefault(mat_name, {}).setdefault(kernel_label, {})[backend] = {
            "seconds": round(statistics.median(s for s, _ in samples), 6),
            "speedup_vs_reference": round(statistics.median(x for _, x in samples), 3),
        }
    for case in sorted({(k, b) for _, k, b in repeats[0]}):
        geomeans = [_geomean([x for (_, *kb), (_, x) in rep.items() if tuple(kb) == case]) for rep in repeats]
        q1, _, q3 = statistics.quantiles(geomeans, n=4, method="inclusive")
        results["summary"]["@".join(case)] = round(statistics.median(geomeans), 3)
        results["summary_iqr"]["@".join(case)] = [round(q1, 3), round(q3, 3)]
    return results


def save_bench() -> dict:
    results = run_bench()
    gates = [
        gate_metric(f"summary.{case}", gm, "higher")
        for case, gm in sorted(results["summary"].items())
        if not case.endswith("@reference")  # the 1.0 anchor gates nothing
    ]
    save_bench_json(
        OUT_PATH,
        "backends",
        results,
        gate=gates,
        config={"matrices": sorted(MATRICES), "reps": 5, "repeats": REPEATS},
    )
    return results


def test_backend_bench_meets_acceptance_bar():
    """Acceptance: scipy ≥ 2× the reference on at least one
    generator-suite matrix (and the JSON artefact is emitted)."""
    results = save_bench()
    best = max(
        cells["scipy"]["speedup_vs_reference"]
        for mat_cells in results["matrices"].values()
        for cells in mat_cells.values()
    )
    assert best >= 2.0, f"scipy peaked at {best:.2f}x vs reference"
    assert OUT_PATH.exists()


if __name__ == "__main__":
    res = save_bench()
    print(json.dumps(res["summary"], indent=2, sort_keys=True))
    print(f"wrote {OUT_PATH}")
