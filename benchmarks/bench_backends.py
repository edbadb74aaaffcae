"""Backend bench — per-backend wall-clock speedup vs ``reference``.

Seeds the bench trajectory for the execution-backend axis (ISSUE 3):
each generator-suite matrix is prepared once per kernel dataflow
(row-wise on plain CSR, cluster-wise on ``CSR_Cluster``) and then
executed through every registered backend that supports the kernel.
Only the *execution* is timed — preparation is the amortised one-off the
engine already accounts for — so the numbers isolate exactly what the
backend axis changes.

Emits ``BENCH_backends.json`` at the repository root, wrapped in the
schema-versioned envelope of ``benchmarks/_common.py`` (results payload
under ``"results"``, gated geomean speedups under ``"gate"``)::

    {
      "schema": 1, "bench": "backends", "git_rev": .., "config": {..},
      "gate": [{"metric": "summary.rowwise@scipy", ..}, ..],
      "results": {
        "matrices": {"web1200": {"rowwise": {"scipy": {"seconds": ..,
                                                       "speedup_vs_reference": ..}, ...}}},
        "summary":  {"rowwise@scipy": <geomean speedup>, ...},
      }
    }

Run directly (``python benchmarks/bench_backends.py``) or via pytest.
The pytest entry point asserts the ISSUE acceptance bar: ``scipy`` or
``vectorized`` at least 2× faster than ``reference`` on at least one
generator-suite matrix.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.backends import get_backend, time_execution
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

#: (kernel label, pipeline to prepare, backends to time).
CASES = [
    ("rowwise", "original+none+rowwise", ["reference", "scipy"]),
    ("cluster", "original+fixed:8+cluster", ["reference", "scipy", "vectorized"]),
]


def run_bench() -> dict:
    registered = set(available_components("backend"))
    results: dict = {"matrices": {}, "summary": {}}
    per_case: dict[str, list[float]] = {}
    for mat_name, build_matrix in MATRICES.items():
        A = build_matrix()
        results["matrices"][mat_name] = {}
        for kernel_label, spec_text, backends in CASES:
            built = PipelineSpec.parse(spec_text).build(A)
            cell: dict = {}
            t_ref = None
            for backend in backends:
                if backend not in registered:
                    continue  # e.g. scipy-less environment
                # Best-of-5 wall-clock seconds for one execution.
                seconds = time_execution(built, A, backend, reps=5)
                if backend == "reference":
                    t_ref = seconds
                speedup = (t_ref / seconds) if t_ref else float("nan")
                cell[backend] = {
                    "seconds": round(seconds, 6),
                    "speedup_vs_reference": round(speedup, 3),
                    "bitwise": get_backend(backend).bitwise_reference,
                }
                per_case.setdefault(f"{kernel_label}@{backend}", []).append(speedup)
            results["matrices"][mat_name][kernel_label] = cell
    for case, speedups in per_case.items():
        vals = [s for s in speedups if s > 0 and not math.isnan(s)]
        gm = math.exp(sum(math.log(s) for s in vals) / len(vals)) if vals else float("nan")
        results["summary"][case] = round(gm, 3)
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
        config={"matrices": sorted(MATRICES), "reps": 5},
    )
    return results


def test_backend_bench_meets_acceptance_bar():
    """ISSUE 3 acceptance: scipy or vectorized ≥ 2× the reference on at
    least one generator-suite matrix (and the JSON artefact is emitted)."""
    results = save_bench()
    best = 0.0
    for mat_cells in results["matrices"].values():
        for cells in mat_cells.values():
            for backend, cell in cells.items():
                if backend in ("scipy", "vectorized"):
                    best = max(best, cell["speedup_vs_reference"])
    assert best >= 2.0, f"fast backends peaked at {best:.2f}x vs reference"
    assert OUT_PATH.exists()


if __name__ == "__main__":
    res = save_bench()
    print(json.dumps(res["summary"], indent=2, sort_keys=True))
    print(f"wrote {OUT_PATH}")
