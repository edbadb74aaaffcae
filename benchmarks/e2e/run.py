"""End-to-end wall-clock benchmark of the SpGEMM engine and server.

    python3 benchmarks/e2e/run.py --seed 0 [--workload W] [--seconds S]
                                  [--trace [0|1]] [--scale full|smoke] [--out F]

Without ``--workload`` every workload runs, each in a fresh interpreter.
``--trace`` (or ``--trace 1``) makes the separate traced run that
reports the per-layer metrics instead of the end-to-end ones, and writes
its spans to ``benchmarks/e2e/results/trace-<workload>-<seed>.jsonl``.
Metric names and units come from ``BENCHMARK.json``.  Every product is
checked against raw scipy; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` and the exit
code is non-zero when any product failed.  See README.md.
"""

import os

# Fixed before numpy loads: one BLAS/OpenMP thread, and no on-disk
# result or plan cache that could carry state from one run to the next.
os.environ["REPRO_NO_CACHE"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("asquare_small", "asquare_large", "bc_frontiers", "serve_zipf")
#: Fresh-engine (or fresh-server) set-ups per run; ``setup_s`` is their median.
SETUP_PASSES = {"asquare_small": 5, "asquare_large": 3, "bc_frontiers": 3, "serve_zipf": 21}
#: A run of every workload gets this long per child before it is killed.
CHILD_TIMEOUT_S = 170


def fail(msg: str):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found; run from a checkout of the repository")
    return json.loads(path.read_text())


def parse_args(spec: dict) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all, one interpreter each)")
    p.add_argument("--seed", type=int, required=True, help="input seed; 0 rebuilds the suite's matrices")
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]), help="measured time per workload")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="1: traced run reporting the per-layer metrics")
    p.add_argument("--scale", choices=("full", "smoke"), default="full", help="smoke: tiny inputs for the tier-1 test")
    p.add_argument("--out", type=Path, help="write the full results (metrics and detail) as JSON")
    return p.parse_args()


# ----------------------------------------------------------------------
# One workload, in this interpreter
# ----------------------------------------------------------------------
def warm_up() -> None:
    """One throwaway multiply of every kind on a tiny matrix, so import
    and first-call costs stay out of ``setup_s``."""
    from repro import SpGEMMEngine
    from repro.matrices.generators import grid2d
    from repro.serve import SpGEMMServer

    A = grid2d(6, 6)
    engine = SpGEMMEngine(backend="auto")
    engine.multiply(A)
    engine.multiply_many(A, [A])
    with SpGEMMServer(SpGEMMEngine(backend="auto")) as server:
        server.submit(A, A).result(60)
    A.to_scipy() @ A.to_scipy()


def run_one(args, spec: dict) -> dict:
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"package sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import harness
    import inputs as inputs_mod

    warm_up()
    t0 = time.perf_counter()
    inputs = inputs_mod.build(args.workload, args.seed, args.scale, args.seconds)
    built_s = time.perf_counter() - t0
    gate = harness.Gate()
    passes = 1 if args.scale == "smoke" else SETUP_PASSES[args.workload]
    if args.trace:
        import layers

        tracer = layers.new_tracer()
        res = layers.trace_workload(args.workload, inputs, args.seconds, gate=gate, tracer=tracer)
        names = spec["per_layer"]
        trace_path = RESULTS / f"trace-{args.workload}-{args.seed}.jsonl"
        layers.write_jsonl(tracer.sink.spans, trace_path)
        reported = {}
        detail = {
            "attributed_share": res["attributed_share"],
            "self_times": layers.self_times(tracer.sink.spans),
            "trace_file": str(trace_path.relative_to(ROOT)),
        }
    else:
        import loops

        if args.workload == "serve_zipf":
            res = loops.open_loop(inputs, args.seconds, passes=passes, gate=gate)
        else:
            res = loops.closed_loop(inputs, args.seconds, passes=passes, gate=gate)
        res["values"]["peak_rss_mb"] = harness.peak_rss_mb()
        names = spec["end_to_end"]
        reported = {
            name: {"value": value, "unit": loops.REPORTED[name][0], "better": loops.REPORTED[name][1]}
            for name, value in res["reported"].items()
        }
        detail = res["detail"]
    missing = [m["name"] for m in names if m["name"] not in res["values"]]
    if missing:
        fail(f"workload {args.workload} produced no value for {missing}")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "inputs_digest": inputs_mod.digest(inputs),
        "inputs_build_s": built_s,
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "errors": gate.errors,
        "metrics": {m["name"]: {"value": float(res["values"][m["name"]]), "unit": m["unit"]} for m in names},
        "reported": reported,
        "detail": detail,
    }


# ----------------------------------------------------------------------
# Every workload, one child interpreter each
# ----------------------------------------------------------------------
def run_all(args) -> list[dict]:
    results = []
    RESULTS.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
            out = Path(tmp) / "result.json"
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--scale", args.scale, "--out", str(out)]
            proc = subprocess.run(cmd, timeout=CHILD_TIMEOUT_S)
            if not out.is_file():
                fail(f"workload {workload} exited {proc.returncode} without a result")
            results.extend(json.loads(out.read_text())["results"])
    return results


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def fmt(v: float) -> str:
    return f"{v:.4g}" if abs(v) < 1e5 else f"{v:.4e}"


def report(r: dict) -> None:
    d = r["detail"]
    kind = "per-layer (traced)" if r["trace"] else "end to end"
    print(f"\n== {r['workload']}  seed {r['seed']}  {kind}  inputs {r['inputs_digest'][:12]}"
          + (f"  [{d['load']}]" if "load" in d else ""))
    for name, m in r["metrics"].items():
        print(f"  {name:<32} {fmt(m['value']):>12} {m['unit']}")
    rate = r["failed"] / r["attempted"] if r["attempted"] else float("nan")
    print(f"  {'error_rate':<32} {fmt(rate):>12} fraction ({r['failed']} of {r['attempted']} products)")
    for name, m in r["reported"].items():
        print(f"  {name:<32} {fmt(m['value']):>12} {m['unit']} (reported, not gated)")
    if r["trace"]:
        print(f"  layers + engine.unattributed_ms = engine.multiply_ms; timed layers cover "
              f"{100 * d['attributed_share']:.1f}% of it")
        print(f"  {'span':<28} {'calls':>7} {'total ms':>11} {'self ms':>11}")
        for name, (calls, total, own) in sorted(d["self_times"].items(), key=lambda kv: -kv[1][1]):
            print(f"  {name:<28} {calls:>7} {1e3 * total:>11.2f} {1e3 * own:>11.2f}")
        print(f"  spans: {d['trace_file']}")
    else:
        for row in d["inputs"]:
            print("  " + "  ".join(f"{k}={fmt(v) if isinstance(v, float) else v}" for k, v in row.items()))
        extra = {k: v for k, v in d.items() if k not in ("inputs", "load")}
        print(f"  {json.dumps(extra, default=fmt)}")
    for e in r["errors"]:
        print(f"  ERROR {e}")


def main() -> int:
    spec = load_spec()
    args = parse_args(spec)
    if args.workload is None:
        results = run_all(args)
        summary = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()},
        }
    else:
        results = [run_one(args, spec)]
        report(results[0])
        summary = {k: results[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"results": results}, indent=1) + "\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] and summary["attempted"] > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
