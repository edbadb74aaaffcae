"""Unhinted product bench — the layer split of an unhinted scipy backend
call and the public-path baseline it beats (DESIGN.md §10).

A product whose right operand is not the operand's own ``A`` (a served
request, a BC frontier) is unhinted: no structure is recorded for it.
The scipy backend runs scipy's C++ passes on the operands' own int64
arrays: count, numeric pass, row sort and, for a permuted plan, row
gather.  With the direct path's flag forced off, the same call converts
B to a scipy matrix and goes through the public ``@``, ``sort_indices``,
``Cs[inv]`` and two int64 casts (the baseline).

The inputs are rebuilt from :mod:`repro` modules:

* the six members of the default ``serve_zipf`` trace: each member's
  first operand and 32 of the right operands its stream sends with it
  (cycled), from :mod:`repro.workloads.replay`;
* the three ``bc_frontiers`` graphs at seed 0 (scrambled road(60000),
  scrambled web(40000), rmat(14)) with their 10 BC frontiers of 64
  columns, from :mod:`repro.workloads.tallskinny`.

Each operand is planned by ``SpGEMMEngine(backend="auto")``, as the
benchmark's engine plans it.  Per input, the medians over every product
and repeat, in µs:

* ``raw_us`` — raw scipy ``A @ B`` on the original operand;
* ``public_us`` / ``direct_us`` — the backend call on the public path
  and on the direct path: one pass over the products per path, as
  ``multiply_many`` runs them, the two passes swapping order every
  repeat;
* ``check_us`` / ``count_us`` / ``numeric_us`` / ``sort_us`` /
  ``gather_us`` — the direct path's layers: validation of B, scipy's
  counting pass, its numeric pass, its row sort, and its row gather
  (0 for an unpermuted plan).

The whole batch also runs through the backend's ``execute_many``, in
alternated pairs, as ``multiply_many`` hands it over (medians in µs):

* ``serial_batch_us`` — the serial loop (split threshold raised out of
  reach);
* ``split_batch_us`` — the batch at the backend's own threshold, which
  ``split_taken`` says it reached (two threads, DESIGN.md §10), with
  ``split_speedup`` = serial / split and the mean estimated work per
  product, ``work_per_product``.

Every result of every path is checked bitwise against raw scipy
(``result_mismatches``).  The gates are per input, not a geomean: the
smallest ratio of public to direct time (``summary.min_public_over_direct``)
must stay at or above 1.0, every input that splits must keep
``split_speedup`` at or above 0.95 (``summary.min_split_speedup``, 1.0
when nothing splits) and no serve member may split
(``summary.serve_splits``).

Emits ``BENCH_unhinted.json`` at the repository root (envelope of
``benchmarks/_common.py``).  Run directly
(``PYTHONPATH=src python benchmarks/bench_unhinted.py``, about 30 s
on a 2-core host) or via pytest.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from itertools import cycle, islice
from pathlib import Path

import numpy as np

from repro.backends import ExecutionContext, get_backend, scipy_backend
from repro.core import CSRMatrix
from repro.engine import SpGEMMEngine
from repro.matrices import generators as G
from repro.matrices.perturb import scramble
from repro.workloads.replay import TraceSpec, synthesize_trace, trace_operands
from repro.workloads.tallskinny import bc_frontiers

from _common import gate_metric, save_bench_json

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_unhinted.json"

#: Products per serve member: one full served burst.
BURST = 32
#: Requests of the synthesized trace: ten seconds at 200 requests/s.
TRACE_REQUESTS = 2000
#: The ``bc_frontiers`` graphs at seed 0.
BC_GRAPHS = {
    "road_scr": lambda: scramble(G.road_network(60000, seed=0), seed=160),
    "web_scr": lambda: scramble(G.web_graph(40000, seed=7), seed=70),
    "rmat": lambda: G.rmat(14, seed=0),
}
#: Timed passes over every product of an input.
REPEATS = {"serve": 5, "bc": 3}
#: Alternated (serial, split) pairs of whole-batch calls per input.
BATCH_PAIRS = {"serve": 8, "bc": 6}
#: Smallest ``split_speedup`` allowed on an input that splits.
MIN_SPLIT_SPEEDUP = 0.95


def serve_inputs() -> dict:
    """``member -> (A, Bs)``: each member's first operand and ``BURST``
    of the right operands its stream sends with it, cycled."""
    trace = synthesize_trace(TraceSpec(requests=TRACE_REQUESTS, population=6))
    firsts, Bs = {}, {}
    for req, A, batch in trace_operands(trace):
        if firsts.setdefault(req.matrix, A) is A:
            Bs.setdefault(req.matrix, []).extend(batch)
    return {m: (firsts[m], list(islice(cycle(Bs[m]), BURST))) for m in sorted(firsts)}


def bc_inputs() -> dict:
    out = {}
    for name, make in BC_GRAPHS.items():
        A = make()
        out[name] = (A, list(bc_frontiers(A, batch=64, depth=10, seed=0).frontiers))
    return out


def _us(fn, *args) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn(*args)
    return (time.perf_counter() - t0) * 1e6, out


def _bitwise(C: CSRMatrix, ref: CSRMatrix) -> bool:
    return all(
        np.array_equal(x, y)
        for x, y in ((C.indptr, ref.indptr), (C.indices, ref.indices), (C.values, ref.values))
    )


def _layers(prep, B, inv) -> dict:
    """One timed run of each layer of the direct path."""
    Ar = prep.Ar
    t = {"check_us": _us(scipy_backend._check_right, Ar, B)[0]}
    t["count_us"], maxnnz = _us(scipy_backend._count, Ar, B)
    t["numeric_us"], raw = _us(scipy_backend._matmat, Ar, Ar.values, B, B.values, maxnnz)
    t["sort_us"] = _us(scipy_backend._sort_rows, *raw)[0]
    t["gather_us"] = 0.0 if inv is None else _us(scipy_backend._row_gather, *raw, inv)[0]
    return t


def _batch(backend, prep, plan, Bs, *, serial: bool):
    """One timed ``execute_many`` over the whole batch: µs, results and
    thread count.  ``serial`` raises the split threshold out of reach."""
    limit = scipy_backend._SPLIT_MIN_WORK
    if serial:
        scipy_backend._SPLIT_MIN_WORK = sys.maxsize
    try:
        us, (Cs, threads) = _us(
            lambda: backend.execute_many(
                prep, Bs, kernel=plan.spec.kernel, kernel_params={}, ctx=ExecutionContext(), original_order=True
            )
        )
    finally:
        scipy_backend._SPLIT_MIN_WORK = limit
    return us, Cs, threads


def measure(A: CSRMatrix, Bs: list, repeats: int, pairs: int) -> dict:
    eng = SpGEMMEngine(backend="auto")
    plan = eng.plan_for(A, Bs[0])
    if plan.spec.backend != "scipy":
        raise RuntimeError(f"expected a scipy plan, got {plan.label}")
    prep = eng.prepare(A, plan)
    backend = get_backend("scipy")
    S = A.to_scipy()
    rights = [B.to_scipy() for B in Bs]
    refs = [CSRMatrix.from_scipy(S @ R) for R in rights]

    def call(B, ctx):
        Cs, _ = backend.execute_many(prep, [B], kernel=plan.spec.kernel, kernel_params={}, ctx=ctx, original_order=True)
        return Cs[0]

    ctx = ExecutionContext()
    call(Bs[0], ctx)  # warm-up: the operand's one-off validation
    samples: dict[str, list[float]] = {}
    mismatches = 0
    flag = scipy_backend._NUMERIC_ONLY
    try:
        for rep in range(repeats):
            # One pass over the products per mode, as ``multiply_many``
            # runs them; the two backend modes swap places every repeat.
            samples.setdefault("raw_us", []).extend(_us(S.__matmul__, R)[0] for R in rights)
            for direct in (True, False) if rep % 2 == 0 else (False, True):
                scipy_backend._NUMERIC_ONLY = direct and flag
                for B, ref in zip(Bs, refs):
                    us, C = _us(call, B, ctx)
                    samples.setdefault("direct_us" if direct else "public_us", []).append(us)
                    mismatches += not _bitwise(C, ref)
                    del C
            scipy_backend._NUMERIC_ONLY = flag
            for B in Bs:
                for k, v in _layers(prep, B, prep.inv).items():
                    samples.setdefault(k, []).append(v)
    finally:
        scipy_backend._NUMERIC_ONLY = flag
    threads = set()
    for rep in range(pairs):
        for serial in (True, False) if rep % 2 == 0 else (False, True):
            us, Cs, n = _batch(backend, prep, plan, Bs, serial=serial)
            samples.setdefault("serial_batch_us" if serial else "split_batch_us", []).append(us)
            mismatches += sum(not _bitwise(C, ref) for C, ref in zip(Cs, refs))
            if not serial:
                threads.add(n)
            del Cs
    row = {"plan": plan.label, "products": len(Bs), "nnz_A": A.nnz}
    row["nnz_C_median"] = int(statistics.median(ref.nnz for ref in refs))
    row.update({k: statistics.median(v) for k, v in samples.items()})
    row.update(
        direct_products=ctx.stats.get("scipy_direct_products", 0),
        result_mismatches=mismatches,
        public_over_direct=row["public_us"] / row["direct_us"],
        raw_over_direct=row["raw_us"] / row["direct_us"],
        split_taken=threads == {2},
        split_speedup=row["serial_batch_us"] / row["split_batch_us"],
        work_per_product=float(scipy_backend._work(prep.Ar, Bs).mean()),
    )
    return {k: round(v, 3) if isinstance(v, float) else v for k, v in row.items()}


def _geomean(xs) -> float:
    xs = list(xs)
    return math.exp(sum(map(math.log, xs)) / len(xs))


def run_bench() -> dict:
    inputs = {f"serve/{m}": (A, Bs, "serve") for m, (A, Bs) in serve_inputs().items()}
    inputs.update({f"bc/{m}": (A, Bs, "bc") for m, (A, Bs) in bc_inputs().items()})
    rows = {name: measure(A, Bs, REPEATS[kind], BATCH_PAIRS[kind]) for name, (A, Bs, kind) in inputs.items()}
    split = [r["split_speedup"] for r in rows.values() if r["split_taken"]]
    return {
        "inputs": rows,
        "summary": {
            "min_split_speedup": round(min(split, default=1.0), 3),
            "serve_splits": sum(r["split_taken"] for name, r in rows.items() if name.startswith("serve/")),
            "bc_splits": sum(r["split_taken"] for name, r in rows.items() if name.startswith("bc/")),
            "min_public_over_direct": round(min(r["public_over_direct"] for r in rows.values()), 3),
            "geomean_public_over_direct": round(_geomean(r["public_over_direct"] for r in rows.values()), 3),
            "geomean_raw_over_direct": round(_geomean(r["raw_over_direct"] for r in rows.values()), 3),
            "result_mismatches": sum(r["result_mismatches"] for r in rows.values()),
        },
    }


def _gates(results: dict) -> list[dict]:
    s = results["summary"]
    return [
        gate_metric("summary.min_public_over_direct", s["min_public_over_direct"], "higher"),
        gate_metric("summary.result_mismatches", s["result_mismatches"], "lower"),
        gate_metric("summary.min_split_speedup", s["min_split_speedup"], "higher"),
        gate_metric("summary.serve_splits", s["serve_splits"], "lower"),
    ]


def save_bench(path: Path = OUT_PATH) -> dict:
    results = run_bench()
    save_bench_json(
        path,
        "unhinted",
        results,
        gate=_gates(results),
        config={
            "serve_burst": BURST,
            "trace_requests": TRACE_REQUESTS,
            "bc_graphs": sorted(BC_GRAPHS),
            "repeats": REPEATS,
            "batch_pairs": BATCH_PAIRS,
            "split_min_work": scipy_backend._SPLIT_MIN_WORK,
            "backend": "scipy",
        },
    )
    return results


def test_unhinted_bench_meets_acceptance_bar(tmp_path):
    """Every result of every path is raw scipy's, every input ran the
    direct path, no input is slower direct than public, no input that
    splits loses more than 5% to the serial loop, and no serve member
    splits."""
    out = tmp_path / OUT_PATH.name
    results = save_bench(out)
    assert results["summary"]["result_mismatches"] == 0
    assert all(r["direct_products"] > 0 for r in results["inputs"].values())
    assert results["summary"]["min_public_over_direct"] >= 1.0
    assert results["summary"]["min_split_speedup"] >= MIN_SPLIT_SPEEDUP
    assert results["summary"]["serve_splits"] == 0
    assert out.exists()


if __name__ == "__main__":
    res = save_bench()
    print(f"wrote {OUT_PATH.name}")
    for name, r in res["inputs"].items():
        print(
            f"  {name:>13} ({r['plan']}): raw {r['raw_us']:.0f}  public {r['public_us']:.0f}  "
            f"direct {r['direct_us']:.0f} us (x{r['public_over_direct']:.2f});  check {r['check_us']:.0f}  "
            f"count {r['count_us']:.0f}  numeric {r['numeric_us']:.0f}  sort {r['sort_us']:.0f}  "
            f"gather {r['gather_us']:.0f}"
        )
        print(
            f"  {'':>13} batch of {r['products']}: serial {r['serial_batch_us']:.0f}  "
            f"split {r['split_batch_us']:.0f} us (x{r['split_speedup']:.2f}, "
            f"{'split' if r['split_taken'] else 'serial'}, work/product {r['work_per_product']:.0f})"
        )
    s = res["summary"]
    print(
        f"  min public/direct: x{s['min_public_over_direct']}  min split speedup: x{s['min_split_speedup']}  "
        f"serve splits: {s['serve_splits']}  mismatches: {s['result_mismatches']}"
    )
