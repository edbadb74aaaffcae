"""Compare two sets of end-to-end benchmark results.  Standard library only.

    python3 benchmarks/e2e/compare.py --base A.json ... --new B.json ...

Each argument is a file written by ``run.py --out`` (or a directory of
them).  For every (workload, metric) the report gives each set's median
and quartiles and, for the end-to-end metrics, a verdict against the
metric's bound in ``BENCHMARK.json``:

* ``unresolved`` — the base set's own spread (quartile distance over its
  median) is wider than the bound, and not every new run reads better
  than every base run (which would be ``improved``);
* ``regressed`` — the new median is worse than the base median by more
  than the bound;
* ``improved`` — the new run wins at least nine tenths of the pairs
  (base and new runs paired in the order given, ties counting for
  neither) and the medians differ by more than the base set's quartile
  distance;
* ``unchanged`` — otherwise.

Per-layer metrics and the reported throughput and latency have no bound
and get the verdict ``info``.  The exit code is 1 when any metric
regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(paths) -> dict:
    """(workload, metric) → (the metric's unit and direction, its values
    in the order given), over the gated and the reported metrics."""
    files = []
    for p in map(Path, paths):
        files.extend(sorted(p.glob("*.json")) if p.is_dir() else [p])
    out: dict = {}
    for f in files:
        for r in json.loads(f.read_text())["results"]:
            for name, m in {**r["metrics"], **r.get("reported", {})}.items():
                out.setdefault((r["workload"], name), (m, []))[1].append(float(m["value"]))
    return out


def summary(xs) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return med, q1, q3


def verdict(base, new, bound: float, higher: bool) -> tuple[str, float]:
    """The verdict and the relative change of the new median (positive =
    better)."""
    mb, q1, q3 = summary(base)
    mn = summary(new)[0]
    scale = abs(mb) or 1.0
    gain = (mn - mb) / scale if higher else (mb - mn) / scale

    def better(x, y) -> bool:
        return x > y if higher else x < y

    if (q3 - q1) / scale > bound:
        all_better = all(better(x, y) for x in new for y in base)
        return ("improved" if all_better else "unresolved"), gain
    if gain < -bound:
        return "regressed", gain
    pairs = list(zip(base, new))
    wins = sum(better(n, b) for b, n in pairs)
    if pairs and wins >= 0.9 * len(pairs) and gain * scale > q3 - q1:
        return "improved", gain
    return "unchanged", gain


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", nargs="+", required=True, help="result files (or directories) of the parent")
    p.add_argument("--new", nargs="+", required=True, help="result files (or directories) of the change")
    p.add_argument("--spec", type=Path, default=SPEC, help="BENCHMARK.json with the metric bounds")
    args = p.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(args.base), load(args.new)
    rows = []
    regressed = False
    for key in sorted(set(base) & set(new)):
        workload, name = key
        (meta, b), (_meta, n) = base[key], new[key]
        unit = meta["unit"]
        m = metrics.get(name, meta)
        higher = m["better"] == "higher"
        mb, bq1, bq3 = summary(b)
        mn, nq1, nq3 = summary(n)
        if "bound" in m:
            v, gain = verdict(b, n, m["bound"], higher)
            bound = f"{100 * m['bound']:.0f}%"
        else:
            v, gain = "info", ((mn - mb) if higher else (mb - mn)) / (abs(mb) or 1.0)
            bound = "-"
        regressed |= v == "regressed"
        rows.append(
            (workload, name, unit, f"{mb:.4g} [{bq1:.4g}, {bq3:.4g}] n={len(b)}",
             f"{mn:.4g} [{nq1:.4g}, {nq3:.4g}] n={len(n)}", f"{100 * gain:+.1f}%", bound, v)
        )
    head = ("workload", "metric", "unit", "base median [q1, q3]", "new median [q1, q3]", "better by", "bound", "verdict")
    widths = [max(len(str(r[i])) for r in [head, *rows]) for i in range(len(head))]
    for r in [head, *rows]:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
