"""Smoke test of the end-to-end benchmark: every workload at
``--scale smoke`` emits every metric ``BENCHMARK.json`` lists, with its
unit and no failed product, and the inputs are a function of the seed.

The workloads run in child interpreters: ``run.py`` pins environment
variables (``REPRO_NO_CACHE``, BLAS threads) that must not leak into
the test process.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402  (the benchmark's own module, found via HERE)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_emits_every_metric(tmp_path, trace, kind):
    out = tmp_path / "results.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "0", "--scale", "smoke",
         "--seconds", "0.2", "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    results = {r["workload"]: r for r in json.loads(out.read_text())["results"]}
    assert sorted(results) == sorted(WORKLOADS)
    for workload, r in results.items():
        assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0, (workload, r["errors"])
        assert {name: m["unit"] for name, m in r["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[kind]
        }, workload


def test_inputs_follow_the_seed():
    for workload in WORKLOADS:
        first = inputs.digest(inputs.build(workload, 0, "smoke", 0.1))
        assert first == inputs.digest(inputs.build(workload, 0, "smoke", 0.1)), workload
        assert first != inputs.digest(inputs.build(workload, 1, "smoke", 0.1)), workload

