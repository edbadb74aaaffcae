"""Smoke tests: every example script and the experiments CLI must run."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run(args, timeout=240):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout, cwd=EXAMPLES.parent
    )


def test_quickstart_example():
    r = run([EXAMPLES / "quickstart.py"])
    assert r.returncode == 0, r.stderr
    assert "row-wise (hash SPA) == cluster-wise: True" in r.stdout
    assert "speedup:" in r.stdout


def test_reordering_explorer_example():
    r = run([EXAMPLES / "reordering_explorer.py", "pdb1"])
    assert r.returncode == 0, r.stderr
    assert "hierarch." in r.stdout

    bad = run([EXAMPLES / "reordering_explorer.py", "nope"])
    assert bad.returncode != 0


def test_amg_example():
    r = run([EXAMPLES / "amg_galerkin_product.py"])
    assert r.returncode == 0, r.stderr
    assert "hierarchy complete" in r.stdout


@pytest.mark.slow
def test_bc_example():
    r = run([EXAMPLES / "betweenness_centrality.py"], timeout=400)
    assert r.returncode == 0, r.stderr
    assert "top-5 central vertices" in r.stdout


def test_cli_fig8(tmp_path, monkeypatch):
    env_args = ["-m", "repro.experiments.cli", "fig8"]
    r = subprocess.run(
        [sys.executable, *env_args], capture_output=True, text=True, timeout=600, cwd=EXAMPLES.parent
    )
    assert r.returncode == 0, r.stderr
    assert "Figure 8" in r.stdout


def test_cli_rejects_unknown():
    r = subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", "fig99"],
        capture_output=True,
        text=True,
        cwd=EXAMPLES.parent,
    )
    assert r.returncode != 0


@pytest.mark.parametrize("command", ["engine", "serve"])
def test_cli_rejects_predictor_policy(command, capsys):
    from repro.experiments.cli import main

    with pytest.raises(SystemExit) as exc:
        main([command, "--policy", "predictor"])
    assert exc.value.code == 2
    assert "invalid choice: 'predictor'" in capsys.readouterr().err
