"""Smoke tests: every example script and the experiments CLI must run."""

import os
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


def test_cli_fig8(tmp_path):
    # The quick representative subset, swept into a private cache: the
    # run neither reads nor writes the working tree's .repro_cache.
    env = {**os.environ, "REPRO_CACHE_DIR": str(tmp_path)}
    r = subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", "fig8", "--suite", "quick"],
        capture_output=True, text=True, timeout=600, cwd=EXAMPLES.parent, env=env,
    )
    assert r.returncode == 0, r.stderr
    assert "Figure 8" in r.stdout
    assert all(name in r.stdout for name in ("pdb1", "AS365"))


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


@pytest.mark.parametrize(
    "argv",
    [
        ["engine"],
        ["engine", "--backend", "scipy"],
        ["serve"],
        ["serve", "--backend", "scipy"],
        ["serve", "--pipeline", "rcm"],  # serve ignores --pipeline
    ],
    ids=["engine", "engine-scipy", "serve", "serve-scipy", "serve-pipeline"],
)
def test_cli_autotune_needs_the_reference_backend(argv, capsys):
    from repro.experiments.cli import main

    with pytest.raises(SystemExit) as exc:
        main([*argv, "--policy", "autotune"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--policy autotune" in err and "--backend reference" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, line",
    [
        ([], "plan: original+csr/rowwise@scipy   model costs n/a on scipy (planned without simulation)"),
        (
            ["--policy", "autotune", "--backend", "reference"],
            "plan: original+csr/rowwise   predicted speedup 1.00x, break-even after inf multiplies",
        ),
    ],
    ids=["default", "autotune-reference"],
)
def test_cli_engine_prints_model_costs_only_when_the_plan_has_them(argv, line, capsys):
    from repro.experiments.cli import main

    assert main(["engine", "--matrix", "pdb1", "--iters", "1", *argv]) == 0
    assert line in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--pipeline", "rcm+bogus+cluster"],
            "argument --pipeline: unknown pipeline component 'bogus'; reorderings: ['original',",
        ),
        (["--backend", "nosuch"], "argument --backend: unknown backend 'nosuch'; available: ['reference', 'scipy']"),
        (
            ["--pipeline", "rowwise:accumulator=bogus@scipy"],
            "argument --pipeline: unknown accumulator 'bogus'; expected one of ['sort', 'dense', 'hash']",
        ),
        (["--pipeline", "rcm@nosuch"], "argument --pipeline: unknown backend 'nosuch'; available: ['reference', 'scipy']"),
        (
            ["--pipeline", "rcm+fixed:bogus=1+cluster"],
            "argument --pipeline: clustering 'fixed' has no parameter 'bogus'; valid parameters: ['cluster_size']",
        ),
        (
            ["--pipeline", "rcm+none+cluster"],
            "argument --pipeline: kernel 'cluster' requires a clustering; available: ['fixed', 'variable', 'hierarchical']",
        ),
    ],
    ids=["component", "backend", "accumulator", "spec_backend", "param", "kernel_needs_clustering"],
)
def test_cli_rejects_unknown_components_as_usage_errors(argv, message, capsys):
    # A bad name is a usage error that names it and lists the valid
    # ones, not a traceback from the registry.
    from repro.experiments.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["engine", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and message in err
    assert "Traceback" not in err
