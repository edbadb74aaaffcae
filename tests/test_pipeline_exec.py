"""End-to-end pipeline execution: the compatibility property test (every
registry-compatible triple runs and is bitwise-identical to row-wise
SpGEMM), the ISSUE acceptance spec through engine and runner, and the
CLI ``--pipeline`` path."""

import functools

import numpy as np
import pytest

from conftest import assert_bitwise_equal, scrambled_blocks_matrix
from repro import PipelineSpec, SpGEMMEngine
from repro.core import COOMatrix, CSRMatrix, spgemm_rowwise
from repro.experiments import ExperimentConfig
from repro.experiments.runner import run_pipeline
from repro.matrices import generators as G
from repro.matrices.perturb import scramble
from repro.pipeline import enumerate_compatible

SMALL_CFG = ExperimentConfig(n_threads=2, cache_lines=128)

ACCEPTANCE_SPEC = "rcm+hierarchical:max_th=8+cluster"


@pytest.fixture(scope="module")
def small_matrix():
    return scramble(G.grid2d(5, 5, seed=3), seed=1)


@pytest.fixture(scope="module")
def small_ref(small_matrix):
    return spgemm_rowwise(small_matrix, small_matrix)


# ----------------------------------------------------------------------
# Property: every compatible triple runs and matches row-wise bitwise
# ----------------------------------------------------------------------
ALL_TRIPLES = enumerate_compatible(square=True)


def _one_heavy_row(n: int = 40) -> CSRMatrix:
    """Row 0 touches every column; every other row is empty."""
    cols = np.arange(n, dtype=np.int64)
    return CSRMatrix.from_coo(COOMatrix(np.zeros(n, np.int64), cols, np.linspace(0.5, 2.0, n), (n, n)))


def _rectangular_B(n: int, m: int, seed: int) -> CSRMatrix:
    rng = np.random.default_rng(seed)
    return CSRMatrix.from_dense(np.where(rng.random((n, m)) < 0.2, rng.standard_normal((n, m)), 0.0))


#: ``(A, B)`` pairs (``B is None`` squares ``A``): the scrambled mesh of
#: ``small_matrix``, the degenerate all-empty and single-ultra-heavy-row
#: operands, and a rectangular right operand.
TRIPLE_INPUTS = {
    "grid": lambda: (scramble(G.grid2d(5, 5, seed=3), seed=1), None),
    "empty_rows": lambda: (CSRMatrix.empty((6, 6)), None),
    "heavy_row": lambda: (_one_heavy_row(), G.banded_random(40, bandwidth=3, fill=0.9, seed=1)),
    "rectangular": lambda: (scramble(G.grid2d(5, 5, seed=3), seed=1), _rectangular_B(25, 9, seed=7)),
}


@functools.lru_cache(maxsize=None)
def _triple_input(name: str):
    A, B = TRIPLE_INPUTS[name]()
    return A, B, spgemm_rowwise(A, A if B is None else B)


TRIPLE_CASES = [(spec, name) for name in TRIPLE_INPUTS for spec in ALL_TRIPLES]


@pytest.mark.parametrize(
    "spec,name",
    TRIPLE_CASES,
    ids=[str(spec) if name == "grid" else f"{spec}-{name}" for spec, name in TRIPLE_CASES],
)
def test_every_compatible_triple_is_bitwise_exact(spec, name):
    A, B, ref = _triple_input(name)
    assert_bitwise_equal(spec.run(A, B, seed=0), ref)


def test_rectangular_space_excludes_square_only_components():
    rect = enumerate_compatible(square=False)
    assert rect  # original-order pipelines always remain
    A = G.grid2d(5, 5, seed=0).extract_rows(np.arange(15))
    B = G.grid2d(5, 5, seed=0)
    ref = spgemm_rowwise(A, B)
    for spec in rect:
        assert not spec.square_only
        assert_bitwise_equal(spec.run(A, B), ref)


# ----------------------------------------------------------------------
# The ISSUE acceptance criterion, end to end
# ----------------------------------------------------------------------
def test_acceptance_spec_round_trips_builds_and_runs_everywhere():
    spec = PipelineSpec.parse(ACCEPTANCE_SPEC)
    assert PipelineSpec.parse(str(spec)) == spec  # round-trip

    A = scrambled_blocks_matrix(16, 12)
    ref = spgemm_rowwise(A, A)

    built = spec.build(A, cfg=SMALL_CFG)  # builds
    assert built.Ac is not None and built.perm is not None

    # Runs via SpGEMMEngine.multiply…
    eng = SpGEMMEngine(pipeline=spec, config=SMALL_CFG)
    assert_bitwise_equal(eng.multiply(A), ref)
    plan = eng.plan_for(A)
    assert plan.policy == "pipeline"
    assert plan.pipeline() == spec

    # …and via experiments/runner.py.
    result = run_pipeline(A, spec, SMALL_CFG)
    assert_bitwise_equal(result.C, ref)
    assert result.record.pre_time > 0
    assert np.isfinite(result.baseline_time)


@pytest.mark.parametrize(
    "spec, label",
    [("rcm+fixed:4+cluster", "rcm+fixed/cluster"), ("rabbit+tiled:tile_cols=8", "rabbit+csr/tiled")],
)
def test_engine_pipeline_spec_runs_its_plan(small_matrix, small_ref, spec, label):
    eng = SpGEMMEngine(pipeline=spec, config=SMALL_CFG)
    assert_bitwise_equal(eng.multiply(small_matrix), small_ref)
    assert_bitwise_equal(eng.multiply(small_matrix), small_ref)
    s = eng.stats()
    assert s.multiplies == 2 and s.plans_built == 1
    assert s.per_plan == {label: 2}


def test_engine_pipeline_plans_are_deterministic(small_matrix):
    e1 = SpGEMMEngine(pipeline=ACCEPTANCE_SPEC, config=SMALL_CFG, seed=0)
    e2 = SpGEMMEngine(pipeline=ACCEPTANCE_SPEC, config=SMALL_CFG, seed=0)
    assert e1.plan_for(small_matrix) == e2.plan_for(small_matrix)


def test_engine_pipeline_plans_are_cached(small_matrix):
    eng = SpGEMMEngine(pipeline=ACCEPTANCE_SPEC, config=SMALL_CFG, seed=0)
    eng.multiply(small_matrix)
    eng.multiply(small_matrix)
    s = eng.stats()
    assert s.plans_built == 1
    assert s.plan_cache_hits == 1
    assert s.operands_prepared == 1 and s.operands_reused == 2


def test_engine_pipeline_with_distinct_params_do_not_share_operands(small_matrix, small_ref):
    # Same (reordering, clustering) with different parameters must not
    # collide in the prepared-operand cache.
    eng = SpGEMMEngine(pipeline="original+fixed:2+cluster", config=SMALL_CFG)
    assert_bitwise_equal(eng.multiply(small_matrix), small_ref)
    wide = SpGEMMEngine(pipeline="original+fixed:8+cluster", config=SMALL_CFG).plan_for(small_matrix)
    built = eng.prepare(small_matrix, wide)
    assert built.spec.clustering_params == (("cluster_size", 8),)
    assert built.spec.to_plan().params == wide.params != eng.plan_for(small_matrix).params
    assert eng.stats().operands_prepared == 2


def test_pipeline_policy_requires_spec():
    with pytest.raises(ValueError, match="pipeline"):
        SpGEMMEngine(policy="pipeline", config=SMALL_CFG)


def test_engine_rejects_square_only_pipeline_on_rectangle():
    A = G.grid2d(5, 5, seed=0).extract_rows(np.arange(15))
    B = G.grid2d(5, 5, seed=0)
    eng = SpGEMMEngine(pipeline="rcm+rowwise", config=SMALL_CFG)
    with pytest.raises(ValueError, match="square"):
        eng.multiply(A, B)


def test_run_pipeline_accepts_suite_names_and_strings():
    result = run_pipeline("pdb1", "original+variable+cluster", SMALL_CFG)
    from repro.matrices import get_matrix

    A = get_matrix("pdb1")
    assert_bitwise_equal(result.C, spgemm_rowwise(A, A))
    assert result.speedup > 0


def test_cli_engine_pipeline_smoke(capsys):
    from repro.experiments.cli import main

    rc = main(["engine", "--matrix", "pdb1", "--pipeline", "rcm+fixed:8+cluster", "--iters", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "rcm+fixed/cluster" in out
    assert "rcm+fixed:cluster_size=8+cluster" in out


def test_cli_pipelines_listing_smoke(capsys):
    from repro.experiments.cli import main

    rc = main(["pipelines"])
    out = capsys.readouterr().out
    assert rc == 0
    for name in ("rcm", "hierarchical", "tiled"):
        assert name in out
