"""The ``scipy`` backend's recorded product structure and the dispatcher's
``original_order`` contract.

For a hinted product (``ctx.operand_tokens`` names B) the backend records,
on the operand's ``backend_state``, where each canonical entry sits in
scipy's raw output, and later calls gather through that record instead of
sorting and un-permuting.  The gather only moves values, so the warm
result must be bitwise-equal to the plain path; a record that no longer
matches the raw output must be rebuilt, never trusted.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_bitwise_equal, random_csr, square_csr
from repro.backends import ExecutionContext, execute
from repro.core import CSRMatrix, spgemm_rowwise
from repro.engine import SpGEMMEngine
from repro.matrices import generators as G
from repro.pipeline import PipelineSpec

TOKEN = "pattern:value"


def _run(built, B, ctx, original_order):
    spec = built.spec
    return execute(
        built,
        B,
        kernel=spec.kernel,
        kernel_params=spec.kernel_info.resolve_params(spec.kernel_params, None),
        backend=spec.backend,
        backend_params=spec.backend_params,
        ctx=ctx,
        original_order=original_order,
    )


def _hinted_ctx(B):
    ctx = ExecutionContext()
    ctx.operand_tokens[id(B)] = TOKEN
    return ctx


@settings(max_examples=60, deadline=None)
@given(
    A=square_csr(max_n=24, max_nnz=120),
    reordering=st.sampled_from(["original", "rcm"]),
    hinted=st.booleans(),
    original_order=st.booleans(),
)
def test_warm_path_bitwise_equal_to_plain_path(A, reordering, hinted, original_order):
    spec = PipelineSpec.parse(f"{reordering}@scipy")
    plain = _run(spec.build(A), A, ExecutionContext(), original_order)
    built = spec.build(A)
    ctx = _hinted_ctx(A) if hinted else ExecutionContext()
    # First sighting (plain), second (records), third and fourth (reuse).
    for _ in range(4):
        assert_bitwise_equal(_run(built, A, ctx, original_order), plain)
    expected = {"scipy_structure_records": 1, "scipy_structure_reuses": 2} if hinted else {}
    assert {k: v for k, v in ctx.stats.items() if k.startswith("scipy_structure")} == expected


def _recorded(A, original_order=True):
    """A built ``rcm@scipy`` operand whose hinted A² structure is recorded."""
    built = PipelineSpec.parse("rcm@scipy").build(A)
    ctx = _hinted_ctx(A)
    for _ in range(2):
        _run(built, A, ctx, original_order)
    assert ctx.stats["scipy_structure_records"] == 1
    return built, ctx, (TOKEN, original_order)


def test_shuffled_order_is_rebuilt_not_trusted():
    A = random_csr(80, 80, 0.08, seed=5)
    built, ctx, key = _recorded(A)
    rec = built.backend_state[key]
    shuffled = np.random.default_rng(0).permutation(rec.order).astype(np.int32)
    built.backend_state[key] = rec._replace(order=shuffled)
    C = _run(built, A, ctx, True)
    ref = spgemm_rowwise(A, A)
    assert C.same_pattern(ref) and C.allclose(ref)
    assert ctx.stats["scipy_structure_rebuilds"] == 1
    # The rebuilt record is trusted again on the next call.
    assert_bitwise_equal(_run(built, A, ctx, True), C)
    assert ctx.stats["scipy_structure_reuses"] == 1


def test_mismatched_raw_row_pointer_is_rebuilt():
    A = random_csr(80, 80, 0.08, seed=6)
    built, ctx, key = _recorded(A, original_order=False)
    rec = built.backend_state[key]
    stale = rec.raw_indptr.copy()
    stale[1:-1] = stale[2:]  # one row "moved" its boundary
    built.backend_state[key] = rec._replace(raw_indptr=stale)
    C = _run(built, A, ctx, False)
    expected = spgemm_rowwise(A, A).permute_rows(built.perm)
    assert C.same_pattern(expected) and C.allclose(expected)
    assert ctx.stats["scipy_structure_rebuilds"] == 1
    assert "scipy_structure_reuses" not in ctx.stats


@pytest.mark.parametrize(
    "spec",
    [
        "rcm",
        "rcm+fixed:8+cluster",
        "rcm@scipy",
        "rcm+fixed:8+cluster@scipy",
        "rcm+fixed:8+cluster@vectorized",
        "rcm@sharded:workers=2",
        "rcm+fixed:8+cluster@sharded:workers=2,inner=scipy",
    ],
)
def test_original_order_is_default_then_unpermute(spec, monkeypatch):
    monkeypatch.setenv("REPRO_SHARDED_INPROCESS", "1")
    A = G.web_graph(150, seed=4)
    built = PipelineSpec.parse(spec).build(A)
    assert built.inv is not None
    expected = _run(built, A, ExecutionContext(), False).permute_rows(built.inv)
    assert_bitwise_equal(_run(built, A, ExecutionContext(), True), expected)
    # Warm scipy calls (hinted, recorded, reused) keep the contract too.
    ctx = _hinted_ctx(A)
    for _ in range(3):
        assert_bitwise_equal(_run(built, A, ctx, True), expected)


def test_cancellation_drops_exact_zeros_like_raw_scipy():
    # A² = [[2, 0], [0, 2]]: the off-diagonal sums cancel to exactly 0.0.
    dense = np.array([[1.0, 1.0], [1.0, -1.0]])
    A = CSRMatrix.from_scipy(sp.csr_matrix(dense))
    raw = CSRMatrix.from_scipy(sp.csr_matrix(dense) @ sp.csr_matrix(dense))
    assert raw.nnz == 2
    assert spgemm_rowwise(A, A).nnz == 4  # the reference keeps structural zeros
    eng = SpGEMMEngine(backend="scipy")
    for _ in range(3):  # cold, structure-recording, warm
        assert_bitwise_equal(eng.multiply(A), raw)
    events = eng.stats().backend_events
    assert events["scipy_structure_records"] == 1
    assert events["scipy_structure_reuses"] == 1


def test_engine_hints_only_a_squared():
    A = G.web_graph(200, seed=2)
    B = G.web_graph(200, seed=3)
    eng = SpGEMMEngine(backend="scipy", pipeline="rcm")
    for _ in range(3):
        eng.multiply(A, B)
    eng.power(A, 4)  # only the first step is A·A: a first sighting
    events = eng.stats().backend_events
    assert not any(k.startswith("scipy_structure") for k in events)
    eng.multiply(A)  # the second sighting records
    assert eng.stats().backend_events["scipy_structure_records"] == 1
