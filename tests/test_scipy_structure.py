"""The ``scipy`` backend's recorded product structure and the dispatcher's
``original_order`` contract.

For a hinted product (``ctx.operand_tokens`` names B) the backend records,
on the operand's ``backend_state``, where each canonical entry sits in
scipy's raw output, and later calls gather through that record instead of
sorting and un-permuting.  The gather only moves values, so the warm
result must be bitwise-equal to the plain path; a record that no longer
matches the raw output must be rebuilt, never trusted.  On a permuted
operand whose hinted B is its source, the recorded product is ``L @ L``
with ``L = P A Pᵀ``, bitwise-equal to raw scipy ``A @ A``.
"""

import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_bitwise_equal, random_csr, square_csr
from repro.backends import ExecutionContext, execute
from repro.backends import scipy_backend
from repro.core import CSRMatrix, spgemm_rowwise
from repro.engine import SpGEMMEngine
from repro.matrices import generators as G
from repro.matrices.perturb import scramble
from repro.pipeline import PipelineSpec, components

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


# ----------------------------------------------------------------------
# Symmetric A²: L @ L with L = P A Pᵀ
# ----------------------------------------------------------------------
SYMMETRIC_SPECS = [f"{c.name}@scipy" for c in components("reordering")] + [
    "rcm+fixed:8+rowwise@scipy"
]


def _raw(A, built=None, original_order=True):
    """Raw scipy ``A @ A`` in canonical form (in the operand's row order
    when ``original_order`` is false)."""
    S = A.to_scipy()
    C = CSRMatrix.from_scipy(S @ S)
    return C if original_order or built.perm is None else C.permute_rows(built.perm)


@st.composite
def integer_square_csr(draw, max_n=24, max_nnz=120):
    """Square CSR with values in {±1, ±2}: many sums cancel to exactly 0."""
    A = draw(square_csr(max_n=max_n, max_nnz=max_nnz, unit_values=True))
    vals = draw(st.lists(st.sampled_from([-2.0, -1.0, 1.0, 2.0]), min_size=A.nnz, max_size=A.nnz))
    return CSRMatrix(A.indptr, A.indices, np.array(vals, dtype=np.float64), A.shape, check=False)


@settings(max_examples=80, deadline=None)
@given(
    A=st.one_of(square_csr(max_n=24, max_nnz=120), integer_square_csr()),
    spec=st.sampled_from(SYMMETRIC_SPECS),
    original_order=st.booleans(),
)
def test_symmetric_warm_square_is_bitwise_raw_scipy(A, spec, original_order):
    spec = PipelineSpec.parse(spec)
    built = spec.build(A)
    raw = _raw(A, built, original_order)
    assert_bitwise_equal(_run(spec.build(A), A, ExecutionContext(), original_order), raw)
    ctx = _hinted_ctx(A)
    for _ in range(4):
        assert_bitwise_equal(_run(built, A, ctx, original_order), raw)
    # Calls 2-4 run L @ L whenever the operand is permuted.
    assert ctx.stats.get("scipy_symmetric_products", 0) == (0 if built.perm is None else 3)
    assert ctx.stats["scipy_structure_reuses"] == 2


def test_symmetric_cancellation_drops_exact_zeros_like_raw_scipy():
    A = scramble(G.grid2d(12, 12), seed=1)
    A = CSRMatrix(A.indptr, A.indices, np.where(A.indices % 2 == 0, 1.0, -1.0), A.shape)
    built = PipelineSpec.parse("rcm@scipy").build(A)
    ctx = _hinted_ctx(A)
    raw = _raw(A)
    assert raw.nnz < spgemm_rowwise(A, A).nnz  # some sums cancel exactly
    for _ in range(3):
        assert_bitwise_equal(_run(built, A, ctx, True), raw)
    assert ctx.stats["scipy_symmetric_products"] == 2


def test_symmetric_handle_built_only_on_second_sighting():
    A = scramble(G.grid2d(15, 15), seed=2)
    built = PipelineSpec.parse("rcm@scipy").build(A)
    ctx = _hinted_ctx(A)
    _run(built, A, ctx, True)
    assert scipy_backend._SYMMETRIC not in built.backend_state
    assert "scipy_symmetric_products" not in ctx.stats
    _run(built, A, ctx, True)
    L = built.backend_state[scipy_backend._SYMMETRIC]
    assert ctx.stats["scipy_symmetric_products"] == 1
    # L is P A Pᵀ, its values shared with the operand.
    expected = A.permute_symmetric(built.perm)
    assert np.shares_memory(L.data, built.Ar.values)
    assert CSRMatrix.from_scipy(L.copy()).same_pattern(expected)
    _run(built, A, ctx, True)
    assert built.backend_state[scipy_backend._SYMMETRIC] is L


@pytest.mark.parametrize("kind", ["other_matrix", "other_values"])
def test_hinted_token_of_another_matrix_never_uses_symmetric_handle(kind):
    A = scramble(G.grid2d(15, 15), seed=3)
    if kind == "other_matrix":
        B = scramble(G.grid2d(15, 15), seed=4)
    else:
        B = CSRMatrix(A.indptr, A.indices, A.values * 2.0, A.shape)
    built = PipelineSpec.parse("rcm@scipy").build(A)
    ctx = _hinted_ctx(B)
    expected = CSRMatrix.from_scipy(A.to_scipy() @ B.to_scipy())
    for _ in range(4):
        assert_bitwise_equal(_run(built, B, ctx, True), expected)
    assert scipy_backend._SYMMETRIC not in built.backend_state
    assert "scipy_symmetric_products" not in ctx.stats
    assert ctx.stats["scipy_structure_reuses"] == 2


def test_shuffled_order_on_symmetric_record_is_rebuilt_not_trusted():
    A = scramble(G.grid2d(15, 15), seed=5)
    built, ctx, key = _recorded(A)
    rec = built.backend_state[key]
    assert rec.symmetric
    shuffled = np.random.default_rng(1).permutation(rec.order).astype(np.int32)
    built.backend_state[key] = rec._replace(order=shuffled)
    raw = _raw(A)
    assert_bitwise_equal(_run(built, A, ctx, True), raw)
    assert ctx.stats["scipy_structure_rebuilds"] == 1
    assert built.backend_state[key].symmetric
    assert_bitwise_equal(_run(built, A, ctx, True), raw)
    assert ctx.stats["scipy_structure_reuses"] == 1


def test_symmetric_mode_operand_keeps_rows_path():
    A = G.web_graph(150, seed=4)
    built = PipelineSpec.parse("rcm@scipy").build(A, mode="symmetric")
    ctx = _hinted_ctx(A)
    expected = _run(built, A, ExecutionContext(), False)
    for _ in range(3):
        assert_bitwise_equal(_run(built, A, ctx, False), expected)
    assert "scipy_symmetric_products" not in ctx.stats
    assert scipy_backend._SYMMETRIC not in built.backend_state


def test_symmetric_build_refuses_execute():
    A = G.web_graph(150, seed=4)
    built = PipelineSpec.parse("rcm").build(A, mode="symmetric")
    with pytest.raises(ValueError, match="mode='symmetric'"):
        built.execute(A)
    assert_bitwise_equal(PipelineSpec.parse("rcm").build(A).execute(A), spgemm_rowwise(A, A))


def test_unrecordable_symmetric_product_takes_plain_path(monkeypatch):
    monkeypatch.setattr(scipy_backend, "_MAX_RECORDED_NNZ", 0)
    A = scramble(G.grid2d(15, 15), seed=6)
    built = PipelineSpec.parse("rcm@scipy").build(A)
    ctx = _hinted_ctx(A)
    for original_order in (True, False):
        for _ in range(3):
            assert_bitwise_equal(_run(built, A, ctx, original_order), _raw(A, built, original_order))
    assert ctx.stats["scipy_symmetric_products"] == 4
    assert not any(k.startswith("scipy_structure") for k in ctx.stats)


def test_engine_power_and_multiply_many_leave_symmetric_handle_unused():
    A = scramble(G.grid2d(15, 15), seed=7)
    Bs = [scramble(G.grid2d(15, 15), seed=s) for s in (8, 9)]
    eng = SpGEMMEngine(backend="scipy", pipeline="rcm")
    S = A.to_scipy()

    def symmetric_products():
        return eng.stats().backend_events.get("scipy_symmetric_products", 0)

    for _ in range(3):
        for B, C in zip(Bs, eng.multiply_many(A, Bs)):
            assert_bitwise_equal(C, CSRMatrix.from_scipy(S @ B.to_scipy()))
    eng.power(A, 4)  # only the first step is A·A: a first sighting
    assert symmetric_products() == 0
    eng.multiply(A)  # the second sighting runs L @ L
    assert symmetric_products() == 1
    # Later powers run L @ L for their A·A step only.
    assert_bitwise_equal(eng.power(A, 3), CSRMatrix.from_scipy(S @ (S @ S)))
    assert symmetric_products() == 2
    eng.multiply_many(A, Bs)
    assert symmetric_products() == 2


def test_operand_handle_is_converted_once(monkeypatch):
    calls = []
    wrap = scipy_backend._wrap
    monkeypatch.setattr(scipy_backend, "_wrap", lambda M: calls.append(M) or wrap(M))
    A = G.web_graph(150, seed=4)
    # Unpermuted A²: the operand's handle serves as both operands.
    built = PipelineSpec.parse("original@scipy").build(A)
    ctx = _hinted_ctx(A)
    for _ in range(4):
        assert_bitwise_equal(_run(built, A, ctx, True), _raw(A))
    assert len(calls) == 1
    As = built.backend_state[scipy_backend._HANDLE]
    assert As.indices.dtype == np.int32 and np.shares_memory(As.data, A.values)
    # A general B is converted on every call, the operand only once.
    calls.clear()
    built = PipelineSpec.parse("rcm@scipy").build(A)
    for _ in range(3):
        _run(built, A, ExecutionContext(), True)
    assert len(calls) == 1 + 3


def test_concurrent_hinted_squares_share_one_operand():
    # Threads race to build the handle, L and the record on one operand;
    # every product must still be raw scipy's.
    A = scramble(G.grid2d(20, 20), seed=10)
    built = PipelineSpec.parse("rcm@scipy").build(A)
    raw = _raw(A)
    results, errors = [], []

    def worker():
        try:
            ctx = _hinted_ctx(A)
            for _ in range(6):
                results.append(_run(built, A, ctx, True))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == 24
    for C in results:
        assert_bitwise_equal(C, raw)
