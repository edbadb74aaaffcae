"""The ``scipy`` backend's two paths, its failed-probe fallback and the
dispatcher's ``original_order`` contract.

Each product takes one path, chosen from what the backend can observe: a
right operand of ``None`` (a *hinted* square: the operand's own source,
which the engine passes for every ``A²``) squares the backend's own
handle from its second sighting on and gathers through a structure
recorded on the operand's ``backend_state`` (recorded square); its first
sighting, an oversize count and every other right operand run scipy's
C++ passes on the operands' own arrays (direct); only a failed probe
sends products to the public ``@`` (plain).  Every path must be bitwise
raw scipy's, sorted.  A record that no longer matches the raw output must
be rebuilt, never trusted.  On a permuted operand the recorded product is
``L @ L`` with ``L = P A Pᵀ``.  A malformed operand must raise
``ValueError`` before any scipy call.

A recorded square large enough to split runs each row half of its
numeric pass and of its gather on a thread of its own; it must stay
bitwise the serial square's, count each half once per record, start no
thread on one CPU or below the threshold, and re-raise a worker's
exception after the join.
"""

import os
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_bitwise_equal, assert_contract_equal, random_csr, square_csr
from repro.backends import ExecutionContext, execute
from repro.backends import scipy_backend
from repro.core import CSRMatrix, spgemm_rowwise
from repro.engine import SpGEMMEngine
from repro.matrices import generators as G
from repro.matrices.perturb import scramble
from repro.obs import RingSink, Tracer
from repro.pipeline import PipelineSpec, components

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


def _square_key(original_order=True):
    """The ``backend_state`` key of a square's record in one row order."""
    return (scipy_backend._SQUARE, original_order)


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
    ctx = ExecutionContext()
    # First sighting (direct), second (records), third and fourth (reuse).
    for _ in range(4):
        assert_bitwise_equal(_run(built, None if hinted else A, ctx, original_order), plain)
    expected = {"scipy_structure_records": 1, "scipy_structure_reuses": 2} if hinted else {}
    assert {k: v for k, v in ctx.stats.items() if k.startswith("scipy_structure")} == expected


def _recorded(A, original_order=True):
    """A built ``rcm@scipy`` operand whose hinted A² structure is recorded."""
    built = PipelineSpec.parse("rcm@scipy").build(A)
    ctx = ExecutionContext()
    for _ in range(2):
        _run(built, None, ctx, original_order)
    assert ctx.stats["scipy_structure_records"] == 1
    return built, ctx, _square_key(original_order)


def test_shuffled_order_is_rebuilt_not_trusted():
    A = random_csr(80, 80, 0.08, seed=5)
    built, ctx, key = _recorded(A)
    rec = built.backend_state[key]
    shuffled = np.random.default_rng(0).permutation(rec.order).astype(np.int32)
    built.backend_state[key] = rec._replace(order=shuffled)
    C = _run(built, None, ctx, True)
    assert_contract_equal(C, spgemm_rowwise(A, A))
    assert ctx.stats["scipy_structure_rebuilds"] == 1
    # The rebuilt record is trusted again on the next call.
    assert_bitwise_equal(_run(built, None, ctx, True), C)
    assert ctx.stats["scipy_structure_reuses"] == 1


def test_mismatched_raw_row_pointer_is_rebuilt():
    A = random_csr(80, 80, 0.08, seed=6)
    built, ctx, key = _recorded(A, original_order=False)
    rec = built.backend_state[key]
    stale = rec.raw_indptr.copy()
    stale[1:-1] = stale[2:]  # one row "moved" its boundary
    built.backend_state[key] = rec._replace(raw_indptr=stale)
    C = _run(built, None, ctx, False)
    assert_contract_equal(C, spgemm_rowwise(A, A).permute_rows(built.perm))
    assert ctx.stats["scipy_structure_rebuilds"] == 1
    assert "scipy_structure_reuses" not in ctx.stats


@pytest.mark.parametrize(
    "spec",
    [
        "rcm",
        "rcm+fixed:8+cluster",
        "rcm@scipy",
        "rcm+fixed:8+cluster@scipy",
    ],
)
def test_original_order_is_default_then_unpermute(spec):
    A = G.web_graph(150, seed=4)
    built = PipelineSpec.parse(spec).build(A)
    assert built.inv is not None
    expected = _run(built, A, ExecutionContext(), False).permute_rows(built.inv)
    assert_bitwise_equal(_run(built, A, ExecutionContext(), True), expected)
    # Warm scipy calls (hinted, recorded, reused) keep the contract too.
    ctx = ExecutionContext()
    for _ in range(3):
        assert_bitwise_equal(_run(built, None, ctx, True), expected)


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
    ctx = ExecutionContext()
    for _ in range(4):
        assert_bitwise_equal(_run(built, None, ctx, original_order), raw)
    # Calls 2-4 run L @ L whenever the operand is permuted.
    assert ctx.stats.get("scipy_symmetric_products", 0) == (0 if built.perm is None else 3)
    assert ctx.stats["scipy_structure_reuses"] == 2


def test_symmetric_cancellation_drops_exact_zeros_like_raw_scipy():
    A = scramble(G.grid2d(12, 12), seed=1)
    A = CSRMatrix(A.indptr, A.indices, np.where(A.indices % 2 == 0, 1.0, -1.0), A.shape)
    built = PipelineSpec.parse("rcm@scipy").build(A)
    ctx = ExecutionContext()
    raw = _raw(A)
    assert raw.nnz < spgemm_rowwise(A, A).nnz  # some sums cancel exactly
    for _ in range(3):
        assert_bitwise_equal(_run(built, None, ctx, True), raw)
    assert ctx.stats["scipy_symmetric_products"] == 2


def test_symmetric_handle_built_only_on_second_sighting():
    A = scramble(G.grid2d(15, 15), seed=2)
    built = PipelineSpec.parse("rcm@scipy").build(A)
    ctx = ExecutionContext()
    _run(built, None, ctx, True)
    assert scipy_backend._SYMMETRIC not in built.backend_state
    assert "scipy_symmetric_products" not in ctx.stats
    _run(built, None, ctx, True)
    L = built.backend_state[scipy_backend._SYMMETRIC]
    assert ctx.stats["scipy_symmetric_products"] == 1
    # L is P A Pᵀ, its values shared with the operand.
    expected = A.permute_symmetric(built.perm)
    assert np.shares_memory(L.data, built.Ar.values)
    assert CSRMatrix.from_scipy(L.copy()).same_pattern(expected)
    _run(built, None, ctx, True)
    assert built.backend_state[scipy_backend._SYMMETRIC] is L


def test_shuffled_order_on_symmetric_record_is_rebuilt_not_trusted():
    A = scramble(G.grid2d(15, 15), seed=5)
    built, ctx, key = _recorded(A)
    rec = built.backend_state[key]
    assert ctx.stats["scipy_symmetric_products"] == 1  # recorded from L @ L
    shuffled = np.random.default_rng(1).permutation(rec.order).astype(np.int32)
    built.backend_state[key] = rec._replace(order=shuffled)
    raw = _raw(A)
    assert_bitwise_equal(_run(built, None, ctx, True), raw)
    assert ctx.stats["scipy_structure_rebuilds"] == 1
    assert ctx.stats["scipy_symmetric_products"] == 2  # rebuilt from L @ L
    assert_bitwise_equal(_run(built, None, ctx, True), raw)
    assert ctx.stats["scipy_structure_reuses"] == 1


def test_symmetric_mode_operand_keeps_rows_path():
    A = G.web_graph(150, seed=4)
    built = PipelineSpec.parse("rcm@scipy").build(A, mode="symmetric")
    ctx = ExecutionContext()
    expected = _run(built, A, ExecutionContext(), False)
    for _ in range(3):
        assert_bitwise_equal(_run(built, None, ctx, False), expected)
    assert ctx.stats["scipy_direct_products"] == 3
    assert "scipy_symmetric_products" not in ctx.stats
    assert scipy_backend._SYMMETRIC not in built.backend_state


def test_symmetric_build_refuses_execute():
    A = G.web_graph(150, seed=4)
    built = PipelineSpec.parse("rcm").build(A, mode="symmetric")
    with pytest.raises(ValueError, match="mode='symmetric'"):
        built.execute(A)
    assert_bitwise_equal(PipelineSpec.parse("rcm").build(A).execute(A), spgemm_rowwise(A, A))


def test_unrecordable_symmetric_product_takes_direct_path(monkeypatch):
    # The count decides before any numeric pass: every sighting of a
    # square over the limit runs the direct path and records nothing,
    # and the decision is remembered, so each row order counts once.
    monkeypatch.setattr(scipy_backend, "_MAX_RECORDED_NNZ", 0)
    calls = []
    counts = scipy_backend._counts
    monkeypatch.setattr(scipy_backend, "_counts", lambda S, cut: calls.append(cut) or counts(S, cut))
    A = scramble(G.grid2d(15, 15), seed=6)
    built = PipelineSpec.parse("rcm@scipy").build(A)
    ctx = ExecutionContext()
    for original_order in (True, False):
        for _ in range(3):
            assert_bitwise_equal(_run(built, None, ctx, original_order), _raw(A, built, original_order))
    assert len(calls) == 2  # sighting 2 of each row order
    assert ctx.stats["scipy_direct_products"] == 6
    assert "scipy_symmetric_products" not in ctx.stats
    assert not any(k.startswith("scipy_structure") for k in ctx.stats)
    assert not any(isinstance(v, scipy_backend._Structure) for v in built.backend_state.values())


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
    ctx = ExecutionContext()
    for _ in range(4):
        assert_bitwise_equal(_run(built, None, ctx, True), _raw(A))
    assert len(calls) == 1
    As = built.backend_state[scipy_backend._HANDLE]
    assert As.indices.dtype == np.int32 and np.shares_memory(As.data, A.values)
    # An unhinted product converts nothing: B's own arrays reach scipy's
    # numeric pass.
    calls.clear()
    matmat_args = []
    matmat = scipy_backend._csr_matmat
    monkeypatch.setattr(scipy_backend, "_csr_matmat", lambda *a: matmat_args.append(a) or matmat(*a))
    built = PipelineSpec.parse("rcm@scipy").build(A)
    for _ in range(3):
        _run(built, A, ExecutionContext(), True)
    assert len(calls) == 0
    assert len(matmat_args) == 3
    for args in matmat_args:
        assert all(np.shares_memory(x, y) for x, y in zip(args[5:8], (A.indptr, A.indices, A.values)))


def test_concurrent_hinted_squares_share_one_operand():
    # Threads race to build the handle, L and the record on one operand;
    # every product must still be raw scipy's.
    A = scramble(G.grid2d(20, 20), seed=10)
    built = PipelineSpec.parse("rcm@scipy").build(A)
    raw = _raw(A)
    results, errors = [], []

    def worker():
        try:
            ctx = ExecutionContext()
            for _ in range(6):
                results.append(_run(built, None, ctx, True))
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


def test_concurrent_square_and_product_keep_their_own_paths():
    # One thread squares A while another multiplies X by that same A on
    # one engine: X's products never reach a square's path, so none takes
    # the public ``@`` and X's operand keeps no square state.
    A = scramble(G.grid2d(30, 30), seed=16)
    X = scramble(G.grid2d(30, 30), seed=17)
    eng = SpGEMMEngine(backend="scipy", pipeline="rcm")
    SA = A.to_scipy()
    raw_square = CSRMatrix.from_scipy(SA @ SA)
    raw_product = CSRMatrix.from_scipy(X.to_scipy() @ SA)
    assert_bitwise_equal(eng.multiply_many(X, [A])[0], raw_product)  # plan X
    squares, products, errors = [], [], []

    def run(out, call):
        try:
            for _ in range(400):
                out.append(call())
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=run, args=(squares, lambda: eng.multiply(A))),
            threading.Thread(target=run, args=(products, lambda: eng.multiply_many(X, [A])[0])),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(squares) == len(products) == 400
    for C in squares:
        assert_bitwise_equal(C, raw_square)
    for C in products:
        assert_bitwise_equal(C, raw_product)
    assert "scipy_plain_products" not in eng.stats().backend_events
    X_operand = eng.prepare(X, eng.plan_for(X, A))
    assert not any(isinstance(k, tuple) and k[0] == scipy_backend._SQUARE for k in X_operand.backend_state)


# ----------------------------------------------------------------------
# Numeric-only warm squares: scipy's counting pass runs once per record
# ----------------------------------------------------------------------
def _spy_count(monkeypatch):
    """Count the backend's calls of scipy's symbolic pass."""
    calls = []
    count = scipy_backend._csr_matmat_maxnnz
    monkeypatch.setattr(scipy_backend, "_csr_matmat_maxnnz", lambda *a: calls.append(a) or count(*a))
    return calls


def _cancelling_grid():
    """A scrambled grid with alternating signs: some sums of A² cancel
    to exactly 0.0."""
    A = scramble(G.grid2d(12, 12), seed=1)
    return CSRMatrix(A.indptr, A.indices, np.where(A.indices % 2 == 0, 1.0, -1.0), A.shape)


def test_probe_accepts_installed_scipy():
    assert scipy_backend._probe()
    assert scipy_backend._NUMERIC_ONLY


@settings(max_examples=60, deadline=None)
@given(
    A=integer_square_csr(),
    reordering=st.sampled_from(["original", "rcm"]),
    original_order=st.booleans(),
)
def test_numeric_only_square_is_bitwise_raw_scipy_and_plain_path(A, reordering, original_order):
    spec = PipelineSpec.parse(f"{reordering}@scipy")
    plain = _run(spec.build(A), A, ExecutionContext(), original_order)
    built = spec.build(A)
    raw = _raw(A, built, original_order)
    ctx = ExecutionContext()
    for _ in range(3):  # first sighting, record, numeric-only reuse
        C = _run(built, None, ctx, original_order)
    assert_bitwise_equal(C, raw)
    assert_bitwise_equal(C, plain)
    rec = built.backend_state[_square_key(original_order)]
    assert rec.maxnnz >= C.nnz  # larger whenever a sum cancels
    assert ctx.stats["scipy_numeric_products"] == 1
    assert ctx.stats["scipy_structure_reuses"] == 1


@pytest.mark.parametrize("spec", ["original@scipy", "rcm@scipy"])
def test_counting_pass_runs_once_per_record_and_never_on_reuse(monkeypatch, spec):
    calls = _spy_count(monkeypatch)
    A = _cancelling_grid()
    built = PipelineSpec.parse(spec).build(A)
    ctx = ExecutionContext()
    raw = _raw(A)
    # First sighting (the direct path counts its own product), record,
    # three numeric-only reuses.
    for want in (1, 2, 2, 2, 2):
        assert_bitwise_equal(_run(built, None, ctx, True), raw)
        assert len(calls) == want
    rec = built.backend_state[_square_key(True)]
    assert rec.maxnnz > raw.nnz
    assert ctx.stats["scipy_numeric_products"] == 3
    # The other row order is a record of its own, counted once too (after
    # its own direct first sighting).
    for _ in range(3):
        _run(built, None, ctx, False)
    assert len(calls) == 4
    # A rebuilt record keeps the count: it belongs to the handle.
    key = _square_key(True)
    shuffled = np.random.default_rng(0).permutation(rec.order).astype(np.int32)
    built.backend_state[key] = rec._replace(order=shuffled)
    assert_bitwise_equal(_run(built, None, ctx, True), raw)
    assert ctx.stats["scipy_structure_rebuilds"] == 1
    assert built.backend_state[key].maxnnz == rec.maxnnz
    assert_bitwise_equal(_run(built, None, ctx, True), raw)
    assert len(calls) == 4


@pytest.mark.parametrize("reordering", ["original", "rcm"])
def test_engine_squares_only_the_operand_itself(reordering):
    # A B equal to A but another object, or of A's pattern with other
    # values, is a product, not a square: the direct path on every call,
    # no count of a square, no symmetric handle, no square state.
    A = scramble(G.grid2d(15, 15), seed=3)
    copy = CSRMatrix(A.indptr.copy(), A.indices.copy(), A.values.copy(), A.shape)
    other = CSRMatrix(A.indptr, A.indices, A.values * 2.0, A.shape)
    eng = SpGEMMEngine(backend="scipy", pipeline=reordering)
    S = A.to_scipy()
    for _ in range(3):
        for B in (copy, other):
            assert_bitwise_equal(eng.multiply(A, B), CSRMatrix.from_scipy(S @ B.to_scipy()))
    events = eng.stats().backend_events
    assert events["scipy_direct_products"] == 6
    assert not any(k.startswith(("scipy_structure", "scipy_numeric", "scipy_symmetric", "scipy_plain")) for k in events)
    built = eng.prepare(A, eng.plan_for(A, copy))
    assert _square_key(True) not in built.backend_state
    assert scipy_backend._SYMMETRIC not in built.backend_state


@pytest.mark.parametrize("broken", ["missing", "raises", "wrong_values"])
def test_failed_probe_keeps_every_call_on_public_path(monkeypatch, broken):
    real = scipy_backend._csr_matmat

    def raises(*args):
        raise TypeError("csr_matmat: signature changed")

    def wrong_values(*args):
        real(*args)
        args[-1][:] += 1.0  # the output data buffer

    if broken == "missing":
        monkeypatch.setattr(scipy_backend, "_csr_matmat_maxnnz", None)
    else:
        monkeypatch.setattr(scipy_backend, "_csr_matmat", raises if broken == "raises" else wrong_values)
    assert not scipy_backend._probe()
    # The import-time flag, as a failed probe leaves it; the broken passes
    # stay patched in, so any call of them breaks the results below.
    monkeypatch.setattr(scipy_backend, "_NUMERIC_ONLY", scipy_backend._probe())
    A = _cancelling_grid()
    raw = _raw(A)
    for spec in ("original@scipy", "rcm@scipy"):
        built = PipelineSpec.parse(spec).build(A)
        ctx = ExecutionContext()
        for _ in range(4):
            assert_bitwise_equal(_run(built, None, ctx, True), raw)
        # Every sighting on the public ``@``, nothing recorded.
        assert ctx.stats == {"scipy_calls": 4, "scipy_plain_products": 4}
        assert _square_key(True) not in built.backend_state


# ----------------------------------------------------------------------
# Unhinted products: scipy's C++ passes on the operands' own arrays
# ----------------------------------------------------------------------
def _raw_product(A, B, built=None, original_order=True):
    """Raw scipy ``A @ B`` in canonical form (in the operand's row order
    when ``original_order`` is false)."""
    C = CSRMatrix.from_scipy(A.to_scipy() @ B.to_scipy())
    return C if original_order or built.perm is None else C.permute_rows(built.perm)


def _public(built, B, original_order):
    """The plain path: the public ``@`` on scipy objects."""
    return scipy_backend._plain(built, B, {}, built.inv if original_order else None)


@st.composite
def _square_and_tall_skinny(draw):
    """An integer-valued square A and a B of 1-8 columns with values in
    {±1, ±2}: many sums of ``A @ B`` cancel to exactly 0."""
    A = draw(integer_square_csr())
    n, k = A.shape[0], draw(st.integers(1, 8))
    cells = draw(st.lists(st.sampled_from([0.0, 0.0, -2.0, -1.0, 1.0, 2.0]), min_size=n * k, max_size=n * k))
    return A, CSRMatrix.from_dense(np.array(cells).reshape(n, k))


@settings(max_examples=80, deadline=None)
@given(
    operands=_square_and_tall_skinny(),
    reordering=st.sampled_from(["original", "rcm"]),
    original_order=st.booleans(),
)
def test_unhinted_product_is_bitwise_raw_scipy_and_public_path(operands, reordering, original_order):
    A, B = operands
    built = PipelineSpec.parse(f"{reordering}@scipy").build(A)
    ctx = ExecutionContext()
    C = _run(built, B, ctx, original_order)
    assert C.indptr.dtype == C.indices.dtype == np.int64
    assert_bitwise_equal(C, _raw_product(A, B, built, original_order))
    assert_bitwise_equal(C, _public(built, B, original_order))
    assert ctx.stats["scipy_direct_products"] == 1


def _edge_operand(kind):
    B = G.grid2d(10, 10)
    if kind == "empty":
        return CSRMatrix(np.zeros(101, dtype=np.int64), np.zeros(0), np.zeros(0), (100, 3))
    if kind == "empty_rows":
        S = sp.diags((np.arange(100) % 3 == 0) * 1.0) @ B.to_scipy()
        S.eliminate_zeros()
        return CSRMatrix.from_scipy(S)
    if kind == "explicit_zeros":
        return CSRMatrix(B.indptr, B.indices, np.where(B.indices % 3 == 0, 0.0, B.values), B.shape)
    # exact cancellation: alternating signs cancel many sums of A @ B
    return CSRMatrix(B.indptr, B.indices, np.where(B.indices % 2 == 0, 1.0, -1.0), B.shape)


@pytest.mark.parametrize("kind", ["empty", "empty_rows", "explicit_zeros", "cancellation"])
@pytest.mark.parametrize("reordering", ["original", "rcm"])
@pytest.mark.parametrize("original_order", [True, False])
def test_unhinted_edge_cases_are_bitwise_raw_scipy(kind, reordering, original_order):
    A = scramble(G.grid2d(10, 10), seed=11)
    A = CSRMatrix(A.indptr, A.indices, np.where(A.indices % 2 == 0, 1.0, -1.0), A.shape)
    B = _edge_operand(kind)
    built = PipelineSpec.parse(f"{reordering}@scipy").build(A)
    ctx = ExecutionContext()
    C = _run(built, B, ctx, original_order)
    assert_bitwise_equal(C, _raw_product(A, B, built, original_order))
    assert_bitwise_equal(C, _public(built, B, original_order))
    assert ctx.stats["scipy_direct_products"] == 1
    if kind == "cancellation":
        assert C.nnz < spgemm_rowwise(A, B).nnz  # some sums cancel exactly
    if kind == "empty":
        assert C.nnz == 0 and C.shape == (100, 3)


def test_unhinted_product_drops_buffers_of_cancelled_entries():
    # Every sum cancels: the result must not keep the count's buffers.
    A = CSRMatrix.from_dense(np.array([[1.0, 1.0], [1.0, 1.0]]))
    B = CSRMatrix.from_dense(np.array([[1.0, 2.0], [-1.0, -2.0]]))
    C = _run(PipelineSpec.parse("original@scipy").build(A), B, ExecutionContext(), True)
    assert C.nnz == 0
    assert C.indices.base is None or C.indices.base.size == 0


def test_unhinted_empty_product_skips_the_numeric_pass(monkeypatch):
    # A count of 0 returns the empty product at once, as scipy's own
    # ``@`` does: B's only entries sit in rows no column of A selects.
    monkeypatch.setattr(scipy_backend, "_csr_matmat", _unreachable)
    A = CSRMatrix.from_dense(np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 3.0], [4.0, 0.0, 0.0]]))
    B = CSRMatrix.from_dense(np.array([[0.0, 0.0], [5.0, 6.0], [0.0, 0.0]]))
    for reordering in ("original", "rcm"):
        built = PipelineSpec.parse(f"{reordering}@scipy").build(A)
        for original_order in (True, False):
            ctx = ExecutionContext()
            C = _run(built, B, ctx, original_order)
            assert C.nnz == 0 and C.shape == (3, 2)
            assert C.indptr.dtype == C.indices.dtype == np.int64
            assert_bitwise_equal(C, _raw_product(A, B))
            assert ctx.stats["scipy_direct_products"] == 1


def test_concurrent_unhinted_multiply_many_share_one_operand():
    # Serve threads share operands: four threads multiply one planned
    # operand by their own Bs.
    A = scramble(G.grid2d(20, 20), seed=12)
    Bs = {t: [G.grid2d(20, 20, seed=10 * t + j) for j in range(4)] for t in range(4)}
    eng = SpGEMMEngine(backend="scipy", pipeline="rcm")
    eng.multiply_many(A, Bs[0][:1])  # plan and prepare once
    S = A.to_scipy()
    results, errors = {}, []

    def worker(t):
        try:
            results[t] = [eng.multiply_many(A, Bs[t]) for _ in range(5)]
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for t, rounds in results.items():
        expected = [CSRMatrix.from_scipy(S @ B.to_scipy()) for B in Bs[t]]
        assert len(rounds) == 5
        for Cs in rounds:
            for C, want in zip(Cs, expected):
                assert_bitwise_equal(C, want)
    assert eng.stats().backend_events["scipy_direct_products"] > 0


def _malformed(kind):
    B = G.grid2d(20, 20)
    indptr, indices = B.indptr.copy(), B.indices.copy()
    if kind == "decreasing_indptr":
        indptr[10] = indptr[12]
    else:
        indices[5] = {"ncols": 400, "negative": -1, "huge": 100_000_000}[kind]
    return CSRMatrix(indptr, indices, B.values, B.shape, check=False)


def _unreachable(*args):
    raise AssertionError("a scipy pass was reached with a malformed operand")


@pytest.fixture
def no_scipy_pass(monkeypatch):
    """Every scipy entry point of the backend raises if reached, so a
    missing check fails an assertion instead of crashing the process."""
    for name in ("_csr_matmat", "_csr_matmat_maxnnz", "_csr_sort_indices", "_csr_row_index", "_wrap"):
        monkeypatch.setattr(scipy_backend, name, _unreachable)


@pytest.mark.parametrize("kind", ["ncols", "negative", "huge", "decreasing_indptr"])
@pytest.mark.parametrize("numeric_only", [True, False])
def test_malformed_right_operand_raises_value_error(monkeypatch, no_scipy_pass, kind, numeric_only):
    monkeypatch.setattr(scipy_backend, "_NUMERIC_ONLY", numeric_only)
    A, B = G.grid2d(20, 20), _malformed(kind)
    for reordering in ("original", "rcm"):
        built = PipelineSpec.parse(f"{reordering}@scipy").build(A)
        for original_order in (True, False):
            with pytest.raises(ValueError):
                _run(built, B, ExecutionContext(), original_order)
    with pytest.raises(ValueError):
        SpGEMMEngine(backend="scipy", pipeline="original").multiply(A, B)


@pytest.mark.parametrize("numeric_only", [True, False])
def test_malformed_left_operand_raises_value_error(monkeypatch, numeric_only):
    monkeypatch.setattr(scipy_backend, "_NUMERIC_ONLY", numeric_only)
    A = G.grid2d(20, 20)
    B = CSRMatrix(A.indptr.copy(), A.indices.copy(), A.values.copy(), A.shape)
    built = PipelineSpec.parse("original@scipy").build(A)
    column = built.Ar.indices[5]
    built.Ar.indices[5] = 100_000_000
    with pytest.raises(ValueError, match="column index out of range"):
        _run(built, B, ExecutionContext(), True)
    assert scipy_backend._CHECKED not in built.backend_state
    built.Ar.indices[5] = column
    assert_bitwise_equal(_run(built, B, ExecutionContext(), True), _raw_product(B, B))
    assert built.backend_state[scipy_backend._CHECKED]


def test_hinted_malformed_right_operand_raises_value_error(no_scipy_pass):
    # A square's right operand is the operand's source: a source broken
    # after the build (its ``Ar`` is a permuted copy, still valid) raises.
    A = G.grid2d(20, 20)
    A = CSRMatrix(A.indptr, A.indices.copy(), A.values, A.shape)
    built = PipelineSpec.parse("rcm@scipy").build(A)
    A.indices[5] = A.ncols
    with pytest.raises(ValueError, match="column index out of range"):
        _run(built, None, ExecutionContext(), True)


@pytest.mark.parametrize("numeric_only", [True, False])
def test_unhinted_dimension_mismatch_raises_value_error(monkeypatch, no_scipy_pass, numeric_only):
    monkeypatch.setattr(scipy_backend, "_NUMERIC_ONLY", numeric_only)
    built = PipelineSpec.parse("rcm@scipy").build(G.grid2d(20, 20))
    with pytest.raises(ValueError, match="dimension mismatch"):
        _run(built, G.grid2d(10, 10), ExecutionContext(), True)


@pytest.mark.parametrize("numeric_only", [True, False])
def test_square_of_non_square_operand_raises_value_error(monkeypatch, no_scipy_pass, numeric_only):
    # ``None`` is ``operand.A``: a rectangular operand has no square.
    monkeypatch.setattr(scipy_backend, "_NUMERIC_ONLY", numeric_only)
    A = CSRMatrix.from_dense(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]))
    built = PipelineSpec.parse("original@scipy").build(A)
    with pytest.raises(ValueError, match="dimension mismatch"):
        _run(built, None, ExecutionContext(), True)


@pytest.mark.parametrize("broken", ["missing", "raises", "wrong_values"])
def test_failed_probe_keeps_unhinted_products_on_plain_path(monkeypatch, broken):
    real = scipy_backend._csr_matmat

    def wrong_values(*args):
        real(*args)
        args[-1][:] += 1.0  # the output data buffer

    if broken == "missing":
        monkeypatch.setattr(scipy_backend, "_csr_row_index", None)
    else:
        broken_pass = _unreachable if broken == "raises" else wrong_values
        monkeypatch.setattr(scipy_backend, "_csr_matmat", broken_pass)
    monkeypatch.setattr(scipy_backend, "_NUMERIC_ONLY", scipy_backend._probe())
    assert not scipy_backend._NUMERIC_ONLY
    plain_calls = []
    plain = scipy_backend._plain
    monkeypatch.setattr(scipy_backend, "_plain", lambda *a: plain_calls.append(a) or plain(*a))
    A = _cancelling_grid()
    Bs = [scramble(G.grid2d(12, 12), seed=s) for s in (13, 14)]
    for spec in ("original@scipy", "rcm@scipy"):
        built = PipelineSpec.parse(spec).build(A)
        ctx = ExecutionContext()
        for original_order in (True, False):
            for B in Bs:
                expected = _raw_product(A, B, built, original_order)
                assert_bitwise_equal(_run(built, B, ctx, original_order), expected)
        assert ctx.stats.get("scipy_direct_products", 0) == 0
    assert len(plain_calls) == 2 * 2 * 2


def test_probe_rejects_a_row_gather_that_misplaces_rows(monkeypatch):
    real = scipy_backend._csr_row_index
    monkeypatch.setattr(scipy_backend, "_csr_row_index", lambda n, rows, *a: real(n, rows[::-1].copy(), *a))
    assert not scipy_backend._probe()


def test_probe_rejects_a_row_sort_that_does_nothing(monkeypatch):
    monkeypatch.setattr(scipy_backend, "_csr_sort_indices", lambda *a: None)
    assert not scipy_backend._probe()


# ----------------------------------------------------------------------
# Path selection: one path per product, chosen from observable facts
# ----------------------------------------------------------------------
#: The counter each path bumps once per product it runs.
PATH_COUNTERS = {
    "direct": "scipy_direct_products",
    "recorded": "scipy_numeric_products",
    "plain": "scipy_plain_products",
}


@pytest.mark.parametrize(
    "case, path",
    [
        ("unhinted", "direct"),
        ("unhinted_square", "direct"),
        ("first_sighting", "direct"),
        ("warm_source", "recorded"),
        ("over_max_recorded_nnz", "direct"),
        ("failed_probe", "plain"),
    ],
)
@pytest.mark.parametrize("reordering", ["original", "rcm"])
def test_each_product_takes_the_path_its_case_selects(monkeypatch, reordering, case, path):
    A = _cancelling_grid()
    B = {"unhinted": scramble(G.grid2d(12, 12), seed=15), "unhinted_square": A}.get(case)
    if case == "over_max_recorded_nnz":
        monkeypatch.setattr(scipy_backend, "_MAX_RECORDED_NNZ", 0)
    elif case == "failed_probe":
        monkeypatch.setattr(scipy_backend, "_NUMERIC_ONLY", False)
    built = PipelineSpec.parse(f"{reordering}@scipy").build(A)
    ctx = ExecutionContext()
    for _ in range(0 if case == "first_sighting" else 2):  # the earlier sightings
        _run(built, B, ctx, True)
    before = dict(ctx.stats)
    C = _run(built, B, ctx, True)
    ran = {k: v - before.get(k, 0) for k, v in ctx.stats.items() if v != before.get(k, 0)}
    expected = {"scipy_calls": 1, PATH_COUNTERS[path]: 1}
    if path == "recorded":
        expected["scipy_structure_reuses"] = 1
        if built.perm is not None:
            expected["scipy_symmetric_products"] = 1
    assert ran == expected
    if path == "plain":
        assert not any(isinstance(v, scipy_backend._Structure) for v in built.backend_state.values())
    assert_bitwise_equal(C, _raw_product(A, A if B is None else B))


# ----------------------------------------------------------------------
# Split squares: two row halves on two threads
# ----------------------------------------------------------------------
def _force_split(mp):
    """Every recorded square splits: no work threshold, two CPUs."""
    mp.setattr(scipy_backend, "_SPLIT_MIN_WORK", 0)
    mp.setattr(scipy_backend, "_cores", lambda: 2)


@pytest.fixture
def split_on(monkeypatch):
    _force_split(monkeypatch)


def _squared_handle(built):
    """The handle a recorded square multiplies by itself."""
    state = built.backend_state
    return state[scipy_backend._HANDLE if built.perm is None else scipy_backend._SYMMETRIC]


@settings(max_examples=60, deadline=None)
@given(
    A=st.one_of(square_csr(max_n=24, max_nnz=120), integer_square_csr()),
    reordering=st.sampled_from(["original", "rcm"]),
    original_order=st.booleans(),
)
def test_split_square_is_bitwise_serial_square_and_raw_scipy(A, reordering, original_order):
    spec = PipelineSpec.parse(f"{reordering}@scipy")
    serial_built, serial_ctx = spec.build(A), ExecutionContext()
    for _ in range(3):  # first sighting, record, reuse
        serial = _run(serial_built, None, serial_ctx, original_order)
    assert "scipy_split_squares" not in serial_ctx.stats  # below the real threshold
    with pytest.MonkeyPatch.context() as mp:
        _force_split(mp)
        mp.setattr(scipy_backend, "_GATHER_CHUNK", 5)
        built, ctx = spec.build(A), ExecutionContext()
        for _ in range(3):
            C = _run(built, None, ctx, original_order)
    assert_bitwise_equal(C, _raw(A, built, original_order))
    assert_bitwise_equal(C, serial)
    assert ctx.stats["scipy_split_squares"] == 2 and ctx.stats["scipy_structure_reuses"] == 1
    # The halves' counts sum to the whole count, and the split pass's raw
    # output is laid out as one pass over every row: the same record.
    key = _square_key(original_order)
    rec, serial_rec = built.backend_state[key], serial_built.backend_state[key]
    assert 0 < rec.cut < A.nrows and serial_rec.cut == A.nrows
    assert rec.maxnnz == serial_rec.maxnnz == serial_rec.counts[0]
    for x, y in zip(rec[:3], serial_rec[:3]):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("reordering", ["original", "rcm"])
def test_top_half_dropping_exact_zeros_leaves_no_gap(split_on, reordering):
    A = _cancelling_grid()
    built = PipelineSpec.parse(f"{reordering}@scipy").build(A)
    ctx = ExecutionContext()
    for _ in range(3):
        assert_bitwise_equal(_run(built, None, ctx, True), _raw(A))
    assert ctx.stats["scipy_structure_reuses"] == 1
    S = _squared_handle(built)
    whole = S @ S  # scipy's raw rows, unsorted
    n = A.nrows
    dropped = 0
    for cut in range(1, n):
        counts = scipy_backend._counts(S, cut)
        dropped += whole.indptr[cut] < counts[0]  # the top half dropped exact zeros
        got = scipy_backend._square(S, cut, counts, split=True)
        for x, y in ((got.indptr, whole.indptr), (got.indices, whole.indices), (got.data, whole.data)):
            assert x.dtype == y.dtype and np.array_equal(x, y), cut
    assert dropped > n // 2
    rec = built.backend_state[_square_key(True)]
    assert whole.indptr[rec.cut] < rec.counts[0]


def test_each_half_counted_once_per_record_and_never_on_reuse(monkeypatch, split_on):
    calls = _spy_count(monkeypatch)
    passes = []
    matmat = scipy_backend._csr_matmat
    monkeypatch.setattr(scipy_backend, "_csr_matmat", lambda *a: passes.append(a) or matmat(*a))
    A = _cancelling_grid()
    built = PipelineSpec.parse("rcm@scipy").build(A)
    ctx = ExecutionContext()
    # First sighting (one direct product), record, two reuses.
    for want in (1, 3, 3, 3):
        assert_bitwise_equal(_run(built, None, ctx, True), _raw(A))
        assert len(calls) == want
    rec = built.backend_state[_square_key(True)]
    n, S = A.nrows, _squared_handle(built)
    assert [c[0] for c in calls] == [n, rec.cut, n - rec.cut]
    assert sum(rec.counts) == scipy_backend._count(S, S)
    # Every numeric pass (of a half, or of the direct product) writes into
    # a buffer of exactly the symbolic count of the index arrays it is
    # given.
    assert len(passes) == 7
    for n_row, n_col, Ap, Aj, _, Bp, Bj, _, _, Cj, Cx in passes:
        count = scipy_backend._csr_matmat_maxnnz(n_row, n_col, Ap, Aj, Bp, Bj)
        assert Cj.size == Cx.size == count
    assert ctx.stats["scipy_split_squares"] == 3


@pytest.mark.parametrize("case", ["one_cpu", "below_threshold"])
def test_serial_square_starts_no_thread(monkeypatch, thread_starts, case):
    A = _cancelling_grid()
    if case == "one_cpu":
        monkeypatch.setattr(scipy_backend, "_SPLIT_MIN_WORK", 0)
        monkeypatch.setattr(scipy_backend.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:
        monkeypatch.setattr(scipy_backend.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert scipy_backend._work(A, [A])[0] < scipy_backend._SPLIT_MIN_WORK
    built = PipelineSpec.parse("rcm@scipy").build(A)
    ctx = ExecutionContext()
    for _ in range(4):
        assert_bitwise_equal(_run(built, None, ctx, True), _raw(A))
    assert thread_starts == []
    assert "scipy_split_squares" not in ctx.stats and ctx.stats["scipy_structure_reuses"] == 2
    # One CPU keeps the halves recorded, run one after the other.
    rec = built.backend_state[_square_key(True)]
    assert (rec.cut < A.nrows) == (case == "one_cpu")


def test_square_splits_at_the_real_threshold(monkeypatch, thread_starts):
    monkeypatch.setattr(scipy_backend.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    A = scramble(G.grid2d(80, 80), seed=1)
    assert scipy_backend._work(A, [A])[0] >= scipy_backend._SPLIT_MIN_WORK
    built = PipelineSpec.parse("rcm@scipy").build(A)
    ctx = ExecutionContext()
    for _ in range(3):
        assert_bitwise_equal(_run(built, None, ctx, True), _raw(A))
    # Record: the numeric pass; reuse: the numeric pass and the gather.
    assert thread_starts == ["repro-scipy-batch"] * 3
    assert ctx.stats["scipy_split_squares"] == 2


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity API on this platform")
def test_real_affinity_decides_the_square_split(monkeypatch, thread_starts):
    # No affinity patch: a 1-core process (``taskset -c 0``) keeps the
    # halves serial, a 2-core one splits them.
    monkeypatch.setattr(scipy_backend, "_SPLIT_MIN_WORK", 0)
    A = _cancelling_grid()
    built = PipelineSpec.parse("rcm@scipy").build(A)
    ctx = ExecutionContext()
    for _ in range(3):
        assert_bitwise_equal(_run(built, None, ctx, True), _raw(A))
    split = len(os.sched_getaffinity(0)) >= 2
    assert len(thread_starts) == (3 if split else 0)
    assert ctx.stats.get("scipy_split_squares", 0) == (2 if split else 0)


class _FailsOffCaller(np.ndarray):
    """An array whose slices raise on any thread the backend started."""

    def __getitem__(self, key):
        if threading.current_thread().name.startswith("repro-"):
            raise MemoryError("injected")
        return super().__getitem__(key)


@pytest.mark.parametrize("stage", ["numeric", "gather"])
def test_exception_in_worker_half_is_raised_after_join(monkeypatch, split_on, stage):
    A = _cancelling_grid()
    built = PipelineSpec.parse("rcm@scipy").build(A)
    ctx = ExecutionContext()
    for _ in range(2):
        _run(built, None, ctx, True)
    key = _square_key(True)
    rec = built.backend_state[key]
    if stage == "numeric":
        matmat = scipy_backend._csr_matmat

        def failing(*args):
            if threading.current_thread().name.startswith("repro-"):
                raise MemoryError("injected")
            return matmat(*args)

        monkeypatch.setattr(scipy_backend, "_csr_matmat", failing)
    else:
        built.backend_state[key] = rec._replace(order=rec.order.view(_FailsOffCaller))
    calls = ctx.stats["scipy_calls"]
    with pytest.raises(MemoryError, match="injected"):
        _run(built, None, ctx, True)
    assert not [t for t in threading.enumerate() if t.name.startswith("repro-")]
    assert ctx.stats["scipy_calls"] == calls
    monkeypatch.undo()
    _force_split(monkeypatch)
    built.backend_state[key] = rec
    assert_bitwise_equal(_run(built, None, ctx, True), _raw(A))


@pytest.mark.parametrize("chunk", [1, 2, 7])
@pytest.mark.parametrize("reordering", ["original", "rcm"])
def test_gather_checks_rows_across_chunk_boundaries(monkeypatch, split_on, chunk, reordering):
    # The gather moves and checks a few entries at a time: a record whose
    # order swaps two entries of one row across a chunk boundary must
    # still be rebuilt, and an intact one reused.
    monkeypatch.setattr(scipy_backend, "_GATHER_CHUNK", chunk)
    A = _cancelling_grid()
    built = PipelineSpec.parse(f"{reordering}@scipy").build(A)
    ctx = ExecutionContext()
    for _ in range(3):
        assert_bitwise_equal(_run(built, None, ctx, True), _raw(A))
    assert ctx.stats["scipy_structure_reuses"] == 1
    key = _square_key(True)
    rec = built.backend_state[key]
    starts = set(rec.indptr.tolist())
    c = next(c for c in range(chunk * 3, rec.order.size, chunk) if c not in starts)
    swapped = rec.order.copy()
    swapped[[c - 1, c]] = swapped[[c, c - 1]]
    built.backend_state[key] = rec._replace(order=swapped)
    assert_bitwise_equal(_run(built, None, ctx, True), _raw(A))
    assert ctx.stats["scipy_structure_rebuilds"] == 1
    rebuilt = built.backend_state[key]
    assert (rebuilt.cut, rebuilt.counts) == (rec.cut, rec.counts)
    assert_bitwise_equal(_run(built, None, ctx, True), _raw(A))
    assert ctx.stats["scipy_structure_reuses"] == 2


def test_concurrent_split_squares_share_one_operand(split_on):
    # Four threads race to record and reuse one operand's split square,
    # each starting its own worker threads; every product must still be
    # raw scipy's, and the leak guard sees every worker joined.
    A = scramble(G.grid2d(20, 20), seed=10)
    built = PipelineSpec.parse("rcm@scipy").build(A)
    raw = _raw(A)
    results, errors, splits = [], [], []

    def worker():
        try:
            ctx = ExecutionContext()
            for _ in range(6):
                results.append(_run(built, None, ctx, True))
            splits.append(ctx.stats.get("scipy_split_squares", 0))
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
    assert len(results) == 24 and sum(splits) >= 4 * 4
    for C in results:
        assert_bitwise_equal(C, raw)


def test_engine_reports_two_threads_for_a_split_square(split_on):
    A = _cancelling_grid()
    sink = RingSink()
    eng = SpGEMMEngine(backend="scipy", pipeline="rcm", tracer=Tracer(sink))
    for _ in range(3):
        assert_bitwise_equal(eng.multiply(A), _raw(A))
    assert [s.tags["threads"] for s in sink.by_name("backend.execute")] == [1, 2, 2]
    assert eng.stats().backend_events["scipy_split_squares"] == 2
