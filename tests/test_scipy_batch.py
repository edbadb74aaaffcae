"""The ``scipy`` backend's batch split (DESIGN.md §10).

``execute_many`` validates the operand and every ``B`` in the calling
thread, then runs a large batch on two threads, each taking a share of
near-equal estimated work.  Each product must stay bitwise the serial
path's; a malformed ``B`` anywhere must raise before any product runs;
small batches, batches with a hinted square (a ``B`` of ``None``) and
1-core hosts must start no thread; threads never outlive the call (the
autouse leak guard).

Most tests force the split on by lowering ``_SPLIT_MIN_WORK`` to 0 and
reporting two CPUs; ``test_real_affinity_decides_the_split`` reads the
real affinity, so running this file under ``taskset -c 0`` exercises
the 1-core fallback of the host.
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_bitwise_equal, square_csr
from repro.backends import ExecutionContext, execute, execute_many, scipy_backend
from repro.core import CSRMatrix
from repro.engine import SpGEMMEngine
from repro.matrices import generators as G
from repro.matrices.perturb import scramble
from repro.obs import RingSink, Tracer
from repro.pipeline import PipelineSpec
from repro.workloads.replay import POPULATION_BUILDERS


def _dispatch(fn, built, Bs, ctx, original_order):
    spec = built.spec
    return fn(
        built,
        Bs,
        kernel=spec.kernel,
        kernel_params=spec.kernel_info.resolve_params(spec.kernel_params, None),
        backend=spec.backend,
        backend_params=spec.backend_params,
        ctx=ctx,
        original_order=original_order,
    )


def _serial(built, Bs, original_order):
    """The per-product path: one ``execute`` per ``B``."""
    return [_dispatch(execute, built, B, ExecutionContext(), original_order) for B in Bs]


def _two_cpus(monkeypatch):
    monkeypatch.setattr(scipy_backend.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def split_on(monkeypatch):
    """Every batch of two or more unhinted products splits."""
    monkeypatch.setattr(scipy_backend, "_SPLIT_MIN_WORK", 0)
    _two_cpus(monkeypatch)


def _batch(n=6, size=30, seed=0):
    """A scrambled grid and ``n`` tall-skinny right operands."""
    A = scramble(G.grid2d(size, size), seed=seed)
    rng = np.random.default_rng(seed)
    Bs = []
    for _ in range(n):
        dense = rng.choice([0.0, 0.0, 0.0, -1.0, 1.0, 2.0], size=(A.nrows, 5))
        Bs.append(CSRMatrix.from_dense(dense))
    return A, Bs


# ----------------------------------------------------------------------
# Results: bitwise the serial path's
# ----------------------------------------------------------------------
@st.composite
def _operand_and_batch(draw):
    """A square A and 1-5 right operands of 1-8 columns with values in
    {±1, ±2}: sums cancel to exactly 0, and an all-zero B (or one whose
    entries sit in rows A never selects) has ``maxnnz == 0``."""
    A = draw(square_csr(max_n=20, max_nnz=90))
    n = A.shape[0]
    Bs = []
    for _ in range(draw(st.integers(1, 5))):
        k = draw(st.integers(1, 8))
        cells = draw(st.lists(st.sampled_from([0.0, 0.0, -2.0, -1.0, 1.0, 2.0]), min_size=n * k, max_size=n * k))
        Bs.append(CSRMatrix.from_dense(np.array(cells).reshape(n, k)))
    return A, Bs


@settings(max_examples=60, deadline=None)
@given(
    operands=_operand_and_batch(),
    reordering=st.sampled_from(["original", "rcm"]),
    original_order=st.booleans(),
)
def test_split_batch_is_bitwise_per_product_execute(operands, reordering, original_order):
    A, Bs = operands
    built = PipelineSpec.parse(f"{reordering}@scipy").build(A)
    ctx = ExecutionContext()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy_backend, "_SPLIT_MIN_WORK", 0)
        _two_cpus(mp)
        Cs = _dispatch(execute_many, built, Bs, ctx, original_order)
    assert len(Cs) == len(Bs)
    for C, want in zip(Cs, _serial(built, Bs, original_order)):
        assert C.shape == want.shape and C.indptr.dtype == C.indices.dtype == np.int64
        assert_bitwise_equal(C, want)
    assert ctx.stats["scipy_calls"] == ctx.stats["scipy_direct_products"] == len(Bs)
    assert ctx.stats.get("scipy_split_batches", 0) == int(len(Bs) > 1)


def test_split_batch_covers_empty_products(split_on):
    # Products with no entry at all (maxnnz == 0) take no numeric pass,
    # on either thread.
    A, Bs = _batch(4)
    Bs[1] = CSRMatrix(np.zeros(A.nrows + 1, dtype=np.int64), np.zeros(0), np.zeros(0), (A.nrows, 3))
    Bs[3] = CSRMatrix.from_dense(np.zeros((A.nrows, 2)))
    built = PipelineSpec.parse("rcm@scipy").build(A)
    ctx = ExecutionContext()
    Cs = _dispatch(execute_many, built, Bs, ctx, True)
    assert Cs[1].nnz == Cs[3].nnz == 0 and Cs[3].shape == (A.nrows, 2)
    for C, want in zip(Cs, _serial(built, Bs, True)):
        assert_bitwise_equal(C, want)
    assert ctx.stats["scipy_split_batches"] == 1


def test_halves_balance_work_not_product_count():
    # One heavy product and nine light ones: a split by count would give
    # one share 14 of 19 units of work.
    work = np.array([1, 1, 1, 1, 10, 1, 1, 1, 1, 1])
    first, second = scipy_backend._halves(work)
    assert sorted(first + second) == list(range(10))
    assert sorted((int(work[first].sum()), int(work[second].sum()))) == [9, 10]
    assert first == [4]


def test_work_estimate_counts_rows_entries_and_flops():
    A = CSRMatrix.from_dense(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
    B = CSRMatrix.from_dense(np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 1.0]]))
    # 3 rows + 3 entries; column 1 of A (2 entries) meets B's 1-entry row
    # 1, column 0 (1 entry) B's 2-entry row 0.
    assert scipy_backend._work(A, [B, A]).tolist() == [3 + 3 + 2 * 1 + 1 * 2, 3 + 3 + 2 * 1 + 1 * 2]


# ----------------------------------------------------------------------
# When the batch stays serial
# ----------------------------------------------------------------------
def test_one_cpu_starts_no_thread(monkeypatch, thread_starts):
    monkeypatch.setattr(scipy_backend, "_SPLIT_MIN_WORK", 0)
    monkeypatch.setattr(scipy_backend.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    A, Bs = _batch()
    built = PipelineSpec.parse("rcm@scipy").build(A)
    ctx = ExecutionContext()
    for C, want in zip(_dispatch(execute_many, built, Bs, ctx, True), _serial(built, Bs, True)):
        assert_bitwise_equal(C, want)
    assert thread_starts == []
    assert "scipy_split_batches" not in ctx.stats


def test_serve_sized_batch_starts_no_thread(monkeypatch, thread_starts):
    # Bursts of 32 on every member of the serving trace population stay
    # below the split threshold, even with two CPUs.
    _two_cpus(monkeypatch)
    for name, build in POPULATION_BUILDERS:
        A, Bs = build(0), [build(seed) for seed in range(1, 33)]
        built = PipelineSpec.parse("rcm@scipy").build(A)
        assert scipy_backend._work(built.Ar, Bs).max() < scipy_backend._SPLIT_MIN_WORK, name
        ctx = ExecutionContext()
        Cs = _dispatch(execute_many, built, Bs, ctx, True)
        assert_bitwise_equal(Cs[-1], _serial(built, Bs[-1:], True)[0])
        assert ctx.stats["scipy_direct_products"] == 32
    assert thread_starts == []


def test_frontier_sized_batch_splits_at_the_real_threshold(monkeypatch, thread_starts):
    _two_cpus(monkeypatch)
    A, Bs = _batch(4, size=120)
    built = PipelineSpec.parse("original@scipy").build(A)
    assert scipy_backend._work(built.Ar, Bs).min() >= scipy_backend._SPLIT_MIN_WORK
    ctx = ExecutionContext()
    for C, want in zip(_dispatch(execute_many, built, Bs, ctx, True), _serial(built, Bs, True)):
        assert_bitwise_equal(C, want)
    assert thread_starts == ["repro-scipy-batch"]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity API on this platform")
def test_real_affinity_decides_the_split(monkeypatch, thread_starts):
    # No affinity patch: a 1-core process (``taskset -c 0``) keeps the
    # serial loop, a 2-core one splits.
    monkeypatch.setattr(scipy_backend, "_SPLIT_MIN_WORK", 0)
    A, Bs = _batch()
    built = PipelineSpec.parse("rcm@scipy").build(A)
    ctx = ExecutionContext()
    for C, want in zip(_dispatch(execute_many, built, Bs, ctx, True), _serial(built, Bs, True)):
        assert_bitwise_equal(C, want)
    split = len(os.sched_getaffinity(0)) >= 2
    assert thread_starts == (["repro-scipy-batch"] if split else [])
    assert ctx.stats.get("scipy_split_batches", 0) == int(split)


@pytest.mark.parametrize("case", ["hinted", "one_product", "public_path"])
def test_serial_cases_start_no_thread(monkeypatch, split_on, thread_starts, case):
    A, Bs = _batch(3)
    built = PipelineSpec.parse("rcm@scipy").build(A)
    ctx = ExecutionContext()
    if case == "hinted":
        Bs = [Bs[0], None, Bs[1]]
    elif case == "one_product":
        Bs = Bs[:1]
    else:
        monkeypatch.setattr(scipy_backend, "_NUMERIC_ONLY", False)
    Cs = _dispatch(execute_many, built, Bs, ctx, True)
    assert len(Cs) == len(Bs) and thread_starts == []
    assert "scipy_split_batches" not in ctx.stats


# ----------------------------------------------------------------------
# Failures: raised in the caller, nothing left running
# ----------------------------------------------------------------------
def _malformed(B):
    indices = B.indices.copy()
    indices[2] = B.shape[1] + 7
    return CSRMatrix(B.indptr, indices, B.values, B.shape, check=False)


def _unreachable(*args):
    raise AssertionError("a scipy pass ran before every operand was validated")


@pytest.mark.parametrize("reordering", ["original", "rcm"])
def test_malformed_b_in_second_half_raises_before_any_product(monkeypatch, split_on, reordering):
    A, Bs = _batch(6)
    eng = SpGEMMEngine(backend="scipy", pipeline=reordering)
    eng.multiply_many(A, Bs)  # plan and prepare
    before = eng.stats()
    for name in ("_csr_matmat", "_csr_matmat_maxnnz", "_csr_sort_indices", "_csr_row_index"):
        monkeypatch.setattr(scipy_backend, name, _unreachable)
    bad = Bs[:4] + [_malformed(Bs[4])] + Bs[5:]
    with pytest.raises(ValueError, match="column index out of range"):
        eng.multiply_many(A, bad)
    # No product ran, and nothing of the call was ledgered: not even its
    # bind's plan-cache hit and operand reuse.
    after = eng.stats()
    for field in (
        "multiplies",
        "execute_seconds",
        "model_executed_cost",
        "model_baseline_cost",
        "plan_cache_hits",
        "operands_reused",
    ):
        assert getattr(after, field) == getattr(before, field), field
    assert after.per_plan == before.per_plan
    assert after.backend_events == before.backend_events


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_exception_on_either_thread_is_raised_after_join(monkeypatch, split_on, failing):
    A, Bs = _batch(4)
    built = PipelineSpec.parse("rcm@scipy").build(A)
    shares = scipy_backend._halves(scipy_backend._work(built.Ar, Bs))
    bad = Bs[shares[0 if failing == "caller" else 1][0]]
    direct = scipy_backend._direct

    def failing_direct(Ar, B, inv):
        if B is bad:
            raise MemoryError("injected")
        return direct(Ar, B, inv)

    monkeypatch.setattr(scipy_backend, "_direct", failing_direct)
    ctx = ExecutionContext()
    with pytest.raises(MemoryError, match="injected"):
        _dispatch(execute_many, built, Bs, ctx, True)
    assert not [t for t in threading.enumerate() if t.name == "repro-scipy-batch"]
    assert "scipy_calls" not in ctx.stats


# ----------------------------------------------------------------------
# Engine: one batch, one span, the per-product ledger
# ----------------------------------------------------------------------
def test_multiply_many_ledgers_what_single_multiplies_would(split_on):
    A, Bs = _batch(5)
    batched = SpGEMMEngine(backend="scipy", pipeline="rcm")
    single = SpGEMMEngine(backend="scipy", pipeline="rcm")
    Cs = batched.multiply_many(A, Bs)
    for B, C in zip(Bs, Cs):
        assert_bitwise_equal(C, single.multiply(A, B))
    got, want = batched.stats(), single.stats()
    for field in (
        "multiplies",
        "plans_built",
        "plan_cache_hits",
        "plan_cache_misses",
        "operands_prepared",
        "operands_reused",
        "model_planning_cost",
        "model_pre_cost",
        "model_executed_cost",
        "model_baseline_cost",
    ):
        assert getattr(got, field) == getattr(want, field), field
    assert got.per_plan == want.per_plan and list(got.per_plan.values()) == [5]
    assert got.backend_events.pop("scipy_split_batches") == 1
    assert got.backend_events == want.backend_events


def test_split_batch_emits_one_tagged_backend_span(split_on):
    A, Bs = _batch(4)
    sink = RingSink()
    eng = SpGEMMEngine(backend="scipy", pipeline="rcm", tracer=Tracer(sink))
    eng.multiply_many(A, Bs)
    spans = sink.by_name("backend.execute")
    assert len(spans) == 1
    assert spans[0].tags["products"] == 4 and spans[0].tags["threads"] == 2
    (outer,) = sink.by_name("engine.multiply_many")
    assert spans[0].parent_id == outer.span_id
    eng.multiply(A, Bs[0])
    assert sink.by_name("backend.execute")[-1].tags["threads"] == 1


def test_engine_split_is_bitwise_the_serial_loop(monkeypatch, split_on):
    A, Bs = _batch(6, size=40, seed=3)
    split = SpGEMMEngine(backend="scipy", pipeline="rcm").multiply_many(A, Bs)
    monkeypatch.setattr(scipy_backend, "_SPLIT_MIN_WORK", sys.maxsize)
    serial = SpGEMMEngine(backend="scipy", pipeline="rcm").multiply_many(A, Bs)
    for C, want in zip(split, serial):
        assert_bitwise_equal(C, want)
