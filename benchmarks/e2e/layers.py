"""The traced run: a per-layer split of the end-to-end time.

Nothing inside the program is traced.  The benchmark times its own calls
into each layer's public function on the workload's inputs, next to the
real ``engine.multiply``/``multiply_many`` call it attributes:

==========================  ==================================================
span                        public call
==========================  ==================================================
``fingerprint.digest``      ``pattern_digest(A)`` + ``value_digest(A)``
``plan_cache.lookup``       warm ``SpGEMMEngine.plan_for`` (its own pattern
                            digest is counted under ``fingerprint.digest``)
``planner.plan``            ``plan_for`` on a fresh engine
``pipeline.reorder``        ``PipelineSpec.build`` of the plan's reordering only
``pipeline.cluster``        the plan's full spec built on top of it
``backends.execute``        ``repro.backends.execute(built, B, ...)``
``core.unpermute``          ``CSRMatrix.permute_rows(built.inv)``
``scipy.raw``               raw scipy on the original operands
``serve.*``                 ``SpGEMMServer.submit`` and its future
==========================  ==================================================

A warm call re-prepares its operand only when the engine's operand LRU
missed (``operands_prepared`` moved), so the build spans of a call are
replayed exactly then.  Whatever the engine spends outside the replayed
layers is ``engine.unattributed_ms``.

Spans are recorded by a :class:`repro.obs.Tracer` into a
:class:`repro.obs.RingSink`, each tagged with the request id its
product shares, and written as JSONL when the run ends.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from harness import Gate, engine_call, quantile, raw_call
from inputs import ServeInputs
from loops import (
    BURST_LOOP_S,
    Stream,
    check_stream,
    member_jobs,
    new_engine,
    reference_products,
    run_stream,
    server_setups,
    timed,
)
from repro.backends import execute as backend_execute
from repro.core.hybrid_spgemm import row_workloads
from repro.engine.fingerprint import pattern_digest, value_digest
from repro.obs import JsonlSink, RingSink, Tracer
from repro.serve import ServeConfig, SpGEMMServer


def new_tracer() -> Tracer:
    """A tracer keeping every span of the run in memory."""
    return Tracer(RingSink(capacity=1 << 24))


def self_times(spans) -> dict:
    """name → [calls, total s, self s]; self time is a span's duration
    minus the part its children cover."""
    child: Counter = Counter()
    for s in spans:
        if s.parent_id is not None:
            child[s.parent_id] += s.duration
    out: dict = {}
    for s in spans:
        agg = out.setdefault(s.name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += s.duration
        agg[2] += s.duration - child[s.span_id]
    return out


def write_jsonl(spans, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)
    sink = JsonlSink(path)
    for s in spans:
        sink.emit(s)
    sink.close()


@contextmanager
def stamped(tracer: Tracer, name: str, start: float, end: float, **tags):
    """A span of times measured earlier: opened and closed now, so that
    spans opened inside it become its children, then restamped."""
    with tracer.span(name, **tags) as sp:
        yield
    sp.record.start, sp.record.duration = start, end - start


# ----------------------------------------------------------------------
# Closed-loop layer replay
# ----------------------------------------------------------------------
class Prepared:
    """One input's plan and the benchmark's own build of its operand."""

    def __init__(self, engine, job) -> None:
        self.job = job
        self.B0 = None if job.Bs is None else job.Bs[0]
        self.plan = engine.plan_for(job.A, self.B0)
        self.spec = self.plan.pipeline()
        self.cfg = engine.cfg
        self.kernel_params = self.spec.kernel_info.resolve_params(self.spec.kernel_params, self.cfg)
        self.built = None

    def build(self, tracer: Tracer, rid: str) -> None:
        A, seed = self.job.A, self.plan.seed
        with tracer.span("pipeline.reorder", rid=rid):
            base = self.spec.with_clustering(None).build(A, seed=seed, mode="rows", cfg=self.cfg)
        with tracer.span("pipeline.cluster", rid=rid):
            self.built = self.spec.build(A, seed=seed, mode="rows", cfg=self.cfg, base=base)

    def execute(self, B, tracer: Tracer, rid: str):
        spec = self.spec
        with tracer.span("backends.execute", rid=rid):
            C = backend_execute(
                self.built,
                B,
                kernel=spec.kernel,
                kernel_params=self.kernel_params,
                backend=spec.backend,
                backend_params=spec.backend_params,
                cfg=self.cfg,
            )
        if self.built.inv is not None:
            with tracer.span("core.unpermute", rid=rid):
                C = C.permute_rows(self.built.inv)
        return C


def kernel_counts(job, expected) -> dict:
    """Work of one call: multiply-adds, output nonzeros and the CSR bytes
    of A, B and C (computed from array sizes, not measured traffic)."""
    flops = sum(int(row_workloads(job.A, B)[0].sum()) for B in job.operands())
    return {
        "flops": flops,
        "nnz_out": sum(C.nnz for C in expected),
        "bytes": sum(job.A.memory_bytes() + B.memory_bytes() + C.memory_bytes()
                     for B, C in zip(job.operands(), expected)),
    }


def trace_closed(jobs, seconds: float, *, gate: Gate, tracer: Tracer) -> dict:
    """Cold phase on a fresh engine, then alternating traced and untraced
    warm rounds until ``seconds`` have passed.  Returns the layer values
    and the warm engine."""
    ops, expected = reference_products(jobs)
    engine = new_engine()
    preps = []
    cold = []  # planning + first call, per input
    for job, exp in zip(jobs, expected):
        rid = f"cold:{job.name}"
        with tracer.span("planner.plan", rid=rid) as plan_span:
            prep = Prepared(engine, job)
        with tracer.span("engine.first_call", rid=rid) as call_span:
            outs = engine_call(engine, job)
        cold.append(plan_span.record.duration + call_span.record.duration)
        gate.check(outs, exp, f"{job.name} cold")
        prep.build(tracer, rid)
        preps.append(prep)

    counts = [kernel_counts(job, exp) for job, exp in zip(jobs, expected)]
    s0 = engine.stats()
    warm_rids: set = set()
    untraced: list[list[float]] = [[] for _ in jobs]
    traced: list[list[float]] = [[] for _ in jobs]
    raw: list[list[float]] = [[] for _ in jobs]
    flops = 0
    products = 0
    end = time.perf_counter() + seconds
    rounds = 0
    while rounds < 2 or time.perf_counter() < end:
        for i, (job, prep) in enumerate(zip(jobs, preps)):
            if rounds % 2:
                t, outs = timed(engine_call, engine, job)
                untraced[i].append(t)
                gate.check(outs, expected[i], job.name)
                continue
            rid = f"{job.name}#{rounds}"
            warm_rids.add(rid)
            before = engine.stats().operands_prepared
            call = "engine.multiply" if job.Bs is None else "engine.multiply_many"
            with tracer.span(call, rid=rid) as sp:
                outs = engine_call(engine, job)
            traced[i].append(sp.record.duration)
            gate.check(outs, expected[i], job.name)
            reprepared = engine.stats().operands_prepared - before
            replay = []
            with tracer.span("layers", rid=rid):
                with tracer.span("fingerprint.digest", rid=rid):
                    with tracer.span("fingerprint.pattern_digest", rid=rid):
                        pattern_digest(job.A)
                    with tracer.span("fingerprint.value_digest", rid=rid):
                        value_digest(job.A)
                with tracer.span("plan_cache.lookup", rid=rid):
                    engine.plan_for(job.A, prep.B0)
                for _ in range(reprepared):
                    prep.build(tracer, rid)
                for B in job.operands():
                    replay.append(prep.execute(B, tracer, rid))
            gate.check(replay, expected[i], f"{job.name} replay")
            with tracer.span("scipy.raw", rid=rid) as sp:
                raw_call(ops[i])
            raw[i].append(sp.record.duration)
            flops += counts[i]["flops"]
            products += job.products
        rounds += 1
    s1 = engine.stats()

    spans = tracer.sink.spans
    warm: Counter = Counter()  # span name → total seconds over the warm rounds
    for s in spans:
        if s.tags.get("rid") in warm_rids:
            warm[s.name] += s.duration

    def mean_ms(name: str) -> float:
        return 1e3 * statistics.mean(s.duration for s in spans if s.name == name)

    # plan_for hashes A's pattern as well; that share is already counted
    # under fingerprint.digest.
    lookup = warm["plan_cache.lookup"] - warm["fingerprint.pattern_digest"]
    attributed = (
        warm["fingerprint.digest"]
        + lookup
        + warm["pipeline.reorder"]
        + warm["pipeline.cluster"]
        + warm["backends.execute"]
        + warm["core.unpermute"]
    )
    multiply = warm["engine.multiply"] + warm["engine.multiply_many"]
    reused = s1.operands_reused - s0.operands_reused
    prepared = s1.operands_prepared - s0.operands_prepared
    hits = s1.plan_cache_hits - s0.plan_cache_hits
    misses = s1.plan_cache_misses - s0.plan_cache_misses
    setup_products = [c / statistics.median(r) for c, r in zip(cold, raw)]
    n_products = sum(job.products for job in jobs)
    values = {
        "fingerprint.digest_ms": 1e3 * warm["fingerprint.digest"] / products,
        "plan_cache.lookup_ms": 1e3 * lookup / products,
        "planner.plan_ms": mean_ms("planner.plan"),
        "pipeline.reorder_ms": mean_ms("pipeline.reorder"),
        "pipeline.cluster_ms": mean_ms("pipeline.cluster"),
        "backends.execute_ms": 1e3 * warm["backends.execute"] / products,
        "backends.execute_over_raw": warm["backends.execute"] / warm["scipy.raw"],
        "core.unpermute_ms": 1e3 * warm["core.unpermute"] / products,
        "engine.multiply_ms": 1e3 * multiply / products,
        "engine.unattributed_ms": 1e3 * (multiply - attributed) / products,
        "engine.operand_reuse_rate": reused / (reused + prepared) if reused + prepared else 0.0,
        "engine.plan_cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "engine.plans_built": s1.plans_built,
        "engine.setup_in_products.p50": statistics.median(setup_products),
        "kernel.flops": sum(c["flops"] for c in counts) / n_products,
        "kernel.nnz_out": sum(c["nnz_out"] for c in counts) / n_products,
        "kernel.bytes_computed": sum(c["bytes"] for c in counts) / n_products,
        "kernel.gflops": 2.0 * flops / warm["backends.execute"] / 1e9,
        "trace.overhead_frac": sum(statistics.median(t) for t in traced)
        / sum(statistics.median(t) for t in untraced)
        - 1.0,
    }
    return {"values": values, "engine": engine, "attributed_share": attributed / multiply}


# ----------------------------------------------------------------------
# Serving layer
# ----------------------------------------------------------------------
def stream_spans(tracer: Tracer, s: Stream, prefix: str) -> None:
    """One request per served product: due → done, split into the
    generator's lag, the time inside ``submit`` and the time in the
    server after ``submit`` returned."""
    for k in np.flatnonzero(~np.isnan(s.done)):
        rid = f"{prefix}{k}"
        with stamped(tracer, "serve.request", s.due[k], s.done[k], rid=rid):
            for name, start, end in (
                ("serve.generator_lag", s.due[k], s.sent[k]),
                ("serve.submit", s.sent[k], s.returned[k]),
                ("serve.in_server", s.returned[k], s.done[k]),
            ):
                with stamped(tracer, name, start, end, rid=rid):
                    pass


def serve_values(s: Stream, stats: dict) -> dict:
    ok = ~np.isnan(s.done)
    parts = {
        "submit": s.returned - s.sent,
        "in_server": s.done - s.returned,
        "generator_lag": s.sent - s.due,
    }
    values = {}
    for name, d in parts.items():
        values[f"serve.{name}_ms.p50"] = 1e3 * quantile(d[ok], 50)
        values[f"serve.{name}_ms.p99"] = 1e3 * quantile(d[ok], 99)
    for key in ("coalesce_ratio", "batches", "max_queue_depth", "shed", "failed", "fallbacks"):
        values[f"serve.{key}"] = stats[key]
    return values


def serve_stream(server: SpGEMMServer, inp: ServeInputs, *, gate: Gate, tracer: Tracer, prefix: str) -> dict:
    """Send ``inp`` into ``server``, check every product, record one span
    tree per product and return the ``serve.*`` values."""
    try:
        s = run_stream(server, inp)
        stats = server.serving_stats()
    finally:
        server.close()
    check_stream(inp, s, gate)
    stream_spans(tracer, s, prefix)
    return serve_values(s, stats)


def trace_workload(workload: str, inputs, seconds: float, *, gate: Gate, tracer: Tracer) -> dict:
    """Per-layer values of one workload's traced run.

    ``serve_zipf`` traces its open-loop stream, then the layers of its
    members' products.  The batch workloads trace their closed loop,
    then submit all their products at once to a server over the warm
    engine: the ``serve.*`` values of a burst of large operands."""
    if workload == "serve_zipf":
        _setup, server = server_setups(inputs, 1, gate)
        serve = serve_stream(server, inputs, gate=gate, tracer=tracer, prefix="req#")
        res = trace_closed(member_jobs(inputs), min(BURST_LOOP_S, seconds), gate=gate, tracer=tracer)
    else:
        res = trace_closed(inputs, seconds, gate=gate, tracer=tracer)
        ops = [(job.name, job.A, B) for job in inputs for B in job.operands()]
        burst = ServeInputs(0.0, ops, np.zeros(len(ops)))
        server = SpGEMMServer(res["engine"], ServeConfig())
        serve = serve_stream(server, burst, gate=gate, tracer=tracer, prefix="burst#")
    return {"values": {**res["values"], **serve}, "attributed_share": res["attributed_share"]}
