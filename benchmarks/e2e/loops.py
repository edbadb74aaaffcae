"""End-to-end measurement with tracing off: the closed loop of the three
batch workloads and the open loop of ``serve_zipf``.

Each returns the gated end-to-end metric values by name (units come from
``BENCHMARK.json``), the absolute throughput and latency, which are
printed and compared but not gated (units in :data:`REPORTED`), and a
``detail`` block for the printed report and the ``--out`` file.  Every
product is checked against raw scipy on the original operands, outside
the timed regions.
"""

from __future__ import annotations

import statistics
import time
from functools import partial
from itertools import cycle, islice

import numpy as np

from harness import (
    Gate,
    canonical,
    engine_call,
    geomean,
    quantile,
    raw_call,
    scipy_operands,
)
from inputs import Job
from repro import SpGEMMEngine
from repro.serve import ServeConfig, ServerOverloaded, SpGEMMServer

#: Fewest measured rounds, so every per-input median has a middle even
#: when one round outlasts ``--seconds``.
MIN_ROUNDS = 3
#: A served product within this latency counts towards goodput.
GOODPUT_LIMIT_S = 0.100
#: Longest wait for one served product before it counts as failed.
RESULT_TIMEOUT_S = 60.0
#: Unit and direction of the reported (not gated) metrics.
REPORTED = {
    "products_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p99_ms": ("ms", "lower"),
    "goodput_rps": ("1/s", "higher"),
}
#: How long serve_zipf times served bursts against raw scipy, after the
#: stream, on the same server.
BURST_LOOP_S = 4.0
#: Products in one served burst: a full batch of the default
#: ``ServeConfig``, so the dispatcher closes its batching window as soon
#: as the burst is queued and the burst times the server's own work.
BURST = ServeConfig().max_batch


def new_engine() -> SpGEMMEngine:
    """The engine every workload measures: default heuristic policy,
    planner free to pick any planner-ranked backend."""
    return SpGEMMEngine(backend="auto")


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def served_call(server: SpGEMMServer, job) -> list:
    """The job's products as one burst of single submits to ``server``,
    waited for together."""
    futures = [server.submit(job.A, B) for B in job.operands()]
    return [f.result(RESULT_TIMEOUT_S) for f in futures]


def safe_call(call, job, gate: Gate, label: str):
    """``timed(call, job)`` that records an exception instead of raising,
    so one failing product cannot hide the rest of the run."""
    try:
        return timed(call, job)
    except Exception as exc:  # reported through error_rate
        gate.fail(f"{job.name} {label}", repr(exc), count=job.products)
        return None


def reference_products(jobs) -> tuple[list, list]:
    """Scipy operands of every job and the canonical expected products."""
    ops = [scipy_operands(job) for job in jobs]
    return ops, [[canonical(S) for S in raw_call(o)] for o in ops]


def cold_passes(jobs, expected, passes: int, gate: Gate) -> tuple[list[float], SpGEMMEngine]:
    """``passes`` fresh engines, each timed over its first call on every
    input.  Returns the pass times and the last (now warm) engine."""
    times = []
    for _ in range(passes):
        engine = new_engine()
        total = 0.0
        for job, exp in zip(jobs, expected):
            res = safe_call(partial(engine_call, engine), job, gate, "cold")
            if res is not None:
                total += res[0]
                gate.check(res[1], exp, f"{job.name} cold")
        times.append(total)
    return times, engine


def interleave(call, jobs, ops, expected, seconds: float, gate: Gate) -> dict:
    """One caller: each round times ``call(job)`` and the raw scipy call
    on every input, in alternating order, until ``seconds`` have passed.
    Returns the per-input samples and summary rows."""
    t_call: list[list[float]] = [[] for _ in jobs]
    t_raw: list[list[float]] = [[] for _ in jobs]
    end = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < end:
        for i, job in enumerate(jobs):
            if rounds % 2:
                t_raw[i].append(timed(raw_call, ops[i])[0])
            res = safe_call(call, job, gate, "warm")
            if res is not None:
                t_call[i].append(res[0])
                gate.check(res[1], expected[i], job.name)
            if not rounds % 2:
                t_raw[i].append(timed(raw_call, ops[i])[0])
        rounds += 1
    inputs = [
        {
            "input": job.name,
            "n": job.A.nrows,
            "nnz": job.A.nnz,
            "products": job.products,
            "call_ms": 1e3 * statistics.median(tc),
            "raw_ms": 1e3 * statistics.median(tr),
            "speedup": statistics.median(tr) / statistics.median(tc),
        }
        for job, tc, tr in zip(jobs, t_call, t_raw)
    ]
    return {"call_s": t_call, "rounds": rounds, "inputs": inputs}


def add_plans(engine: SpGEMMEngine, jobs, rows) -> None:
    """Name each input's plan in its row (a warm plan-cache lookup)."""
    for job, row in zip(jobs, rows):
        row["plan"] = engine.plan_for(job.A, None if job.Bs is None else job.Bs[0]).label


def gated_values(rows, setup) -> dict:
    """The end-to-end metrics of every workload except ``peak_rss_mb``:
    ``speedup_vs_scipy.*`` from the per-input rows of :func:`interleave`,
    and ``setup_s`` as the median set-up pass.

    Throughput and latency are reported but not gated: they are absolute
    times, and the host's speed drifts by up to 1.6x over minutes.  The
    speed-ups time each call next to raw scipy on the same input, so the
    drift cancels."""
    speedups = [row["speedup"] for row in rows]
    return {
        "speedup_vs_scipy.geomean": geomean(speedups),
        "speedup_vs_scipy.min": min(speedups),
        "setup_s": statistics.median(setup),
    }


def closed_loop(jobs, seconds: float, *, passes: int, gate: Gate) -> dict:
    """The batch workloads: ``setup_s`` is the median cold pass, then the
    last cold engine, now warm, runs :func:`interleave`."""
    ops, expected = reference_products(jobs)
    setup, engine = cold_passes(jobs, expected, passes, gate)
    run = interleave(partial(engine_call, engine), jobs, ops, expected, seconds, gate)
    add_plans(engine, jobs, run["inputs"])
    t_call = run["call_s"]
    # Latency per input, then averaged geometrically over the inputs:
    # they differ by 10x in size, so a pooled median falls in the gap
    # between two of them and a pooled p99 is the tail of the slowest.
    reported = {
        # Throughput of a typical round: per-input medians resist the odd
        # stalled call that a plain total would charge in full.
        "products_per_s": sum(job.products for job in jobs) / sum(statistics.median(tc) for tc in t_call),
        "latency_p50_ms": 1e3 * geomean(statistics.median(tc) for tc in t_call),
        "latency_p99_ms": 1e3 * geomean(quantile(tc, 99) for tc in t_call),
    }
    detail = {
        "load": f"closed loop, 1 caller, {run['rounds']} rounds",
        "latency_samples": [len(tc) for tc in t_call],
        "setup_passes_s": setup,
        "inputs": run["inputs"],
    }
    return {"values": gated_values(run["inputs"], setup), "reported": reported, "detail": detail}


# ----------------------------------------------------------------------
# Open loop (serve_zipf)
# ----------------------------------------------------------------------
def first_products(inp) -> dict:
    """member → its first ``(A, B)`` in the stream."""
    firsts: dict = {}
    for member, A, B in inp.ops:
        firsts.setdefault(member, (A, B))
    return firsts


def member_jobs(inp) -> list[Job]:
    """One call per population member: its first product."""
    return [Job(m, A, [B]) for m, (A, B) in sorted(first_products(inp).items())]


def burst_jobs(inp) -> list[Job]:
    """One burst per population member: ``BURST`` products of its first
    operand, with the right operands the stream sends with it, cycled."""
    firsts = first_products(inp)
    Bs: dict = {}
    for member, A, B in inp.ops:
        if A is firsts[member][0]:
            Bs.setdefault(member, []).append(B)
    return [Job(m, firsts[m][0], list(islice(cycle(Bs[m]), BURST))) for m in sorted(firsts)]


def server_setups(inp, passes: int, gate: Gate) -> tuple[list[float], SpGEMMServer]:
    """``passes`` fresh servers, each timed from construction until the
    first product of every population member is back (cold plans).
    Returns the set-up times and the last server, still open."""
    firsts = first_products(inp)
    expected = {m: canonical(A.to_scipy() @ B.to_scipy()) for m, (A, B) in firsts.items()}
    times = []
    server = None
    for _ in range(passes):
        if server is not None:
            server.close()
        t0 = time.perf_counter()
        server = SpGEMMServer(new_engine(), ServeConfig())
        futures = {m: server.submit(A, B) for m, (A, B) in firsts.items()}
        results = {}
        for m, fut in futures.items():
            try:
                results[m] = fut.result(RESULT_TIMEOUT_S)
            except Exception as exc:  # reported through error_rate
                gate.fail(f"{m} set-up", repr(exc))
        times.append(time.perf_counter() - t0)
        for m, C in results.items():
            gate.check([C], [expected[m]], f"{m} set-up")
    return times, server


class Stream:
    """Timestamps of served products, indexed by product: when each was
    due, sent, back from ``submit`` and done (future resolved)."""

    def __init__(self, n: int) -> None:
        self.due = np.full(n, np.nan)
        self.sent = np.full(n, np.nan)
        self.returned = np.full(n, np.nan)
        self.done = np.full(n, np.nan)
        self.futures: list = [None] * n
        self.shed = 0
        self.start = time.perf_counter()

    def send(self, server: SpGEMMServer, k: int, A, B, due: float) -> None:
        """Submit product ``k``, stamping it; a shed request is counted."""
        self.due[k] = due
        self.sent[k] = time.perf_counter()
        try:
            fut = server.submit(A, B)
        except ServerOverloaded:
            self.shed += 1
            return
        self.returned[k] = time.perf_counter()
        self.futures[k] = fut
        fut.add_done_callback(partial(self._on_done, k))

    def _on_done(self, k: int, _future) -> None:
        self.done[k] = time.perf_counter()

    def wait(self) -> None:
        """Block until every sent product resolves (errors are read later)."""
        for fut in self.futures:
            if fut is not None:
                try:
                    fut.result(RESULT_TIMEOUT_S)
                except Exception:  # counted when the result is checked
                    pass


def run_stream(server: SpGEMMServer, inp) -> Stream:
    """Send every product at its seeded due time from this one thread
    (sleeping until due, never waiting on results), then wait for all."""
    s = Stream(len(inp.ops))
    s.start += 0.01
    for k, (_member, A, B) in enumerate(inp.ops):
        due = s.start + float(inp.arrivals[k])
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        s.send(server, k, A, B, due)
    s.wait()
    return s


def check_stream(inp, s: Stream, gate: Gate) -> None:
    """Check every served product against raw scipy; sheds, exceptions
    and wrong products all count as failed."""
    scipy_of: dict = {}
    if s.shed:
        gate.fail("serve", f"{s.shed} request(s) shed", count=s.shed)
    for k, (member, A, B) in enumerate(inp.ops):
        fut = s.futures[k]
        if fut is None:
            continue
        try:
            C = fut.result(0)
        except Exception as exc:  # reported through error_rate
            gate.fail(f"{member} #{k}", repr(exc))
            continue
        SA = scipy_of.get(id(A))
        if SA is None:
            SA = scipy_of[id(A)] = A.to_scipy()
        gate.check([C], [canonical(SA @ B.to_scipy())], f"{member} #{k}")


def open_loop(inp, seconds: float, *, passes: int, gate: Gate) -> dict:
    """Seeded Poisson arrivals at ``inp.rate`` into one warm server;
    latency runs from each product's due time to its completion.

    The speed-ups then time served bursts on the same server against
    raw scipy on the same products, interleaved as in the batch
    workloads: each burst goes through ``submit``, grouping, coalescing
    and ``multiply_many`` back to the futures.  The stream's latency
    itself is mostly the 2 ms batching window, a timer the host's speed
    does not move, so a ratio of it to raw scipy would track the host."""
    setup, server = server_setups(inp, passes, gate)
    try:
        s = run_stream(server, inp)
        stats = server.serving_stats()
        check_stream(inp, s, gate)
        jobs = burst_jobs(inp)
        ops, expected = reference_products(jobs)
        run = interleave(partial(served_call, server), jobs, ops, expected, min(BURST_LOOP_S, seconds), gate)
        add_plans(server.engine, jobs, run["inputs"])
    finally:
        server.close()
    ok = ~np.isnan(s.done)
    latency = (s.done - s.due)[ok]
    lag = (s.sent - s.due)[~np.isnan(s.sent)]
    scheduled = float(inp.arrivals[-1])
    members = np.array([m for m, _A, _B in inp.ops])[ok]
    for row in run["inputs"]:
        lat = latency[members == row["input"]]
        row.update(served=len(lat), served_p50_ms=1e3 * statistics.median(lat))
    # Every served product is small, so latency is pooled over the stream.
    reported = {
        "products_per_s": int(ok.sum()) / (float(np.nanmax(s.done)) - s.start),
        "latency_p50_ms": 1e3 * quantile(latency, 50),
        "latency_p99_ms": 1e3 * quantile(latency, 99),
        "goodput_rps": float((latency <= GOODPUT_LIMIT_S).sum()) / scheduled,
    }
    detail = {
        "load": f"open loop, Poisson {inp.rate:g}/s for {scheduled:.1f} s; then {run['rounds']} rounds of bursts",
        "latency_samples": len(latency),
        "setup_passes_s": setup,
        "generator_lag_ms": {"p50": 1e3 * quantile(lag, 50), "p99": 1e3 * quantile(lag, 99)},
        "serving": {k: stats[k] for k in ("batches", "coalesce_ratio", "max_queue_depth", "shed", "failed", "fallbacks")},
        "inputs": run["inputs"],
    }
    return {"values": gated_values(run["inputs"], setup), "reported": reported, "detail": detail}
