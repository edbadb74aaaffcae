"""Trace-replay harness: synthetic request streams for the engine.

Production SpGEMM services do not see i.i.d. matrices — they see a
*population* of patterns with a heavy-tailed popularity profile, bursts
of repeated requests for one matrix, and occasional pattern churn as
values converge or graphs evolve.  This module synthesises such streams
deterministically and replays them through a
:class:`~repro.engine.engine.SpGEMMEngine`, producing the structured
report behind ``benchmarks/bench_trace_replay.py`` and the CLI's
``engine --replay`` path (DESIGN.md §12).

Determinism contract
--------------------
Both the trace and the replay report are **byte-for-byte reproducible**
from ``TraceSpec.seed``:

* the trace is pure data (``Trace.to_jsonl`` serialises with sorted
  keys), and every matrix mutation it implies carries its own derived
  seed, so replaying the same trace rebuilds the same operand sequence;
* the report's latency distribution is measured in **model cost units**
  (per-request deltas of the engine's simulated-machine ledger), not
  wall clock — wall clock is recorded separately and deliberately kept
  out of :meth:`ReplayReport.to_dict`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # engine imports workloads transitively — keep runtime lazy
    from ..engine import SpGEMMEngine

from ..matrices.generators import (
    banded_random,
    block_diagonal,
    erdos_renyi,
    grid2d,
    triangular_mesh,
    web_graph,
)
from ..matrices.perturb import perturb_values
from ..obs import Histogram

__all__ = [
    "TraceSpec",
    "TraceRequest",
    "Trace",
    "ReplayReport",
    "synthesize_trace",
    "trace_operands",
    "replay",
    "POPULATION_BUILDERS",
]

#: Matrix families a trace population draws from, in rank order.  All
#: small enough that a 500-request replay through the reference backend
#: stays interactive; diverse enough (mesh / banded / block / graph)
#: that different population members genuinely plan differently.
POPULATION_BUILDERS = (
    ("grid2d", lambda seed: grid2d(12, 12, seed=seed)),
    ("banded", lambda seed: banded_random(300, bandwidth=8, seed=seed)),
    ("blocks", lambda seed: block_diagonal(20, 8, seed=seed)),
    ("web", lambda seed: web_graph(400, seed=seed)),
    ("mesh", lambda seed: triangular_mesh(10, 10, seed=seed)),
    ("er", lambda seed: erdos_renyi(250, avg_degree=6.0, seed=seed)),
)


@dataclass(frozen=True)
class TraceSpec:
    """Generative parameters of a synthetic request trace.

    Parameters
    ----------
    requests:
        Stream length.
    population:
        Number of distinct base matrices (capped at
        ``len(POPULATION_BUILDERS)``).
    zipf_s:
        Popularity exponent: rank ``r`` is drawn with weight
        ``(r+1)^-zipf_s`` — ~1 reproduces the classic heavy tail.
    burst_prob:
        Per-request probability (outside a burst) of *starting* a burst
        that pins the stream to one matrix.
    burst_mean:
        Mean burst length (geometric).
    batch_prob:
        Probability a request is a ``multiply_many`` batch instead of a
        single multiply.
    batch_size:
        Frontier count of a batch request.
    churn_prob:
        Per-request probability the chosen matrix's *pattern* churns
        (value dropout via :func:`~repro.matrices.perturb.perturb_values`)
        before executing — new fingerprint, cache miss.
    churn_dropout:
        Dropout fraction of a churn event.
    value_jitter:
        Multiplicative value noise applied every request (pattern
        untouched — the "same pattern, new values" cache-hit regime).
    seed:
        Master seed; everything above is deterministic given it.
    """

    requests: int = 500
    population: int = 4
    zipf_s: float = 1.1
    burst_prob: float = 0.15
    burst_mean: float = 4.0
    batch_prob: float = 0.1
    batch_size: int = 4
    churn_prob: float = 0.03
    churn_dropout: float = 0.05
    value_jitter: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if not (1 <= self.population <= len(POPULATION_BUILDERS)):
            raise ValueError(
                f"population must be in [1, {len(POPULATION_BUILDERS)}], got {self.population}"
            )
        if self.zipf_s < 0:
            raise ValueError(f"zipf_s must be >= 0, got {self.zipf_s}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("burst_prob", "batch_prob", "churn_prob"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {p}")


@dataclass(frozen=True)
class TraceRequest:
    """One request of a synthetic trace (pure data).

    ``matrix`` names the population member, ``version`` counts its
    pattern churns so far (0 = as built), and the two seeds make every
    mutation reproducible: ``churn_seed`` drives this request's pattern
    churn (when ``churn`` is set), ``value_seed`` the per-request value
    jitter.
    """

    idx: int
    matrix: str
    version: int
    op: str  # "multiply" | "batch"
    batch: int
    churn: bool
    churn_seed: int
    value_seed: int
    burst: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Trace:
    """A synthesised request stream (spec + requests)."""

    spec: TraceSpec
    requests: tuple[TraceRequest, ...]

    def to_jsonl(self) -> str:
        """Deterministic serialisation: one sorted-keys JSON object per
        line, spec first — byte-identical for equal specs."""
        lines = [json.dumps({"spec": asdict(self.spec)}, sort_keys=True)]
        lines.extend(json.dumps(r.to_dict(), sort_keys=True) for r in self.requests)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty trace")
        head = json.loads(lines[0])
        if "spec" not in head:
            raise ValueError("trace must start with a spec line")
        spec = TraceSpec(**head["spec"])
        reqs = tuple(TraceRequest(**json.loads(ln)) for ln in lines[1:])
        return cls(spec, reqs)


def synthesize_trace(spec: TraceSpec | None = None, **kw) -> Trace:
    """Build a deterministic request stream from ``spec`` (keyword
    arguments construct one: ``synthesize_trace(requests=200, seed=3)``).

    Popularity is Zipf over population ranks; a two-state burst process
    pins runs of consecutive requests to one matrix; churn events bump
    the chosen matrix's version.  Pure data — no matrices are built
    here.
    """
    if spec is None:
        spec = TraceSpec(**kw)
    elif kw:
        raise TypeError("pass either a TraceSpec or keyword arguments, not both")
    rng = np.random.default_rng(spec.seed)
    names = [name for name, _ in POPULATION_BUILDERS[: spec.population]]
    weights = np.array([(r + 1) ** -spec.zipf_s for r in range(len(names))])
    weights /= weights.sum()
    versions = {name: 0 for name in names}
    burst_left = 0
    burst_name = names[0]
    out = []
    for i in range(spec.requests):
        if burst_left > 0:
            name, in_burst = burst_name, True
            burst_left -= 1
        else:
            name = names[int(rng.choice(len(names), p=weights))]
            in_burst = False
            if rng.random() < spec.burst_prob and spec.burst_mean > 1:
                burst_name = name
                burst_left = int(rng.geometric(1.0 / spec.burst_mean))
        churn = bool(rng.random() < spec.churn_prob)
        if churn:
            versions[name] += 1
        is_batch = bool(rng.random() < spec.batch_prob)
        out.append(
            TraceRequest(
                idx=i,
                matrix=name,
                version=versions[name],
                op="batch" if is_batch else "multiply",
                batch=spec.batch_size if is_batch else 1,
                churn=churn,
                churn_seed=int(rng.integers(0, 2**31 - 1)),
                value_seed=int(rng.integers(0, 2**31 - 1)),
                burst=in_burst,
            )
        )
    return Trace(spec, tuple(out))


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
@dataclass
class ReplayReport:
    """Structured outcome of replaying one trace through one engine.

    ``latency_*`` percentiles are **model cost units per request**
    (planning + preparation + execution deltas of the engine ledger) —
    deterministic, so the whole report is byte-reproducible from the
    trace seed.  ``wall_seconds`` is the only wall-clock figure and is
    excluded from :meth:`to_dict`.
    """

    requests: int = 0
    multiplies: int = 0
    latency: Histogram = field(default_factory=lambda: Histogram("replay.latency_model_units"))
    hit_rate: float = 0.0
    plans_built: int = 0
    churn_events: int = 0
    model_speedup: float = 0.0
    wall_seconds: float = 0.0

    def to_dict(self) -> dict:
        """Deterministic JSON-safe report (wall clock excluded)."""
        pct = self.latency.percentiles()
        d = {
            "requests": self.requests,
            "multiplies": self.multiplies,
            "latency_model_units": {
                "count": self.latency.count,
                "mean": round(self.latency.mean, 9),
                "min": self.latency.min,
                "max": self.latency.max,
                **{k: round(v, 9) for k, v in pct.items()},
            },
            "hit_rate": round(self.hit_rate, 9),
            "plans_built": self.plans_built,
            "churn_events": self.churn_events,
            "model_speedup": round(self.model_speedup, 9),
        }
        return d


def trace_operands(trace: Trace):
    """Reconstruct the operand sequence of ``trace`` deterministically.

    Yields ``(request, A, Bs)`` in stream order: each population member
    starts from its builder, every request applies its ``value_seed``
    jitter to produce the right-hand side(s), and churn requests first
    apply their ``churn_seed`` dropout to the left operand — so two
    walks of one trace produce bit-identical matrices in the same order.
    ``Bs`` has one element for ``op == "multiply"`` and ``req.batch``
    elements for ``op == "batch"``.

    This is the single reconstruction path shared by :func:`replay` and
    the serving driver (:mod:`repro.serve.driver`), which is what makes
    "coalesced serving is bitwise-identical to sequential replay"
    checkable at all.
    """
    builders = dict(POPULATION_BUILDERS)
    spec = trace.spec
    current: dict[str, object] = {}
    for req in trace.requests:
        A = current.get(req.matrix)
        if A is None:
            A = builders[req.matrix](spec.seed)
            current[req.matrix] = A
        if req.churn:
            A = perturb_values(
                A, scale=spec.value_jitter, seed=req.churn_seed, dropout=spec.churn_dropout
            )
            current[req.matrix] = A
        if req.op == "batch":
            Bs = [
                perturb_values(A, scale=spec.value_jitter, seed=req.value_seed + j)
                for j in range(req.batch)
            ]
        else:
            Bs = [perturb_values(A, scale=spec.value_jitter, seed=req.value_seed)]
        yield req, A, Bs


def replay(
    trace: Trace,
    engine: "SpGEMMEngine | None" = None,
    *,
    progress=None,
) -> ReplayReport:
    """Replay ``trace`` through ``engine`` (a fresh default engine when
    omitted) and return the structured report.

    The operand sequence is reconstructed deterministically from the
    trace: each population member starts from its builder, every request
    applies its ``value_seed`` jitter, and churn requests additionally
    apply their ``churn_seed`` dropout — so two replays of one trace
    multiply bit-identical matrices in the same order.

    ``progress`` (optional callable) receives ``(done, total)`` every 50
    requests — the CLI's ticker hook.
    """
    import time as _time

    from ..engine import SpGEMMEngine

    eng = engine if engine is not None else SpGEMMEngine()
    report = ReplayReport(requests=len(trace.requests))
    s0 = eng.stats()

    def _model_cost(stats) -> float:
        return stats.model_planning_cost + stats.model_pre_cost + stats.model_executed_cost

    prev_cost = _model_cost(s0)
    t0 = _time.perf_counter()
    for req, A, Bs in trace_operands(trace):
        if req.churn:
            report.churn_events += 1
        if req.op == "batch":
            eng.multiply_many(A, Bs)
        else:
            eng.multiply(A, Bs[0])
        snap = eng.stats()
        cost = _model_cost(snap)
        report.latency.observe(cost - prev_cost)
        prev_cost = cost
        if progress is not None and (req.idx + 1) % 50 == 0:
            progress(req.idx + 1, len(trace.requests))
    report.wall_seconds = _time.perf_counter() - t0

    s1 = eng.stats()
    report.multiplies = s1.multiplies - s0.multiplies
    lookups = (s1.plan_cache_hits - s0.plan_cache_hits) + (
        s1.plan_cache_misses - s0.plan_cache_misses
    )
    hits = s1.plan_cache_hits - s0.plan_cache_hits
    report.hit_rate = hits / lookups if lookups else 0.0
    report.plans_built = s1.plans_built - s0.plans_built
    if s1.model_executed_cost > s0.model_executed_cost:
        report.model_speedup = (s1.model_baseline_cost - s0.model_baseline_cost) / (
            s1.model_executed_cost - s0.model_executed_cost
        )
    return report
