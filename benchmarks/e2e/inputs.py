"""Seeded inputs of the four end-to-end workloads.

Every input is a pure function of ``(workload, seed, scale)`` (plus the
run length for ``serve_zipf``, whose trace is as long as the run).  The
patterns are fixed; the seed jitters the values of the batch workloads'
matrices and draws the arrival schedule of ``serve_zipf``.  Seed 0 is
the suite's own data: the ``REPRESENTATIVE`` matrices of
:mod:`repro.matrices.suite` and the default trace of
:mod:`repro.workloads.replay`.

``scale="smoke"`` swaps in tiny instances of the same families so the
tier-1 smoke test can drive every workload in a few seconds.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from repro.core.csr import CSRMatrix
from repro.engine.fingerprint import pattern_digest, value_digest
from repro.matrices import generators as G
from repro.matrices.perturb import perturb_values, scramble
from repro.matrices.suite import REPRESENTATIVE, get_matrix
from repro.workloads.replay import TraceSpec, synthesize_trace, trace_operands
from repro.workloads.tallskinny import bc_frontiers

WORKLOADS = ("asquare_small", "asquare_large", "bc_frontiers", "serve_zipf")
SCALES = ("full", "smoke")

#: Offered load of ``serve_zipf`` in products per second: about a quarter
#: of the capacity observed on a 2-core host (p99 88 ms at 800/s, no
#: backlog).  At 400/s more requests queue behind each cold plan, and the
#: p99 of one seed ranged 24–39 ms over three runs; at 200/s, 19–23 ms.
SERVE_RATE = 200.0

#: The smoke subset keeps one natural-order plan (pdb1) and the two
#: inputs whose plans reorder (wb, AS365).
SMOKE_REPRESENTATIVE = ("pdb1", "wb", "AS365")


@dataclass
class Job:
    """One closed-loop call: ``A @ A`` when ``Bs`` is ``None``, else
    ``multiply_many(A, Bs)``."""

    name: str
    A: CSRMatrix
    Bs: list | None = None

    @property
    def products(self) -> int:
        return 1 if self.Bs is None else len(self.Bs)

    def operands(self) -> list:
        """The right operand of each product."""
        return [self.A] if self.Bs is None else list(self.Bs)


@dataclass
class ServeInputs:
    """The open-loop stream: one ``(member, A, B)`` per product, each due
    ``arrivals[k]`` seconds after the start."""

    rate: float
    ops: list
    arrivals: np.ndarray


def _jitter(A: CSRMatrix, s: int) -> CSRMatrix:
    """Every input stands for one fixed real matrix, so the seed jitters
    its values and leaves its pattern, and with it the plan and the
    sizes of the products, alone.  Seed 0 keeps the values too."""
    return A if s == 0 else perturb_values(A, seed=s)


def _large(s: int, scale: str) -> list[Job]:
    grid, web, rmat = (40, 2000, 9) if scale == "smoke" else (300, 40000, 12)
    mats = [
        ("grid2d_scr", scramble(G.grid2d(grid, grid, stencil=9, seed=0), seed=80)),
        ("web_scr", scramble(G.web_graph(web, seed=7), seed=70)),
        # The com-LiveJournal analog of the suite.
        ("rmat_scr", scramble(G.rmat(rmat, edge_factor=10, seed=23), seed=72)),
    ]
    return [Job(name, _jitter(A, s)) for name, A in mats]


def _bc(s: int, scale: str) -> list[Job]:
    road, web, rmat, batch, depth = (2500, 2000, 9, 16, 4) if scale == "smoke" else (60000, 40000, 14, 64, 10)
    graphs = [
        ("road_scr", scramble(G.road_network(road, seed=0), seed=160)),
        ("web_scr", scramble(G.web_graph(web, seed=7), seed=70)),
        ("rmat", G.rmat(rmat, seed=0)),
    ]
    return [
        Job(name, _jitter(A, s), list(bc_frontiers(A, batch=batch, depth=depth, seed=0).frontiers))
        for name, A in graphs
    ]


def _serve(s: int, seconds: float) -> ServeInputs:
    """The default trace, as long as the run; the seed draws the arrival
    schedule.  The trace stands for one recorded request stream, so its
    patterns, churn events and values stay fixed: a re-drawn trace moves
    the tail latency through its churn count alone."""
    rate = SERVE_RATE
    n = max(1, math.ceil(rate * seconds))
    # Every request yields at least one product, so n requests suffice;
    # batch requests are fanned out into single submits.
    trace = synthesize_trace(TraceSpec(requests=n, population=6))
    ops: list = []
    for req, A, Bs in trace_operands(trace):
        ops.extend((req.matrix, A, B) for B in Bs)
        if len(ops) >= n:
            break
    arrivals = np.cumsum(np.random.default_rng(s).exponential(1.0 / rate, size=n))
    return ServeInputs(rate, ops[:n], arrivals)


def build(workload: str, seed: int, scale: str = "full", seconds: float = 1.0):
    """The inputs of ``workload``: a list of :class:`Job` for the closed
    loops, a :class:`ServeInputs` for ``serve_zipf``."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
    if workload == "asquare_small":
        names = SMOKE_REPRESENTATIVE if scale == "smoke" else REPRESENTATIVE
        return [Job(name, _jitter(get_matrix(name), seed)) for name in names]
    if workload == "asquare_large":
        return _large(seed, scale)
    if workload == "bc_frontiers":
        return _bc(seed, scale)
    if workload == "serve_zipf":
        return _serve(seed, seconds)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def digest(inputs) -> str:
    """SHA-256 over every operand's pattern and value digests (and the
    arrival schedule of a serve stream) — equal exactly when the inputs
    are."""
    h = hashlib.sha256()

    def add(M: CSRMatrix) -> None:
        h.update(pattern_digest(M).encode())
        h.update(value_digest(M).encode())

    if isinstance(inputs, ServeInputs):
        h.update(np.asarray(inputs.arrivals, dtype=np.float64).tobytes())
        for member, A, B in inputs.ops:
            h.update(member.encode())
            add(A)
            add(B)
    else:
        for job in inputs:
            h.update(job.name.encode())
            add(job.A)
            for B in job.Bs or ():
                add(B)
    return h.hexdigest()
