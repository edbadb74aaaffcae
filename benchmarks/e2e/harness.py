"""Shared pieces of the end-to-end benchmark: the calls into the public
API, the raw-scipy baseline on the original operands, the correctness
gate and small statistics helpers."""

from __future__ import annotations

import math
import resource

import numpy as np

from repro.core.csr import CSRMatrix

#: Tolerance of the correctness gate.  Non-reference backends return the
#: identical pattern with values equal up to summation order.
RTOL = 1e-9
ATOL = 1e-12


def engine_call(engine, job) -> list:
    """The job's products through the engine's public API."""
    if job.Bs is None:
        return [engine.multiply(job.A)]
    return engine.multiply_many(job.A, job.Bs)


def scipy_operands(job) -> tuple:
    """``(A, [B...])`` as scipy CSR matrices, converted once, untimed."""
    SA = job.A.to_scipy()
    return SA, ([SA] if job.Bs is None else [B.to_scipy() for B in job.Bs])


def raw_call(operands) -> list:
    """The baseline: raw scipy ``A @ B`` for each of the job's products."""
    SA, SBs = operands
    return [SA @ SB for SB in SBs]


def canonical(S) -> CSRMatrix:
    """A scipy product in the engine's canonical form (sorted indices)."""
    return CSRMatrix.from_scipy(S)


def matches(C: CSRMatrix, E: CSRMatrix) -> bool:
    """Identical shape and pattern, values ``allclose`` within the gate."""
    return (
        C.shape == E.shape
        and np.array_equal(C.indptr, E.indptr)
        and np.array_equal(C.indices, E.indices)
        and bool(np.allclose(C.values, E.values, rtol=RTOL, atol=ATOL))
    )


class Gate:
    """Counts every product checked and every failure: a wrong result,
    an exception or a shed request."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, outs, expected, label: str) -> None:
        """Count ``expected`` products; fail each missing or wrong one."""
        bad = len(expected) - len(outs) + sum(
            not matches(C, E) for C, E in zip(outs, expected)
        )
        self.attempted += len(expected) - bad
        if bad:
            self.fail(label, f"{bad} wrong product(s)", count=bad)

    def fail(self, label: str, why: str, *, count: int = 1) -> None:
        """Count ``count`` failed products (exceptions, sheds, mismatches)."""
        self.attempted += count
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {why}")


def geomean(xs) -> float:
    xs = [float(x) for x in xs]
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def quantile(xs, q: float) -> float:
    """``q``-th percentile (0–100), linear interpolation."""
    return float(np.percentile(np.asarray(xs, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
