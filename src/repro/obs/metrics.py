"""Metric primitive: a histogram with streaming percentiles.

A :class:`Histogram` answers p50/p95/p99 questions over an unbounded
observation stream in O(1) memory: observations are kept **exactly** up
to :data:`EXACT_CAP` (small streams — a 500-request replay — get the
same answer :func:`numpy.percentile` would give, to float round-off),
and beyond the cap each of p50/p95/p99 is maintained by the classic P²
estimator (Jain & Chlamtac, CACM 1985) — five markers per quantile,
parabolic interpolation, no stored samples.  Everything is deterministic
in the observation sequence, which is what lets the replay report be
byte-reproducible from a seed.

Thread safety: the serving front-end (:mod:`repro.serve`) observes
latencies from its dispatch thread and fallback (caller) threads
concurrently, so :meth:`Histogram.observe` takes a per-instance lock
(allocated once at construction — the hot path acquires, never
allocates).

Pure stdlib — numpy appears only in the test that cross-checks the
percentile math.
"""

from __future__ import annotations

import math
import threading

__all__ = ["P2Quantile", "Histogram"]

#: Observations a :class:`Histogram` keeps verbatim (exact percentiles)
#: before its estimate switches to pure P².
EXACT_CAP = 512

#: The quantiles every :class:`Histogram` tracks, by report label.
QUANTILES = {"p50": 0.5, "p95": 0.95, "p99": 0.99}


class P2Quantile:
    """Streaming estimate of one quantile via the P² algorithm.

    ``q`` is the quantile in ``(0, 1)``.  The first five observations
    are stored and sorted (the estimate is exact there); each subsequent
    observation adjusts five markers in O(1) with parabolic (falling
    back to linear) height interpolation.  Deterministic in the input
    sequence.
    """

    __slots__ = ("q", "heights", "positions", "desired", "_rate", "count")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = float(q)
        self.heights: list[float] = []
        self.positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self.desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._rate = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self.count = 0

    def observe(self, x: float) -> None:
        self.count += 1
        if len(self.heights) < 5:
            self.heights.append(float(x))
            self.heights.sort()
            return
        h, n, d = self.heights, self.positions, self.desired
        # Locate the marker cell containing x, clamping the extremes.
        if x < h[0]:
            h[0] = float(x)
            k = 0
        elif x >= h[4]:
            h[4] = float(x)
            k = 3
        else:
            k = 0
            while k < 3 and x >= h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1.0
        for i in range(5):
            d[i] += self._rate[i]
        # Adjust the three interior markers toward their desired positions.
        for i in (1, 2, 3):
            delta = d[i] - n[i]
            if (delta >= 1.0 and n[i + 1] - n[i] > 1.0) or (delta <= -1.0 and n[i - 1] - n[i] < -1.0):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, step)
                n[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, n = self.heights, self.positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, n = self.heights, self.positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    def value(self) -> float:
        """Current estimate (exact while ≤ 5 observations; NaN when empty)."""
        if not self.heights:
            return math.nan
        if self.count <= 5:
            return _exact_percentile(sorted(self.heights), self.q)
        return self.heights[2]


def _exact_percentile(xs_sorted: list[float], q: float) -> float:
    """numpy.percentile's default (linear) interpolation on sorted data."""
    n = len(xs_sorted)
    if n == 1:
        return xs_sorted[0]
    rank = q * (n - 1)
    lo = int(rank)
    frac = rank - lo
    if lo + 1 >= n:
        return xs_sorted[-1]
    return xs_sorted[lo] + frac * (xs_sorted[lo + 1] - xs_sorted[lo])


class Histogram:
    """Streaming distribution summary: count/sum/min/max + p50/p95/p99.

    While ``count <= EXACT_CAP`` percentile queries are exact
    (numpy-identical linear interpolation), so bounded workloads pay no
    approximation at all; past it, the P² estimates of :data:`QUANTILES`
    answer.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._exact: list[float] | None = []
        self._estimators = {q: P2Quantile(q) for q in QUANTILES.values()}
        self._lock = threading.Lock()
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, x: float) -> None:
        x = float(x)
        with self._lock:
            self.count += 1
            self.sum += x
            self.min = min(self.min, x)
            self.max = max(self.max, x)
            for est in self._estimators.values():
                est.observe(x)
            if self._exact is not None:
                self._exact.append(x)
                if len(self._exact) > EXACT_CAP:
                    self._exact = None  # stream outgrew the buffer: P² takes over

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def percentile(self, q: float) -> float:
        """The ``q`` quantile (``0 < q < 1``): exact while the verbatim
        buffer holds, streaming P² after; tracked quantiles only once
        streaming."""
        q = float(q)
        with self._lock:
            if self.count == 0:
                return math.nan
            if self._exact is not None:
                return _exact_percentile(sorted(self._exact), q)
            est = self._estimators.get(q)
            if est is not None:
                return est.value()
        raise KeyError(
            f"quantile {q} is not tracked by histogram {self.name!r} "
            f"(tracked: {list(QUANTILES.values())}) and the stream has "
            f"outgrown the exact buffer"
        )

    def percentiles(self) -> dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}``."""
        return {label: self.percentile(q) for label, q in QUANTILES.items()}

    def to_dict(self) -> dict:
        d: dict = {"count": self.count}
        if self.count:
            d.update(
                sum=self.sum,
                mean=self.mean,
                min=self.min,
                max=self.max,
                **self.percentiles(),
            )
        return d
