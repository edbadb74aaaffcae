"""Serving configuration: batch and queue bounds, lifecycle knobs."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one :class:`~repro.serve.server.SpGEMMServer`.

    Parameters
    ----------
    max_batch:
        Largest request group dispatched as one ``multiply_many`` call;
        bigger groups are split (bounds per-batch latency).
    max_pending:
        Admission bound: a submission finding this many requests queued
        is load-shed with :class:`~repro.serve.errors.ServerOverloaded`.
    autostart:
        Start the dispatch thread on construction.  ``False`` leaves the
        server paused — submissions queue (up to ``max_pending``) until
        :meth:`~repro.serve.server.SpGEMMServer.start`, which is how
        tests and benchmarks force deterministic maximal coalescing.
    """

    max_batch: int = 32
    max_pending: int = 256
    autostart: bool = True

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")
