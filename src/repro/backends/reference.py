"""The ``reference`` backend — the bitwise correctness oracle.

Dispatches to the registered pure-python kernel components
(:mod:`repro.pipeline.builtin`), which are the paper's algorithms
implemented exactly as written.  Every other backend is validated
against this one: pattern-identical always, bit-identical when it
claims :attr:`~repro.backends.base.ExecutionBackend.bitwise_reference`.
"""

from __future__ import annotations

from typing import Any, ClassVar

from .base import ExecutionBackend, ExecutionContext

__all__ = ["ReferenceBackend"]


class ReferenceBackend(ExecutionBackend):
    """Pure-python kernels via the pipeline registry (the oracle)."""

    name: ClassVar[str] = "reference"
    planner_rank: ClassVar[int | None] = 0
    model_speed_factor: ClassVar[float] = 1.0
    description: ClassVar[str] = "pure-python registry kernels (the bitwise correctness oracle)"

    @property
    def bitwise_reference(self) -> bool:
        return True

    def execute(
        self,
        operand: Any,
        B: Any,
        *,
        kernel: str,
        kernel_params: dict[str, Any],
        ctx: ExecutionContext,
    ) -> Any:
        from ..pipeline import get_component

        ctx.bump("reference_calls")
        k_info = get_component("kernel", kernel)
        # Kernels that publish work accounting (``hybrid``'s per-bin
        # counters) declare a ``make_stats`` factory on their wrapper;
        # collection is tracer-gated so the default path allocates
        # nothing extra.
        make_stats = getattr(k_info.factory, "make_stats", None)
        tracer = ctx.tracer
        if make_stats is not None and tracer is not None and tracer.enabled:
            stats = make_stats()
            C = k_info.factory(operand, B, stats=stats, **kernel_params)
            for name, value in stats.counters().items():
                ctx.bump(name, value)
            return C
        return k_info.factory(operand, B, **kernel_params)
