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
        return get_component("kernel", kernel).factory(operand, B, **kernel_params)
