"""The ``reference`` backend — the bitwise correctness oracle.

Dispatches to the registered pure-python kernel components
(:mod:`repro.pipeline.builtin`), which are the paper's algorithms
implemented exactly as written.  The tests validate every other backend
against this one under the contract of :mod:`repro.backends.base`.
"""

from __future__ import annotations

from typing import Any, ClassVar

from .base import ExecutionBackend, ExecutionContext

__all__ = ["ReferenceBackend"]


class ReferenceBackend(ExecutionBackend):
    """Pure-python kernels via the pipeline registry (the oracle)."""

    name: ClassVar[str] = "reference"
    description: ClassVar[str] = "pure-python registry kernels (the bitwise correctness oracle)"

    def execute_many(
        self,
        operand: Any,
        Bs: list,
        *,
        kernel: str,
        kernel_params: dict[str, Any],
        ctx: ExecutionContext,
        original_order: bool = False,
    ) -> tuple[list, int]:
        """The registered kernel on every product (``operand.A`` for a
        ``B`` of ``None``), one after another in the calling thread; the
        rows gathered through ``operand.inv`` afterwards when
        ``original_order`` is set."""
        from ..pipeline import get_component

        run = get_component("kernel", kernel).factory
        inv = operand.inv if original_order else None
        Cs = []
        for B in Bs:
            ctx.bump("reference_calls")
            C = run(operand, operand.A if B is None else B, **kernel_params)
            Cs.append(C if inv is None else C.permute_rows(inv))
        return Cs, 1
