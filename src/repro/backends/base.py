"""The execution-backend contract: :class:`ExecutionBackend` +
:class:`ExecutionContext`.

A *backend* is how a planned SpGEMM configuration actually runs.  The
paper's thesis — restructure the same computation for locality — is
backend-independent: a pipeline names *what* to compute (reordering,
clustering, kernel dataflow), the backend names *how* (scipy's native
CSR matmul, or the pure-python reference loops).  Separating the two is
what lets the engine run "as fast as the hardware allows" (ROADMAP)
while keeping one correctness oracle.

Contract
--------
A backend has one method.  ``backend.execute_many(operand, Bs,
kernel=..., kernel_params=..., ctx=..., original_order=)`` runs a batch
of products on one prepared operand (a
:class:`~repro.pipeline.spec.BuiltPipeline`) and returns them in input
order, with the number of threads that ran them.  Each product is in the
**operand's row order**, exactly like the
:class:`~repro.pipeline.registry.KernelBackend` protocol the kernels
satisfy, or with ``original_order=True`` in the *original* row order
(``operand.inv`` applied).  A right operand of ``None`` stands for the
operand's own source, ``operand.A``: the engine passes it for every
``A²`` product, so a backend may square data it owns (``scipy`` records
that square's structure) instead of trusting a caller's ``B``.
``reference`` runs the products one after another and gathers the rows
afterwards; ``scipy`` folds the un-permute into its own output assembly
and may run a batch's products side by side.
:func:`repro.backends.execute` is the batch of one.

Every backend returns a product **bitwise-equal to**
:func:`~repro.core.spgemm.spgemm_rowwise` **once exact-zero sums are
dropped, with NaN entries matched by position**: the same pattern minus
entries whose products cancel to exactly ``0.0`` (or ``-0.0``), and the
same bits in every non-NaN value.  Each output entry adds its products in
the order of the left operand's stored row entries — the row-wise
(Gustavson) order, which scipy's ``csr_matmat`` follows too — and a
row permutation moves whole rows, so that order survives every plan.
``reference`` keeps the exact-zero entries; ``scipy`` drops them, as raw
``scipy.sparse`` does.  A NaN's sign and payload are not part of the
contract: they differ between backends where NaNs of both signs, or an
``inf * 0``, meet in one sum.

The one capability a backend declares is
:attr:`~ExecutionBackend.honours_kernel`.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, ClassVar

__all__ = ["ExecutionBackend", "ExecutionContext"]


@dataclass
class ExecutionContext:
    """Per-execution config and statistics, threaded through dispatch.

    One context can span many executions (the engine keeps a long-lived
    one), so backends *accumulate* into :attr:`stats` rather than
    overwrite.

    Attributes
    ----------
    cfg:
        Optional :class:`~repro.experiments.config.ExperimentConfig`
        supplying parameter defaults.
    stats:
        Counter dict (``{"scipy_calls": 3, "reference_calls": 8, ...}``);
        use :meth:`bump`, which is atomic: a serving engine's dispatch
        and caller threads share one context.
    tracer:
        Optional :class:`~repro.obs.Tracer`: when set (and enabled),
        :func:`repro.backends.execute_many` wraps each dispatch in a
        ``backend.execute`` span tagged with backend, kernel, product
        and thread counts — the per-backend phase timing of DESIGN.md
        §12.  ``None`` (default) keeps dispatch span-free.
    """

    cfg: Any = None
    stats: dict[str, int] = field(default_factory=dict)
    tracer: Any = None

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def bump(self, key: str, n: int = 1) -> None:
        """Accumulate a named counter atomically (a read-modify-write of
        ``stats`` drops updates under contention)."""
        with self._lock:
            self.stats[key] = self.stats.get(key, 0) + n


class ExecutionBackend(ABC):
    """One way of executing a planned SpGEMM configuration.

    Class attributes declare the registry capabilities; see the module
    docstring for the execution contract.  Instances may be
    parameterised: the parameter schema is introspected from
    ``__init__`` keyword defaults exactly like kernel/clustering
    components, so backends are spec-addressable
    (``...@name:param=value``).
    """

    #: Registry name (unique across every component kind).
    name: ClassVar[str] = "base"
    #: One-line summary for ``repro.pipeline.describe()``.
    description: ClassVar[str] = ""

    # -- capabilities (instance-level) ------------------------------------
    @property
    def honours_kernel(self) -> bool:
        """The plan's kernel (and its ``CSR_Cluster`` operand) reaches
        execution.  ``False`` for a backend that runs every kernel as
        the same product over ``operand.Ar``: only ``Ar``'s row order
        changes its result, so planners search reorderings alone there."""
        return True

    # -- execution ------------------------------------------------------
    @abstractmethod
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
        """Run ``kernel`` on the prepared ``operand`` against every ``B``
        in ``Bs`` (``operand.A`` for a ``B`` of ``None``).

        ``operand`` is a :class:`~repro.pipeline.spec.BuiltPipeline`
        (``Ar`` always, ``Ac`` when the pipeline clustered, ``inv`` when
        it permuted).  Returns the products as canonical CSR in input
        order — in the operand's row order, or the original one when
        ``original_order`` is set — and the number of threads that ran
        them.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
