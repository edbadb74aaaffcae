"""The execution-backend contract: :class:`ExecutionBackend` +
:class:`ExecutionContext`.

A *backend* is how a planned SpGEMM configuration actually runs.  The
paper's thesis — restructure the same computation for locality — is
backend-independent: a pipeline names *what* to compute (reordering,
clustering, kernel dataflow), the backend names *how* (pure-python
reference loops, scipy's native CSR matmul, a numpy-batched numeric
phase).  Separating the two is what lets
the engine run "as fast as the hardware allows" (ROADMAP) while keeping
one correctness oracle.

Contract
--------
``backend.execute(operand, B, kernel=..., kernel_params=..., ctx=...)``
returns the product **in the operand's row order**, exactly like the
:class:`~repro.pipeline.registry.KernelBackend` protocol the kernels
satisfy.  ``backend.execute_many(operand, Bs, ..., original_order=)``
runs a batch of products on one operand and returns them in input
order, with the number of threads that ran them; ``original_order=True``
returns each in the *original* row order (``operand.inv`` applied).  It
is the only method the dispatchers call.  Its default loops over
``execute`` in the calling thread and applies ``operand.inv`` itself; a
backend overrides it when it can fold the un-permute into its own output
assembly or run the batch's products side by side (``scipy``, whose
``execute`` is a batch of one).

Backends whose :attr:`~ExecutionBackend.bitwise_reference` capability is
``True`` reproduce the *sparsity pattern* of row-wise SpGEMM exactly
(including structural zeros from numeric cancellation) and preserve
each output row's floating-point summation order, so their values are
bit-identical to :func:`~repro.core.spgemm.spgemm_rowwise`.  The
non-bitwise ``scipy`` backend guarantees ``allclose`` values on the
row-wise pattern minus entries that cancel to exactly ``0.0`` — the
contract of raw ``scipy.sparse``.

Capabilities are declared class-level (they feed the registry's
:class:`~repro.pipeline.registry.ComponentInfo` entry) and answered
per instance (:attr:`~ExecutionBackend.supported_kernels`,
:attr:`~ExecutionBackend.bitwise_reference`,
:attr:`~ExecutionBackend.honours_kernel`).
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, ClassVar

__all__ = ["ExecutionBackend", "ExecutionContext"]


@dataclass
class ExecutionContext:
    """Per-execution config, statistics and digest hints, threaded through
    dispatch.

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
    operand_tokens:
        Digest hints installed by the engine: ``id(operand) →
        "pattern:value"`` token (the same digests its plan/operand
        cache keys use), scoped to the current call.  The engine hints
        every ``A²`` product (``B is A``); ``scipy`` keys its recorded
        product structure by them.  An absent entry means an unhinted
        product.
    tracer:
        Optional :class:`~repro.obs.Tracer`: when set (and enabled),
        :func:`repro.backends.execute_many` wraps each dispatch in a
        ``backend.execute`` span tagged with backend, kernel, product
        and thread counts — the per-backend phase timing of DESIGN.md
        §12.  ``None`` (default) keeps dispatch span-free.
    """

    cfg: Any = None
    stats: dict[str, int] = field(default_factory=dict)
    operand_tokens: dict[int, str] = field(default_factory=dict)
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
    def bitwise_reference(self) -> bool:
        """Results are bit-identical to the ``reference`` backend."""
        return False

    @property
    def supported_kernels(self) -> tuple[str, ...] | None:
        """Kernel names this backend can execute (``None`` = all)."""
        return None

    @property
    def honours_kernel(self) -> bool:
        """The plan's kernel (and its ``CSR_Cluster`` operand) reaches
        execution.  ``False`` for a backend that runs every kernel as
        the same product over ``operand.Ar``: only ``Ar``'s row order
        changes its result, so planners search reorderings alone there."""
        return True

    def supports_kernel(self, kernel: str) -> bool:
        supported = self.supported_kernels
        return supported is None or kernel in supported

    # -- execution ------------------------------------------------------
    @abstractmethod
    def execute(
        self,
        operand: Any,
        B: Any,
        *,
        kernel: str,
        kernel_params: dict[str, Any],
        ctx: ExecutionContext,
    ) -> Any:
        """Run ``kernel`` on the prepared ``operand`` against ``B``.

        ``operand`` satisfies the
        :class:`~repro.pipeline.registry.ClusteredOperand` protocol
        (``Ar`` always, ``Ac`` when the pipeline clustered).  Returns
        canonical CSR in the operand's row order.
        """

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
        """Run the products ``operand @ B`` for every ``B`` in ``Bs``
        through :meth:`execute`, in the original row order
        (``operand.inv`` applied, when present) if ``original_order`` is
        set.  Returns the products in input order and the number of
        threads that ran them (1: one after another in the calling
        thread)."""
        Cs = [self.execute(operand, B, kernel=kernel, kernel_params=kernel_params, ctx=ctx) for B in Bs]
        inv = getattr(operand, "inv", None) if original_order else None
        return (Cs if inv is None else [C.permute_rows(inv) for C in Cs]), 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
