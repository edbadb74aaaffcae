"""``repro.backends`` — the execution-backend API.

One :class:`ExecutionBackend` contract, four built-in backends behind it:

============  ========================================================
``reference``  the pure-python registry kernels — the bitwise oracle
``scipy``      native CSR matmul fast path (allclose, exact zeros dropped)
``vectorized`` numpy batch-cluster numeric phase (bitwise, ``cluster``)
``sharded``    process-pool row/cluster shards over any inner backend
============  ========================================================

Backends are registry components (``kind="backend"``), so they share the
parameter-schema machinery, spec addressing (``rcm+fixed:8+cluster@scipy``,
``...@sharded:workers=4,inner=scipy``) and planner capability queries
with reorderings/clusterings/kernels.  :func:`execute` is the **single
kernel-dispatch path** of the codebase — both
:meth:`~repro.pipeline.spec.BuiltPipeline.execute` and
:meth:`~repro.engine.engine.SpGEMMEngine` route through it.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from .base import ExecutionBackend, ExecutionContext
from .reference import ReferenceBackend
from .scipy_backend import ScipyBackend, scipy_available
from .sharded import ShardedBackend, ShardOperand
from .vectorized import VectorizedBackend, vectorized_cluster_spgemm

__all__ = [
    "ExecutionBackend",
    "ExecutionContext",
    "ReferenceBackend",
    "ScipyBackend",
    "VectorizedBackend",
    "ShardedBackend",
    "ShardOperand",
    "vectorized_cluster_spgemm",
    "scipy_available",
    "BUILTIN_BACKENDS",
    "register_builtin_backends",
    "get_backend",
    "parse_backend",
    "backend_supports",
    "require_backend_supports",
    "execute",
    "time_execution",
]

#: Built-in backend classes, in planner-preference order.  ``scipy`` is
#: included only when importable — a scipy-less environment keeps a
#: valid, reference-only registry.
BUILTIN_BACKENDS: tuple[type[ExecutionBackend], ...] = tuple(
    cls
    for cls in (ReferenceBackend, ScipyBackend, VectorizedBackend, ShardedBackend)
    if cls is not ScipyBackend or scipy_available()
)


def register_builtin_backends() -> None:
    """Register the built-in backends into the pipeline registry.

    Called by :func:`repro.pipeline.builtin.register_builtin` during the
    registry bootstrap; idempotent against double registration is not
    needed (the bootstrap runs once).
    """
    from ..pipeline.builtin import _introspect_params
    from ..pipeline.registry import ComponentInfo, register_component

    for cls in BUILTIN_BACKENDS:
        probe = cls()  # capability defaults for the registry entry
        register_component(
            ComponentInfo(
                name=cls.name,
                kind="backend",
                factory=cls,
                params=_introspect_params(cls.__init__),
                supported_kernels=probe.supported_kernels,
                bitwise_reference=probe.bitwise_reference,
                parallelism=cls.parallelism,
                model_speed_factor=cls.model_speed_factor,
                planner_rank=cls.planner_rank,
                description=cls.description,
            )
        )


# ----------------------------------------------------------------------
# Instance resolution
# ----------------------------------------------------------------------
_INSTANCES: dict[tuple[str, tuple[tuple[str, Any], ...]], ExecutionBackend] = {}


def _canonical(name: str, params) -> tuple[str, tuple[tuple[str, Any], ...]]:
    from ..pipeline import get_component

    info = get_component("backend", name)
    if isinstance(params, Mapping):
        params = tuple(params.items())
    return info.name, info.canonical_params(tuple(params))


def get_backend(name: str, params: "Iterable[tuple[str, Any]] | Mapping[str, Any]" = ()) -> ExecutionBackend:
    """Resolve one backend instance (memoised per canonical parameters).

    ``params`` follows the same ``(name, value)`` convention as spec
    parameters; defaults come from the backend's ``__init__`` schema.
    Unknown names raise ``KeyError`` listing the registered backends.
    """
    from ..pipeline import get_component

    name, canon = _canonical(name, params)
    inst = _INSTANCES.get((name, canon))
    if inst is None:
        info = get_component("backend", name)
        inst = info.factory(**info.resolve_params(canon))
        _INSTANCES[(name, canon)] = inst
    return inst


def parse_backend(value) -> tuple[str, tuple[tuple[str, Any], ...]]:
    """Parse a backend reference into ``(name, canonical_params)``.

    Accepts a bare name (``"scipy"``), a spec-style segment
    (``"sharded:workers=4,inner=scipy"``), or an already-split
    ``(name, params)`` pair.
    """
    from ..pipeline import get_component

    if isinstance(value, tuple):
        name, params = value
        return _canonical(str(name), params)
    text = str(value).strip()
    name, _, ptext = text.partition(":")
    info = get_component("backend", name.strip())
    return _canonical(info.name, info.parse_params_text(ptext))


def backend_supports(name: str, params, kernel: str) -> bool:
    """Whether backend ``name`` (with ``params``) can execute ``kernel``.

    Instance-level: composite backends (``sharded``) answer from their
    inner backend, which the static registry entry cannot know.
    """
    return get_backend(name, params).supports_kernel(kernel)


def require_backend_supports(name: str, params, kernel: str) -> None:
    """The one backend–kernel compatibility gate: raise a uniform
    ``ValueError`` when the backend cannot execute the kernel.

    Shared by spec construction, plan validation and :func:`execute`.
    """
    be = get_backend(name, params)
    if not be.supports_kernel(kernel):
        supported = be.supported_kernels
        raise ValueError(
            f"backend {name!r} does not support kernel {kernel!r}"
            + (f"; supported kernels: {list(supported)}" if supported is not None else "")
        )


# ----------------------------------------------------------------------
# The one kernel-dispatch path
# ----------------------------------------------------------------------
def execute(
    operand,
    B,
    *,
    kernel: str,
    kernel_params: Mapping[str, Any] | None = None,
    backend: str = "reference",
    backend_params: "Iterable[tuple[str, Any]] | Mapping[str, Any]" = (),
    cfg: Any = None,
    ctx: ExecutionContext | None = None,
    original_order: bool = False,
):
    """Execute ``kernel`` on a prepared operand through ``backend``.

    This is the single execution path of the codebase: pipeline
    ``run()``/``execute()`` and the engine both dispatch here, so a new
    backend (or kernel) is runnable everywhere the moment it registers.
    Returns the product in the *operand's* row order by default;
    ``original_order=True`` returns it in the original row order
    (``operand.inv`` applied) through
    :meth:`~ExecutionBackend.execute_original_order`.
    """
    require_backend_supports(backend, backend_params, kernel)
    be = get_backend(backend, backend_params)
    if ctx is None:
        ctx = ExecutionContext(cfg=cfg)
    run = be.execute_original_order if original_order else be.execute
    kernel_params = dict(kernel_params or {})
    tracer = ctx.tracer
    if tracer is not None and tracer.enabled:
        with tracer.span("backend.execute", backend=backend, kernel=kernel):
            return run(operand, B, kernel=kernel, kernel_params=kernel_params, ctx=ctx)
    return run(operand, B, kernel=kernel, kernel_params=kernel_params, ctx=ctx)


def time_execution(built, B, backend_ref: "str | tuple", *, reps: int = 3) -> float:
    """Best-of-``reps`` wall-clock seconds executing a built pipeline.

    The shared micro-benchmark primitive behind
    :class:`~repro.engine.adaptive.BackendCalibrator` and the backend
    benches: ``built`` is a :class:`~repro.pipeline.spec.BuiltPipeline`
    (preparation is the amortised one-off the engine ledgers separately,
    so only execution is timed), and one warm-up execution runs first so
    imports / process pools never pollute a timing.
    """
    import time as _time

    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    name, params = parse_backend(backend_ref)
    spec = built.spec
    kernel_params = spec.kernel_info.resolve_params(spec.kernel_params, None)
    ctx = ExecutionContext()
    execute(built, B, kernel=spec.kernel, kernel_params=kernel_params,
            backend=name, backend_params=params, ctx=ctx)
    import math as _math

    best = _math.inf
    for _ in range(reps):
        t0 = _time.perf_counter()
        execute(built, B, kernel=spec.kernel, kernel_params=kernel_params,
                backend=name, backend_params=params, ctx=ctx)
        best = min(best, _time.perf_counter() - t0)
    return best
