"""``repro.backends`` — the execution-backend API.

One :class:`ExecutionBackend` contract, two built-in backends behind it:

=============  =======================================================
``scipy``      native CSR matmul — the engine's default backend
``reference``  the pure-python registry kernels — the tests' oracle
=============  =======================================================

Both return products bitwise-equal to
:func:`~repro.core.spgemm.spgemm_rowwise` once exact-zero sums are
dropped, NaN entries matched by position (see :mod:`.base`).

Backends are registry components (``kind="backend"``), so they share the
parameter-schema machinery and spec addressing
(``rcm+fixed:8+cluster@scipy``) with reorderings/clusterings/kernels.
:func:`execute_many` is the **single kernel-dispatch path** of the
codebase: it hands a whole batch of products on one operand to the
backend's :meth:`~ExecutionBackend.execute_many`.  A right operand of
``None`` stands for the operand's own source (``operand.A``): the engine
passes it for every ``A²``.
:class:`~repro.engine.engine.SpGEMMEngine` calls it directly;
:func:`execute`, which :meth:`~repro.pipeline.spec.BuiltPipeline.execute`
routes through, is its batch of one.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from ..pipeline.registry import (
    ComponentInfo,
    _introspect_params,
    available_components,
    get_component,
    register_component,
)
from .base import ExecutionBackend, ExecutionContext
from .reference import ReferenceBackend
from .scipy_backend import ScipyBackend, scipy_available

__all__ = [
    "ExecutionBackend",
    "ExecutionContext",
    "ReferenceBackend",
    "ScipyBackend",
    "scipy_available",
    "BUILTIN_BACKENDS",
    "register_builtin_backends",
    "get_backend",
    "parse_backend",
    "default_backend",
    "execute",
    "execute_many",
    "time_execution",
]

#: Built-in backend classes, in registration order.  ``scipy`` is
#: included only when importable — a scipy-less environment keeps a
#: valid, reference-only registry.
BUILTIN_BACKENDS: tuple[type[ExecutionBackend], ...] = tuple(
    cls
    for cls in (ReferenceBackend, ScipyBackend)
    if cls is not ScipyBackend or scipy_available()
)


def register_builtin_backends() -> None:
    """Register the built-in backends into the pipeline registry.

    Called by :func:`repro.pipeline.builtin.register_builtin` during the
    registry bootstrap; idempotent against double registration is not
    needed (the bootstrap runs once).
    """
    for cls in BUILTIN_BACKENDS:
        register_component(
            ComponentInfo(
                name=cls.name,
                kind="backend",
                factory=cls,
                params=_introspect_params(cls.__init__),
                description=cls.description,
            )
        )


# ----------------------------------------------------------------------
# Instance resolution
# ----------------------------------------------------------------------
_INSTANCES: dict[tuple[str, tuple[tuple[str, Any], ...]], ExecutionBackend] = {}


def _canonical(name: str, params) -> tuple[str, tuple[tuple[str, Any], ...]]:
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
    # A spec's backend parameters are already canonical: a warm lookup
    # finds them in the memo without canonicalising them again.
    inst = _INSTANCES.get((name, params)) if isinstance(params, tuple) else None
    if inst is not None:
        return inst
    name, canon = _canonical(name, params)
    inst = _INSTANCES.get((name, canon))
    if inst is None:
        info = get_component("backend", name)
        inst = info.factory(**info.resolve_params(canon))
        _INSTANCES[(name, canon)] = inst
    return inst


#: What ``backend="auto"`` resolves to.  ``scipy`` runs every kernel and
#: was the fastest, so a search over backends always picked it; ``auto``
#: is kept as its alias.
AUTO_BACKEND = "scipy"


def parse_backend(value) -> tuple[str, tuple[tuple[str, Any], ...]]:
    """Parse a backend reference into ``(name, canonical_params)``.

    Accepts a bare name (``"scipy"``), a spec-style segment
    (``"name:param=value"``), or an already-split ``(name, params)``
    pair.  ``"auto"`` is an alias of :data:`AUTO_BACKEND`; it raises
    ``ValueError`` when that backend is not registered.
    """
    if isinstance(value, tuple):
        name, params = value
        return _canonical(_unalias(str(name)), params)
    text = str(value).strip()
    name, _, ptext = text.partition(":")
    info = get_component("backend", _unalias(name.strip()))
    return _canonical(info.name, info.parse_params_text(ptext))


def _unalias(name: str) -> str:
    """Resolve ``"auto"`` to :data:`AUTO_BACKEND`; other names pass."""
    if name != "auto":
        return name
    try:
        get_component("backend", AUTO_BACKEND)
    except KeyError:
        raise ValueError(
            f"backend 'auto' is an alias of {AUTO_BACKEND!r}, which is not installed"
        ) from None
    return AUTO_BACKEND


def default_backend() -> tuple[str, tuple[tuple[str, Any], ...]]:
    """What ``backend=None`` plans on: :data:`AUTO_BACKEND` (``scipy``)
    when it is registered, else ``reference``, so a scipy-less registry
    stays valid."""
    if AUTO_BACKEND in available_components("backend"):
        return AUTO_BACKEND, ()
    return "reference", ()


# ----------------------------------------------------------------------
# The one kernel-dispatch path
# ----------------------------------------------------------------------
def execute(
    operand,
    B,
    *,
    kernel: str,
    kernel_params: Mapping[str, Any] | None = None,
    backend: "str | ExecutionBackend" = "reference",
    backend_params: "Iterable[tuple[str, Any]] | Mapping[str, Any]" = (),
    cfg: Any = None,
    ctx: ExecutionContext | None = None,
    original_order: bool = False,
):
    """Execute ``kernel`` on a prepared operand through ``backend``: a
    batch of one through :func:`execute_many`, the single execution path
    of the codebase (pipeline ``run()``/``execute()`` dispatch here, the
    engine there), so a new backend (or kernel) is runnable everywhere
    the moment it registers.
    Returns the product in the *operand's* row order by default;
    ``original_order=True`` returns it in the original row order
    (``operand.inv`` applied).  ``backend`` is a registry name (resolved
    through :func:`get_backend`; then ``backend_params`` applies) or an
    already-resolved instance.
    """
    return execute_many(
        operand,
        [B],
        kernel=kernel,
        kernel_params=kernel_params,
        backend=backend,
        backend_params=backend_params,
        cfg=cfg,
        ctx=ctx,
        original_order=original_order,
    )[0]


def execute_many(
    operand,
    Bs,
    *,
    kernel: str,
    kernel_params: Mapping[str, Any] | None = None,
    backend: "str | ExecutionBackend" = "reference",
    backend_params: "Iterable[tuple[str, Any]] | Mapping[str, Any]" = (),
    cfg: Any = None,
    ctx: ExecutionContext | None = None,
    original_order: bool = False,
) -> list:
    """The products ``operand @ B`` for every ``B`` in ``Bs`` (``None``
    for ``operand.A``), in input order, through one
    :meth:`~ExecutionBackend.execute_many` call; arguments as
    :func:`execute`.

    The backend may run the batch's products on more than one thread
    (``scipy`` does for large batches with no square, DESIGN.md §10);
    the one ``backend.execute`` span of the batch is tagged with its
    product and thread counts.
    """
    be = backend if isinstance(backend, ExecutionBackend) else get_backend(backend, backend_params)
    ctx = ExecutionContext(cfg=cfg) if ctx is None else ctx
    Bs = list(Bs)
    kernel_params = dict(kernel_params or {})
    tracer = ctx.tracer
    if tracer is not None and tracer.enabled:
        with tracer.span("backend.execute", backend=be.name, kernel=kernel, products=len(Bs)) as span:
            Cs, threads = be.execute_many(
                operand, Bs, kernel=kernel, kernel_params=kernel_params, ctx=ctx, original_order=original_order
            )
            span.tag(threads=threads)
            return Cs
    return be.execute_many(
        operand, Bs, kernel=kernel, kernel_params=kernel_params, ctx=ctx, original_order=original_order
    )[0]


def time_execution(built, B, backend_ref: "str | tuple", *, reps: int = 3) -> float:
    """Best-of-``reps`` wall-clock seconds executing a built pipeline.

    The shared micro-benchmark primitive of the backend benches:
    ``built`` is a :class:`~repro.pipeline.spec.BuiltPipeline`
    (preparation is the amortised one-off the engine ledgers separately,
    so only execution is timed), and one warm-up execution runs first so
    imports never pollute a timing.
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
