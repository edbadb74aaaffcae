"""Built-in pipeline components the registry bootstraps on its first
query: the kernels, the execution backends, and the imports that run the
reordering and clustering decorators.

* **Kernels** are :class:`~repro.pipeline.registry.KernelBackend`
  wrappers over :func:`~repro.core.spgemm.spgemm_rowwise`,
  :func:`~repro.core.cluster_spgemm.cluster_spgemm` and
  :func:`~repro.core.tiled_spgemm.tiled_spgemm`.  Each returns the
  product in the *operand's* row order and preserves per-row summation
  order, so any pipeline stays bitwise-identical to the row-wise
  reference after the final inverse gather.
* **Backends** come from :mod:`repro.backends`
  (:func:`~repro.backends.register_builtin_backends`): each
  :class:`~repro.backends.base.ExecutionBackend` class registers as a
  ``kind="backend"`` component with its capability tags, making backends
  spec-addressable (``…@scipy``).
* **Reorderings and clusterings** register themselves through their
  ``@register`` / ``@register_clustering`` decorators; the bootstrap only
  imports their packages.
"""

from __future__ import annotations

from .registry import ComponentInfo, _introspect_params, register_component

__all__ = ["register_builtin"]


# ----------------------------------------------------------------------
# Kernel backends (the KernelBackend protocol instances)
# ----------------------------------------------------------------------
def rowwise_kernel(operand, B, *, accumulator: str = "sort"):
    """Row-wise Gustavson SpGEMM on the prepared operand (the reference)."""
    from ..core.spgemm import spgemm_rowwise

    return spgemm_rowwise(operand.Ar, B, accumulator=accumulator)  # repro: allow[RA001] registry kernel wrapper: this IS the callable backends.execute dispatches


def cluster_kernel(operand, B):
    """Cluster-wise SpGEMM (paper Alg. 1) over the ``CSR_Cluster`` operand.

    ``restore_order=True`` scatters rows back to the operand's row order
    so the caller's single inverse gather restores the original order.
    """
    from ..core.cluster_spgemm import cluster_spgemm

    return cluster_spgemm(operand.Ac, B, restore_order=True)  # repro: allow[RA001] registry kernel wrapper: this IS the callable backends.execute dispatches


def tiled_kernel(operand, B, *, tile_cols: int = 256):
    """Column-tiled SpGEMM (paper §5 alternative dataflow)."""
    from ..core.tiled_spgemm import tiled_spgemm

    return tiled_spgemm(operand.Ar, B, tile_cols=tile_cols)  # repro: allow[RA001] registry kernel wrapper: this IS the callable backends.execute dispatches


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------
def register_builtin() -> None:
    """One-time bootstrap: kernels, execution backends, and the
    reordering and clustering packages."""
    # Importing the packages runs their registration decorators.
    import repro.clustering  # noqa: F401
    import repro.reordering  # noqa: F401

    # ``planner_rank`` puts a kernel in the planners' default candidate
    # space (rank order; ``rowwise`` first, so exact cost ties keep the
    # historical choice).
    register_component(
        ComponentInfo(
            name="rowwise",
            kind="kernel",
            factory=rowwise_kernel,
            params=_introspect_params(rowwise_kernel),
            planner_rank=0,
            description="row-wise Gustavson SpGEMM (two-phase; the bitwise reference)",
        )
    )
    register_component(
        ComponentInfo(
            name="cluster",
            kind="kernel",
            factory=cluster_kernel,
            params=_introspect_params(cluster_kernel),
            requires_clustering=True,
            planner_rank=1,
            description="cluster-wise SpGEMM over CSR_Cluster fibers (paper Alg. 1)",
        )
    )
    register_component(
        ComponentInfo(
            name="tiled",
            kind="kernel",
            factory=tiled_kernel,
            params=_introspect_params(tiled_kernel),
            description="column-tiled SpGEMM (paper §5 alternative dataflow)",
        )
    )
    # Execution backends register after the kernels they support.
    from ..backends import register_builtin_backends

    register_builtin_backends()
