"""``repro.pipeline`` — the unified pipeline-spec API.

One registry for reorderings, clusterings, kernels and execution
backends (:mod:`repro.pipeline.registry`), and one declarative way to
name a SpGEMM configuration (:class:`PipelineSpec`)::

    from repro.pipeline import PipelineSpec

    spec = PipelineSpec.parse("rcm+hierarchical:max_th=8+cluster")
    assert PipelineSpec.parse(str(spec)) == spec      # round-trippable
    C = spec.run(A)         # bitwise-identical to spgemm_rowwise(A, A)
    C = PipelineSpec.parse("rcm@scipy").run(A)  # native backend: reads the order only

The engine's planners enumerate their candidate space from registry
capability queries, the sweep runner executes specs, and the CLI accepts
``--pipeline`` strings — this module is the single source of truth for
what can compose with what (DESIGN.md §9).
"""

from .registry import (
    KINDS,
    ComponentInfo,
    KernelBackend,
    ParamSpec,
    available_components,
    components,
    find_component,
    get_component,
    register_component,
)
from .spec import BuiltPipeline, PipelineSpec, enumerate_compatible

__all__ = [
    "KINDS",
    "ParamSpec",
    "ComponentInfo",
    "KernelBackend",
    "register_component",
    "get_component",
    "find_component",
    "available_components",
    "components",
    "PipelineSpec",
    "BuiltPipeline",
    "enumerate_compatible",
    "describe",
]


def describe() -> str:
    """Human-readable registry listing (one line per component)."""
    lines = []
    for kind in KINDS:
        lines.append(f"{kind}s:")
        for info in components(kind):
            tags = []
            if info.square_only:
                tags.append("square-only")
            if info.embeds_reordering:
                tags.append("embeds-reordering")
            if info.requires_clustering:
                tags.append("requires-clustering")
            if info.kind == "backend":
                if info.bitwise_reference:
                    tags.append("bitwise")
                if info.supported_kernels is not None:
                    tags.append("kernels:" + ",".join(info.supported_kernels))
            if info.planner_rank is not None:
                tags.append(f"planner#{info.planner_rank}")
            if info.family not in ("", "other"):
                tags.append(info.family)
            params = ",".join(p.name for p in info.params)
            suffix = f" [{' '.join(tags)}]" if tags else ""
            psuffix = f" ({params})" if params else ""
            lines.append(f"  {info.name}{psuffix}{suffix} — {info.description}")
    return "\n".join(lines)
