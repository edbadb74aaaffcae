"""``repro.engine`` — auto-tuning SpGEMM execution engine.

The engine turns the repository's measurement machinery into a runtime:
:class:`SpGEMMEngine` fingerprints operands, selects a
:class:`~repro.pipeline.spec.PipelineSpec` (reordering, clustering,
kernel, backend) via a pluggable planner policy, caches the resulting
:class:`ExecutionPlan` keyed by sparsity pattern and the built operand
(:class:`~repro.pipeline.spec.BuiltPipeline`) keyed by values, executes
it through :mod:`repro.backends`, amortises preprocessing across
repeated multiplies, and accounts for when the investment breaks even
(paper Fig. 10 / Table 4, §5 future work).  See DESIGN.md §6 and §10.
"""

from .engine import EngineStats, SpGEMMEngine
from .fingerprint import MatrixFingerprint, fingerprint, value_digest
from .plan import ExecutionPlan
from .plan_cache import PlanCache, plan_cache_dir
from .planner import (
    AutotunePlanner,
    HeuristicPlanner,
    PipelinePlanner,
    Planner,
    default_candidates,
    make_planner,
    planner_reorderings,
)

__all__ = [
    "SpGEMMEngine",
    "EngineStats",
    "ExecutionPlan",
    "PlanCache",
    "plan_cache_dir",
    "MatrixFingerprint",
    "fingerprint",
    "value_digest",
    "Planner",
    "HeuristicPlanner",
    "AutotunePlanner",
    "PipelinePlanner",
    "default_candidates",
    "make_planner",
    "planner_reorderings",
]
