"""``repro.engine`` — auto-tuning SpGEMM execution engine (serving layer).

The engine turns the repository's measurement machinery into a runtime:
:class:`SpGEMMEngine` fingerprints operands, selects a
(reordering, clustering, kernel, backend) configuration via a pluggable
planner policy, caches the resulting :class:`ExecutionPlan` keyed by
sparsity pattern, executes it through :mod:`repro.backends`, amortises
preprocessing across repeated multiplies, and accounts for when the
investment breaks even (paper Fig. 10 / Table 4, §5 future work).  See
DESIGN.md §6 and §10.
"""

from .engine import EngineStats, SpGEMMEngine
from .fingerprint import MatrixFingerprint, fingerprint, value_digest
from .plan import ExecutionPlan
from .plan_cache import PlanCache, plan_cache_dir
from .planner import (
    AutotunePlanner,
    Candidate,
    HeuristicPlanner,
    PipelinePlanner,
    Planner,
    PredictorPlanner,
    PreparedOperand,
    default_candidates,
    default_training_corpus,
    make_planner,
    planner_reorderings,
    prepare_candidate,
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
    "PredictorPlanner",
    "AutotunePlanner",
    "PipelinePlanner",
    "Candidate",
    "PreparedOperand",
    "default_candidates",
    "default_training_corpus",
    "make_planner",
    "planner_reorderings",
    "prepare_candidate",
]
