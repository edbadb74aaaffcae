"""repro — reproduction of *Improving SpGEMM Performance Through Matrix
Reordering and Cluster-wise Computation* (Islam, Xu, Dai, Buluç; SC 2025,
arXiv:2507.21253).

The package is organised bottom-up (see DESIGN.md):

* :mod:`repro.core` — CSR / CSR_Cluster formats and SpGEMM kernels.
* :mod:`repro.clustering` — fixed, variable and hierarchical clustering.
* :mod:`repro.reordering` — the 10 reordering algorithms of Table 1.
* :mod:`repro.machine` — cache/cost model and simulated parallel machine.
* :mod:`repro.matrices` — synthetic SuiteSparse-analog suite + MM I/O.
* :mod:`repro.workloads` — A² and tall-skinny (BC frontier) workloads.
* :mod:`repro.analysis` — metrics, performance profiles, table renderers.
* :mod:`repro.experiments` — sweep orchestration for every table/figure.
* :mod:`repro.engine` — auto-tuning execution engine with plan caching
  and amortised preprocessing (the serving layer).
* :mod:`repro.pipeline` — unified component registry + declarative
  :class:`PipelineSpec` (the one public way to name a configuration).
* :mod:`repro.backends` — execution backends behind one
  :class:`ExecutionBackend` contract (scipy / reference);
  the single kernel-dispatch path.
* :mod:`repro.obs` — zero-dependency tracing + metrics layer (spans,
  sinks, streaming percentiles); strictly opt-in, disabled by default.
"""

from .backends import ExecutionBackend, ExecutionContext
from .core import (
    COOMatrix,
    CSRCluster,
    CSRMatrix,
    cluster_spgemm,
    spgemm_rowwise,
    spgemm_topk_similarity,
)
from .engine import ExecutionPlan, SpGEMMEngine
from .obs import JsonlSink, RingSink, Tracer
from .pipeline import PipelineSpec

__version__ = "1.4.0"

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSRCluster",
    "spgemm_rowwise",
    "cluster_spgemm",
    "spgemm_topk_similarity",
    "SpGEMMEngine",
    "ExecutionPlan",
    "PipelineSpec",
    "ExecutionBackend",
    "ExecutionContext",
    "Tracer",
    "RingSink",
    "JsonlSink",
    "__version__",
]
