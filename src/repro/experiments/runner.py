"""Experiment orchestration: one sweep powers every table and figure.

The sweep space is enumerated declaratively —
:meth:`ExperimentConfig.sweep_pipelines` yields one
:class:`~repro.pipeline.spec.PipelineSpec` per cell of the paper's
evaluation grid — and each spec is built once (reordering stages are
shared across the specs that extend them) and measured on the simulated
machine:

* row-wise SpGEMM on the original order (the universal baseline),
* row-wise SpGEMM after each reordering (Fig. 2, Fig. 9, Table 2 col 1),
* fixed- and variable-length cluster-wise SpGEMM after each reordering
  *and* on the original order (Fig. 3, Table 2 cols 2-3),
* hierarchical cluster-wise SpGEMM (Figs. 2, 3, 8),
* preprocessing work for every configuration (Fig. 10),
* CSR vs CSR_Cluster memory (Fig. 11).

:func:`run_pipeline` additionally executes a single spec for real —
actual kernels, output bitwise-identical to row-wise SpGEMM — alongside
its machine-model measurement, which is how arbitrary ``--pipeline``
strings flow through the experiments layer.

Results are plain dataclasses; :mod:`repro.experiments.cache` persists
them so the nine benches share one sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..clustering import hierarchical_clustering
from ..core.csr import CSRMatrix
from ..machine import SimulatedMachine
from ..machine.cost import CostModel
from ..matrices import get_matrix
from ..pipeline import BuiltPipeline, PipelineSpec
from ..reordering import reorder
from ..workloads import ASquareWorkload, bc_frontiers
from .config import ExperimentConfig

__all__ = [
    "RunRecord",
    "MatrixSweep",
    "PipelineRunResult",
    "run_matrix_sweep",
    "run_pipeline",
    "run_tallskinny_sweep",
    "TallSkinnyResult",
    "machine_for",
]


@dataclass
class RunRecord:
    """One (configuration, matrix) measurement."""

    time: float
    pre_time: float = 0.0  # preprocessing cost in model time units (Fig. 10)
    misses: int = 0
    work: int = 0

    def speedup_over(self, baseline_time: float) -> float:
        return baseline_time / self.time if self.time > 0 else float("inf")

    def amortization_iterations(self, baseline_time: float) -> float:
        """SpGEMM runs to amortise preprocessing (inf when no gain)."""
        gain = baseline_time - self.time
        return self.pre_time / gain if gain > 0 else float("inf")


@dataclass
class MatrixSweep:
    """All measurements for one matrix (the unit Figs. 2/3/10/11 consume)."""

    #: The per-reordering record tables keyed by clustering scheme — the
    #: result schema is pinned to these field names; other registered
    #: clusterings have no sweep slot (see ``_store_record``).
    CLUSTER_TABLES = ("fixed", "variable")

    name: str
    nrows: int
    nnz: int
    flops: int
    out_nnz: int
    baseline_time: float
    csr_bytes: int
    rowwise: dict[str, RunRecord] = field(default_factory=dict)  # per reordering
    fixed: dict[str, RunRecord] = field(default_factory=dict)  # per reordering (+ "original")
    variable: dict[str, RunRecord] = field(default_factory=dict)
    hierarchical: RunRecord | None = None
    hierarchical_rowwise: RunRecord | None = None  # hier. order used as pure reordering
    memory_ratio: dict[str, float] = field(default_factory=dict)  # method → bytes / CSR bytes

    def speedup(self, variant: str, algo: str) -> float:
        table = {"rowwise": self.rowwise, "fixed": self.fixed, "variable": self.variable}[variant]
        rec = table.get(algo)
        return rec.speedup_over(self.baseline_time) if rec else float("nan")


def machine_for(cfg: ExperimentConfig) -> SimulatedMachine:
    return SimulatedMachine(
        n_threads=cfg.n_threads,
        cache_lines=cfg.cache_lines,
        line_bytes=cfg.line_bytes,
        cost_model=CostModel(line_bytes=cfg.line_bytes),
    )


def _measure_spec(
    machine: SimulatedMachine, built: BuiltPipeline, out_nnz: int | None
) -> RunRecord:
    """Measure one built pipeline on the simulated machine.

    Cluster-kernel specs run the cluster-wise path over ``built.Ac`` with
    the *reordered* operand as ``B`` (the sweep's symmetric-mode
    convention); everything else runs row-wise over ``built.Ar``.
    """
    if built.spec.kernel_info.requires_clustering:
        res = machine.run_clusterwise(built.Ac, built.Ar, out_nnz=out_nnz)
    else:
        res = machine.run_rowwise(built.Ar, built.Ar, out_nnz=out_nnz)
    return RunRecord(
        res.time, built.pre_cost(machine.cost), res.cost.cache.misses, res.cost.work
    )


def _store_record(sweep: MatrixSweep, spec: PipelineSpec, rec: RunRecord) -> bool:
    """File a measurement into the sweep slot its spec names.

    Returns ``False`` for specs the legacy sweep structure has no slot
    for (e.g. a user-registered fourth clustering scheme) so callers can
    report rather than silently drop them.
    """
    algo = spec.reordering
    if spec.clustering is None:
        sweep.rowwise[algo] = rec
        return True
    if spec.clustering_info.embeds_reordering:
        if spec.kernel_info.requires_clustering:
            sweep.hierarchical = rec
        else:
            sweep.hierarchical_rowwise = rec
        return True
    if spec.clustering in MatrixSweep.CLUSTER_TABLES:
        getattr(sweep, spec.clustering)[algo] = rec
        return True
    return False


def run_matrix_sweep(
    name: str,
    cfg: ExperimentConfig,
    *,
    A: CSRMatrix | None = None,
    reorderings: tuple[str, ...] | None = None,
    with_clustering: bool = True,
) -> MatrixSweep:
    """Run the full ``A²`` sweep for one matrix.

    ``A`` may be supplied directly (examples/tests); otherwise the suite
    matrix ``name`` is built.  ``reorderings`` defaults to the config's
    list; pass a subset for the cheaper per-figure benches.  The sweep
    iterates the spec space of :meth:`ExperimentConfig.sweep_pipelines`,
    reusing each reordering (and clustering) stage across the specs that
    share it.
    """
    if A is None:
        A = get_matrix(name)
    wl = ASquareWorkload.of(A)
    machine = machine_for(cfg)

    base = machine.run_rowwise(A, A, out_nnz=wl.out_nnz)
    sweep = MatrixSweep(
        name=name,
        nrows=A.nrows,
        nnz=A.nnz,
        flops=wl.flops,
        out_nnz=wl.out_nnz,
        baseline_time=base.time,
        csr_bytes=A.memory_bytes(),
    )
    sweep.rowwise["original"] = RunRecord(base.time, 0, base.cost.cache.misses, base.cost.work)

    prev_built: BuiltPipeline | None = None
    for spec in cfg.sweep_pipelines(reorderings, with_clustering=with_clustering):
        if spec.reordering == "original" and spec.clustering is None:
            continue  # the baseline, measured above
        built = spec.build(A, seed=cfg.seed, mode="symmetric", cfg=cfg, base=prev_built)
        prev_built = built
        rec = _measure_spec(machine, built, wl.out_nnz)
        if not _store_record(sweep, spec, rec):
            import warnings

            warnings.warn(f"sweep has no result slot for pipeline {spec}; skipping", stacklevel=2)
            continue
        # CSR_Cluster memory vs CSR (Fig. 11) on the natural order.
        if built.Ac is not None and spec.reordering == "original":
            sweep.memory_ratio[spec.clustering] = built.Ac.memory_bytes() / sweep.csr_bytes
    return sweep


# ----------------------------------------------------------------------
# Single-pipeline execution (the --pipeline entry point)
# ----------------------------------------------------------------------
@dataclass
class PipelineRunResult:
    """One declarative pipeline, actually executed *and* measured.

    ``C`` is the real product — bitwise-identical to
    ``spgemm_rowwise(A, B)`` — and ``record`` / ``baseline_time`` the
    simulated-machine economics of the configuration.
    """

    spec: PipelineSpec
    C: CSRMatrix
    record: RunRecord
    baseline_time: float

    @property
    def speedup(self) -> float:
        return self.record.speedup_over(self.baseline_time)

    @property
    def amortization_iterations(self) -> float:
        return self.record.amortization_iterations(self.baseline_time)


def run_pipeline(
    name: str | CSRMatrix,
    spec: PipelineSpec | str,
    cfg: ExperimentConfig | None = None,
    *,
    B: CSRMatrix | None = None,
) -> PipelineRunResult:
    """Execute one pipeline spec through the experiments layer.

    ``name`` is a suite matrix name or a matrix; ``spec`` a
    :class:`~repro.pipeline.spec.PipelineSpec` or its string form.  The
    pipeline is built in ``rows`` mode and executed with the real
    kernels (so ``result.C`` is exact), then measured on the simulated
    machine against the row-wise baseline — the same accounting as the
    sweep's cells, for a configuration the sweep grid may not contain.
    """
    cfg = cfg or ExperimentConfig()
    spec = PipelineSpec.parse(spec)
    A = get_matrix(name) if isinstance(name, str) else name
    Bx = A if B is None else B
    machine = machine_for(cfg)

    built = spec.build(A, seed=cfg.seed, mode="rows", cfg=cfg)
    C = built.execute(Bx)

    base = machine.run_rowwise(A, Bx)
    if built.spec.kernel_info.requires_clustering:
        res = machine.run_clusterwise(built.Ac, Bx)
    else:
        res = machine.run_rowwise(built.Ar, Bx)
    rec = RunRecord(res.time, built.pre_cost(machine.cost), res.cost.cache.misses, res.cost.work)
    return PipelineRunResult(spec=spec, C=C, record=rec, baseline_time=base.time)


# ----------------------------------------------------------------------
# Tall-skinny workload (paper §4.4, Tables 3 & 4)
# ----------------------------------------------------------------------
@dataclass
class TallSkinnyResult:
    """Per-dataset tall-skinny measurements.

    ``rowwise_speedup[algo]`` — mean speedup over the frontier sequence of
    reordered row-wise SpGEMM vs original order (Table 3).
    ``hierarchical_speedup[i]`` — hierarchical cluster-wise vs row-wise,
    per frontier iteration (Table 4).
    """

    name: str
    rowwise_speedup: dict[str, float] = field(default_factory=dict)
    hierarchical_speedup: list[float] = field(default_factory=list)


def run_tallskinny_sweep(
    name: str,
    cfg: ExperimentConfig,
    *,
    A: CSRMatrix | None = None,
    batch: int = 96,
    depth: int = 10,
    reorderings: tuple[str, ...] | None = None,
) -> TallSkinnyResult:
    """Tall-skinny sweep: ``A × F_i`` over the first ``depth`` BC frontiers."""
    if A is None:
        A = get_matrix(name)
    machine = machine_for(cfg)
    algos = cfg.reorderings if reorderings is None else reorderings
    frontiers = bc_frontiers(A, batch=batch, depth=depth, seed=cfg.seed)

    # Baseline: original order, row-wise, per frontier.
    base_times = []
    for F in frontiers.frontiers:
        res = machine.run_rowwise(A, F, out_nnz=None)
        base_times.append(res.time)
    base_times = np.array(base_times)

    out = TallSkinnyResult(name=name)
    for algo in algos:
        r = reorder(A, algo, seed=cfg.seed)
        Ar = A.permute_symmetric(r.perm)
        Fs = frontiers.aligned(r.perm)
        ts = []
        for F in Fs.frontiers:
            res = machine.run_rowwise(Ar, F, out_nnz=None)
            ts.append(res.time)
        ts = np.array(ts)
        ok = (base_times > 0) & (np.array(ts) > 0)
        out.rowwise_speedup[algo] = float(np.mean(base_times[ok] / ts[ok])) if ok.any() else float("nan")

    # Hierarchical cluster-wise per iteration (Table 4): cluster A once,
    # reuse across every frontier — the amortisation story of §4.4.
    hc = hierarchical_clustering(A, jacc_th=cfg.jacc_th, max_cluster_th=cfg.max_cluster_th, column_cap=cfg.column_cap)
    Ac = hc.to_csr_cluster(A)
    for F, bt in zip(frontiers.frontiers, base_times):
        res = machine.run_clusterwise(Ac, F, out_nnz=None)
        out.hierarchical_speedup.append(float(bt / res.time) if res.time > 0 else float("nan"))
    return out
