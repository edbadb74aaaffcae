"""Auto-tuning with the configuration predictor (paper §5 future work).

The paper's conclusion names, as future work, "using machine learning to
predict the best choice of reordering combined with the best clustering
scheme".  The engine subsystem operationalises that pipeline; this
example runs it end to end:

1. sweep a training set of suite matrices (results are disk-cached),
2. fit the k-NN :class:`ConfigurationPredictor` on structural features,
3. predict a configuration for each held-out matrix, turn it into a
   :class:`PipelineSpec` and serve the matrix through an
   :class:`SpGEMMEngine` that runs that spec, comparing the prediction
   against the sweep oracle,
4. contrast with the ``autotune`` policy, which needs no training but
   pays measured trials at planning time.

Run:  python examples/autotune_predictor.py
"""

from repro.analysis import ConfigurationPredictor
from repro.engine import SpGEMMEngine
from repro.experiments import ExperimentConfig, cached_matrix_sweep
from repro.matrices import get_matrix
from repro.pipeline import PipelineSpec

TRAIN = [
    "grid2d_5pt_1", "grid2d_scr_0", "trimesh_1", "trimesh_scr_1",
    "banded_1", "banded_scr_0", "blockdiag_1", "blockdiag_scr_0",
    "web_1", "web_scr_0", "road_1", "road_scr_0", "rmat_1", "er_1",
]
TEST = ["M6", "pdb1", "GAP-road", "cage12", "wb"]


def predicted_spec(pred: ConfigurationPredictor, A) -> PipelineSpec:
    """The pipeline a ``(reordering, variant)`` prediction names."""
    algo, variant = pred.predict(A)
    if variant == "cluster":  # ("hierarchical", "cluster"): its own order
        return PipelineSpec(clustering=algo, kernel="cluster")
    if variant == "rowwise":
        return PipelineSpec(reordering=algo)
    return PipelineSpec(reordering=algo, clustering=variant, kernel="cluster")


def main() -> None:
    cfg = ExperimentConfig()
    print(f"sweeping {len(TRAIN)} training matrices (cached)…")
    train_mats = [get_matrix(n) for n in TRAIN]
    train_sweeps = [cached_matrix_sweep(n, cfg) for n in TRAIN]

    pred = ConfigurationPredictor(k=3).fit(train_mats, train_sweeps)
    # Autotune ranks by the simulated machine, which models the reference
    # backend's kernels: its ledger's model costs exist only there.
    tune_engine = SpGEMMEngine(policy="autotune", backend="reference", config=cfg)

    print(f"\n{'matrix':<10} {'predictor plan':<26} {'autotune plan':<26} {'achieved':>9} {'oracle':>9}")
    for name in TEST:
        A = get_matrix(name)
        sweep = cached_matrix_sweep(name, cfg)
        pred_engine = SpGEMMEngine(pipeline=predicted_spec(pred, A), config=cfg)
        p_plan = pred_engine.plan_for(A)
        t_plan = tune_engine.plan_for(A)
        p_spec = p_plan.spec
        if p_spec.clustering == "hierarchical":
            achieved = sweep.baseline_time / sweep.hierarchical.time
        elif p_spec.clustering in ("fixed", "variable"):
            achieved = sweep.speedup(p_spec.clustering, p_spec.reordering)
        else:
            achieved = sweep.speedup("rowwise", p_spec.reordering)
        _, oracle = ConfigurationPredictor.best_configuration(sweep)
        print(f"{name:<10} {p_plan.label:<26} {t_plan.label:<26} {achieved:>8.2f}x {oracle:>8.2f}x")

    # The engines execute what they planned — run one multiply each so
    # both amortisation ledgers have an entry (note the autotune
    # ledger's larger invested cost: its measured trials are charged).
    A = get_matrix(TEST[0])
    pred_engine = SpGEMMEngine(pipeline=predicted_spec(pred, A), config=cfg)
    pred_engine.multiply(A)
    tune_engine.multiply(A)
    print(f"\npredicted-pipeline engine ({pred_engine.planner.spec}) ledger after one multiply:")
    print(pred_engine.stats().summary())
    print("\nautotune-policy engine ledger after one multiply:")
    print(tune_engine.stats().summary())


if __name__ == "__main__":
    main()
