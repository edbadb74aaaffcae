"""Best-configuration predictor — the paper's future-work item (§5).

    "Future work includes using machine learning to predict the best
     choice of reordering combined with the best clustering scheme."

This module implements that pipeline end-to-end on our infrastructure:

* :func:`matrix_features` — cheap structural features of a matrix
  (computable in O(nnz), far below one SpGEMM): density, degree
  statistics, bandwidth ratio, consecutive-row Jaccard (order quality),
  scattered-similarity estimate (how much hierarchical clustering could
  find), and hub skew.
* :class:`ConfigurationPredictor` — a k-nearest-neighbour model over
  standardised features, trained from :class:`MatrixSweep` results
  (which already record the winner), predicting the
  ``(reordering, spgemm-variant)`` pair to use for an unseen matrix.

kNN is deliberate: the training sets here are O(100) matrices, the
feature space is low-dimensional and the paper's own observation —
"the effectiveness of reordering is closely tied to the sparsity
pattern" — is exactly the locality assumption kNN encodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.csr import CSRMatrix

__all__ = [
    "matrix_features",
    "FEATURE_NAMES",
    "ConfigurationPredictor",
]

FEATURE_NAMES = (
    "log_nrows",
    "log_density",
    "degree_cv",
    "bandwidth_ratio",
    "consecutive_jaccard",
    "scattered_similarity",
    "hub_mass",
)


def matrix_features(A: CSRMatrix, *, sample: int = 256, seed: int = 0) -> np.ndarray:
    """Structural feature vector of ``A`` (see :data:`FEATURE_NAMES`).

    All features are O(nnz) or sampled; computing them costs far less
    than one SpGEMM, so prediction is practical as a preprocessing step.
    """
    n = max(1, A.nrows)
    nnz = max(1, A.nnz)
    lens = np.diff(A.indptr)
    rng = np.random.default_rng(seed)

    # Degree variability (power-law detector).
    mean_deg = lens.mean() if lens.size else 0.0
    degree_cv = float(lens.std() / mean_deg) if mean_deg > 0 else 0.0

    # Bandwidth ratio: mean |i-j| / n — 0 for diagonal-ish, ~1/3 random.
    if A.nnz:
        row_of = np.repeat(np.arange(A.nrows, dtype=np.int64), lens)
        bw = float(np.abs(row_of - A.indices).mean()) / n
    else:
        bw = 0.0

    # Natural-order quality: mean Jaccard of consecutive row pairs.
    rows = rng.choice(max(1, A.nrows - 1), size=min(sample, max(1, A.nrows - 1)), replace=False)
    cj = float(np.mean([A.jaccard_similarity(int(r), int(r) + 1) for r in rows])) if A.nrows > 1 else 0.0

    # Scattered similarity: mean of each sampled row's best Jaccard among
    # a random set of non-adjacent partners — what hierarchical
    # clustering could exploit beyond the natural order.
    scattered = 0.0
    if A.nrows > 4:
        probes = rng.choice(A.nrows, size=min(64, A.nrows), replace=False)
        best = []
        for r in probes:
            partners = rng.choice(A.nrows, size=8, replace=False)
            scores = [A.jaccard_similarity(int(r), int(p)) for p in partners if abs(int(p) - int(r)) > 1]
            if scores:
                best.append(max(scores))
        scattered = float(np.mean(best)) if best else 0.0

    # Hub mass: fraction of nnz held by the densest 1% of rows.
    k = max(1, A.nrows // 100)
    hub_mass = float(np.sort(lens)[-k:].sum()) / nnz

    return np.array(
        [
            np.log10(n),
            np.log10(nnz / (n * max(1, A.ncols))),
            degree_cv,
            bw,
            cj,
            scattered,
            hub_mass,
        ],
        dtype=np.float64,
    )


@dataclass
class _TrainingPoint:
    features: np.ndarray
    label: tuple[str, str]  # (reordering, variant)
    speedup: float


class ConfigurationPredictor:
    """k-NN predictor of the best (reordering, SpGEMM-variant) pair.

    Train from sweeps (``fit``), predict for new matrices (``predict``).
    ``predict`` returns the configuration label; ``predict_detail``
    additionally returns the neighbours that voted, for explainability.
    """

    def __init__(self, *, k: int = 3) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._points: list[_TrainingPoint] = []
        self._mu: np.ndarray | None = None
        self._sigma: np.ndarray | None = None

    # ------------------------------------------------------------------
    @staticmethod
    def best_configuration(sweep) -> tuple[tuple[str, str], float]:
        """The winning (reordering, variant) of a MatrixSweep + its speedup."""
        best_label = ("original", "rowwise")
        best_speedup = 1.0
        for variant in ("rowwise", "fixed", "variable"):
            table = getattr(sweep, variant)
            for algo in table:
                sp = sweep.speedup(variant, algo)
                if sp > best_speedup:
                    best_label = (algo, variant)
                    best_speedup = sp
        if sweep.hierarchical is not None:
            sp = sweep.baseline_time / sweep.hierarchical.time
            if sp > best_speedup:
                best_label = ("hierarchical", "cluster")
                best_speedup = sp
        return best_label, float(best_speedup)

    def fit(self, matrices: list[CSRMatrix], sweeps: list) -> "ConfigurationPredictor":
        """Train from matrices with completed sweeps."""
        if len(matrices) != len(sweeps):
            raise ValueError("matrices and sweeps must align")
        if not matrices:
            raise ValueError("cannot fit on an empty training set")
        self._points = []
        for A, sweep in zip(matrices, sweeps):
            label, speedup = self.best_configuration(sweep)
            self._points.append(_TrainingPoint(matrix_features(A), label, speedup))
        X = np.vstack([p.features for p in self._points])
        self._mu = X.mean(axis=0)
        self._sigma = np.where(X.std(axis=0) > 1e-12, X.std(axis=0), 1.0)
        return self

    def _standardise(self, f: np.ndarray) -> np.ndarray:
        return (f - self._mu) / self._sigma

    def predict_detail(
        self, A: CSRMatrix, *, features: np.ndarray | None = None
    ) -> tuple[tuple[str, str], list[tuple[tuple[str, str], float]]]:
        """Predicted configuration + the (label, distance) of each voter.

        ``features`` may supply a precomputed :func:`matrix_features`
        vector (e.g. from an engine fingerprint) to skip the O(nnz)
        feature pass.
        """
        if not self._points:
            raise RuntimeError("predictor is not fitted")
        f = self._standardise(matrix_features(A) if features is None else np.asarray(features))
        dists = [float(np.linalg.norm(f - self._standardise(p.features))) for p in self._points]
        order = np.argsort(dists)[: self.k]
        voters = [(self._points[i].label, dists[i]) for i in order]
        # Majority vote, ties broken by the nearest neighbour.
        counts: dict[tuple[str, str], int] = {}
        for label, _ in voters:
            counts[label] = counts.get(label, 0) + 1
        top = max(counts.values())
        for label, _ in voters:  # nearest-first tie break
            if counts[label] == top:
                return label, voters
        raise AssertionError("unreachable")  # pragma: no cover

    def predict(self, A: CSRMatrix, *, features: np.ndarray | None = None) -> tuple[str, str]:
        """Predicted (reordering, variant) for ``A``."""
        return self.predict_detail(A, features=features)[0]
