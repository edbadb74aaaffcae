"""Structural matrix fingerprints — the engine's plan-cache keys.

The economic argument of the paper (Fig. 10, Table 4) is that
reordering/clustering costs amortise across *many* multiplies over the
same sparsity pattern.  Iterative workloads (BC waves, AMG cycles,
Markov iterations) typically keep the pattern fixed while values change,
so the right cache key for an :class:`~repro.engine.plan.ExecutionPlan`
is the **pattern alone**: a matrix with the same ``indptr``/``indices``
but perturbed values must hit the cache and reuse the plan.

Two digests are provided:

* :func:`pattern_digest` — a SHA-256 digest of the pattern arrays;
  with shape and nnz it makes the plan-cache key (:func:`pattern_key`),
  so a warm lookup hashes the pattern and nothing else.
  :func:`fingerprint` → :class:`MatrixFingerprint` adds the
  :func:`~repro.analysis.predictor.matrix_features` vector (O(nnz)),
  which only a plan build reads.
* :func:`value_digest` — a digest of the value array, used by the
  engine's prepared-operand cache (reordered/clustered operands can only
  be reused when the values match exactly).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..analysis.predictor import matrix_features
from ..core.csr import CSRMatrix

__all__ = [
    "MatrixFingerprint",
    "fingerprint",
    "pattern_digest",
    "pattern_key",
    "value_digest",
]


def _digest_arrays(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class MatrixFingerprint:
    """O(nnz) structural sketch of a matrix (see module docstring).

    Attributes
    ----------
    shape:
        ``(nrows, ncols)``.
    nnz:
        Stored-entry count.
    pattern_digest:
        SHA-256 over ``indptr`` + ``indices`` (+ shape); identical for
        any two matrices with the same sparsity pattern, regardless of
        values.
    features:
        The :data:`~repro.analysis.predictor.FEATURE_NAMES` vector, as a
        plain tuple so the fingerprint stays hashable.
    """

    shape: tuple[int, int]
    nnz: int
    pattern_digest: str
    features: tuple[float, ...]

    @property
    def key(self) -> str:
        """Compact cache-key string (pattern identity only)."""
        return pattern_key(self.shape, self.nnz, self.pattern_digest)

    def feature_array(self) -> np.ndarray:
        return np.array(self.features, dtype=np.float64)

    def same_pattern(self, other: "MatrixFingerprint") -> bool:
        return (
            self.shape == other.shape
            and self.nnz == other.nnz
            and self.pattern_digest == other.pattern_digest
        )


def pattern_digest(A: CSRMatrix) -> str:
    """SHA-256 of ``A``'s sparsity pattern (shape + indptr + indices)."""
    shape_tag = np.array(A.shape, dtype=np.int64)
    return _digest_arrays(shape_tag, A.indptr, A.indices)


def pattern_key(shape: tuple[int, int], nnz: int, digest: str) -> str:
    """Compact cache-key string of a pattern: shape, nnz and the leading
    characters of its :func:`pattern_digest`."""
    return f"{shape[0]}x{shape[1]}_{nnz}_{digest[:20]}"


def fingerprint(A: CSRMatrix, *, seed: int = 0, digest: str | None = None) -> MatrixFingerprint:
    """Fingerprint ``A``: pattern digest + structural features.

    ``seed`` controls the sampled features (consecutive Jaccard,
    scattered similarity) and must be held fixed for deterministic
    planning; the digest itself is sampling-free.  ``digest`` may be
    supplied when :func:`pattern_digest` was already computed.
    """
    digest = digest or pattern_digest(A)
    feats = matrix_features(A, seed=seed)
    return MatrixFingerprint(
        shape=A.shape,
        nnz=A.nnz,
        pattern_digest=digest,
        features=tuple(float(x) for x in feats),
    )


def value_digest(A: CSRMatrix) -> str:
    """Digest of the value array (prepared-operand reuse key)."""
    return _digest_arrays(A.values)
