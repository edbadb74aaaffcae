"""Order perturbations for suite construction.

Real SuiteSparse matrices arrive in orders of very different quality:
meshes usually ship nearly optimally ordered, while crawled graphs are
close to arbitrary.  The suite reproduces that spectrum by *scrambling*
some generated matrices — applying a hidden random symmetric permutation
that a good reordering algorithm should be able to undo (which is
exactly what Figs. 2–3 measure).
"""

from __future__ import annotations

import numpy as np

from ..core.csr import CSRMatrix

__all__ = ["scramble", "scramble_partial", "perturb_values"]


def scramble(A: CSRMatrix, *, seed: int = 0) -> CSRMatrix:
    """Hidden uniform symmetric permutation of ``A``."""
    rng = np.random.default_rng(seed)
    return A.permute_symmetric(rng.permutation(A.nrows))


def scramble_partial(A: CSRMatrix, *, fraction: float = 0.3, seed: int = 0) -> CSRMatrix:
    """Scramble only a random subset of rows/columns.

    Models matrices whose natural order is *partially* good (e.g. a mesh
    with renumbered refinement patches) — the regime where clustering
    without reordering already helps (paper §4.2's ~45% of inputs).
    """
    if not (0.0 <= fraction <= 1.0):
        raise ValueError(f"fraction must be in [0,1], got {fraction}")
    rng = np.random.default_rng(seed)
    n = A.nrows
    k = int(fraction * n)
    perm = np.arange(n, dtype=np.int64)
    chosen = rng.choice(n, size=k, replace=False)
    perm[np.sort(chosen)] = perm[chosen]
    return A.permute_symmetric(perm)


def perturb_values(A: CSRMatrix, *, scale: float = 0.05, seed: int = 0, dropout: float = 0.0) -> CSRMatrix:
    """Multiplicatively jittered values, optionally with value dropout.

    With ``dropout=0`` (the default) the sparsity pattern is untouched —
    the iterative-workload regime (BC waves, AMG cycles, Markov
    iterations) where values evolve while the pattern is fixed, exactly
    the case the engine's pattern-keyed plan cache must recognise as a
    hit ("same pattern, new values" reuses the plan).

    ``dropout > 0`` additionally zeroes that fraction of entries and
    prunes them: a *value-driven* pattern change (converged couplings,
    thresholded weights) that degrades whatever cluster/locality profile
    the original pattern had.  The new pattern has a new fingerprint,
    so the engine plans it afresh (the trace replay's churn events).
    """
    if scale < 0:
        raise ValueError(f"scale must be >= 0, got {scale}")
    if not (0.0 <= dropout < 1.0):
        raise ValueError(f"dropout must be in [0, 1), got {dropout}")
    rng = np.random.default_rng(seed)
    factors = 1.0 + scale * rng.standard_normal(A.nnz)
    values = A.values * factors
    if dropout == 0.0:
        return CSRMatrix(A.indptr.copy(), A.indices.copy(), values, A.shape, check=False)
    keep = rng.random(A.nnz) >= dropout
    kept_cum = np.concatenate(([0], np.cumsum(keep, dtype=A.indptr.dtype)))
    indptr = kept_cum[A.indptr]
    return CSRMatrix(indptr, A.indices[keep].copy(), values[keep], A.shape, check=False)
