"""AMG-style Galerkin triple product through the execution engine.

Algebraic multigrid (the paper cites it as a core SpGEMM consumer [9])
builds each coarse-grid operator as ``A_c = R · A · P`` with sparse
``R = Pᵀ``.  Both multiplications are SpGEMMs with rectangular operands;
this example builds a 2-D Poisson problem, a piecewise-constant
aggregation prolongator, and forms the hierarchy through
:class:`repro.engine.SpGEMMEngine` — showing that the engine handles
rectangular products (where graph reorderings do not apply, so the plan
keeps the natural order) and that every engine result is verified
bitwise against the row-wise kernel (exact-zero sums dropped) and
numerically against a plain scipy triple product.

Run:  python examples/amg_galerkin_product.py
"""

import numpy as np

from repro.core import COOMatrix, CSRMatrix, spgemm_rowwise
from repro.engine import SpGEMMEngine
from repro.matrices import generators as G


def aggregation_prolongator(n: int, aggregate_size: int) -> CSRMatrix:
    """Piecewise-constant prolongator: fine point i → aggregate i // s."""
    ncoarse = -(-n // aggregate_size)
    rows = np.arange(n, dtype=np.int64)
    cols = rows // aggregate_size
    vals = np.ones(n)
    return CSRMatrix.from_coo(COOMatrix(rows, cols, vals, (n, ncoarse)))


def main() -> None:
    A = G.grid2d(48, 48, stencil=5, seed=0)
    n = A.nrows
    print(f"fine operator: n={n}, nnz={A.nnz}")

    engine = SpGEMMEngine(policy="heuristic")

    level = 0
    while A.nrows > 64:
        P = aggregation_prolongator(A.nrows, 4)
        R = P.transpose()
        AP = engine.multiply(A, P)
        A_c = engine.multiply(R, AP)

        # Engine results are bitwise row-wise results once exact-zero
        # sums are dropped (the engine runs on scipy, which drops them)...
        want = spgemm_rowwise(R, spgemm_rowwise(A, P).drop_explicit_zeros()).drop_explicit_zeros()
        assert A_c.same_pattern(want) and np.array_equal(A_c.values, want.values)
        # ...and match the scipy oracle numerically.
        ref = CSRMatrix.from_scipy((R.to_scipy() @ A.to_scipy() @ P.to_scipy()).tocsr())
        assert A_c.allclose(ref), "Galerkin product mismatch"

        level += 1
        print(
            f"level {level}: {A.nrows:>5} -> {A_c.nrows:>5} rows, nnz {A.nnz:>6} -> {A_c.nnz:>6}, "
            f"plan {engine.plan_for(A, P).label}"
        )
        A = A_c

    print("coarsest operator dense enough for a direct solve — hierarchy complete ✓")
    print("\nengine ledger:")
    print(engine.stats().summary())


if __name__ == "__main__":
    main()
