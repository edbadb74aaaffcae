"""Betweenness centrality on the execution engine (paper §4.2, §4.4).

BC executes SpGEMM thousands of times over the same ``A`` matrix — the
regime where a one-off clustering/reordering of ``A`` amortises, and the
regime :class:`repro.engine.SpGEMMEngine` is built for.  This example:

1. builds a road-network-style graph,
2. computes sampled-source BC with the linear-algebra formulation,
3. feeds the BC frontier matrices (the paper's tall-skinny operands)
   through the engine's batch API — the engine plans once, preprocesses
   once, and reuses both across every BFS wave,
4. prints the engine's amortisation ledger: invested model time,
   cumulative gain, and the break-even wave count (paper Fig. 10).

Run:  python examples/betweenness_centrality.py
"""

import numpy as np

from repro.engine import SpGEMMEngine
from repro.matrices import generators as G
from repro.workloads import bc_frontiers, betweenness_centrality


def main() -> None:
    A = G.road_network(3600, seed=5)
    print(f"road network: n={A.nrows}, nnz={A.nnz}")

    bc = betweenness_centrality(A, batch=16, seed=3)
    top = np.argsort(-bc)[:5]
    print("top-5 central vertices:", top.tolist())
    print("their scores:", np.round(bc[top], 1).tolist())

    frontiers = bc_frontiers(A, batch=96, depth=10, seed=1)

    # Autotune ranks plans by the paper's simulated machine, which models
    # the reference backend's kernels (scipy ignores the kernel, so its
    # plans carry no model costs to print).
    print("\nengine (autotune policy, reference backend): plan once, execute every BFS wave")
    engine = SpGEMMEngine(policy="autotune", backend="reference")
    products = engine.multiply_many(A, frontiers.frontiers)
    plan = engine.plan_for(A, frontiers.frontiers[0])

    print(f"chosen plan: {plan.label}")
    print(f"predicted speedup per wave: {plan.predicted_speedup:.2f}x")
    be = plan.break_even_iterations()
    be_s = f"{be:.0f}" if np.isfinite(be) else "inf"
    print(f"break-even (plan): ~{be_s} waves "
          "(BC at 5% sampling on a 20M-vertex graph runs ~O(1000·diameter) SpGEMMs — §4.2)")

    print(f"\nwaves executed: {len(products)}, "
          f"output nnz per wave: {[C.nnz for C in products[:5]]}…")
    print("\nengine ledger:")
    print(engine.stats().summary())


if __name__ == "__main__":
    main()
