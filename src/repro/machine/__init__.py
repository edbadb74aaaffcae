"""Machine model: memory layout, cache simulation, cost model, and the
simulated parallel machine (DESIGN.md's substitution for the paper's
Perlmutter wall-clock measurements)."""

from .cache import CacheStats, LRUCache, SetAssociativeCache, simulate_lru
from .cost import CostModel, KernelCost
from .layout import BLayout, ENTRY_BYTES
from .parallel import (
    MachineResult,
    SimulatedMachine,
    amortization_iterations,
    balanced_contiguous_partition,
)
from .trace import b_row_sequence_trace, clusterwise_b_trace, rowwise_b_trace

__all__ = [
    "CacheStats",
    "LRUCache",
    "SetAssociativeCache",
    "simulate_lru",
    "CostModel",
    "KernelCost",
    "BLayout",
    "ENTRY_BYTES",
    "MachineResult",
    "SimulatedMachine",
    "amortization_iterations",
    "balanced_contiguous_partition",
    "b_row_sequence_trace",
    "clusterwise_b_trace",
    "rowwise_b_trace",
]
