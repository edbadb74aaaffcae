"""Experiment orchestration for every paper table and figure."""

from .cache import cache_dir, cached_matrix_sweep, cached_tallskinny_sweep, sweep_suite
from .config import ExperimentConfig
from .runner import (
    MatrixSweep,
    RunRecord,
    TallSkinnyResult,
    machine_for,
    run_matrix_sweep,
    run_tallskinny_sweep,
)

__all__ = [
    "ExperimentConfig",
    "MatrixSweep",
    "RunRecord",
    "TallSkinnyResult",
    "machine_for",
    "run_matrix_sweep",
    "run_tallskinny_sweep",
    "cached_matrix_sweep",
    "cached_tallskinny_sweep",
    "sweep_suite",
    "cache_dir",
]
