"""Evaluation metrics, cumulative profiles, paper-style table renderers —
and the static-analysis checker suite (:mod:`repro.analysis.checks`).
"""

from .metrics import (
    SpeedupSummary,
    best_of,
    geomean,
    positive_fraction,
    positive_geomean,
    summarize_speedups,
)
from .predictor import FEATURE_NAMES, ConfigurationPredictor, matrix_features
from .profiles import Profile, amortization_profile, ratio_profile
from .tables import (
    render_box_figure,
    render_dataset_bars,
    render_matrix_table,
    render_profile,
    render_table2,
)

__all__ = [
    "FEATURE_NAMES",
    "ConfigurationPredictor",
    "Profile",
    "SpeedupSummary",
    "amortization_profile",
    "best_of",
    "geomean",
    "matrix_features",
    "positive_fraction",
    "positive_geomean",
    "ratio_profile",
    "render_box_figure",
    "render_dataset_bars",
    "render_matrix_table",
    "render_profile",
    "render_table2",
    "summarize_speedups",
]
