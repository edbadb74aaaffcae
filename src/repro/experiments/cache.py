"""On-disk result cache so the nine benches share one suite sweep.

A full-suite sweep takes minutes; each bench then renders a different
table/figure from the same measurements.  Sweeps are pickled under the
cache directory keyed by (matrix, config hash) and invalidated by
changing any config field.  Corrupt or stale entries are reported with
:func:`warnings.warn` (naming the offending file) and re-run.

Environment variables
---------------------
``REPRO_CACHE_DIR``
    Cache directory root (default ``.repro_cache`` under the current
    working directory).
``REPRO_NO_CACHE``
    Any value other than empty/``0`` disables the cache entirely (no
    reads, no writes) — every sweep is recomputed.  CI sets this so
    results never depend on stale artefacts.
"""

from __future__ import annotations

import os
import pickle
import warnings
from pathlib import Path

from .config import ExperimentConfig
from .runner import MatrixSweep, TallSkinnyResult, run_matrix_sweep, run_tallskinny_sweep

__all__ = ["cached_matrix_sweep", "cached_tallskinny_sweep", "cache_dir", "sweep_suite"]


def cache_dir() -> Path:
    root = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    p = Path(root)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _disabled() -> bool:
    return os.environ.get("REPRO_NO_CACHE", "") not in ("", "0")


def _load(path: Path):
    try:
        with path.open("rb") as fh:
            return pickle.load(fh)
    except Exception as exc:
        warnings.warn(
            f"discarding corrupt repro cache entry {path.name} ({exc!r}); "
            "the sweep will be re-run — delete the file or set REPRO_NO_CACHE=1 "
            "to silence this",
            stacklevel=3,
        )
        return None


def _store(path: Path, obj) -> None:
    tmp = path.with_suffix(".tmp")
    with tmp.open("wb") as fh:
        pickle.dump(obj, fh)
    tmp.replace(path)


def cached_matrix_sweep(name: str, cfg: ExperimentConfig) -> MatrixSweep:
    """A² sweep for one suite matrix, cached on disk."""
    path = cache_dir() / f"sweep_{name.replace('/', '_')}_{cfg.cache_key()}.pkl"
    if not _disabled() and path.exists():
        obj = _load(path)
        if isinstance(obj, MatrixSweep):
            return obj
    sweep = run_matrix_sweep(name, cfg)
    if not _disabled():
        _store(path, sweep)
    return sweep


def cached_tallskinny_sweep(name: str, cfg: ExperimentConfig, *, batch: int = 96, depth: int = 10) -> TallSkinnyResult:
    """Tall-skinny sweep for one suite matrix, cached on disk."""
    path = cache_dir() / f"ts_{name.replace('/', '_')}_{batch}x{depth}_{cfg.cache_key()}.pkl"
    if not _disabled() and path.exists():
        obj = _load(path)
        if isinstance(obj, TallSkinnyResult):
            return obj
    res = run_tallskinny_sweep(name, cfg, batch=batch, depth=depth)
    if not _disabled():
        _store(path, res)
    return res


def sweep_suite(names: list[str], cfg: ExperimentConfig, *, verbose: bool = False) -> list[MatrixSweep]:
    """Sweep a list of suite matrices (cached per matrix)."""
    out = []
    for i, name in enumerate(names):
        if verbose:
            print(f"[{i + 1}/{len(names)}] {name}", flush=True)
        out.append(cached_matrix_sweep(name, cfg))
    return out
