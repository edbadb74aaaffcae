"""Experiment configuration (shared by every table/figure bench)."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

__all__ = ["ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of one evaluation sweep.

    Machine parameters mirror DESIGN.md's scaled-down Perlmutter model;
    clustering parameters are the paper's (``jacc_th=0.3``,
    ``max_cluster_th=8``, fixed length 8).
    """

    n_threads: int = 8
    cache_lines: int = 512
    line_bytes: int = 64
    jacc_th: float = 0.3
    max_cluster_th: int = 8
    fixed_cluster_size: int = 8
    column_cap: int = 256
    seed: int = 0
    reorderings: tuple[str, ...] = (
        "shuffled",
        "rabbit",
        "amd",
        "rcm",
        "nd",
        "gp",
        "hp",
        "gray",
        "degree",
        "slashburn",
    )

    def cache_key(self) -> str:
        """Stable hash for result caching."""
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    # ------------------------------------------------------------------
    # Pipeline-spec view of the config
    # ------------------------------------------------------------------
    def sweep_pipelines(
        self,
        reorderings: tuple[str, ...] | None = None,
        *,
        with_clustering: bool = True,
    ) -> "list":
        """The declarative sweep space this config implies.

        One :class:`~repro.pipeline.spec.PipelineSpec` per cell of the
        paper's evaluation grid: row-wise SpGEMM on the natural order
        and after each of ``reorderings`` (default: this config's
        list), every non-order-embedding registered clustering on top
        of each of those, and — on the natural order only — the
        order-embedding clusterings (hierarchical) via both the cluster
        kernel and as a pure row reordering (Fig. 2's last box).
        Parameters are left to config resolution at build time, so the
        specs stay config-independent names.
        """
        from ..pipeline import PipelineSpec, components

        algos = self.reorderings if reorderings is None else tuple(reorderings)
        clusterings = components("clustering") if with_clustering else []
        specs: list = []
        for algo in ("original", *algos):
            base = PipelineSpec(reordering=algo)
            specs.append(base)
            for c in clusterings:
                if c.embeds_reordering and algo != "original":
                    continue  # its cluster formation is a reordering already
                specs.append(base.with_clustering(c.name))
                if c.embeds_reordering:
                    # The embedded order used as a pure reordering.
                    specs.append(base.with_clustering(c.name).with_kernel("rowwise"))
        return specs

