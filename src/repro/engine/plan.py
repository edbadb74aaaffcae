"""Immutable execution plans with cost and amortisation accounting.

An :class:`ExecutionPlan` records *everything* needed to execute one
SpGEMM configuration deterministically — the reordering, the clustering
scheme and its parameters, the kernel and accumulator — plus the model
costs the planner established:

* ``baseline_cost`` — model time of row-wise SpGEMM on the original
  order (the universal baseline of the paper's evaluation);
* ``predicted_cost`` — model time per multiply under this plan;
* ``pre_cost`` — one-off preprocessing (reordering + cluster build)
  model time, the numerator of Fig. 10's amortisation study;
* ``planning_cost`` — model time the planner itself spent on trial
  simulations (autotuning is itself preprocessing to amortise).

All costs are in simulated-machine model units
(:class:`~repro.machine.cost.CostModel`); wall-clock never enters a
plan, which keeps plans deterministic and serialisable.  Plans are
frozen dataclasses with JSON round-trip (:meth:`ExecutionPlan.to_json` /
:meth:`ExecutionPlan.from_json`) so the plan cache can persist them on
disk next to :mod:`repro.experiments.cache`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Any

__all__ = ["ExecutionPlan", "backend_label_suffix"]


def backend_label_suffix(backend: str, backend_params: tuple = ()) -> str:
    """``"@scipy"``-style label suffix (``"@name:param=value"`` with
    parameters).

    Parameters are included so distinct configurations of the same
    backend stay distinct in ledgers; the default ``reference`` backend
    contributes nothing (labels predating the backend axis are stable).
    """
    if backend == "reference":
        return ""
    suffix = f"@{backend}"
    if backend_params:
        suffix += ":" + ",".join(f"{k}={v}" for k, v in backend_params)
    return suffix

_ACCUMULATORS = ("sort", "dense", "hash")


@dataclass(frozen=True)
class ExecutionPlan:
    """One fully-specified SpGEMM configuration + its cost accounting.

    Attributes
    ----------
    reordering:
        Registry name from :mod:`repro.reordering` (``"original"`` for
        the natural order).  Applied as a *row* permutation (gather) so
        execution results are bitwise-identical to row-wise SpGEMM on
        the original operand after un-permuting.
    clustering:
        ``None`` (plain CSR) or one of ``fixed`` / ``variable`` /
        ``hierarchical``.  Hierarchical clustering performs its own row
        reordering (paper §3.4), so it composes with
        ``reordering="original"``.
    kernel:
        ``"rowwise"`` (Gustavson) or ``"cluster"`` (paper Alg. 1);
        ``"cluster"`` requires a clustering.
    backend:
        Execution backend registry name (:mod:`repro.backends`);
        ``"reference"`` is the pure-python bitwise oracle.
    backend_params:
        Backend parameters as ``(name, value)`` pairs (empty for the
        built-in backends, none of which takes parameters).
    accumulator:
        Sparse-accumulator strategy for the row-wise kernel.
    policy:
        Name of the planner policy that produced the plan.
    workload:
        Workload hint the plan was made for (``asquare`` /
        ``tallskinny`` / ``general``).
    fingerprint_key:
        :attr:`~repro.engine.fingerprint.MatrixFingerprint.key` of the
        operand pattern the plan was made for.
    seed:
        Seed used for the reordering / feature sampling.
    params:
        Clustering parameters as a sorted tuple of ``(name, value)``
        pairs (kept as a tuple so the plan stays hashable).
    """

    reordering: str
    clustering: str | None
    kernel: str
    backend: str = "reference"
    backend_params: tuple[tuple[str, Any], ...] = ()
    accumulator: str = "sort"
    policy: str = "heuristic"
    workload: str = "asquare"
    fingerprint_key: str = ""
    seed: int = 0
    params: tuple[tuple[str, float], ...] = ()
    predicted_cost: float = math.nan
    baseline_cost: float = math.nan
    pre_cost: float = 0.0
    planning_cost: float = 0.0

    def __post_init__(self) -> None:
        # Validation is registry-driven (lazy import: the pipeline layer
        # links back to ExecutionPlan for serialisation): any registered
        # component composition the registry calls compatible is a valid
        # plan, with no name list to keep in sync here.
        from ..pipeline import get_component

        try:
            get_component("reordering", self.reordering)
        except KeyError as e:
            raise ValueError(f"unknown reordering {self.reordering!r} ({e})") from None
        try:
            kernel = get_component("kernel", self.kernel)
        except KeyError as e:
            raise ValueError(f"unknown kernel {self.kernel!r} ({e})") from None
        if self.clustering is not None:
            try:
                get_component("clustering", self.clustering)
            except KeyError as e:
                raise ValueError(f"unknown clustering {self.clustering!r} ({e})") from None
        if self.accumulator not in _ACCUMULATORS:
            raise ValueError(f"unknown accumulator {self.accumulator!r}")
        if kernel.requires_clustering and self.clustering is None:
            raise ValueError(f"{self.kernel} kernel requires a clustering scheme")
        try:
            get_component("backend", self.backend).canonical_params(self.backend_params)
        except KeyError as e:
            raise ValueError(f"unknown backend {self.backend!r} ({e})") from None

    # ------------------------------------------------------------------
    # Cost / amortisation accounting
    # ------------------------------------------------------------------
    @property
    def predicted_gain(self) -> float:
        """Model time saved per multiply vs the row-wise baseline."""
        return self.baseline_cost - self.predicted_cost

    @property
    def predicted_speedup(self) -> float:
        if not self.predicted_cost or math.isnan(self.predicted_cost):
            return float("nan")
        return self.baseline_cost / self.predicted_cost

    @property
    def invested_cost(self) -> float:
        """One-off model time: planning trials + preprocessing."""
        return self.pre_cost + self.planning_cost

    def break_even_iterations(self) -> float:
        """Multiplies needed to amortise :attr:`invested_cost` (Fig. 10).

        ``inf`` when the plan does not beat the baseline per multiply.
        """
        gain = self.predicted_gain
        if not gain or gain <= 0 or math.isnan(gain):
            return float("inf")
        return self.invested_cost / gain

    def amortized_cost(self, iterations: int) -> float:
        """Mean model cost per multiply after ``iterations`` runs."""
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        return self.invested_cost / iterations + self.predicted_cost

    # ------------------------------------------------------------------
    # Presentation & serialisation
    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        """Short human-readable configuration name."""
        cl = self.clustering or "csr"
        return (
            f"{self.reordering}+{cl}/{self.kernel}"
            f"{backend_label_suffix(self.backend, self.backend_params)}"
        )

    def pipeline(self):
        """The :class:`~repro.pipeline.spec.PipelineSpec` this plan
        executes (round-trippable: ``spec.to_plan()`` inverts it)."""
        from ..pipeline import PipelineSpec

        return PipelineSpec.from_plan(self)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["params"] = [list(p) for p in self.params]
        d["backend_params"] = [list(p) for p in self.backend_params]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExecutionPlan":
        d = dict(d)
        d["params"] = tuple((str(k), v) for k, v in d.get("params", ()))
        # Plans persisted before the backend axis load as reference.
        d["backend_params"] = tuple((str(k), v) for k, v in d.get("backend_params", ()))
        # Plans persisted while backend calibration or the row-binned
        # kernel existed carry its epoch or a bin map.
        d.pop("calibration_epoch", None)
        d.pop("bin_map", None)
        return cls(**d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExecutionPlan":
        return cls.from_dict(json.loads(text))
