"""Immutable execution plans: a pipeline spec plus its cost accounting.

An :class:`ExecutionPlan` is the :class:`~repro.pipeline.spec.PipelineSpec`
the planner chose (reordering, clustering, kernel, backend and their
parameters — the configuration) together with the model costs the
planner established (the bill for it):

* ``baseline_cost`` — model time of row-wise SpGEMM on the original
  order (the universal baseline of the paper's evaluation);
* ``predicted_cost`` — model time per multiply under this plan;
* ``pre_cost`` — one-off preprocessing (reordering + cluster build)
  model time, the numerator of Fig. 10's amortisation study;
* ``planning_cost`` — model time the planner itself spent on trial
  simulations (autotuning is itself preprocessing to amortise).

All costs are in simulated-machine model units
(:class:`~repro.machine.cost.CostModel`); wall-clock never enters a
plan, which keeps plans deterministic.  The machine model simulates the
kernels' dataflow, which a kernel-blind backend (``scipy``) does not
run, so a plan for such a backend is made without simulation: its
``predicted_cost``, ``baseline_cost`` and ``planning_cost`` are ``nan``
(:attr:`ExecutionPlan.has_model_costs` is false, its speed-up is
``nan`` and it never breaks even), and only ``pre_cost``, the
closed-form preprocessing charge, is a number.  The spec validated itself
against the component registry when it was built, so a plan holds no
second copy of the configuration and repeats no check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..pipeline import PipelineSpec

__all__ = ["ExecutionPlan"]


@dataclass(frozen=True)
class ExecutionPlan:
    """One fully-specified SpGEMM configuration + its cost accounting.

    Attributes
    ----------
    spec:
        The configuration the plan executes.  Its reordering is applied
        as a *row* permutation (gather) so execution results are
        bitwise-identical to row-wise SpGEMM on the original operand
        after un-permuting.
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
    """

    spec: PipelineSpec
    policy: str = "heuristic"
    workload: str = "asquare"
    fingerprint_key: str = ""
    seed: int = 0
    predicted_cost: float = math.nan
    baseline_cost: float = math.nan
    pre_cost: float = 0.0
    planning_cost: float = 0.0

    # ------------------------------------------------------------------
    # Cost / amortisation accounting
    # ------------------------------------------------------------------
    @property
    def has_model_costs(self) -> bool:
        """The planner simulated this plan (a kernel-honouring backend):
        its predicted, baseline and planning costs are numbers, not
        ``nan``."""
        return not math.isnan(self.predicted_cost)

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
    # Presentation
    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        """Short human-readable configuration name (the spec's label)."""
        return self.spec.label

    def pipeline(self) -> PipelineSpec:
        """The :class:`~repro.pipeline.spec.PipelineSpec` this plan
        executes."""
        return self.spec
