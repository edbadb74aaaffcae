"""Adaptive runtime: drift-triggered re-planning.

The engine's planners rank execution backends with a static
``model_speed_factor`` capability *hint* (scipy 0.35, vectorized 0.7 —
DESIGN.md §10), and plans keep their planning-time costs.  This module
closes the feedback loop on those costs (DESIGN.md §11):

* :class:`DriftMonitor` — per-plan hysteresis state machine fed by the
  engine with ``(predicted, executed)`` cost pairs.  A probe *drifts*
  when the executed/predicted ratio leaves
  ``[1/threshold, threshold]``; only ``patience`` *consecutive*
  drifting probes trigger a re-plan, and a ``cooldown`` window after
  each re-plan (plus a hard ``max_replans`` cap) guarantees a single
  noisy call can never thrash the planner.
* :class:`AdaptiveConfig` — the knobs, one frozen dataclass shared by
  the engine constructor and the CLI (``--drift-threshold``).

Nothing here runs unless the caller opts in: an engine built without
``drift_threshold=`` / ``adaptive=`` behaves exactly as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["AdaptiveConfig", "DriftDecision", "DriftMonitor"]


# ----------------------------------------------------------------------
# Adaptive knobs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AdaptiveConfig:
    """Configuration of the drift → re-plan feedback loop.

    Attributes
    ----------
    drift_threshold:
        A probe counts as *drifting* when ``executed / predicted`` falls
        outside ``[1/drift_threshold, drift_threshold]`` (both
        directions matter: a plan can become too slow *or* leave cheap
        wins on the table).  Must be ``> 1``.
    patience:
        Consecutive drifting probes required before a re-plan fires —
        the hysteresis that keeps one noisy call from thrashing.
    cooldown:
        Probes ignored after each re-plan while the new plan settles.
    probe_every:
        Probe cadence: measure the executed cost on every *n*-th
        multiply per plan (1 = every multiply).  Probes are simulated
        executions; the engine tracks their model cost separately
        (``EngineStats.model_probe_cost``) and keeps it *out* of the
        break-even economics — a real runtime reads executed cost off a
        timer for free.  Only fired re-plans are invested cost.
    max_replans:
        Hard per-plan cap on re-plans (adversarially noisy cost
        sequences are bounded no matter what).
    """

    drift_threshold: float = 1.5
    patience: int = 2
    cooldown: int = 2
    probe_every: int = 1
    max_replans: int = 8

    def __post_init__(self) -> None:
        if not self.drift_threshold > 1.0:
            raise ValueError(f"drift_threshold must be > 1, got {self.drift_threshold}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")
        if self.probe_every < 1:
            raise ValueError(f"probe_every must be >= 1, got {self.probe_every}")
        if self.max_replans < 0:
            raise ValueError(f"max_replans must be >= 0, got {self.max_replans}")


@dataclass(frozen=True)
class DriftDecision:
    """Result of one :meth:`DriftMonitor.observe` probe.

    Truthy exactly when a re-plan should fire, so callers may use it as
    a boolean; ``drifted`` reports whether this probe left the band
    (cooldown-swallowed probes report ``False``)."""

    replan: bool
    drifted: bool
    ratio: float

    def __bool__(self) -> bool:
        return self.replan


@dataclass
class _PlanDriftState:
    """Per-plan-key monitor state (see :class:`DriftMonitor`)."""

    multiplies: int = 0  # since last probe (probe cadence counter)
    streak: int = 0  # consecutive drifting probes
    cooldown_left: int = 0  # probes still ignored after a re-plan
    probes: int = 0
    drifting_probes: int = 0
    replans: int = 0
    last_ratio: float = 1.0


class DriftMonitor:
    """Hysteresis state machine deciding *when* a plan is re-trialled.

    The engine owns the measurements; the monitor owns the decision.
    Guarantees (property-tested in ``tests/test_adaptive_property.py``):

    * ``executed == predicted`` never fires (ratio 1 is inside every
      valid band, since ``drift_threshold > 1``);
    * under any probe sequence of length ``n``, re-plans for one key
      are bounded by ``min(max_replans, (n + cooldown) //
      (patience + cooldown))`` — each re-plan needs ``patience`` fresh
      consecutive drifting probes and is followed by ``cooldown``
      ignored ones.
    """

    def __init__(self, config: AdaptiveConfig | None = None) -> None:
        self.config = config or AdaptiveConfig()
        self._states: dict[str, _PlanDriftState] = {}

    def _state(self, key: str) -> _PlanDriftState:
        st = self._states.get(key)
        if st is None:
            st = self._states[key] = _PlanDriftState()
        return st

    # ------------------------------------------------------------------
    def should_probe(self, key: str) -> bool:
        """Whether this multiply should measure its executed cost.

        Counts the call: every ``probe_every``-th multiply per key
        probes (the first one always does).
        """
        st = self._state(key)
        st.multiplies += 1
        return (st.multiplies - 1) % self.config.probe_every == 0

    def observe(self, key: str, *, predicted: float, executed: float) -> DriftDecision:
        """Feed one ``(predicted, executed)`` probe.

        Returns a :class:`DriftDecision` (truthy = re-plan now).
        Non-finite or non-positive costs are recorded but never drift
        (there is no meaningful ratio to test).
        """
        cfg = self.config
        st = self._state(key)
        st.probes += 1
        if predicted > 0 and executed > 0 and math.isfinite(predicted) and math.isfinite(executed):
            ratio = executed / predicted
        else:
            ratio = 1.0
        st.last_ratio = ratio
        if st.cooldown_left > 0:
            st.cooldown_left -= 1
            st.streak = 0
            return DriftDecision(replan=False, drifted=False, ratio=ratio)
        drifting = ratio > cfg.drift_threshold or ratio < 1.0 / cfg.drift_threshold
        if not drifting:
            st.streak = 0
            return DriftDecision(replan=False, drifted=False, ratio=ratio)
        st.drifting_probes += 1
        st.streak += 1
        replan = st.streak >= cfg.patience and st.replans < cfg.max_replans
        return DriftDecision(replan=replan, drifted=True, ratio=ratio)

    def notify_replanned(self, key: str) -> None:
        """Record a fired re-plan: reset the streak, enter cooldown."""
        st = self._state(key)
        st.replans += 1
        st.streak = 0
        st.cooldown_left = self.config.cooldown

    # ------------------------------------------------------------------
    def state(self, key: str) -> dict:
        """Introspection snapshot for one plan key.

        Read-only: asking about a key the monitor never observed
        returns an all-zero snapshot without allocating state for it.
        """
        st = self._states.get(key) or _PlanDriftState()
        return {
            "probes": st.probes,
            "drifting_probes": st.drifting_probes,
            "streak": st.streak,
            "cooldown_left": st.cooldown_left,
            "replans": st.replans,
            "last_ratio": st.last_ratio,
        }

    def total_replans(self) -> int:
        return sum(st.replans for st in self._states.values())
