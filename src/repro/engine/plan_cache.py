"""Plan cache: cost-aware, in-memory, bounded.

Plans are keyed by the operand's structural fingerprint (plus workload,
policy and config — see :meth:`repro.engine.engine.SpGEMMEngine`), so a
"same pattern, new values" matrix reuses its plan without re-planning.

Eviction is cost-aware (DESIGN.md §11): when over capacity, the
*resident* entry that is cheapest to re-plan (smallest
``plan.invested_cost`` = preprocessing + planning trials) is evicted
first, least-recently-used breaking ties — an expensive autotuned plan
outlives many cheap heuristic ones.  The just-inserted entry is never
the victim (rejecting inserts would make the engine re-plan the same
pattern forever).

Plans live only as long as the cache: engines that share one
:class:`PlanCache` share its plans, and a new process plans afresh.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict

from .plan import ExecutionPlan

__all__ = ["PlanCache"]


def _replan_cost(plan: ExecutionPlan) -> float:
    """Model units it would take to rebuild ``plan`` from scratch."""
    cost = plan.invested_cost
    return cost if math.isfinite(cost) else 0.0


class PlanCache:
    """Bounded cache of :class:`~repro.engine.plan.ExecutionPlan` objects.

    Parameters
    ----------
    capacity:
        Maximum entries; past it, the cheapest to re-plan is evicted.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        from ..obs import NOOP_TRACER

        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, ExecutionPlan]" = OrderedDict()
        # Re-entrant: serve's planner/dispatch threads share one cache,
        # and put() → _evict_one() nests inside the lock.
        self._lock = threading.RLock()
        # Hits and misses are the engine's to count (EngineStats): it
        # looks a cold key up twice, the second time under its build
        # lock.
        self.evictions = 0
        #: Observability hook (DESIGN.md §12): an enabled tracer receives
        #: ``plan_cache.put`` / ``plan_cache.evict`` events.  The engine
        #: attaches its own tracer when it owns one; the default no-op
        #: tracer emits nothing.
        self.tracer = NOOP_TRACER

    # ------------------------------------------------------------------
    def get(self, key: str) -> ExecutionPlan | None:
        """Look up a plan, refreshing its LRU position."""
        with self._lock:
            plan = self._entries.get(key)
            if plan is not None:
                self._entries.move_to_end(key)
            return plan

    def put(self, key: str, plan: ExecutionPlan) -> None:
        """Insert (or replace) a plan."""
        with self._lock:
            if self.tracer.enabled:
                self.tracer.event(
                    "plan_cache.put", plan=plan.label, replaced=key in self._entries
                )
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._evict_one(protect=key)

    def _evict_one(self, *, protect: str) -> None:
        # The just-inserted entry is never the victim: a cache that can
        # reject its own inserts turns put() into a no-op and the engine
        # would re-plan the same pattern on every multiply forever.
        # Cheapest-to-replan first; OrderedDict iteration order is the
        # LRU order, and min() is stable, so among equal costs the
        # least-recently-used entry loses.
        victim = min(
            (k for k in self._entries if k != protect),
            key=lambda k: _replan_cost(self._entries[k]),
        )
        if self.tracer.enabled:
            self.tracer.event("plan_cache.evict", plan=self._entries[victim].label)
        del self._entries[victim]
        self.evictions += 1

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Membership only: unlike ``get`` this never touches LRU order."""
        return key in self._entries

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "evictions": self.evictions,
            }
