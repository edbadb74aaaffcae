"""Plan cache: in-memory, bounded, least-recently-used.

Plans are keyed by the operand's structural fingerprint (plus workload,
policy and config — see :meth:`repro.engine.engine.SpGEMMEngine`), so a
"same pattern, new values" matrix reuses its plan without re-planning.

Eviction is plain LRU (DESIGN.md §11): past :data:`PLAN_CACHE_SIZE`
entries the least-recently-used one goes.  The just-inserted entry is
the most recent, so it is never the victim (rejecting inserts would make
the engine re-plan the same pattern forever).

Plans live only as long as the cache: engines that share one
:class:`PlanCache` share its plans, and a new process plans afresh.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from .plan import ExecutionPlan

__all__ = ["PlanCache"]

#: Plan-cache capacity.  Every benchmarked workload builds far fewer
#: distinct plans than this (DESIGN.md §11), so nothing is evicted.
PLAN_CACHE_SIZE = 128


class PlanCache:
    """Bounded LRU cache of :class:`~repro.engine.plan.ExecutionPlan`
    objects, holding up to :attr:`capacity` (:data:`PLAN_CACHE_SIZE`)
    entries."""

    def __init__(self) -> None:
        from ..obs import NOOP_TRACER

        self.capacity = PLAN_CACHE_SIZE
        self._entries: "OrderedDict[str, ExecutionPlan]" = OrderedDict()
        # Re-entrant: serve's dispatch, fallback (caller) and RPC handler
        # threads share one cache, and get_or_build() → get()/put() nest
        # inside the lock.
        self._lock = threading.RLock()
        # Keys whose build is in flight (get_or_build), each with the
        # event its waiters block on.
        self._building: dict[str, threading.Event] = {}
        # Hits and misses are the engine's to count (EngineStats).
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

    def get_or_build(self, key: str, build) -> "tuple[ExecutionPlan, bool]":
        """The plan under ``key``, or ``build()``'s plan, cached; returns
        ``(plan, built)``.  At most one build per key runs at a time
        across every caller of this cache: a caller that finds one in
        flight waits for it and looks again (and builds itself only if
        that build raised).  No lock is held while ``build`` runs."""
        while True:
            with self._lock:
                plan = self.get(key)
                if plan is not None:
                    return plan, False
                flight = self._building.get(key)
                if flight is None:
                    flight = self._building[key] = threading.Event()
                    break
            flight.wait()
        try:
            plan = build()
            self.put(key, plan)
        finally:
            with self._lock:
                del self._building[key]
            flight.set()
        return plan, True

    def put(self, key: str, plan: ExecutionPlan) -> None:
        """Insert (or replace) a plan as the most recently used, evicting
        least-recently-used entries past :attr:`capacity`."""
        with self._lock:
            if self.tracer.enabled:
                self.tracer.event(
                    "plan_cache.put", plan=plan.label, replaced=key in self._entries
                )
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                _, victim = self._entries.popitem(last=False)
                if self.tracer.enabled:
                    self.tracer.event("plan_cache.evict", plan=victim.label)
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
