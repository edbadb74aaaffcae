"""Plan cache: cost-aware in-memory cache with optional disk persistence.

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

Persistence writes one JSON file per plan under
``<REPRO_CACHE_DIR>/plans`` (default ``.repro_cache/plans``), alongside
the sweep pickles of :mod:`repro.experiments.cache`, and honours the
same ``REPRO_NO_CACHE=1`` kill switch.  Each file holds the bare plan
dict; files from older versions wrap it in a ``{"plan", "features"}``
envelope and keep loading.  Every writer goes through its own temporary
file and an atomic rename, so concurrent writers of one key (engines or
processes sharing the directory) never see each other's half-written
file.  Corrupt or stale entries are reported with :func:`warnings.warn`
and treated as misses.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import threading
import warnings
from collections import OrderedDict
from pathlib import Path

from .plan import ExecutionPlan

__all__ = ["PlanCache", "plan_cache_dir"]


def _persist_disabled() -> bool:
    # One source of truth for the REPRO_NO_CACHE kill switch.
    from ..experiments.cache import _disabled

    return _disabled()


def plan_cache_dir() -> Path:
    """On-disk plan directory (created on demand)."""
    from ..experiments.cache import cache_dir

    p = cache_dir() / "plans"
    p.mkdir(parents=True, exist_ok=True)
    return p


def _replan_cost(plan: ExecutionPlan) -> float:
    """Model units it would take to rebuild ``plan`` from scratch."""
    cost = plan.invested_cost
    return cost if math.isfinite(cost) else 0.0


class PlanCache:
    """Bounded cache of :class:`~repro.engine.plan.ExecutionPlan` objects.

    Parameters
    ----------
    capacity:
        Maximum in-memory entries (evicted plans stay on disk when
        persisting).
    persist:
        When ``True``, plans are also written to / read from
        :func:`plan_cache_dir` as JSON, so a new process skips planning
        for patterns it has already seen.  ``REPRO_NO_CACHE=1``
        disables the disk layer entirely.
    """

    def __init__(self, capacity: int = 128, *, persist: bool = False) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        from ..obs import NOOP_TRACER

        self.capacity = int(capacity)
        self.persist = bool(persist)
        self._entries: "OrderedDict[str, ExecutionPlan]" = OrderedDict()
        # Re-entrant: serve's planner/dispatch threads share one cache,
        # and put() → _insert() → _evict_one() nests inside the lock.
        self._lock = threading.RLock()
        # Hits and misses are the engine's to count (EngineStats): it
        # looks a cold key up twice, the second time in memory only,
        # under its build lock.
        self.evictions = 0
        self.disk_hits = 0
        #: Observability hook (DESIGN.md §12): an enabled tracer receives
        #: ``plan_cache.put`` / ``plan_cache.evict`` events.  The engine
        #: attaches its own tracer when it owns one; the default no-op
        #: tracer emits nothing.
        self.tracer = NOOP_TRACER

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode()).hexdigest()[:24]
        return plan_cache_dir() / f"plan_{digest}.json"

    def _load_disk(self, key: str) -> ExecutionPlan | None:
        if not self.persist or _persist_disabled():
            return None
        path = self._path(key)
        if not path.exists():
            return None
        try:
            d = json.loads(path.read_text())
            # Older files wrap the plan in a {"plan", "features"} envelope.
            return ExecutionPlan.from_dict(d["plan"] if "plan" in d else d)
        except Exception as exc:
            warnings.warn(
                f"discarding corrupt plan-cache entry {path.name}: {exc}; the plan will be rebuilt",
                stacklevel=3,
            )
            return None

    def _store_disk(self, key: str, plan: ExecutionPlan) -> None:
        if not self.persist or _persist_disabled():
            return
        path = self._path(key)
        # A temporary name unique to this writer: a shared name lets a
        # concurrent writer of the same key rename it away first.
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(json.dumps(plan.to_dict(), sort_keys=True))
            os.chmod(tmp, 0o644)  # mkstemp's 0600 would hide the plan from other users
            os.replace(tmp, path)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise

    # ------------------------------------------------------------------
    def get(self, key: str) -> ExecutionPlan | None:
        """Look up a plan (refreshing LRU order), loading it from disk
        when persisting; counts a disk hit."""
        with self._lock:
            plan = self._entries.get(key)
            if plan is not None:
                self._entries.move_to_end(key)
                return plan
            plan = self._load_disk(key)
            if plan is not None:
                self.disk_hits += 1
                self._insert(key, plan)
            return plan

    def put(self, key: str, plan: ExecutionPlan) -> None:
        """Insert (or replace) a plan."""
        with self._lock:
            if self.tracer.enabled:
                self.tracer.event(
                    "plan_cache.put", plan=plan.label, replaced=key in self._entries
                )
            self._insert(key, plan)
            self._store_disk(key, plan)

    def _insert(self, key: str, plan: ExecutionPlan) -> None:
        with self._lock:
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
        """In-memory entry count (persisted plans on disk are not counted)."""
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """In-memory membership only — ``get`` may still succeed from
        disk when persistence is on, and unlike ``get`` this never
        touches LRU order or the disk."""
        return key in self._entries

    def clear(self, *, disk: bool = False) -> None:
        """Drop all in-memory entries; ``disk=True`` also deletes every
        persisted plan file under :func:`plan_cache_dir` (shared across
        processes — use deliberately)."""
        with self._lock:
            self._entries.clear()
        if disk and self.persist and not _persist_disabled():
            for path in plan_cache_dir().glob("plan_*.json"):
                path.unlink(missing_ok=True)

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "evictions": self.evictions,
                "disk_hits": self.disk_hits,
            }
