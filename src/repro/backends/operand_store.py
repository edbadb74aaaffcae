"""Shared-memory operand store — the ``sharded`` backend's data plane.

The paper's cluster-wise decomposition makes shards independent; the
communication-avoiding SpGEMM literature (Akbudak & Aykanat's
hypergraph-partitioned formulations, Nagasaka et al.'s memory-conscious
kernels) assumes operands are *resident* where the compute runs.  This
module provides that residency for worker processes: operand arrays are
published **once** into named ``multiprocessing.shared_memory`` segments
keyed by the engine's pattern/value digests, workers attach lazily and
keep their views across calls, and repeated multiplies ship only a
small descriptor instead of re-pickling megabytes of CSR arrays.

Confinement contract (RA008)
----------------------------
This file is the **only** module in ``repro`` allowed to construct or
attach :class:`~multiprocessing.shared_memory.SharedMemory`.  Everything
else — the sharded backend, its workers, tests — handles opaque
:class:`SegmentDescriptor` values and dispatches through the store API,
so segment lifecycle (refcounts, eviction, ``unlink``) has a single
auditable owner.

Lifecycle
---------
* :meth:`OperandStore.publish` copies arrays into one fresh segment and
  returns its descriptor; :meth:`OperandStore.get` serves the resident
  descriptor on later calls (LRU-touched).
* Tokens are **pinned** for the duration of an execution
  (:meth:`OperandStore.pin` / :meth:`OperandStore.unpin`): the byte-
  budget eviction sweep never unlinks a segment a live call references.
* Eviction and :meth:`OperandStore.close` ``unlink`` eagerly; evicted
  tokens are queued per consumer (:meth:`OperandStore.drain_evictions`)
  so worker processes can drop their stale attachments on the next
  message.  POSIX semantics make this safe: an unlinked segment stays
  mapped wherever it is still attached and is freed with the last
  detach.
* Every store registers a :func:`weakref.finalize` (which the stdlib
  runs at interpreter exit too), so no segment outlives the parent even
  when ``close()`` is never called — resource-tracker clean, no leaked
  ``/dev/shm`` entries on worker death.

Resource-tracker notes
----------------------
Under the ``fork`` start method a worker shares the parent's tracker
process, so its attach-time ``register`` is a set-add no-op and the
parent's ``unlink`` (which unregisters) retires the name exactly once.
Under ``spawn`` each worker has its *own* tracker, which would unlink
shared segments when the worker exits — :func:`attach_views` therefore
unregisters worker-side attachments when told the start method is not
``fork``.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Iterable, Mapping

import numpy as np

__all__ = [
    "ArraySpec",
    "SegmentDescriptor",
    "OperandStore",
    "ResultArena",
    "attach_views",
    "detach_segment",
    "detach_all",
    "attach_arena",
    "write_result",
    "read_result",
    "leaked_segments",
]

#: Prefix of every segment this store creates — greppable in /dev/shm,
#: asserted empty by the CI smoke job after a run.
SEGMENT_PREFIX = "repro-shm-"

#: Byte budget for resident operand segments (env-tunable); the LRU
#: sweep unlinks unpinned segments beyond it.
BUDGET_ENV = "REPRO_SHM_BUDGET_MB"
DEFAULT_BUDGET_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True)
class ArraySpec:
    """One array inside a segment: name, dtype, shape and byte offset."""

    field: str
    dtype: str
    shape: tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape, dtype=np.int64)))


@dataclass(frozen=True)
class SegmentDescriptor:
    """Picklable handle to one published segment (what crosses the pipe
    instead of the arrays themselves)."""

    name: str
    token: str
    size: int
    arrays: tuple[ArraySpec, ...]
    #: Free-form picklable metadata (shapes, flags) the consumer needs
    #: to rebuild its operand objects.
    meta: tuple[tuple[str, Any], ...] = ()

    def meta_dict(self) -> dict[str, Any]:
        return dict(self.meta)


def _layout(arrays: Mapping[str, np.ndarray]) -> tuple[tuple[ArraySpec, ...], int]:
    """Pack arrays back to back (8-byte aligned) into one segment."""
    specs: list[ArraySpec] = []
    offset = 0
    for field, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        offset = (offset + 7) & ~7
        specs.append(ArraySpec(field, str(arr.dtype), tuple(arr.shape), offset))
        offset += arr.nbytes
    return tuple(specs), max(offset, 1)


class _Segment:
    """Parent-side record of one live segment."""

    __slots__ = ("shm", "descriptor", "pins")

    def __init__(self, shm: shared_memory.SharedMemory, descriptor: SegmentDescriptor) -> None:
        self.shm = shm
        self.descriptor = descriptor
        self.pins = 0


def _unlink_quietly(shm: shared_memory.SharedMemory) -> None:
    """Unlink + close, tolerating already-gone names and lingering
    buffer views (the mapping is freed with the last reference)."""
    try:
        shm.unlink()
    except FileNotFoundError:
        pass
    try:
        shm.close()
    except BufferError:
        pass


def _close_segments(segments: "OrderedDict[str, _Segment]", arenas: dict) -> None:
    """Module-level finalizer body (must not reference the store)."""
    for seg in segments.values():
        _unlink_quietly(seg.shm)
    segments.clear()
    for arena in arenas.values():
        _unlink_quietly(arena.shm)
    arenas.clear()


class OperandStore:
    """Parent-side registry of published operand segments.

    One store per :class:`~repro.backends.sharded.ShardedBackend`
    instance, which lives as long as the engine or built pipeline that
    opened it.  Thread-safe; all segment construction in the
    codebase funnels through here (RA008).
    """

    _COUNTER = 0
    _COUNTER_LOCK = threading.Lock()

    def __init__(self, *, budget_bytes: int | None = None) -> None:
        if budget_bytes is None:
            mb = os.environ.get(BUDGET_ENV, "")
            budget_bytes = int(float(mb) * 1024 * 1024) if mb else DEFAULT_BUDGET_BYTES
        self.budget_bytes = int(budget_bytes)
        self._lock = threading.RLock()
        self._segments: "OrderedDict[str, _Segment]" = OrderedDict()  # token → segment
        self._arenas: dict[int, "ResultArena"] = {}  # arena id → arena
        #: Tokens evicted since each consumer last drained (consumer =
        #: worker index); workers drop stale attachments from these.
        self._pending_evictions: dict[int, set[str]] = {}
        self._finalizer = weakref.finalize(self, _close_segments, self._segments, self._arenas)

    # ------------------------------------------------------------------
    # Naming
    # ------------------------------------------------------------------
    @classmethod
    def _next_name(cls, tag: str) -> str:
        with cls._COUNTER_LOCK:
            cls._COUNTER += 1
            n = cls._COUNTER
        return f"{SEGMENT_PREFIX}{os.getpid()}-{tag}{n}"

    # ------------------------------------------------------------------
    # Publish / lookup
    # ------------------------------------------------------------------
    def publish(
        self,
        token: str,
        arrays: Mapping[str, np.ndarray],
        *,
        meta: Iterable[tuple[str, Any]] = (),
        tracer: Any = None,
    ) -> SegmentDescriptor:
        """Copy ``arrays`` into a fresh segment registered under
        ``token``; returns the resident descriptor if one exists."""
        with self._lock:
            seg = self._segments.get(token)
            if seg is not None:
                self._segments.move_to_end(token)
                return seg.descriptor
        specs, size = _layout(arrays)
        shm = shared_memory.SharedMemory(create=True, size=size, name=self._next_name("o"))
        for spec in specs:
            src = np.ascontiguousarray(arrays[spec.field])
            dst = np.ndarray(spec.shape, dtype=spec.dtype, buffer=shm.buf, offset=spec.offset)
            dst[...] = src
        descriptor = SegmentDescriptor(
            name=shm.name, token=token, size=size, arrays=specs, meta=tuple(meta)
        )
        with self._lock:
            racer = self._segments.get(token)
            if racer is not None:  # concurrent publisher won; drop ours
                _unlink_quietly(shm)
                return racer.descriptor
            self._segments[token] = _Segment(shm, descriptor)
        if tracer is not None and tracer.enabled:
            tracer.event("shm.publish", token=token[:32], bytes=size)
        self._sweep(tracer=tracer)
        return descriptor

    def get(self, token: str) -> SegmentDescriptor | None:
        """Resident descriptor for ``token`` (LRU-touched), else None."""
        with self._lock:
            seg = self._segments.get(token)
            if seg is None:
                return None
            self._segments.move_to_end(token)
            return seg.descriptor

    def resident_bytes(self) -> int:
        with self._lock:
            return sum(seg.descriptor.size for seg in self._segments.values())

    def resident_tokens(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._segments)

    # ------------------------------------------------------------------
    # Pinning & eviction
    # ------------------------------------------------------------------
    def pin(self, token: str) -> None:
        with self._lock:
            seg = self._segments.get(token)
            if seg is not None:
                seg.pins += 1

    def unpin(self, token: str) -> None:
        with self._lock:
            seg = self._segments.get(token)
            if seg is not None and seg.pins > 0:
                seg.pins -= 1

    def evict(self, token: str, *, tracer: Any = None) -> bool:
        """Unlink one segment now (pinned segments refuse)."""
        with self._lock:
            seg = self._segments.get(token)
            if seg is None or seg.pins > 0:
                return False
            del self._segments[token]
            for dropped in self._pending_evictions.values():
                dropped.add(token)
        _unlink_quietly(seg.shm)
        if tracer is not None and tracer.enabled:
            tracer.event("shm.evict", token=token[:32], bytes=seg.descriptor.size)
        return True

    def _sweep(self, *, tracer: Any = None) -> None:
        """LRU-evict unpinned segments beyond the byte budget."""
        while True:
            with self._lock:
                if sum(s.descriptor.size for s in self._segments.values()) <= self.budget_bytes:
                    return
                victim = next(
                    (tok for tok, seg in self._segments.items() if seg.pins == 0), None
                )
            if victim is None:
                return
            self.evict(victim, tracer=tracer)

    def register_consumer(self, consumer: int) -> None:
        with self._lock:
            self._pending_evictions.setdefault(consumer, set())

    def drain_evictions(self, consumer: int) -> tuple[str, ...]:
        """Tokens evicted since ``consumer`` last drained (sorted for
        deterministic messages)."""
        with self._lock:
            dropped = self._pending_evictions.get(consumer)
            if not dropped:
                return ()
            out = tuple(sorted(dropped))
            dropped.clear()
            return out

    # ------------------------------------------------------------------
    # Result arenas
    # ------------------------------------------------------------------
    def create_arena(self, size: int) -> "ResultArena":
        """Parent-owned scratch segment a worker writes results into
        (descriptor-only result transport, no result pickling)."""
        size = max(int(size), 4096)
        shm = shared_memory.SharedMemory(create=True, size=size, name=self._next_name("a"))
        arena = ResultArena(name=shm.name, size=size, shm=shm)
        with self._lock:
            self._arenas[id(arena)] = arena
        return arena

    def release_arena(self, arena: "ResultArena") -> None:
        with self._lock:
            self._arenas.pop(id(arena), None)
        _unlink_quietly(arena.shm)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unlink every segment and arena now (idempotent)."""
        with self._lock:
            segments = list(self._segments.values())
            self._segments.clear()
            arenas = list(self._arenas.values())
            self._arenas.clear()
            self._pending_evictions.clear()
        for seg in segments:
            _unlink_quietly(seg.shm)
        for arena in arenas:
            _unlink_quietly(arena.shm)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OperandStore(segments={len(self._segments)}, "
            f"bytes={self.resident_bytes()}/{self.budget_bytes})"
        )


@dataclass
class ResultArena:
    """One parent-owned result segment (name + size travel to the
    worker; the parent keeps the mapping to read replies)."""

    name: str
    size: int
    shm: shared_memory.SharedMemory


# ----------------------------------------------------------------------
# Worker-side attachment (module-global cache: one mapping per segment
# per process, kept resident across calls — the whole point)
# ----------------------------------------------------------------------
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


def _attach(name: str, *, unregister: bool = False) -> shared_memory.SharedMemory:
    shm = _ATTACHED.get(name)
    if shm is None:
        shm = shared_memory.SharedMemory(name=name)
        if unregister:
            # Non-fork start methods give the worker its own resource
            # tracker, which would unlink shared segments when the
            # worker exits; the parent owns cleanup, so deregister.
            from multiprocessing import resource_tracker

            try:
                resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
            except Exception:
                pass
        _ATTACHED[name] = shm
    return shm


def attach_views(
    descriptor: SegmentDescriptor, *, unregister: bool = False
) -> dict[str, np.ndarray]:
    """Read-only array views over a published segment (cached mapping)."""
    shm = _attach(descriptor.name, unregister=unregister)
    views: dict[str, np.ndarray] = {}
    for spec in descriptor.arrays:
        v = np.ndarray(spec.shape, dtype=spec.dtype, buffer=shm.buf, offset=spec.offset)
        v.flags.writeable = False
        views[spec.field] = v
    return views


def detach_segment(name: str) -> None:
    """Drop this process's mapping of ``name`` (eviction follow-up)."""
    shm = _ATTACHED.pop(name, None)
    if shm is not None:
        try:
            shm.close()
        except BufferError:  # stale views still alive; freed with them
            pass


def detach_all() -> None:
    for name in list(_ATTACHED):
        detach_segment(name)


def attach_arena(name: str, *, unregister: bool = False) -> shared_memory.SharedMemory:
    """Worker-side handle to a parent-owned result arena."""
    return _attach(name, unregister=unregister)


def write_result(
    arena: shared_memory.SharedMemory, arrays: Iterable[np.ndarray]
) -> list[tuple[str, tuple[int, ...], int]] | None:
    """Pack ``arrays`` into the arena; ``None`` when they do not fit
    (caller falls back to an inline pickled reply and the parent grows
    the arena for next time)."""
    metas: list[tuple[str, tuple[int, ...], int]] = []
    offset = 0
    arena_size = arena.size
    staged: list[tuple[np.ndarray, int]] = []
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        offset = (offset + 7) & ~7
        if offset + arr.nbytes > arena_size:
            return None
        staged.append((arr, offset))
        metas.append((str(arr.dtype), tuple(arr.shape), offset))
        offset += arr.nbytes
    for arr, off in staged:
        dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=arena.buf, offset=off)
        dst[...] = arr
    return metas


def read_result(
    arena: shared_memory.SharedMemory | ResultArena,
    metas: Iterable[tuple[str, tuple[int, ...], int]],
) -> list[np.ndarray]:
    """Parent-side views over a worker's reply (valid until the next
    job is sent to that worker; callers copy while stitching)."""
    buf = arena.shm.buf if isinstance(arena, ResultArena) else arena.buf
    return [
        np.ndarray(shape, dtype=dtype, buffer=buf, offset=offset)
        for dtype, shape, offset in metas
    ]


def leaked_segments() -> list[str]:
    """Names of this machine's leftover store segments (test/CI probe)."""
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-POSIX
        return []
    return sorted(n for n in os.listdir(shm_dir) if n.startswith(SEGMENT_PREFIX))
