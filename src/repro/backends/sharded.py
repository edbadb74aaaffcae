"""The ``sharded`` backend — persistent worker pool over shm-resident shards.

Splits the prepared operand into contiguous shards with
:func:`~repro.machine.parallel.balanced_contiguous_partition` (the same
prefix-sum splitter the simulated machine schedules with), executes each
shard through an *inner* backend — any of ``reference`` / ``scipy`` /
``vectorized`` — and stitches the row blocks back together.  Because
row-wise and tiled SpGEMM compute each output row independently, and
cluster-wise SpGEMM computes each *cluster* independently, sharding at
those boundaries reproduces the inner backend's output exactly: the
backend inherits its inner's ``bitwise_reference`` flag and kernel
support.

Data plane (DESIGN.md §10)
--------------------------
Operands are **resident**, not shipped: shard arrays and ``B``'s CSR
arrays are published once into named shared-memory segments through
:mod:`repro.backends.operand_store` (keyed by the engine's
pattern/value digests, so residency keys match plan-cache keys), and a
persistent pool of worker processes attaches lazily with **shard
affinity** — shard ``i`` always lands on worker ``i-1``, which keeps its
attached views across calls.  Warm calls ship only small descriptors;
results come back through parent-owned shm arenas.  The parent (the
"leader") computes shard 0 in-process while workers run the rest.
``ctx.stats`` counts the traffic: ``sharded_bytes_shipped`` (fresh
segment publishes + inline pickles) vs ``sharded_bytes_reused``
(resident bytes served from the store).

Topology guard
--------------
Process parallelism only pays when cores do: the effective width is
``min(workers, effective_cores())`` (``REPRO_SHARDED_CORES`` overrides
detection — tests and CI force pools with it).  Width 1 degenerates to
executing the inner backend directly on the whole operand — no
partitioning, no stitching, no IPC — so on a single-core host
``sharded`` *is* its inner backend, byte-identical and overhead-free.

Graceful degradation
--------------------
Pool-infrastructure failures — a worker that cannot spawn, a pipe that
breaks, operands that will not pickle (``OSError`` / ``EOFError`` /
``BrokenPipeError`` / ``PicklingError``) — tear the pool down and run
the same shards sequentially in-process (results identical by
construction), counted in ``ctx.stats["sharded_pool_fallbacks"]``.  A
*deterministic compute error* raised by a worker's kernel (for example
``ValueError``) is re-raised in the parent as-is: re-running shards
in-process would only double the work to reach the same exception.
Deliberate in-process execution (the ``REPRO_SHARDED_INPROCESS=1`` kill
switch, or a width-1 topology) is silent — it is not a *fallback*.
"""

from __future__ import annotations

import os
import pickle
import threading
import traceback
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np

from . import operand_store as ostore
from .base import ExecutionBackend, ExecutionContext

__all__ = ["ShardedBackend", "ShardOperand", "effective_cores"]

#: Environment kill switch: force in-process execution (no pool).
INPROCESS_ENV = "REPRO_SHARDED_INPROCESS"

#: Override detected core count (tests/CI force a pool on any host).
CORES_ENV = "REPRO_SHARDED_CORES"

#: Resident shard sets kept per backend instance (LRU).
_SHARD_CACHE_ENTRIES = 8

#: Initial per-worker result-arena size; grows geometrically on demand.
_ARENA_START_BYTES = 1 << 20

#: Pool-infrastructure failures → teardown + in-process fallback.
#: (``EOFError``/``BrokenPipeError`` subclass nothing useful; ``OSError``
#: covers spawn failures and dead pipes; ``PicklingError`` covers
#: unpicklable payloads.)
_INFRA_ERRORS = (OSError, EOFError, BrokenPipeError, pickle.PicklingError)


def effective_cores() -> int:
    """Usable core count for process parallelism (env-overridable)."""
    env = os.environ.get(CORES_ENV, "")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass
class ShardOperand:
    """One shard of a prepared operand (satisfies ``ClusteredOperand``).

    Picklable by construction — it crosses the process boundary on the
    inline-payload path (shm unavailable).
    """

    Ar: Any
    Ac: Any = None


# ----------------------------------------------------------------------
# Operand (de)materialisation: arrays+meta for the store, objects from
# attached views on the worker side
# ----------------------------------------------------------------------
def _csr_arrays(M) -> tuple[dict[str, np.ndarray], tuple[tuple[str, Any], ...]]:
    arrays = {"indptr": M.indptr, "indices": M.indices, "values": M.values}
    return arrays, (("kind", "csr"), ("shape", (int(M.nrows), int(M.ncols))))


def _shard_arrays(shard: ShardOperand) -> tuple[dict[str, np.ndarray], tuple[tuple[str, Any], ...]]:
    arrays: dict[str, np.ndarray] = {}
    meta: list[tuple[str, Any]] = [("kind", "shard")]
    if shard.Ar is not None:
        Ar = shard.Ar
        arrays.update(ar_indptr=Ar.indptr, ar_indices=Ar.indices, ar_values=Ar.values)
        meta.append(("ar_shape", (int(Ar.nrows), int(Ar.ncols))))
    if shard.Ac is not None:
        Ac = shard.Ac
        arrays.update(
            ac_row_ids=Ac.row_ids,
            ac_cluster_ptr=Ac.cluster_ptr,
            ac_col_ptr=Ac.col_ptr,
            ac_cols=Ac.cols,
            ac_val_ptr=Ac.val_ptr,
            ac_vals=Ac.vals,
            ac_mask=Ac.mask,
        )
        meta.append(("ac_shape", (int(Ac.shape[0]), int(Ac.shape[1]))))
        meta.append(("fixed_size", Ac.fixed_size))
    return arrays, tuple(meta)


def _object_from_descriptor(desc, *, unregister: bool) -> Any:
    """Rebuild the published operand object over attached shm views."""
    from ..core.csr import CSRMatrix

    views = ostore.attach_views(desc, unregister=unregister)
    meta = desc.meta_dict()
    if meta["kind"] == "csr":
        return CSRMatrix(
            views["indptr"], views["indices"], views["values"], tuple(meta["shape"]), check=False
        )
    Ar = Ac = None
    if "ar_shape" in meta:
        Ar = CSRMatrix(
            views["ar_indptr"],
            views["ar_indices"],
            views["ar_values"],
            tuple(meta["ar_shape"]),
            check=False,
        )
    if "ac_shape" in meta:
        from ..core.csr_cluster import CSRCluster

        Ac = CSRCluster(
            row_ids=views["ac_row_ids"],
            cluster_ptr=views["ac_cluster_ptr"],
            col_ptr=views["ac_col_ptr"],
            cols=views["ac_cols"],
            val_ptr=views["ac_val_ptr"],
            vals=views["ac_vals"],
            mask=views["ac_mask"],
            shape=tuple(meta["ac_shape"]),
            fixed_size=meta["fixed_size"],
        )
    return ShardOperand(Ar=Ar, Ac=Ac)


def _payload_nbytes(obj: Any) -> int:
    """Approximate wire size of an inline operand payload."""
    if isinstance(obj, ShardOperand):
        n = 0
        if obj.Ar is not None:
            n += _payload_nbytes(obj.Ar)
        if obj.Ac is not None:
            Ac = obj.Ac
            n += sum(
                int(a.nbytes)
                for a in (
                    Ac.row_ids,
                    Ac.cluster_ptr,
                    Ac.col_ptr,
                    Ac.cols,
                    Ac.val_ptr,
                    Ac.vals,
                    Ac.mask,
                )
            )
        return n
    return int(obj.indptr.nbytes + obj.indices.nbytes + obj.values.nbytes)


# ----------------------------------------------------------------------
# Worker protocol
# ----------------------------------------------------------------------
def _resolve_payload(payload, cache: dict, *, unregister: bool) -> Any:
    """Worker-side operand lookup: resident cache, then shm, then inline.

    ``cache`` maps token → ``(object, segment_name | None)`` so evicted
    tokens can detach their mapping.
    """
    kind, token, body = payload
    entry = cache.get(token)
    if entry is not None:
        return entry[0]
    if kind == "shm":
        obj = _object_from_descriptor(body, unregister=unregister)
        cache[token] = (obj, body.name)
    else:
        obj = body
        cache[token] = (obj, None)
    return obj


def _worker_main(conn, inner_name: str, inner_params: tuple, unregister: bool) -> None:
    """Worker loop: resident operands in, result arrays out via arena.

    Module-level (picklable under spawn).  One persistent
    :class:`ExecutionContext` per worker; shard stats are aggregated by
    the parent, not the workers.
    """
    from . import get_backend

    inner = get_backend(inner_name, inner_params)
    wctx = ExecutionContext()
    cache: dict[str, tuple[Any, str | None]] = {}
    arena = None
    arena_name = None
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "close":
            break
        _, job_id, kernel, kernel_params, shard_payload, b_payload, a_name, drops = msg
        try:
            for token in drops:
                entry = cache.pop(token, None)
                if entry is not None and entry[1] is not None:
                    ostore.detach_segment(entry[1])
            if a_name != arena_name:
                if arena_name is not None:
                    ostore.detach_segment(arena_name)
                arena = ostore.attach_arena(a_name, unregister=unregister)
                arena_name = a_name
            shard = _resolve_payload(shard_payload, cache, unregister=unregister)
            Bw = _resolve_payload(b_payload, cache, unregister=unregister)
            C = inner.execute(shard, Bw, kernel=kernel, kernel_params=dict(kernel_params), ctx=wctx)
            shape = (int(C.nrows), int(C.ncols))
            metas = ostore.write_result(arena, (C.indptr, C.indices, C.values))
            if metas is None:  # arena too small: inline reply, parent grows it
                need = int(C.indptr.nbytes + C.indices.nbytes + C.values.nbytes) + 64
                reply = (
                    "ok",
                    job_id,
                    ("inline", (np.asarray(C.indptr), np.asarray(C.indices), np.asarray(C.values), shape), need),
                )
            else:
                reply = ("ok", job_id, ("arena", metas, shape))
        except BaseException as exc:  # classified and re-raised by the parent
            t = type(exc)
            reply = ("err", job_id, t.__module__, t.__name__, str(exc), traceback.format_exc())
        try:
            conn.send(reply)
        except (EOFError, OSError, BrokenPipeError):
            break
    try:
        conn.close()
    finally:
        ostore.detach_all()


def _rebuild_exception(mod: str, qualname: str, message: str, tb_text: str) -> BaseException:
    """Reconstruct a worker's exception type (fallback: RuntimeError)."""
    exc_type: type[BaseException] = RuntimeError
    try:
        import importlib

        candidate = getattr(importlib.import_module(mod), qualname)
        if isinstance(candidate, type) and issubclass(candidate, BaseException):
            exc_type = candidate
    except Exception:
        pass
    try:
        return exc_type(f"{message}\n--- worker traceback ---\n{tb_text}")
    except Exception:  # exotic constructor signature
        return RuntimeError(f"{qualname}: {message}\n--- worker traceback ---\n{tb_text}")


class _WorkerHandle:
    """Parent-side record of one worker: process, pipe, result arena and
    the set of tokens it holds resident (for attach accounting)."""

    __slots__ = ("proc", "conn", "arena", "resident")

    def __init__(self, proc, conn, arena) -> None:
        self.proc = proc
        self.conn = conn
        self.arena = arena
        self.resident: set[str] = set()


class _ShardWorkerPool:
    """Persistent shard workers with affinity (shard ``i`` → worker
    ``i-1``; the parent computes shard 0)."""

    def __init__(self, nworkers: int, inner_name: str, inner_params: tuple, store) -> None:
        import multiprocessing as mp

        method = "fork" if "fork" in mp.get_all_start_methods() else mp.get_start_method()
        mctx = mp.get_context(method)
        #: Non-fork children own a separate resource tracker that must
        #: not adopt (and later unlink) parent-owned segments.
        self.unregister_in_worker = method != "fork"
        self.workers: list[_WorkerHandle] = []
        self._job_id = 0
        try:
            # Arenas first: creating a segment starts the parent's
            # resource tracker, so every forked worker inherits *it*
            # instead of lazily spawning its own (a private tracker
            # would warn about — and try to re-unlink — parent-owned
            # segments when the worker exits).
            arenas = []
            for i in range(nworkers):
                arenas.append(store.create_arena(_ARENA_START_BYTES))
                store.register_consumer(i)
            for i in range(nworkers):
                parent_conn, child_conn = mctx.Pipe()
                proc = mctx.Process(
                    target=_worker_main,
                    args=(child_conn, inner_name, inner_params, self.unregister_in_worker),
                    daemon=True,
                    name=f"repro-shard-{i}",
                )
                proc.start()
                child_conn.close()
                self.workers.append(_WorkerHandle(proc, parent_conn, arenas[i]))
        except BaseException:
            for arena in arenas[len(self.workers) :]:
                store.release_arena(arena)
            self.shutdown(store)
            raise

    def __len__(self) -> int:
        return len(self.workers)

    def alive(self) -> bool:
        return bool(self.workers) and all(h.proc.is_alive() for h in self.workers)

    def next_job_id(self) -> int:
        self._job_id += 1
        return self._job_id

    def grow_arena(self, handle: _WorkerHandle, need: int, store) -> None:
        size = max(2 * handle.arena.size, 1 << max(need - 1, 1).bit_length())
        store.release_arena(handle.arena)
        handle.arena = store.create_arena(size)

    def shutdown(self, store) -> None:
        for h in self.workers:
            try:
                h.conn.send(("close",))
            except Exception:
                pass
        for h in self.workers:
            try:
                h.conn.close()
            except Exception:
                pass
        for h in self.workers:
            h.proc.join(timeout=2.0)
            if h.proc.is_alive():
                h.proc.terminate()
                h.proc.join(timeout=2.0)
        for h in self.workers:
            store.release_arena(h.arena)
        self.workers = []


@dataclass
class _ResidentShards:
    """One cached shard set: the partition (parent-side objects), the
    scatter rows and the store tokens workers address them by."""

    shards: list[tuple[ShardOperand, Any]]
    clustered: bool
    tokens: list[str]


class _Resources:
    """Pool + store bundle torn down by ``weakref.finalize`` when the
    backend instance is dropped (and at interpreter exit) — dropped
    backends must release their workers and shm, not pin them for
    process lifetime."""

    __slots__ = ("store", "pool")

    def __init__(self, store) -> None:
        self.store = store
        self.pool: _ShardWorkerPool | None = None

    def teardown_pool(self) -> None:
        if self.pool is not None:
            pool, self.pool = self.pool, None
            pool.shutdown(self.store)

    def close(self) -> None:
        self.teardown_pool()
        self.store.close()


def _vstack_csr(blocks, ncols: int):
    """Stack CSR row blocks (shard outputs, in shard order)."""
    from ..core.csr import CSRMatrix

    nrows = sum(b.nrows for b in blocks)
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    pos, off = 1, 0
    for b in blocks:
        indptr[pos : pos + b.nrows] = b.indptr[1:] + off
        pos += b.nrows
        off += b.nnz
    indices = np.concatenate([b.indices for b in blocks]) if blocks else np.zeros(0, np.int64)
    values = np.concatenate([b.values for b in blocks]) if blocks else np.zeros(0, np.float64)
    return CSRMatrix(indptr, indices, values, (nrows, ncols), check=False)


def _slice_cluster(Ac, c0: int, c1: int) -> Any:
    """Rebase clusters ``[c0, c1)`` of ``Ac`` into a standalone
    ``CSRCluster`` whose rows are numbered ``0..k`` in cluster order
    (so shard outputs are already in cluster-local order)."""
    from ..core.csr_cluster import CSRCluster

    r0, r1 = int(Ac.cluster_ptr[c0]), int(Ac.cluster_ptr[c1])
    p0, p1 = int(Ac.col_ptr[c0]), int(Ac.col_ptr[c1])
    v0, v1 = int(Ac.val_ptr[c0]), int(Ac.val_ptr[c1])
    return CSRCluster(
        row_ids=np.arange(r1 - r0, dtype=np.int64),
        cluster_ptr=Ac.cluster_ptr[c0 : c1 + 1] - r0,
        col_ptr=Ac.col_ptr[c0 : c1 + 1] - p0,
        cols=Ac.cols[p0:p1],
        val_ptr=Ac.val_ptr[c0 : c1 + 1] - v0,
        vals=Ac.vals[v0:v1],
        mask=Ac.mask[v0:v1],
        shape=(r1 - r0, Ac.ncols),
        fixed_size=Ac.fixed_size,
    )


class ShardedBackend(ExecutionBackend):
    """Row/cluster-partition executor over persistent worker processes."""

    name: ClassVar[str] = "sharded"
    parallelism: ClassVar[str] = "process"
    planner_rank: ClassVar[int | None] = None  # composite: pin it explicitly
    model_speed_factor: ClassVar[float] = 0.6
    description: ClassVar[str] = "shm-resident row/cluster shards over an inner backend"

    def __init__(self, *, workers: int = 2, inner: str = "reference") -> None:
        """``workers``: requested pool width — capped at
        :func:`effective_cores`; ``0`` means "auto" (every effective
        core); an effective width of ``1`` executes the inner backend
        directly.  ``inner``: the backend each shard executes through,
        as a name or a parameterised spec (``"scipy"``,
        ``"vectorized:..."``)."""
        from . import parse_backend

        self.workers = max(0, int(workers))
        self.inner_name, self.inner_params = parse_backend(str(inner))
        if self.inner_name == self.name:
            raise ValueError("sharded backend cannot nest itself as inner")
        self._lock = threading.Lock()
        self._shard_cache: "OrderedDict[tuple, _ResidentShards]" = OrderedDict()
        self._resources = _Resources(ostore.OperandStore())
        self._finalizer = weakref.finalize(self, _Resources.close, self._resources)

    # -- capabilities inherited from the inner backend ------------------
    @property
    def inner(self) -> ExecutionBackend:
        from . import get_backend

        return get_backend(self.inner_name, self.inner_params)

    @property
    def bitwise_reference(self) -> bool:
        return self.inner.bitwise_reference

    @property
    def supported_kernels(self) -> tuple[str, ...] | None:
        return self.inner.supported_kernels

    @property
    def _store(self):
        return self._resources.store

    @property
    def _pool(self) -> _ShardWorkerPool | None:
        return self._resources.pool

    # -- residency tokens (engine digests, see DESIGN.md §10) -----------
    def _b_token(self, B, ctx: ExecutionContext) -> str:
        """``pattern:value`` digest token for the right operand.  The
        engine hints it through ``ctx.operand_tokens`` (same digests as
        its plan-cache keys); driven standalone, the backend computes
        the identical token itself."""
        hints = getattr(ctx, "operand_tokens", None)
        if hints:
            tok = hints.get(id(B))
            if tok is not None:
                return tok
        from ..engine.fingerprint import pattern_digest, value_digest

        return f"{pattern_digest(B)[:20]}:{value_digest(B)[:20]}"

    def _operand_token(self, operand) -> str:
        """Digest token for a prepared left operand (memoised on the
        operand — the engine caches prepared operands, so this is
        one-time per operand)."""
        tok = getattr(operand, "_repro_shm_token", None)
        if tok is not None:
            return tok
        from ..engine.fingerprint import _digest_arrays, pattern_digest, value_digest

        parts = []
        if operand.Ar is not None:
            parts.append(pattern_digest(operand.Ar)[:20])
            parts.append(value_digest(operand.Ar)[:20])
        Ac = getattr(operand, "Ac", None)
        if Ac is not None:  # same Ar under a different clustering must not collide
            parts.append(_digest_arrays(Ac.cluster_ptr, Ac.col_ptr, Ac.cols)[:20])
        tok = "-".join(parts)
        try:
            operand._repro_shm_token = tok
        except (AttributeError, TypeError):
            pass  # slotted/frozen operands recompute per call
        return tok

    # -- sharding -------------------------------------------------------
    def _shards(self, operand, B, kernel: str, parts: int):
        """Split the operand into ``(ShardOperand, row_ids|None)`` pairs."""
        from ..machine.parallel import balanced_contiguous_partition
        from ..pipeline import get_component

        if get_component("kernel", kernel).requires_clustering:
            Ac = operand.Ac
            if Ac is None:
                raise ValueError("sharded backend needs a clustered operand for the cluster kernel")
            sizes = Ac.cluster_sizes()
            weights = (np.diff(Ac.col_ptr) * sizes).astype(np.float64)  # padded fiber work
            chunks = balanced_contiguous_partition(weights, parts)
            shards = []
            for chunk in chunks:
                if chunk.size == 0:
                    continue
                c0, c1 = int(chunk[0]), int(chunk[-1]) + 1
                rows = Ac.row_ids[Ac.cluster_ptr[c0] : Ac.cluster_ptr[c1]]
                # The CSR slice rides along in cluster-local row order so
                # inner backends that consume ``operand.Ar`` (scipy) see
                # the same rows the cluster shard computes, in the same
                # order.
                Ar_shard = operand.Ar.extract_rows(rows) if operand.Ar is not None else None
                shards.append((ShardOperand(Ar=Ar_shard, Ac=_slice_cluster(Ac, c0, c1)), rows))
            return shards, True
        Ar = operand.Ar
        b_lens = np.diff(B.indptr)
        row_of = np.repeat(np.arange(Ar.nrows, dtype=np.int64), np.diff(Ar.indptr))
        weights = np.bincount(row_of, weights=b_lens[Ar.indices], minlength=Ar.nrows)
        chunks = balanced_contiguous_partition(weights, parts)
        shards = [
            (ShardOperand(Ar=Ar.extract_rows(chunk)), None) for chunk in chunks if chunk.size
        ]
        return shards, False

    def _resident_shards(self, operand, B, kernel: str, parts: int, ctx) -> _ResidentShards:
        """Shard-set cache: one partition per (operand, B-pattern,
        kernel, width), reused across calls so repeated multiplies skip
        the split *and* keep their store tokens (→ resident segments)."""
        op_token = self._operand_token(operand)
        from ..pipeline import get_component

        clustered = get_component("kernel", kernel).requires_clustering
        # Row-wise shard boundaries weight rows by B's pattern; cluster
        # boundaries do not read B at all.
        b_part = None if clustered else self._b_token(B, ctx).split(":", 1)[0]
        key = (op_token, b_part, kernel, parts)
        entry = self._shard_cache.get(key)
        if entry is not None:
            self._shard_cache.move_to_end(key)
            return entry
        shards, clustered = self._shards(operand, B, kernel, parts)
        tokens = [f"shard:{op_token}:{b_part}:{kernel}:{parts}:{i}" for i in range(len(shards))]
        entry = _ResidentShards(shards=shards, clustered=clustered, tokens=tokens)
        self._shard_cache[key] = entry
        while len(self._shard_cache) > _SHARD_CACHE_ENTRIES:
            _, old = self._shard_cache.popitem(last=False)
            for token in old.tokens:
                self._store.evict(token)
        return entry

    # -- pool management ------------------------------------------------
    def _ensure_pool(self, width: int) -> _ShardWorkerPool:
        """A live pool of ``width - 1`` workers (the parent is shard 0's
        executor); rebuilt when the width changes or a worker died."""
        pool = self._resources.pool
        nworkers = width - 1
        if pool is not None and (len(pool) != nworkers or not pool.alive()):
            self._resources.teardown_pool()
            pool = None
        if pool is None:
            pool = _ShardWorkerPool(nworkers, self.inner_name, self.inner_params, self._store)
            self._resources.pool = pool
        return pool

    def _teardown_pool(self) -> None:
        """Discard a broken pool; the *next* execution builds a fresh
        one (a transient failure must not disable sharding forever —
        the current execution falls back in-process instead of
        retrying).  Published operand segments stay resident."""
        self._resources.teardown_pool()

    def close(self) -> None:
        """Shut down the workers and unlink every shm segment (a later
        execute reopens both)."""
        with self._lock:
            self._resources.close()
            self._shard_cache.clear()

    # -- execution ------------------------------------------------------
    def execute(
        self,
        operand: Any,
        B: Any,
        *,
        kernel: str,
        kernel_params: dict[str, Any],
        ctx: ExecutionContext,
    ) -> Any:
        inner = self.inner
        if not inner.supports_kernel(kernel):
            raise ValueError(
                f"sharded inner backend {self.inner_name!r} does not support kernel {kernel!r}"
            )
        ctx.bump("sharded_executions")
        width = min(self.workers or effective_cores(), effective_cores())
        if width <= 1:
            # Topology guard: a 1-wide shard plan *is* the inner backend.
            ctx.bump("sharded_shards", 1)
            return inner.execute(operand, B, kernel=kernel, kernel_params=kernel_params, ctx=ctx)

        with self._lock:
            entry = self._resident_shards(operand, B, kernel, width, ctx)
            shards = entry.shards
            ctx.bump("sharded_shards", len(shards))

            results = None
            want_pool = len(shards) > 1 and os.environ.get(INPROCESS_ENV, "") != "1"
            if want_pool:
                results = self._execute_pool(entry, B, kernel, kernel_params, width, ctx)
                if results is None:
                    ctx.bump("sharded_pool_fallbacks")
        if results is None:
            results = [
                inner.execute(shard, B, kernel=kernel, kernel_params=kernel_params, ctx=ctx)
                for shard, _ in shards
            ]

        C = _vstack_csr(results, B.ncols)
        if entry.clustered:
            # Shard outputs are in cluster order; scatter rows back to the
            # operand's row order (the cluster kernel's contract).
            row_ids = np.concatenate([rows for _, rows in shards])
            inv = np.empty(row_ids.size, dtype=np.int64)
            inv[row_ids] = np.arange(row_ids.size, dtype=np.int64)
            C = C.permute_rows(inv)
        return C

    # -- pool execution -------------------------------------------------
    def _operand_payload(self, token: str, obj: Any, arrays_meta, ctx: ExecutionContext, pinned):
        """Descriptor for a resident segment (publishing on first use),
        or the object inline when shm is unavailable.  Pins the segment
        for the duration of the call (``pinned`` collects the tokens to
        release) and counts shipped vs reused bytes."""
        store = self._store
        desc = store.get(token)
        if desc is not None:
            store.pin(token)
            pinned.append(token)
            ctx.bump("sharded_bytes_reused", desc.size)
            return ("shm", token, desc)
        try:
            arrays, meta = arrays_meta()
            desc = store.publish(token, arrays, meta=meta, tracer=ctx.tracer)
            store.pin(token)
            pinned.append(token)
            ctx.bump("sharded_bytes_shipped", desc.size)
            return ("shm", token, desc)
        except OSError:
            ctx.bump("sharded_bytes_shipped", _payload_nbytes(obj))
            return ("inline", token, obj)

    def _execute_pool(self, entry: _ResidentShards, B, kernel, kernel_params, width, ctx):
        """Run shards on the worker pool (parent computes shard 0);
        ``None`` signals infrastructure fallback; a worker's
        deterministic compute error re-raises."""
        shards, tokens = entry.shards, entry.tokens
        store = self._store
        tracer = ctx.tracer
        inner = self.inner
        b_token = "B:" + self._b_token(B, ctx)
        pinned: list[str] = []
        sent: list[tuple[_WorkerHandle, int]] = []
        try:
            try:
                pool = self._ensure_pool(width)
                b_payload = self._operand_payload(b_token, B, lambda: _csr_arrays(B), ctx, pinned)
                for i in range(1, len(shards)):
                    handle = pool.workers[i - 1]  # shard affinity
                    shard_payload = self._operand_payload(
                        tokens[i], shards[i][0], lambda s=shards[i][0]: _shard_arrays(s), ctx, pinned
                    )
                    drops = store.drain_evictions(i - 1)
                    handle.resident.difference_update(drops)
                    for payload in (shard_payload, b_payload):
                        if payload[0] == "shm" and payload[1] not in handle.resident:
                            handle.resident.add(payload[1])
                            if tracer is not None and tracer.enabled:
                                tracer.event(
                                    "shm.attach", worker=i - 1, token=payload[1][:32]
                                )
                    job_id = pool.next_job_id()
                    handle.conn.send(
                        (
                            "exec",
                            job_id,
                            kernel,
                            kernel_params,
                            shard_payload,
                            b_payload,
                            handle.arena.name,
                            drops,
                        )
                    )
                    sent.append((handle, job_id))
            except _INFRA_ERRORS:
                self._teardown_pool()
                return None

            # Leader computes shard 0 while the workers run the rest; a
            # deterministic error here must still drain worker replies
            # (the pool stays message-aligned for the next call).
            lead_exc: BaseException | None = None
            results: list[Any] = [None] * len(shards)
            try:
                results[0] = inner.execute(
                    shards[0][0], B, kernel=kernel, kernel_params=kernel_params, ctx=ctx
                )
            except BaseException as exc:
                lead_exc = exc

            worker_err = None
            try:
                for i, (handle, job_id) in enumerate(sent, start=1):
                    reply = handle.conn.recv()
                    if reply[0] == "err":
                        if worker_err is None:
                            worker_err = _rebuild_exception(*reply[2:6])
                        continue
                    _, got_id, body = reply
                    if got_id != job_id:
                        raise EOFError(f"worker reply out of order: {got_id} != {job_id}")
                    results[i] = self._result_from_reply(handle, body)
            except _INFRA_ERRORS:
                self._teardown_pool()
                if lead_exc is not None:
                    raise lead_exc
                return None
            if lead_exc is not None:
                raise lead_exc
            if worker_err is not None:
                raise worker_err
            return results
        finally:
            for token in pinned:
                store.unpin(token)

    def _result_from_reply(self, handle: _WorkerHandle, body):
        """CSR block from a worker reply — arena views (copied during
        stitching) or an inline pickle (after which the arena grows)."""
        from ..core.csr import CSRMatrix

        kind = body[0]
        if kind == "arena":
            _, metas, shape = body
            indptr, indices, values = ostore.read_result(handle.arena, metas)
            return CSRMatrix(indptr, indices, values, shape, check=False)
        _, arrays, need = body
        indptr, indices, values, shape = arrays
        self._resources.pool.grow_arena(handle, need, self._store)
        return CSRMatrix(indptr, indices, values, shape, check=False)
