"""Persistent process-pool plumbing shared by the tuner, harness and
serving shards.

The tuner and the serving harness split their work into deterministic
*stride shards* (shard ``i`` holds items ``i, i+W, i+2W, ...``); the
experiment harness gives each workload one shard
(:func:`repro.harness.pool.run_cells`).  Each shard is evaluated
sequentially inside one worker process.  Sharding is pure arithmetic,
so the decomposition — and therefore the merged result — is
reproducible for any worker count; with one worker the shards run one
after another in-process, exactly the classic sequential loop.

Workers live in one **persistent, process-wide pool**: the first
parallel ``map_shards`` call spawns it lazily and every later call —
from any subsystem — reuses the same worker processes.  Replacing the
old spawn-per-invocation ``ctx.Pool`` matters twice over:

* the fixed fork/teardown cost is paid once per *process*, not once per
  dispatch, so replay-only dispatches (a warm trace cache, a memoized
  tuner search) are no longer dominated by pool start-up;
* workers retain their per-process state — decoded payloads
  (:mod:`~repro.core.tuner.handoff`), disk-backed stores
  (:func:`repro.store.open_store`) — across dispatches, so repeated
  suites replay from worker memory instead of re-reading and
  re-unpickling traces every time.

Each dispatch ships its payload through :mod:`~repro.core.tuner
.handoff`: pickled once, published via shared memory when large, and
cached worker-side by content fingerprint.  Task messages carry only
the shard and a payload handle — never a per-cell pickle.

Failure handling keeps the old guarantees: payloads or results that
cannot cross the process boundary degrade to in-process execution of
the same shards (identical results, no parallelism), and a worker that
dies mid-dispatch breaks only that attempt — the pool is respawned and
the unfinished shards re-run, which cannot change any result because
shards are pure functions of their inputs.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional, Sequence, TypeVar

from .handoff import publish_payload

T = TypeVar("T")
R = TypeVar("R")

#: Errors meaning "this cannot cross a process boundary": fall back to
#: in-process evaluation of the same shards.
_FALLBACK_ERRORS = (pickle.PicklingError, TypeError, AttributeError)

#: How many times a dispatch survives its workers being killed before
#: finishing the remaining shards in-process.
CRASH_RETRIES = 2

#: The process-wide pool (spawned lazily, reused across dispatches).
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_SIZE = 0
_ATEXIT_REGISTERED = False


def default_workers() -> int:
    """The default worker count: one per available core."""
    return max(1, os.cpu_count() or 1)


def stride_shards(items: Sequence[T], workers: int) -> list[list[T]]:
    """Split ``items`` into at most ``workers`` round-robin shards.

    Every shard is non-empty and the union, read back in stride order,
    reproduces ``items`` exactly — the tuner relies on this to merge
    shard results in canonical candidate order.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    count = min(workers, len(items))
    if count <= 1:
        return [list(items)] if items else []
    return [list(items[offset::count]) for offset in range(count)]


def _preferred_context() -> multiprocessing.context.BaseContext:
    """``fork`` where available (cheap, copy-on-write state), else default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def ensure_workers(processes: int) -> ProcessPoolExecutor:
    """The persistent pool, spawned or grown to at least ``processes``.

    A pool already at least that large is returned untouched (idle
    spare workers are cheap); a smaller pool is torn down and replaced.
    Workers are forked lazily by the executor as tasks arrive, so
    calling this is inexpensive until real work is submitted.
    """
    global _POOL, _POOL_SIZE, _ATEXIT_REGISTERED
    if processes < 1:
        raise ValueError("processes must be >= 1")
    if _POOL is not None and _POOL_SIZE >= processes:
        return _POOL
    shutdown_pool()
    _POOL = ProcessPoolExecutor(
        max_workers=processes, mp_context=_preferred_context()
    )
    _POOL_SIZE = processes
    if not _ATEXIT_REGISTERED:
        atexit.register(shutdown_pool)
        _ATEXIT_REGISTERED = True
    return _POOL


def pool_size() -> int:
    """Capacity of the live persistent pool (0 when none is running)."""
    return _POOL_SIZE if _POOL is not None else 0


def shutdown_pool(wait: bool = True) -> None:
    """Tear the persistent pool down (idempotent).

    Registered via ``atexit`` so worker processes never outlive the
    interpreter; also the recovery path after a worker crash, and a test
    isolation hook.  The next parallel ``map_shards`` call respawns a
    fresh pool lazily.
    """
    global _POOL, _POOL_SIZE
    pool = _POOL
    _POOL = None
    _POOL_SIZE = 0
    if pool is not None:
        pool.shutdown(wait=wait, cancel_futures=True)


def _invoke_shard(
    fn: Callable[[object, list[T]], R], handle, shard: list[T]
) -> R:
    """Worker entry point: decode (or reuse) the payload, run the shard."""
    return fn(handle.resolve(), shard)


_UNSET = object()


def _dispatch(
    fn: Callable[[object, list[T]], R],
    payload: object,
    handle,
    shards: list[list[T]],
    processes: int,
) -> list[R]:
    """Run every shard on the persistent pool, surviving worker crashes.

    Results come back in shard order.  A crashed worker poisons only the
    shards still in flight: the pool is respawned and those shards are
    resubmitted (pure functions — identical results).  After
    :data:`CRASH_RETRIES` broken pools the stragglers run in-process.
    """
    results: list[object] = [_UNSET] * len(shards)
    pending = list(range(len(shards)))
    for _attempt in range(CRASH_RETRIES):
        pool = ensure_workers(processes)
        try:
            futures = [
                (index, pool.submit(_invoke_shard, fn, handle, shards[index]))
                for index in pending
            ]
        except (BrokenProcessPool, RuntimeError):
            # Pool broke between dispatches (or is shutting down):
            # replace it and try again.
            shutdown_pool(wait=False)
            continue
        broken = False
        for index, future in futures:
            try:
                results[index] = future.result()
            except BrokenProcessPool:
                broken = True
        pending = [i for i, r in enumerate(results) if r is _UNSET]
        if not pending:
            return results  # type: ignore[return-value]
        if broken:
            shutdown_pool(wait=False)
    for index in pending:  # workers keep dying: finish deterministically
        results[index] = fn(payload, shards[index])
    return results  # type: ignore[return-value]


def map_shards(
    fn: Callable[[object, list[T]], R],
    payload: object,
    shards: Sequence[list[T]],
    workers: int,
) -> list[R]:
    """Run ``fn(payload, shard)`` for every shard, in order.

    ``fn`` must be a module-level function (pickled by reference).  With
    one worker or one shard everything runs in-process; otherwise the
    persistent pool evaluates the shards concurrently — the payload is
    pickled once and handed off zero-copy (see module docstring), and
    results come back in shard order regardless of completion order.
    """
    shards = list(shards)
    if not shards:
        return []
    processes = min(workers, len(shards))
    if processes <= 1:
        return [fn(payload, shard) for shard in shards]
    try:
        handle = publish_payload(payload)
    except _FALLBACK_ERRORS:
        # The payload cannot cross the process boundary; fall back to
        # the identical in-process evaluation.
        return [fn(payload, shard) for shard in shards]
    try:
        return _dispatch(fn, payload, handle, shards, processes)
    except _FALLBACK_ERRORS:
        # A result (or the function reference) cannot cross back.
        return [fn(payload, shard) for shard in shards]
    finally:
        handle.release()
