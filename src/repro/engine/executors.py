"""Shard execution backends for partition-parallel stages.

The matching hot path (:mod:`repro.matching.parallel`) splits its work
into deterministic shards and hands them to a *shard executor* — a
minimal order-preserving ``map`` abstraction with two implementations:

:class:`SerialExecutor`
    Runs every shard inline in the calling thread.  The zero-overhead
    baseline, and the fallback whenever process pools are unavailable
    (sandboxes without ``fork``/semaphores) or not worth their cost.

:class:`ProcessExecutor`
    Fans shards out over a ``concurrent.futures.ProcessPoolExecutor``
    (``forkserver`` start method where available — see
    :func:`_pool_context` for why plain ``fork`` is unsafe under the
    engine's worker threads).  Unlike the engine's thread pool — which
    the GIL limits to interleaving pure-Python work — separate
    processes scale CPU-bound similarity scoring with the core count.
    The pool is created per :meth:`~ProcessExecutor.map` call, so no
    worker processes linger between pipeline runs; the per-call cost
    (tens of milliseconds once the fork server is warm) is what the
    ``min_pairs`` threshold amortizes away.

Both executors preserve task order (``results[i]`` belongs to
``tasks[i]``), which is what lets callers merge shard outputs back into
a deterministic global order.
"""

from __future__ import annotations

import logging
import pickle
import threading
from collections.abc import Callable, Sequence
from concurrent.futures.process import BrokenProcessPool
from typing import TypeVar

from repro.telemetry.metrics import get_metrics

__all__ = [
    "SerialExecutor",
    "ProcessExecutor",
    "executor_for",
    "shared_state",
]

_LOGGER = logging.getLogger(__name__)

_FALLBACKS = get_metrics().counter(
    "frost_executor_fallback_total",
    "Process-pool shard maps rerun serially after a pool-level failure",
)

# Failures of the pool rather than of a task: a worker process died,
# something could not be pickled across the process boundary, or
# processes/semaphores could not be created.  A task's own exception
# is none of these and propagates unchanged.
_POOL_ERRORS = (BrokenProcessPool, pickle.PicklingError, OSError)

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")

# Per-worker shared task state.  A process pool ships `shared` to each
# worker exactly once (via the pool initializer) instead of pickling it
# into every task — the shard workers read it back with
# :func:`shared_state`.  Two storage slots keep this safe everywhere:
#
# * pool workers are single-threaded, so the initializer stores into a
#   plain module global that lives for the pool's lifetime;
# * the serial executor runs *inline on the caller's thread* — engine
#   worker threads may run several comparison stages concurrently, so
#   it stores into a ``threading.local`` slot (set/restored around the
#   loop) that cannot bleed into a sibling thread's stage.
#
# :func:`shared_state` prefers the thread-local slot, falling back to
# the worker global.
_worker_shared = None
_thread_shared = threading.local()

_UNSET = object()


def _set_shared_state(value) -> None:
    """Pool-worker initializer: install the per-worker shared value."""
    global _worker_shared
    _worker_shared = value


def shared_state():
    """The ``shared`` value the current executor ships to workers."""
    value = getattr(_thread_shared, "value", _UNSET)
    if value is not _UNSET:
        return value
    return _worker_shared


class SerialExecutor:
    """Run shards inline, in order, on the calling thread."""

    workers = 1

    def map(
        self,
        function: Callable[[_Task], _Result],
        tasks: Sequence[_Task],
        shared=None,
    ) -> list[_Result]:
        """Apply ``function`` to every task; results keep task order."""
        if shared is None:
            return [function(task) for task in tasks]
        previous = getattr(_thread_shared, "value", _UNSET)
        _thread_shared.value = shared
        try:
            return [function(task) for task in tasks]
        finally:
            if previous is _UNSET:
                del _thread_shared.value
            else:
                _thread_shared.value = previous

    def __repr__(self) -> str:
        return "SerialExecutor()"


_pool_context_cache = None


def _pool_context():
    """The multiprocessing start method for shard pools.

    Plain ``fork`` is unsafe here: shard pools are routinely created
    from :class:`~repro.engine.runner.ExperimentEngine` worker threads
    (pipeline jobs, streaming ingests), and forking a multithreaded
    process can clone a lock a sibling thread holds mid-operation —
    the child then deadlocks and ``pool.map`` hangs without raising
    (CPython 3.12 deprecates exactly this pattern, and 3.14 switches
    the Linux default away from it).  ``forkserver`` forks from a
    clean single-threaded server process instead and costs a one-time
    server start per interpreter; preloading the matching package
    there means every worker forks with warm imports.  Platforms
    without ``forkserver`` use ``spawn``.
    """
    global _pool_context_cache
    if _pool_context_cache is None:
        import multiprocessing

        try:
            context = multiprocessing.get_context("forkserver")
            context.set_forkserver_preload(["repro.matching.parallel"])
        except ValueError:
            context = multiprocessing.get_context("spawn")
        _pool_context_cache = context
    return _pool_context_cache


class ProcessExecutor:
    """Run shards on a process pool of ``workers`` processes.

    ``function`` and every task are pickled into the workers, so both
    must be module-level / picklable; ``shared`` (typically the
    comparator) ships once per worker through the pool initializer
    rather than once per task.  When the pool itself cannot deliver —
    sandboxes without ``fork``/semaphores, unpicklable function or
    shared state, a worker that died — :meth:`map` reruns the tasks
    serially with a warning, counted in ``frost_executor_fallback_total``,
    instead of failing the pipeline run: serial output is identical.
    An exception raised by a task propagates as is, without a rerun.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = workers

    def map(
        self,
        function: Callable[[_Task], _Result],
        tasks: Sequence[_Task],
        shared=None,
    ) -> list[_Result]:
        """Apply ``function`` to every task on the pool, keeping order."""
        tasks = list(tasks)
        if not tasks:
            return []
        width = min(self.workers, len(tasks))
        if width == 1:
            return SerialExecutor().map(function, tasks, shared=shared)
        import concurrent.futures

        from multiprocessing.reduction import ForkingPickler

        initializer = None if shared is None else _set_shared_state
        initargs = () if shared is None else (shared,)
        try:
            # Starting workers pickles these with whatever error their
            # reducers raise (TypeError, AttributeError, ...); checking
            # first keeps every such failure a pool-level one.
            ForkingPickler.dumps((function, shared))
        except Exception as error:  # noqa: BLE001 - any unpicklable value
            return self._rerun_serially(error, function, tasks, shared)
        try:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=width,
                mp_context=_pool_context(),
                initializer=initializer,
                initargs=initargs,
            ) as pool:
                return list(pool.map(function, tasks))
        except _POOL_ERRORS as error:
            return self._rerun_serially(error, function, tasks, shared)

    @staticmethod
    def _rerun_serially(error, function, tasks, shared) -> list:
        _FALLBACKS.inc()
        _LOGGER.warning(
            "process pool failed (%s: %s); running %d shard(s) serially",
            type(error).__name__,
            error,
            len(tasks),
        )
        return SerialExecutor().map(function, tasks, shared=shared)

    def __repr__(self) -> str:
        return f"ProcessExecutor(workers={self.workers})"


def executor_for(workers: int | None):
    """The executor matching a ``workers`` knob.

    ``None`` or ``0`` means "all cores" (``os.cpu_count()``); ``1``
    means serial; anything larger a process pool of that width.
    """
    if workers is None or workers == 0:
        import os

        workers = os.cpu_count() or 1
    if workers == 1:
        return SerialExecutor()
    return ProcessExecutor(workers)
