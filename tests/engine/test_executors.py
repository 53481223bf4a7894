"""Tests for the shard execution backends."""

from __future__ import annotations

import os

import pytest

from repro.engine import executors
from repro.engine.executors import (
    ProcessExecutor,
    SerialExecutor,
    executor_for,
)
from repro.telemetry.metrics import get_metrics


def _square(value: int) -> int:
    """Module-level so process pools can pickle it by reference."""
    return value * value


def _identify(value: int) -> tuple[int, int]:
    return value, os.getpid()


def test_serial_executor_preserves_order():
    assert SerialExecutor().map(_square, [3, 1, 2]) == [9, 1, 4]
    assert SerialExecutor().map(_square, []) == []


def test_process_executor_matches_serial():
    tasks = list(range(20))
    expected = SerialExecutor().map(_square, tasks)
    assert ProcessExecutor(workers=4).map(_square, tasks) == expected


def test_process_executor_runs_outside_the_calling_process():
    results = ProcessExecutor(workers=2).map(_identify, list(range(6)))
    assert [value for value, _ in results] == list(range(6))
    worker_pids = {pid for _, pid in results}
    assert os.getpid() not in worker_pids


def test_process_executor_single_task_stays_inline():
    """One task never justifies a pool: width collapses to serial."""
    results = ProcessExecutor(workers=4).map(_identify, [7])
    assert results == [(7, os.getpid())]


def test_process_executor_empty_tasks():
    assert ProcessExecutor(workers=4).map(_square, []) == []


def test_process_executor_rejects_bad_width():
    with pytest.raises(ValueError):
        ProcessExecutor(workers=0)


def test_shared_state_reaches_workers():
    """`shared` ships once per worker and is readable from tasks."""
    from repro.engine import executors

    def read_shared(_):
        return executors.shared_state()

    results = SerialExecutor().map(read_shared, [1, 2], shared="token")
    assert results == ["token", "token"]
    assert executors.shared_state() is None  # restored after the loop


def _read_shared_in_worker(_):
    from repro.engine.executors import shared_state

    return shared_state()


def test_shared_state_reaches_process_workers():
    results = ProcessExecutor(workers=2).map(
        _read_shared_in_worker, list(range(6)), shared={"k": 1}
    )
    assert results == [{"k": 1}] * 6


def test_shared_state_is_thread_isolated():
    """Concurrent inline stages (engine worker threads) must each see
    their own shared value — a bleed would mean scoring one pipeline's
    pairs with another pipeline's comparator."""
    import threading

    from repro.engine import executors

    barrier = threading.Barrier(2)
    observed = {}

    def read_shared_slowly(task):
        barrier.wait(timeout=5)  # both threads inside their map loops
        return executors.shared_state()

    def run(name):
        observed[name] = SerialExecutor().map(
            read_shared_slowly, [0], shared=name
        )

    threads = [
        threading.Thread(target=run, args=(name,)) for name in ("a", "b")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert observed == {"a": ["a"], "b": ["b"]}
    assert executors.shared_state() is None  # main thread untouched


def test_pool_failure_falls_back_to_serial(monkeypatch, caplog):
    """Any pool-level failure degrades to the serial path with a
    warning instead of failing the caller."""
    import concurrent.futures
    import logging

    class ExplodingPool:
        def __init__(self, *args, **kwargs):
            raise OSError("no semaphores in this sandbox")

    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", ExplodingPool
    )
    with caplog.at_level(logging.WARNING, logger="repro.engine.executors"):
        results = ProcessExecutor(workers=4).map(
            _square, [1, 2, 3], shared=None
        )
    assert results == [1, 4, 9]
    assert any("serially" in message for message in caplog.messages)


def _fail(value: int) -> int:
    raise ValueError(f"task {value} is broken")


def _die_in_worker(task: tuple[int, int]) -> int:
    """Kill the pool worker running it; succeed in the parent process."""
    parent, value = task
    if os.getpid() != parent:
        os._exit(1)
    return value


def _fallbacks() -> float:
    return get_metrics().counter("frost_executor_fallback_total").value


def test_task_error_propagates_without_serial_rerun(monkeypatch):
    """A task's own exception is not a pool failure: no second run."""

    def no_rerun(*args, **kwargs):
        raise AssertionError("a task error must not rerun the shards serially")

    monkeypatch.setattr(executors.SerialExecutor, "map", no_rerun)
    before = _fallbacks()
    with pytest.raises(ValueError, match="is broken"):
        ProcessExecutor(workers=2).map(_fail, [1, 2, 3])
    assert _fallbacks() == before


def test_broken_pool_falls_back_and_is_counted():
    before = _fallbacks()
    tasks = [(os.getpid(), value) for value in range(4)]
    assert ProcessExecutor(workers=2).map(_die_in_worker, tasks) == [0, 1, 2, 3]
    assert _fallbacks() == before + 1


def test_unpicklable_shared_state_falls_back_and_is_counted():
    before = _fallbacks()
    shared = lambda: None  # noqa: E731 - unpicklable on purpose
    results = ProcessExecutor(workers=2).map(
        _read_shared_in_worker, [1, 2], shared=shared
    )
    assert results == [shared, shared]
    assert _fallbacks() == before + 1


def test_fallback_counter_has_help_line():
    from repro.telemetry.export import render_prometheus

    exposition = render_prometheus(get_metrics())
    assert (
        "# HELP frost_executor_fallback_total Process-pool shard maps rerun"
        in exposition
    )


def test_executor_for_dispatch():
    assert isinstance(executor_for(1), SerialExecutor)
    pool = executor_for(3)
    assert isinstance(pool, ProcessExecutor)
    assert pool.workers == 3
    all_cores = executor_for(None)
    if (os.cpu_count() or 1) == 1:
        assert isinstance(all_cores, SerialExecutor)
    else:
        assert isinstance(all_cores, ProcessExecutor)
        assert all_cores.workers == os.cpu_count()
    assert type(executor_for(0)) is type(all_cores)
