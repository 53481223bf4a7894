"""Machine speed over a run, sampled from a second process.

The benchmark shares a machine whose CPUs change speed by up to 2x
for seconds to minutes at a time, each on its own, as other tenants'
load comes and goes; a pure-Python program slows down with its CPU as
a whole.  :func:`pin_to_one_cpu` keeps the benchmark and every process
it starts on one CPU, and a sampler process there times a fixed
pure-Python loop twenty times a second for the whole run; each probe
takes about a millisecond of CPU.  A unit of work that took
``seconds`` between ``start`` and ``end`` is reported *at reference
speed*: ``seconds * REFERENCE_S / probe``, where ``probe`` is the
median probe duration around that interval.  The program never sees
the sampler; it only gives up those milliseconds of its CPU.

A second process spins on the same CPU at the idle scheduling class,
which runs only when nothing else wants the CPU, so the CPU never goes
idle.  Waking an idle virtual CPU takes the host a time that varies
with other tenants' load, and a request's latency would include it
several times.

Run as a script it is one of the two: ``speed.py sample OUT
PARENT_PID`` appends ``start_perf_counter probe_cpu_seconds`` lines to
``OUT``, ``speed.py spin PARENT_PID`` spins, each until its parent
exits or it is terminated.
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

PROBE_ITERATIONS = 10_000
# What one probe takes at the reference speed; values reported at
# reference speed are raw values times REFERENCE_S / probe.
REFERENCE_S = 0.001
INTERVAL_S = 0.05
# Probes starting this long before or after a unit of work count for it.
WINDOW_S = 0.5
START_TIMEOUT_S = 30.0


def pin_to_one_cpu() -> int:
    """Restrict this process, and the processes it starts, to one CPU.

    Returns the CPU.  A sampler on another CPU than the program's
    measures another CPU's speed, which on the shared machine does not
    follow the program's.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def probe() -> float:
    """CPU seconds the fixed loop takes now.

    CPU time, not wall time: a probe preempted by the program's
    processes does not read as a slow machine.
    """
    started = time.thread_time()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return time.thread_time() - started


class SpeedSampler:
    """The sampler process of one run, and what it measured."""

    def __init__(self, directory: Path) -> None:
        self.path = directory / f"speed-{time.time_ns()}.txt"
        self.path.touch()
        script, parent = str(Path(__file__).resolve()), str(os.getpid())
        self.process = subprocess.Popen(
            [sys.executable, script, "sample", str(self.path), parent],
            stdin=subprocess.DEVNULL,
        )
        self.spinner = None
        self._starts: list[float] = []
        self._probes: list[float] = []
        deadline = time.monotonic() + START_TIMEOUT_S
        try:
            self.spinner = subprocess.Popen(
                [sys.executable, script, "spin", parent], stdin=subprocess.DEVNULL,
            )
            while not self._load():
                if self.process.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(
                        f"speed sampler gave no reading (exit {self.process.poll()})"
                    )
                time.sleep(0.01)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Stop the sampler, wait for it, and load what it measured.

        Waits first, briefly, for the probes of the window after now, so
        the last unit of work is scaled by probes on both of its sides.
        Stops the spinner too.  Safe to call twice.
        """
        if self.process.poll() is None:
            wanted = time.perf_counter() + WINDOW_S
            deadline = time.monotonic() + 2 * WINDOW_S + 1.0
            while self._load() and self._starts[-1] < wanted:
                if time.monotonic() > deadline:
                    break
                time.sleep(INTERVAL_S / 2)
        for process in (self.process, self.spinner):
            if process is not None and process.poll() is None:
                process.terminate()
                try:
                    process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait(timeout=10)
        self._load()

    def __enter__(self) -> "SpeedSampler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _load(self) -> int:
        """Read every complete line written so far; returns the count."""
        starts, probes = [], []
        with open(self.path, encoding="ascii") as handle:
            for line in handle:
                if line.endswith("\n"):
                    start, seconds = line.split()
                    starts.append(float(start))
                    probes.append(float(seconds))
        self._starts, self._probes = starts, probes
        return len(starts)

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` seconds at reference speed.

        ``start`` and ``end`` are ``time.perf_counter`` values; call
        after :meth:`close`.
        """
        return (end - start) * scale_factor(self._starts, self._probes, start, end)

    def median_speed(self) -> float:
        """The run's median speed relative to the reference (1 = reference)."""
        return REFERENCE_S / statistics.median(self._probes)


def scale_factor(starts: list[float], probes: list[float],
                 start: float, end: float) -> float:
    """``REFERENCE_S`` over the median probe around ``[start, end]``.

    The probes starting within :data:`WINDOW_S` of the interval count,
    and at least the two nearest on each side of it; ``starts`` holds
    the probes' start times in ascending order.
    """
    if not probes:
        raise RuntimeError("no speed probes recorded")
    lo = min(bisect.bisect_left(starts, start - WINDOW_S),
             bisect.bisect_left(starts, start) - 2)
    hi = max(bisect.bisect_right(starts, end + WINDOW_S),
             bisect.bisect_right(starts, end) + 2)
    window = probes[max(0, lo):min(len(probes), hi)]
    return REFERENCE_S / statistics.median(window)


def _sample(path: str, parent: int) -> None:
    with open(path, "a", encoding="ascii") as out:
        while os.getppid() == parent:
            started = time.perf_counter()
            out.write(f"{started!r} {probe()!r}\n")
            out.flush()
            time.sleep(INTERVAL_S)


def _spin(parent: int) -> None:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    while os.getppid() == parent:
        for _ in range(100_000):
            pass


if __name__ == "__main__":
    try:
        if sys.argv[1] == "spin":
            _spin(int(sys.argv[2]))
        else:
            _sample(sys.argv[2], int(sys.argv[3]))
    except KeyboardInterrupt:
        pass
