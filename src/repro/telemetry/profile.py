"""Sampling wall-clock profiler attaching flamegraph stacks to traces.

A :class:`SamplingProfiler` is an opt-in background thread that walks
``sys._current_frames()`` at a fixed interval and aggregates what it
sees as *collapsed stacks* — the semicolon-joined frame format every
flamegraph tool reads (``file:function;file:function ... count``).
Sampling observes wall-clock time, so blocking waits (SQLite commits,
pool joins) show up with the same weight as CPU work — exactly the
breakdown a "runs as fast as the hardware allows" claim needs evidence
for.

The profiler mirrors the null-span discipline of
:mod:`repro.telemetry.spans`: :func:`maybe_profile` hands out a shared
no-op profiler unless profiling was explicitly requested, so an
un-profiled run pays one flag check and nothing else — no thread, no
frame walking, no allocation.

On :meth:`~SamplingProfiler.stop` the sample table is attached to the
span that was active when sampling started (``profile_samples`` /
``profile_stacks`` annotations), and callers persist the stacks next to
the trace through :class:`repro.telemetry.store.TelemetryStore`.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

from repro.telemetry.spans import get_tracer

__all__ = [
    "SamplingProfiler",
    "NullProfiler",
    "maybe_profile",
    "collapse_frame",
]

DEFAULT_INTERVAL_SECONDS = 0.005
_MAX_STACK_DEPTH = 64


def collapse_frame(frame) -> str:
    """One frame's collapsed-stack token: ``filename:function``."""
    code = frame.f_code
    return f"{Path(code.co_filename).name}:{code.co_name}"


def _collapse_stack(frame) -> str:
    """Root-first semicolon-joined stack of one thread's current frame."""
    tokens: list[str] = []
    depth = 0
    while frame is not None and depth < _MAX_STACK_DEPTH:
        tokens.append(collapse_frame(frame))
        frame = frame.f_back
        depth += 1
    tokens.reverse()
    return ";".join(tokens)


class NullProfiler:
    """The shared no-op handed out while profiling is off."""

    __slots__ = ()

    enabled = False

    def start(self) -> None:
        pass

    def stop(self) -> dict[str, int]:
        return {}

    def samples(self) -> dict[str, int]:
        return {}

    @property
    def sample_count(self) -> int:
        return 0

    def __enter__(self) -> "NullProfiler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_PROFILER = NullProfiler()


class SamplingProfiler:
    """Walk ``sys._current_frames()`` on a timer; aggregate collapsed stacks.

    Parameters
    ----------
    interval:
        Seconds between samples (default 5ms).  The sampler holds the
        GIL only while snapshotting frames, so the steady-state cost is
        a few microseconds per interval.
    """

    enabled = True

    def __init__(self, interval: float = DEFAULT_INTERVAL_SECONDS) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = float(interval)
        self._samples: dict[str, int] = {}
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Begin sampling on a daemon thread (idempotent)."""
        if self._thread is not None:
            return
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._run, name="frost-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> dict[str, int]:
        """Stop sampling; annotate the active span; return the samples."""
        thread = self._thread
        if thread is None:
            return self.samples()
        self._stop_event.set()
        thread.join(timeout=5)
        self._thread = None
        samples = self.samples()
        get_tracer().annotate(
            profile_samples=sum(samples.values()),
            profile_stacks=len(samples),
        )
        return samples

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- results -----------------------------------------------------------------

    def samples(self) -> dict[str, int]:
        """``collapsed_stack -> sample_count``, most-sampled first."""
        with self._lock:
            items = sorted(self._samples.items(), key=lambda kv: (-kv[1], kv[0]))
        return dict(items)

    @property
    def sample_count(self) -> int:
        with self._lock:
            return sum(self._samples.values())

    def collapsed(self) -> str:
        """The samples in flamegraph collapsed format, one stack per line."""
        return "\n".join(
            f"{stack} {count}" for stack, count in self.samples().items()
        )

    # -- internals ---------------------------------------------------------------

    def _run(self) -> None:
        own_id = threading.get_ident()
        while not self._stop_event.wait(self.interval):
            frames = sys._current_frames()
            with self._lock:
                for thread_id, frame in frames.items():
                    if thread_id == own_id:
                        continue
                    stack = _collapse_stack(frame)
                    if stack:
                        self._samples[stack] = self._samples.get(stack, 0) + 1


def maybe_profile(enabled: bool, interval: float = DEFAULT_INTERVAL_SECONDS):
    """A :class:`SamplingProfiler` when ``enabled``, the shared no-op otherwise."""
    if not enabled:
        return _NULL_PROFILER
    return SamplingProfiler(interval=interval)
