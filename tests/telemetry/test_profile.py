"""The sampling profiler: collection, collapse format, null discipline."""

from __future__ import annotations

import time

import pytest

from repro.telemetry.profile import (
    NullProfiler,
    SamplingProfiler,
    _NULL_PROFILER,
    collapse_frame,
    maybe_profile,
)
from repro.telemetry.spans import get_tracer


def spin(seconds: float) -> None:
    """Busy-wait so the sampler has a distinctive frame to observe."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sum(range(100))


class TestSampling:
    def test_collects_samples_while_running(self):
        profiler = SamplingProfiler(interval=0.001)
        with profiler:
            spin(0.08)
        samples = profiler.samples()
        assert profiler.sample_count > 0
        assert samples
        # this module's busy-wait shows up as a collapsed-stack token
        assert any("test_profile.py:spin" in stack for stack in samples)

    def test_collapsed_output_is_flamegraph_format(self):
        profiler = SamplingProfiler(interval=0.001)
        with profiler:
            spin(0.05)
        for line in profiler.collapsed().splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack
            assert count.isdigit()
            assert all(":" in token for token in stack.split(";"))

    def test_samples_sorted_most_sampled_first(self):
        profiler = SamplingProfiler(interval=0.001)
        with profiler:
            spin(0.05)
        counts = list(profiler.samples().values())
        assert counts == sorted(counts, reverse=True)

    def test_stop_is_idempotent_and_start_reentrant(self):
        profiler = SamplingProfiler(interval=0.001)
        profiler.start()
        profiler.start()  # second start is a no-op
        spin(0.02)
        first = profiler.stop()
        assert profiler.stop() == first  # no thread: returns the samples

    def test_stop_annotates_the_active_span(self):
        tracer = get_tracer()
        tracer.reset()
        tracer.enable()
        try:
            with tracer.span("profiled.work") as span:
                profiler = SamplingProfiler(interval=0.001)
                profiler.start()
                spin(0.05)
                profiler.stop()
            assert span.annotations["profile_samples"] == profiler.sample_count
            assert span.annotations["profile_stacks"] == len(profiler.samples())
        finally:
            tracer.disable()
            tracer.reset()

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            SamplingProfiler(interval=0)


class TestNullDiscipline:
    def test_maybe_profile_disabled_returns_shared_null(self):
        assert maybe_profile(False) is _NULL_PROFILER
        assert maybe_profile(False) is maybe_profile(False)
        assert not _NULL_PROFILER.enabled

    def test_maybe_profile_enabled_returns_fresh_sampler(self):
        profiler = maybe_profile(True, interval=0.002)
        assert isinstance(profiler, SamplingProfiler)
        assert profiler.enabled
        assert profiler.interval == 0.002
        assert profiler is not maybe_profile(True)

    def test_null_profiler_is_inert(self):
        null = NullProfiler()
        with null as entered:
            assert entered is null
        null.start()
        assert null.stop() == {}
        assert null.samples() == {}
        assert null.sample_count == 0


class TestCollapse:
    def test_collapse_frame_is_file_and_function(self):
        import sys

        frame = sys._getframe()
        token = collapse_frame(frame)
        assert token == "test_profile.py:test_collapse_frame_is_file_and_function"
