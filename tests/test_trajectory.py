"""Tests for the persisted performance-trajectory harness."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.trajectory import (
    EXACT_COUNTERS,
    REGRESSION_TOLERANCE,
    compare_trajectories,
    emit_trajectory,
    main,
    peak_rss_mb,
    percentile,
)


@pytest.fixture
def trajectory_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRAJECTORY_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_TRAJECTORY_ENFORCE", raising=False)
    return tmp_path


class TestPercentile:
    def test_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
        assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0
        assert percentile([5.0], 0.95) == 5.0
        assert percentile(range(101), 0.95) == 95.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)


def test_peak_rss_is_positive():
    assert peak_rss_mb() > 1.0


class TestEmit:
    def test_writes_schema_document(self, trajectory_dir):
        path = emit_trajectory(
            "unit",
            throughput={"records_per_second": 1000.0},
            seconds={"total": 2.5},
            latencies=[0.01, 0.02, 0.03, 0.10],
            counters={"pairs": 42},
            context={"smoke": True},
        )
        assert path == trajectory_dir / "BENCH_unit.json"
        document = json.loads(path.read_text())
        assert document["schema"] == 1
        assert document["area"] == "unit"
        assert document["context"] == {"smoke": True}
        assert document["throughput"] == {"records_per_second": 1000.0}
        assert document["seconds"] == {"total": 2.5}
        assert document["latency"]["p50_ms"] == pytest.approx(25.0)
        assert document["latency"]["p95_ms"] == pytest.approx(89.5)
        assert document["counters"] == {"pairs": 42}
        assert document["peak_rss_mb"] > 0

    def test_report_only_by_default(self, trajectory_dir, capsys):
        emit_trajectory("regress", throughput={"rate": 100.0}, context={})
        # a 50% throughput drop: far beyond tolerance, still no raise
        emit_trajectory("regress", throughput={"rate": 50.0}, context={})
        out = capsys.readouterr().out
        assert "trajectory: regress: throughput rate fell 50.0%" in out
        document = json.loads(
            (trajectory_dir / "BENCH_regress.json").read_text()
        )
        assert document["throughput"]["rate"] == 50.0  # newest point wins

    def test_enforcing_raises_on_regression(self, trajectory_dir, monkeypatch):
        emit_trajectory("hard", seconds={"total": 1.0}, context={})
        monkeypatch.setenv("REPRO_TRAJECTORY_ENFORCE", "1")
        with pytest.raises(AssertionError, match="seconds total grew"):
            emit_trajectory("hard", seconds={"total": 2.0}, context={})
        # improvements and within-tolerance noise never raise
        emit_trajectory("hard", seconds={"total": 1.9}, context={})
        emit_trajectory("hard", seconds={"total": 0.5}, context={})

    def test_context_change_is_never_a_regression(
        self, trajectory_dir, monkeypatch, capsys
    ):
        emit_trajectory("ctx", seconds={"total": 1.0}, context={"smoke": True})
        monkeypatch.setenv("REPRO_TRAJECTORY_ENFORCE", "1")
        emit_trajectory("ctx", seconds={"total": 50.0}, context={"smoke": False})
        assert "not comparable" in capsys.readouterr().out

    def test_context_mismatch_names_the_differing_field(
        self, trajectory_dir, capsys
    ):
        emit_trajectory(
            "ctx", seconds={"total": 1.0}, context={"smoke": True, "workers": 2}
        )
        capsys.readouterr()
        emit_trajectory(
            "ctx", seconds={"total": 1.0}, context={"smoke": False, "rows": 9}
        )
        out = capsys.readouterr().out
        assert "not comparable" in out
        assert "smoke: True -> False" in out
        assert "workers: 2 -> absent" in out
        assert "rows: absent -> 9" in out

    def test_context_mismatch_message_for_non_dict_contexts(self):
        from benchmarks.trajectory import _context_mismatch

        assert _context_mismatch({"a": 1}, {"a": 1}) == "contexts differ"
        assert _context_mismatch("old", "new") == "'old' -> 'new'"

    def test_points_flow_into_the_warehouse_when_configured(
        self, trajectory_dir, tmp_path, monkeypatch
    ):
        from repro.telemetry.store import TelemetryStore

        db = tmp_path / "warehouse.db"
        monkeypatch.setenv("REPRO_TELEMETRY_STORE", str(db))
        emit_trajectory("ingest", seconds={"total": 1.0}, context={"smoke": True})
        with TelemetryStore(db) as warehouse:
            points = warehouse.trajectory_history("ingest")
        assert len(points) == 1
        assert points[0]["document"]["seconds"]["total"] == 1.0

    def test_warehouse_ingest_failure_is_not_fatal(
        self, trajectory_dir, tmp_path, monkeypatch, capsys
    ):
        # point the knob at a path that cannot be a database
        monkeypatch.setenv(
            "REPRO_TELEMETRY_STORE", str(tmp_path / "no" / "such" / "dir.db")
        )
        path = emit_trajectory(
            "survives", seconds={"total": 1.0}, context={}
        )
        assert path.exists()  # the JSON point still landed
        assert "warehouse ingest" in capsys.readouterr().out


class TestCompare:
    def test_flags_throughput_drops_and_duration_growth(self):
        previous = {
            "area": "x",
            "context": {},
            "throughput": {"rate": 100.0},
            "seconds": {"total": 1.0},
            "latency": {"p95_ms": 10.0},
        }
        current = {
            "area": "x",
            "context": {},
            "throughput": {"rate": 70.0},
            "seconds": {"total": 1.5},
            "latency": {"p95_ms": 9.0},
        }
        findings = compare_trajectories(previous, current)
        assert len(findings) == 2
        assert any("throughput rate fell 30.0%" in f for f in findings)
        assert any("seconds total grew 50.0%" in f for f in findings)

    def test_within_tolerance_is_silent(self):
        previous = {"area": "x", "context": {}, "throughput": {"rate": 100.0}}
        current = {
            "area": "x",
            "context": {},
            "throughput": {"rate": 100.0 * (1 - REGRESSION_TOLERANCE) + 0.1},
        }
        assert compare_trajectories(previous, current) == []

    def test_new_and_dropped_series_are_ignored(self):
        previous = {"area": "x", "context": {}, "seconds": {"gone": 1.0}}
        current = {"area": "x", "context": {}, "seconds": {"new": 9.0}}
        assert compare_trajectories(previous, current) == []

    def test_counters_and_rss_are_informational(self):
        previous = {
            "area": "x", "context": {}, "counters": {"n": 1}, "peak_rss_mb": 10,
        }
        current = {
            "area": "x", "context": {}, "counters": {"n": 99}, "peak_rss_mb": 999,
        }
        assert compare_trajectories(previous, current) == []


class TestMain:
    def test_no_files_is_a_clean_run(self, trajectory_dir, capsys):
        assert main() == 0
        assert "no BENCH_*.json" in capsys.readouterr().out

    def test_uncommitted_files_report_as_new(self, trajectory_dir, capsys):
        emit_trajectory("fresh", seconds={"total": 1.0}, context={})
        assert main() == 0
        assert "BENCH_fresh.json is new" in capsys.readouterr().out

    @pytest.mark.parametrize("enforce, code", [(None, 0), ("1", 1)])
    def test_a_timing_regression_fails_only_when_enforcing(
        self, trajectory_dir, monkeypatch, capsys, enforce, code
    ):
        import benchmarks.trajectory as trajectory

        committed = {"area": "slow", "context": {}, "seconds": {"total": 1.0}}
        monkeypatch.setattr(
            trajectory, "_committed_version", lambda path: committed
        )
        emit_trajectory("slow", seconds={"total": 2.0}, context={})
        if enforce is not None:
            monkeypatch.setenv("REPRO_TRAJECTORY_ENFORCE", enforce)
        assert main() == code
        assert "1 regression(s) found" in capsys.readouterr().out


class TestExactCounters:
    """``EXACT_COUNTERS``: deterministic counters must equal HEAD's."""

    COMMITTED = {
        "area": "blocks",
        "context": {"smoke": True},
        "counters": {"candidates": 1048, "rows": 2939, "speedup": 57.6},
    }

    @pytest.fixture
    def committed(self, trajectory_dir, monkeypatch):
        import benchmarks.trajectory as trajectory

        baselines = {"BENCH_blocks.json": self.COMMITTED}
        monkeypatch.setattr(
            trajectory, "_committed_version",
            lambda path: baselines.get(path.name),
        )
        monkeypatch.setattr(
            trajectory, "EXACT_COUNTERS", {"blocks": ("candidates", "rows")}
        )
        return trajectory_dir

    def emit(self, counters, context=None):
        emit_trajectory(
            "blocks", counters=counters,
            context=context if context is not None else {"smoke": True},
        )

    def test_equal_counters_pass_and_are_printed(self, committed, capsys):
        # speedup is a timing: not named, so its change is not checked
        self.emit({"candidates": 1048, "rows": 2939, "speedup": 12.0})
        capsys.readouterr()
        assert main() == 0
        out = capsys.readouterr().out
        assert "BENCH_blocks.json counters equal HEAD" in out
        assert "'candidates': 1048" in out

    def test_every_changed_counter_fails_whatever_the_tolerance(
        self, committed, capsys
    ):
        # one fewer: far inside the timing tolerance, still a failure
        self.emit({"candidates": 1047, "rows": 2938})
        assert main() == 1
        out = capsys.readouterr().out
        assert "blocks: counter candidates changed (1048 -> 1047)" in out
        assert "blocks: counter rows changed (2939 -> 2938)" in out

    def test_a_context_change_fails_instead_of_passing_vacuously(
        self, committed, capsys
    ):
        self.emit({"candidates": 1048, "rows": 2939}, context={"smoke": False})
        assert main() == 1
        out = capsys.readouterr().out
        assert out.count("smoke: True -> False); not comparable") == 1

    def test_a_missing_counter_fails(self, committed, capsys):
        self.emit({"rows": 2939})
        assert main() == 1
        assert "counter candidates missing (1048 -> None)" in (
            capsys.readouterr().out
        )


@pytest.mark.parametrize("area", sorted(EXACT_COUNTERS))
def test_committed_baselines_carry_the_exact_counters(area):
    """Every counter the gate names is in the committed baseline, so a
    renamed counter fails here rather than only in CI."""
    path = Path(__file__).resolve().parents[1] / f"BENCH_{area}.json"
    counters = json.loads(path.read_text())["counters"]
    assert set(EXACT_COUNTERS[area]) <= set(counters)
