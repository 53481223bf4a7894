"""The telemetry warehouse: persistence, SQL-pushdown queries, retention."""

from __future__ import annotations

import sqlite3

import pytest

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Span
from repro.telemetry.store import TelemetryError, TelemetryStore


def traced_roots(stage_seconds: dict[str, float]):
    """A one-root trace whose children carry fixed durations.

    The root itself takes no time, so it never outranks a stage.
    """
    root = Span("run.root", None, {})
    root.seconds = 0.0
    for name, seconds in stage_seconds.items():
        child = Span(name, root.span_id, {"fixture": True})
        child.seconds = seconds
        root.children.append(child)
    return [root]


@pytest.fixture
def warehouse(tmp_path):
    with TelemetryStore(tmp_path / "telemetry.db") as store:
        yield store


class TestRecordAndRoundTrip:
    def test_trace_round_trips(self, warehouse):
        roots = traced_roots({"stage.a": 0.5, "stage.b": 0.25})
        run_id = warehouse.record_run("smoke", roots)
        trees = warehouse.run_spans(run_id)
        assert len(trees) == 1
        root = trees[0]
        assert root.name == "run.root"
        assert [child.name for child in root.children] == ["stage.a", "stage.b"]
        assert root.children[0].annotations == {"fixture": True}
        assert root.children[0].seconds == pytest.approx(0.5)

    def test_stored_spans_keep_their_self_time(self, warehouse):
        """``telemetry show`` renders self time from the stored
        intervals, so ``started_at`` must survive the round trip."""
        (root,) = traced_roots({"stage.a": 0.4, "stage.b": 0.4})
        root.started_at, root.seconds = 100.0, 1.0
        root.children[0].started_at = 100.1  # 100.1 - 100.5
        root.children[1].started_at = 100.3  # 100.3 - 100.7, overlapping
        run_id = warehouse.record_run("smoke", [root])
        (stored,) = warehouse.run_spans(run_id)
        assert stored.self_seconds() == pytest.approx(root.self_seconds())
        assert stored.self_seconds() == pytest.approx(0.4)
        assert [child.self_seconds() for child in stored.children] == [
            pytest.approx(0.4), pytest.approx(0.4)
        ]

    def test_metrics_snapshot_round_trips(self, warehouse):
        registry = MetricsRegistry()
        registry.counter("demo_total", "demo").inc(7)
        registry.histogram("demo_seconds").observe(0.25)
        run_id = warehouse.record_run("smoke", traced_roots({}), registry)
        stored = warehouse.run_metrics(run_id)
        assert stored["demo_total"]["value"] == 7
        assert stored["demo_seconds"]["count"] == 1

    def test_profile_samples_round_trip(self, warehouse):
        samples = {"a.py:f;b.py:g": 12, "a.py:f": 3}
        run_id = warehouse.record_run(
            "smoke", traced_roots({}), profile_samples=samples
        )
        stored = warehouse.run_profile(run_id)
        assert stored == samples
        # hottest first
        assert list(stored) == ["a.py:f;b.py:g", "a.py:f"]

    def test_list_runs_newest_first(self, warehouse):
        first = warehouse.record_run("alpha", traced_roots({"s": 0.1}))
        second = warehouse.record_run("beta", traced_roots({"s": 0.1}))
        runs = warehouse.list_runs()
        assert [run["run_id"] for run in runs] == [second, first]
        assert runs[0]["name"] == "beta"
        assert runs[0]["spans"] == 2

    def test_resolve_by_name_picks_latest(self, warehouse):
        warehouse.record_run("nightly", traced_roots({}))
        latest = warehouse.record_run("nightly", traced_roots({}))
        assert warehouse.resolve_run("nightly") == latest

    def test_unknown_run_raises(self, warehouse):
        with pytest.raises(TelemetryError, match="no telemetry run"):
            warehouse.resolve_run(99)
        with pytest.raises(TelemetryError, match="no telemetry run"):
            warehouse.resolve_run("ghost")

    def test_constructor_rejects_path_and_connection(self, tmp_path):
        connection = sqlite3.connect(":memory:")
        with pytest.raises(ValueError, match="not both"):
            TelemetryStore(tmp_path / "x.db", connection=connection)
        with pytest.raises(ValueError, match="path or a connection"):
            TelemetryStore()


class TestQueries:
    def test_slowest_spans_orders_by_duration(self, warehouse):
        warehouse.record_run(
            "smoke", traced_roots({"fast": 0.01, "slow": 2.0, "mid": 0.5})
        )
        rows = warehouse.slowest_spans(limit=2)
        assert [row["name"] for row in rows] == ["slow", "mid"]

    def test_slowest_spans_scoped_to_run(self, warehouse):
        warehouse.record_run("a", traced_roots({"slow": 5.0}))
        run_b = warehouse.record_run("b", traced_roots({"quick": 0.1}))
        rows = warehouse.slowest_spans(run=run_b, limit=1)
        assert rows[0]["run_id"] == run_b
        assert rows[0]["name"] == "quick"

    def test_negative_limit_is_refused(self, warehouse):
        # SQLite reads LIMIT -1 as no limit at all
        warehouse.record_run("smoke", traced_roots({"a": 0.1, "b": 0.2}))
        with pytest.raises(ValueError, match="limit must be non-negative"):
            warehouse.slowest_spans(limit=-1)
        assert warehouse.slowest_spans(limit=0) == []

    def test_stage_history_across_runs(self, warehouse):
        warehouse.record_run("day1", traced_roots({"stage.sim": 1.0}))
        warehouse.record_run("day2", traced_roots({"stage.sim": 2.0}))
        history = warehouse.stage_history("stage.sim")
        assert [row["total_seconds"] for row in history] == [1.0, 2.0]
        assert [row["run_name"] for row in history] == ["day1", "day2"]

    def test_diff_reports_per_stage_deltas(self, warehouse):
        run_a = warehouse.record_run(
            "base", traced_roots({"stage.sim": 1.0, "stage.only_a": 0.2})
        )
        run_b = warehouse.record_run(
            "cand", traced_roots({"stage.sim": 3.0, "stage.only_b": 0.1})
        )
        rows = {row["stage"]: row for row in warehouse.diff_runs(run_a, run_b)}
        sim = rows["stage.sim"]
        assert sim["delta_seconds"] == pytest.approx(2.0)
        assert sim["ratio"] == pytest.approx(3.0)
        assert rows["stage.only_a"]["seconds_b"] is None
        assert rows["stage.only_b"]["seconds_a"] is None
        # one-sided stages (unmeasurable delta) sort first
        assert warehouse.diff_runs(run_a, run_b)[0]["delta_seconds"] is None

    def test_diff_accepts_run_names(self, warehouse):
        warehouse.record_run("base", traced_roots({"s": 1.0}))
        warehouse.record_run("cand", traced_roots({"s": 1.0}))
        rows = {row["stage"]: row for row in warehouse.diff_runs("base", "cand")}
        assert rows["s"]["delta_seconds"] == pytest.approx(0.0)


class TestRetention:
    def test_prune_keeps_newest(self, warehouse):
        ids = [
            warehouse.record_run(f"run{i}", traced_roots({"s": 0.1}))
            for i in range(4)
        ]
        assert warehouse.prune(keep=2) == 2
        kept = [run["run_id"] for run in warehouse.list_runs()]
        assert kept == [ids[3], ids[2]]
        # the evicted runs' spans are gone too
        span_owners = {
            row["run_id"] for row in warehouse.slowest_spans(limit=100)
        }
        assert span_owners == set(kept)

    def test_prune_requires_a_policy(self, warehouse):
        with pytest.raises(ValueError, match="keep and/or older_than"):
            warehouse.prune()

    def test_prune_by_age(self, warehouse):
        warehouse.record_run("old", traced_roots({}))
        # everything was recorded "now", so a large cutoff keeps all
        assert warehouse.prune(older_than_seconds=3600) == 0
        with warehouse._connection:
            warehouse._connection.execute(
                "UPDATE telemetry_runs SET recorded_at = recorded_at - 7200"
            )
        assert warehouse.prune(older_than_seconds=3600) == 1
        assert warehouse.list_runs() == []

    def test_negative_age_is_refused_and_deletes_nothing(self, warehouse):
        warehouse.record_run("kept", traced_roots({"s": 0.1}))
        for policy in ({"older_than_seconds": -1},
                       {"keep": 5, "older_than_seconds": -0.5}):
            with pytest.raises(
                ValueError, match="older_than_seconds must be non-negative"
            ):
                warehouse.prune(**policy)
        assert [run["name"] for run in warehouse.list_runs()] == ["kept"]

    def test_max_runs_retention_on_record(self, tmp_path):
        with TelemetryStore(tmp_path / "t.db", max_runs=2) as store:
            for index in range(5):
                store.record_run(f"run{index}", traced_roots({"s": 0.1}))
            names = [run["name"] for run in store.list_runs()]
        assert names == ["run4", "run3"]

    def test_max_runs_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            TelemetryStore(tmp_path / "t.db", max_runs=0)


class TestTrajectoryIngest:
    def test_points_accumulate_per_area(self, warehouse):
        for value in (100.0, 140.0):
            warehouse.ingest_trajectory(
                {
                    "area": "parallel",
                    "generated_at": "2026-08-08T00:00:00Z",
                    "context": {"smoke": True},
                    "throughput": {"pairs_per_second": value},
                }
            )
        warehouse.ingest_trajectory({"area": "serving", "generated_at": "x"})
        points = warehouse.trajectory_history("parallel")
        assert len(points) == 2
        assert points[0]["document"]["throughput"]["pairs_per_second"] == 100.0
        assert len(warehouse.trajectory_history()) == 3

    def test_area_is_required(self, warehouse):
        with pytest.raises(TelemetryError, match="area"):
            warehouse.ingest_trajectory({"generated_at": "x"})


class TestStoreView:
    def test_frost_store_view_shares_the_file(self, tmp_path):
        from repro.storage.database import FrostStore

        path = tmp_path / "frost.db"
        with FrostStore(path) as store:
            warehouse = store.telemetry_store()
            run_id = warehouse.record_run("co-located", traced_roots({"s": 1.0}))
            # closing the borrowed view must not close the store
            warehouse.close()
            assert store.dataset_names() == []
        # a standalone reopen of the same file sees the run
        with TelemetryStore(path) as reopened:
            assert reopened.resolve_run("co-located") == run_id
