"""SQLite telemetry warehouse: persisted traces, metrics, and profiles.

PR 6's telemetry is ephemeral — span trees and counter snapshots die
with the process.  This module gives it the same durable, queryable
treatment PR 9 gave blocking state: traces, metric snapshots, profiler
samples, and benchmark-trajectory points land in indexed SQLite tables,
and the questions operators actually ask — *which spans are slowest?
how has this stage's wall time moved across runs?  what changed between
run A and run B?* — are answered by SQL pushdown over those indexes
instead of by re-parsing JSON dumps in Python.

The tables are part of the :class:`~repro.storage.database.FrostStore`
schema since ``user_version`` 4 (older store files migrate in place on
open), and also bootstrap standalone in a dedicated warehouse file —
``python -m repro trace --store telemetry.db`` persists each traced run,
and ``python -m repro telemetry list|show|slowest|diff|prune`` queries
and curates the history.

A retention policy (``max_runs``) keeps the warehouse bounded: each
recorded run evicts the oldest runs beyond the cap, cascading over
their spans, metrics, and profile stacks.
"""

from __future__ import annotations

import json
import sqlite3
import time
import weakref
from pathlib import Path

from repro.telemetry.export import rows_to_trees, spans_to_rows
from repro.telemetry.metrics import Histogram, MetricsRegistry, get_metrics
from repro.telemetry.spans import Span

__all__ = ["TELEMETRY_SCHEMA", "TelemetryStore", "TelemetryError"]

# Appended to the FrostStore schema (user_version 4) and bootstrapped
# standalone for dedicated warehouse files.  Spans are indexed by name
# (stage history), by descending duration (slowest-spans pushdown), and
# trajectory points by area.
TELEMETRY_SCHEMA = """
CREATE TABLE IF NOT EXISTS telemetry_runs (
    run_id INTEGER PRIMARY KEY,
    name TEXT NOT NULL,
    started_at REAL NOT NULL,
    recorded_at REAL NOT NULL,
    context TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_telemetry_runs_name
    ON telemetry_runs(name, run_id);
CREATE TABLE IF NOT EXISTS telemetry_spans (
    run_id INTEGER NOT NULL REFERENCES telemetry_runs(run_id),
    span_id INTEGER NOT NULL,
    parent_id INTEGER,
    name TEXT NOT NULL,
    started_at REAL NOT NULL,
    seconds REAL,
    annotations TEXT NOT NULL,
    PRIMARY KEY (run_id, span_id)
);
CREATE INDEX IF NOT EXISTS idx_telemetry_spans_name
    ON telemetry_spans(name, run_id);
CREATE INDEX IF NOT EXISTS idx_telemetry_spans_seconds
    ON telemetry_spans(run_id, seconds DESC);
CREATE TABLE IF NOT EXISTS telemetry_metrics (
    run_id INTEGER NOT NULL REFERENCES telemetry_runs(run_id),
    name TEXT NOT NULL,
    kind TEXT NOT NULL,
    value REAL,
    count INTEGER,
    total REAL,
    detail TEXT NOT NULL,
    PRIMARY KEY (run_id, name)
);
CREATE TABLE IF NOT EXISTS telemetry_profiles (
    run_id INTEGER NOT NULL REFERENCES telemetry_runs(run_id),
    stack TEXT NOT NULL,
    samples INTEGER NOT NULL,
    PRIMARY KEY (run_id, stack)
);
CREATE TABLE IF NOT EXISTS telemetry_trajectories (
    point_id INTEGER PRIMARY KEY,
    area TEXT NOT NULL,
    generated_at TEXT NOT NULL,
    recorded_at REAL NOT NULL,
    context TEXT NOT NULL,
    document TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_telemetry_trajectories_area
    ON telemetry_trajectories(area, point_id);
"""

_RUNS_RECORDED = get_metrics().counter(
    "frost_telemetry_runs_recorded_total",
    "Traced runs persisted into the telemetry warehouse",
)
_RUNS_PRUNED = get_metrics().counter(
    "frost_telemetry_runs_pruned_total",
    "Telemetry runs evicted by the retention policy or an explicit prune",
)
_TRAJECTORIES_INGESTED = get_metrics().counter(
    "frost_telemetry_trajectory_points_total",
    "Benchmark trajectory points ingested into the telemetry warehouse",
)


class TelemetryError(RuntimeError):
    """Raised for warehouse-level failures (unknown runs, bad input)."""


def _cleanup(connection: sqlite3.Connection | None) -> None:
    if connection is not None:
        try:
            connection.close()
        except sqlite3.Error:  # pragma: no cover - close() is best-effort
            pass


class TelemetryStore:
    """Owns the telemetry tables of one SQLite database.

    Parameters
    ----------
    path:
        Database file to use (created if missing).  Pointing it at a
        :class:`~repro.storage.database.FrostStore` file co-locates the
        telemetry history with the data it measures.
    connection:
        Reuse an existing connection instead of opening one (the
        :meth:`FrostStore.telemetry_store` view).  Borrowed connections
        are never closed.
    max_runs:
        Retention cap: after each :meth:`record_run`, runs beyond the
        newest ``max_runs`` are pruned.  ``None`` keeps everything.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        connection: sqlite3.Connection | None = None,
        max_runs: int | None = None,
    ) -> None:
        if max_runs is not None and max_runs < 1:
            raise ValueError(f"max_runs must be positive, got {max_runs}")
        self.max_runs = max_runs
        if connection is not None:
            if path is not None:
                raise ValueError("pass either path or connection, not both")
            self._connection = connection
            owned = None
        else:
            if path is None:
                raise ValueError("pass a database path or a connection")
            self._connection = sqlite3.connect(
                str(path), check_same_thread=False
            )
            owned = self._connection
        self._connection.executescript(TELEMETRY_SCHEMA)
        self._connection.commit()
        self._finalizer = weakref.finalize(self, _cleanup, owned)

    @property
    def connection(self) -> sqlite3.Connection:
        """The underlying SQLite connection (single-threaded use)."""
        return self._connection

    def close(self) -> None:
        """Close an owned connection (borrowed ones are left alone)."""
        self._finalizer()

    def __enter__(self) -> "TelemetryStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- writing -----------------------------------------------------------------

    def record_run(
        self,
        name: str,
        roots: list[Span],
        registry: MetricsRegistry | None = None,
        profile_samples: dict[str, int] | None = None,
        context: dict | None = None,
    ) -> int:
        """Persist one traced run atomically; returns its ``run_id``.

        ``roots`` is the tracer's completed span forest
        (:meth:`Tracer.roots`), ``registry`` an optional metrics
        registry whose snapshot is stored alongside, and
        ``profile_samples`` the collapsed-stack table of a
        :class:`~repro.telemetry.profile.SamplingProfiler`.
        """
        rows = spans_to_rows(roots)
        started_at = min(
            (float(row["started_at"]) for row in rows), default=time.time()
        )
        with self._connection:
            cursor = self._connection.execute(
                "INSERT INTO telemetry_runs "
                "(name, started_at, recorded_at, context) VALUES (?, ?, ?, ?)",
                (
                    name,
                    started_at,
                    time.time(),
                    json.dumps(context or {}, sort_keys=True),
                ),
            )
            run_id = cursor.lastrowid
            self._connection.executemany(
                "INSERT INTO telemetry_spans (run_id, span_id, parent_id, "
                "name, started_at, seconds, annotations) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    (
                        run_id,
                        row["span_id"],
                        row["parent_id"],
                        row["name"],
                        row["started_at"],
                        row["seconds"],
                        json.dumps(row["annotations"], default=str),
                    )
                    for row in rows
                ),
            )
            if registry is not None:
                self._connection.executemany(
                    "INSERT INTO telemetry_metrics (run_id, name, kind, "
                    "value, count, total, detail) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (
                        self._metric_row(run_id, instrument)
                        for instrument in registry.instruments()
                    ),
                )
            if profile_samples:
                self._connection.executemany(
                    "INSERT INTO telemetry_profiles (run_id, stack, samples) "
                    "VALUES (?, ?, ?)",
                    (
                        (run_id, stack, int(count))
                        for stack, count in profile_samples.items()
                    ),
                )
        _RUNS_RECORDED.inc()
        if self.max_runs is not None:
            self.prune(keep=self.max_runs)
        return run_id

    @staticmethod
    def _metric_row(run_id: int, instrument) -> tuple:
        if isinstance(instrument, Histogram):
            return (
                run_id,
                instrument.name,
                instrument.kind,
                None,
                instrument.count,
                instrument.sum,
                json.dumps(instrument._snapshot(), default=str),
            )
        return (
            run_id,
            instrument.name,
            instrument.kind,
            float(instrument.value),
            None,
            None,
            json.dumps(instrument._snapshot(), default=str),
        )

    def ingest_trajectory(self, document: dict) -> int:
        """Persist one ``BENCH_<area>.json`` point; returns its ``point_id``."""
        area = document.get("area")
        if not area:
            raise TelemetryError("trajectory document has no 'area'")
        with self._connection:
            cursor = self._connection.execute(
                "INSERT INTO telemetry_trajectories "
                "(area, generated_at, recorded_at, context, document) "
                "VALUES (?, ?, ?, ?, ?)",
                (
                    str(area),
                    str(document.get("generated_at", "")),
                    time.time(),
                    json.dumps(document.get("context") or {}, sort_keys=True),
                    json.dumps(document, sort_keys=True),
                ),
            )
        _TRAJECTORIES_INGESTED.inc()
        return cursor.lastrowid

    # -- run lookup --------------------------------------------------------------

    def resolve_run(self, run: int | str) -> int:
        """A run id from an integer id or a run name (latest wins)."""
        if isinstance(run, int) or (isinstance(run, str) and run.isdigit()):
            run_id = int(run)
            row = self._connection.execute(
                "SELECT run_id FROM telemetry_runs WHERE run_id = ?", (run_id,)
            ).fetchone()
            if row is None:
                raise TelemetryError(f"no telemetry run {run_id}")
            return run_id
        row = self._connection.execute(
            "SELECT run_id FROM telemetry_runs WHERE name = ? "
            "ORDER BY run_id DESC LIMIT 1",
            (run,),
        ).fetchone()
        if row is None:
            raise TelemetryError(f"no telemetry run named {run!r}")
        return row[0]

    def list_runs(self) -> list[dict]:
        """Every stored run (newest first) with span/sample counts."""
        return [
            {
                "run_id": run_id,
                "name": name,
                "started_at": started_at,
                "recorded_at": recorded_at,
                "context": json.loads(context),
                "spans": spans,
                "wall_seconds": wall or 0.0,
                "profile_samples": samples or 0,
            }
            for run_id, name, started_at, recorded_at, context, spans, wall,
            samples in self._connection.execute(
                """
                SELECT r.run_id, r.name, r.started_at, r.recorded_at,
                       r.context,
                       (SELECT COUNT(*) FROM telemetry_spans s
                        WHERE s.run_id = r.run_id),
                       (SELECT SUM(s.seconds) FROM telemetry_spans s
                        WHERE s.run_id = r.run_id AND s.parent_id IS NULL),
                       (SELECT SUM(p.samples) FROM telemetry_profiles p
                        WHERE p.run_id = r.run_id)
                FROM telemetry_runs r ORDER BY r.run_id DESC
                """
            )
        ]

    def run_spans(self, run: int | str) -> list[Span]:
        """The stored span forest of one run, rebuilt as ``Span`` trees."""
        run_id = self.resolve_run(run)
        rows = [
            {
                "span_id": span_id,
                "parent_id": parent_id,
                "name": name,
                "started_at": started_at,
                "seconds": seconds,
                "annotations": json.loads(annotations),
            }
            for span_id, parent_id, name, started_at, seconds, annotations
            in self._connection.execute(
                "SELECT span_id, parent_id, name, started_at, seconds, "
                "annotations FROM telemetry_spans WHERE run_id = ? "
                "ORDER BY span_id",
                (run_id,),
            )
        ]
        return rows_to_trees(rows)

    def run_metrics(self, run: int | str) -> dict[str, dict]:
        """The stored metric snapshot of one run (name -> snapshot)."""
        run_id = self.resolve_run(run)
        return {
            name: json.loads(detail)
            for name, detail in self._connection.execute(
                "SELECT name, detail FROM telemetry_metrics "
                "WHERE run_id = ? ORDER BY name",
                (run_id,),
            )
        }

    def run_profile(self, run: int | str) -> dict[str, int]:
        """The stored collapsed-stack samples of one run (hottest first)."""
        run_id = self.resolve_run(run)
        return {
            stack: samples
            for stack, samples in self._connection.execute(
                "SELECT stack, samples FROM telemetry_profiles "
                "WHERE run_id = ? ORDER BY samples DESC, stack",
                (run_id,),
            )
        }

    # -- SQL-pushdown queries ----------------------------------------------------

    def slowest_spans(
        self, run: int | str | None = None, limit: int = 10
    ) -> list[dict]:
        """The slowest recorded spans, warehouse-wide or per run.

        The sort runs in SQLite over the ``(run_id, seconds DESC)``
        index — the warehouse may hold orders of magnitude more spans
        than are worth materializing in Python.  A negative ``limit``
        raises :class:`ValueError` (SQLite would read it as no limit).
        """
        if limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
        query = (
            "SELECT s.run_id, r.name, s.span_id, s.name, s.seconds, "
            "s.annotations FROM telemetry_spans s "
            "JOIN telemetry_runs r ON r.run_id = s.run_id "
            "WHERE s.seconds IS NOT NULL"
        )
        parameters: list[object] = []
        if run is not None:
            query += " AND s.run_id = ?"
            parameters.append(self.resolve_run(run))
        query += " ORDER BY s.seconds DESC LIMIT ?"
        parameters.append(int(limit))
        return [
            {
                "run_id": run_id,
                "run_name": run_name,
                "span_id": span_id,
                "name": name,
                "seconds": seconds,
                "annotations": json.loads(annotations),
            }
            for run_id, run_name, span_id, name, seconds, annotations
            in self._connection.execute(query, parameters)
        ]

    def stage_history(self, stage: str) -> list[dict]:
        """Per-run wall-time history of one span name, oldest run first."""
        return [
            {
                "run_id": run_id,
                "run_name": run_name,
                "started_at": started_at,
                "spans": count,
                "total_seconds": total,
                "max_seconds": slowest,
            }
            for run_id, run_name, started_at, count, total, slowest
            in self._connection.execute(
                "SELECT s.run_id, r.name, r.started_at, COUNT(*), "
                "SUM(s.seconds), MAX(s.seconds) "
                "FROM telemetry_spans s "
                "JOIN telemetry_runs r ON r.run_id = s.run_id "
                "WHERE s.name = ? AND s.seconds IS NOT NULL "
                "GROUP BY s.run_id ORDER BY s.run_id",
                (stage,),
            )
        ]

    def _stage_totals(self, run_id: int) -> dict[str, tuple[float, int]]:
        return {
            name: (total, count)
            for name, total, count in self._connection.execute(
                "SELECT name, SUM(seconds), COUNT(*) FROM telemetry_spans "
                "WHERE run_id = ? AND seconds IS NOT NULL GROUP BY name",
                (run_id,),
            )
        }

    def diff_runs(self, run_a: int | str, run_b: int | str) -> list[dict]:
        """Per-stage wall-time deltas between two runs, largest first.

        Each row aggregates one span name: total seconds and span count
        in each run (``None`` where the stage only ran on one side),
        the absolute delta, and the relative change.
        """
        totals_a = self._stage_totals(self.resolve_run(run_a))
        totals_b = self._stage_totals(self.resolve_run(run_b))
        rows: list[dict] = []
        for stage in sorted(set(totals_a) | set(totals_b)):
            seconds_a, count_a = totals_a.get(stage, (None, None))
            seconds_b, count_b = totals_b.get(stage, (None, None))
            delta = (
                seconds_b - seconds_a
                if seconds_a is not None and seconds_b is not None
                else None
            )
            ratio = (
                seconds_b / seconds_a
                if delta is not None and seconds_a > 0
                else None
            )
            rows.append(
                {
                    "stage": stage,
                    "seconds_a": seconds_a,
                    "count_a": count_a,
                    "seconds_b": seconds_b,
                    "count_b": count_b,
                    "delta_seconds": delta,
                    "ratio": ratio,
                }
            )
        rows.sort(
            key=lambda row: (
                -(abs(row["delta_seconds"]) if row["delta_seconds"] is not None
                  else float("inf")),
                row["stage"],
            )
        )
        return rows

    def trajectory_history(self, area: str | None = None) -> list[dict]:
        """Stored benchmark-trajectory points, oldest first."""
        query = (
            "SELECT point_id, area, generated_at, document "
            "FROM telemetry_trajectories"
        )
        parameters: tuple = ()
        if area is not None:
            query += " WHERE area = ?"
            parameters = (area,)
        query += " ORDER BY point_id"
        return [
            {
                "point_id": point_id,
                "area": row_area,
                "generated_at": generated_at,
                "document": json.loads(document),
            }
            for point_id, row_area, generated_at, document
            in self._connection.execute(query, parameters)
        ]

    # -- retention ---------------------------------------------------------------

    def prune(
        self,
        keep: int | None = None,
        older_than_seconds: float | None = None,
    ) -> int:
        """Delete old runs (and their spans/metrics/profiles).

        ``keep`` retains only the newest N runs; ``older_than_seconds``
        drops runs recorded more than that long ago.  Either alone or
        both together; returns the number of runs deleted.  A negative
        value of either raises :class:`ValueError` and deletes nothing.
        """
        if keep is None and older_than_seconds is None:
            raise ValueError("prune needs keep and/or older_than_seconds")
        if keep is not None and keep < 0:
            raise ValueError(f"keep must be non-negative, got {keep}")
        if older_than_seconds is not None and older_than_seconds < 0:
            raise ValueError(
                "older_than_seconds must be non-negative, got "
                f"{older_than_seconds}"
            )
        doomed: set[int] = set()
        if keep is not None:
            doomed.update(
                run_id
                for (run_id,) in self._connection.execute(
                    "SELECT run_id FROM telemetry_runs "
                    "ORDER BY run_id DESC LIMIT -1 OFFSET ?",
                    (keep,),
                )
            )
        if older_than_seconds is not None:
            cutoff = time.time() - float(older_than_seconds)
            doomed.update(
                run_id
                for (run_id,) in self._connection.execute(
                    "SELECT run_id FROM telemetry_runs WHERE recorded_at < ?",
                    (cutoff,),
                )
            )
        if not doomed:
            return 0
        rows = [(run_id,) for run_id in sorted(doomed)]
        with self._connection:
            for table in (
                "telemetry_profiles", "telemetry_metrics", "telemetry_spans",
                "telemetry_runs",
            ):
                self._connection.executemany(
                    f"DELETE FROM {table} WHERE run_id = ?", rows
                )
        _RUNS_PRUNED.inc(len(rows))
        return len(rows)
