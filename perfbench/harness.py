"""Shared machinery of the benchmark: statistics, context, results.

Everything here is independent of the workloads, so the tests in
``test_perfbench.py`` can pin it down without running the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform as _platform
import resource
import shutil
import sqlite3
import statistics
import sys
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
# Scratch space for stores and server files; inside the checkout, ignored
# by git, and removed by each run that creates it.
WORK = ROOT / ".perfbench"

# Bumped whenever a change to this package changes what a metric means,
# so results from before and after are refused as not comparable.
BENCHMARK_VERSION = 1

# The matcher `python -m repro trace` runs by default: first-token
# blocking on last_name, Jaro-Winkler on three attributes, the mean
# decision model and a 0.8 threshold.
MATCHER_CONFIG = {
    "key": {"kind": "first_token", "attribute": "last_name"},
    "similarities": {
        "first_name": "jaro_winkler",
        "last_name": "jaro_winkler",
        "city": "jaro_winkler",
    },
    "threshold": 0.8,
}

# Percentiles a tail may be reported at, highest first.
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing program, bad arguments)."""


def require_program() -> None:
    """Fail unless the program's sources sit next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            f"no program to benchmark: {SRC / 'repro'} is missing"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    """The metric contract: names, units and bounds of every metric."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# -- statistics ------------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value covering ``pct``%."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered) - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def tail_percentile(count: int) -> float | None:
    """The highest reportable percentile for ``count`` samples.

    A percentile is reportable when at least ten samples lie beyond
    it, so its value is not set by one or two outliers.  ``None`` when
    even the 75th has fewer than ten samples beyond it.
    """
    for pct in _TAIL_PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= 10.0 - 1e-9:
            return pct
    return None


@dataclass(frozen=True)
class Latency:
    """Median and tail of one set of timings, in the units given."""

    count: int
    p50: float
    tail_pct: float | None
    tail: float

    @classmethod
    def of(cls, values: Sequence[float], pct: float | None = None) -> "Latency":
        """Summarize ``values`` with their tail at ``pct``.

        A workload fixes ``pct`` so runs with different sample counts
        report the same percentile; when too few samples lie beyond it,
        or it is not given, the highest reportable one is used, and
        without any the maximum.
        """
        if pct is None or len(values) * (100.0 - pct) / 100.0 < 10.0 - 1e-9:
            pct = tail_percentile(len(values))
        return cls(
            count=len(values),
            p50=statistics.median(values),
            tail_pct=pct,
            tail=percentile(values, pct) if pct is not None else max(values),
        )

    @property
    def tail_label(self) -> str:
        return "max" if self.tail_pct is None else f"p{self.tail_pct:g}"


def median_or(values: Iterable[float]) -> float:
    """Median of ``values``, or 0 when there are none."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def median_by_name(samples: Iterable[Mapping[str, float]]) -> dict[str, float]:
    """Per-name median over a list of ``name -> value`` samples."""
    samples = list(samples)
    names = {name for sample in samples for name in sample}
    return {
        name: statistics.median(s[name] for s in samples if name in s)
        for name in names
    }


def trace_overhead(traced: Sequence[float], untraced: Sequence[float]) -> float:
    """Median traced minus median untraced wall time of like units."""
    if not traced or not untraced:
        return 0.0
    return statistics.median(traced) - statistics.median(untraced)


# -- process state ---------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reset_peak_rss() -> None:
    """Lower this process's peak RSS to its current RSS (Linux).

    :func:`process_peak_rss_mb` of this process then reports the peak
    since this call.
    """
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"process {pid} reports no VmHWM")


def reset_memo_caches() -> None:
    """Empty the program's process-wide ``functools`` memo caches.

    A unit of work then starts as cold as in a fresh process, so every
    unit of a run does the same work and their times are comparable.
    """
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for value in list(vars(module).values()):
            if hasattr(value, "cache_info") and callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def remove_workdir(directory: Path) -> None:
    """Delete a run's scratch directory, and its parent once empty."""
    shutil.rmtree(directory, ignore_errors=True)
    try:
        directory.parent.rmdir()
    except OSError:
        pass  # another run's directory is still there


def experiment_digest(experiment: Iterable) -> str:
    """SHA-256 over an experiment's sorted (pair, score, closure) rows."""
    rows = sorted(
        (match.pair[0], match.pair[1], repr(match.score), bool(match.from_clustering))
        for match in experiment
    )
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


def canonical_clusters(clusters: Iterable[Iterable[str]]) -> frozenset:
    """Order-free form of a clustering's non-singleton clusters."""
    ordered = (tuple(sorted(cluster)) for cluster in clusters)
    return frozenset(cluster for cluster in ordered if len(cluster) > 1)


def clusters_from_pairs(pairs: Iterable[tuple[str, str]]) -> frozenset:
    """Connected components of ``pairs``, computed without the program."""
    parent: dict[str, str] = {}

    def find(item: str) -> str:
        root = parent.setdefault(item, item)
        while root != parent[root]:
            root = parent[root]
        while item != root:
            parent[item], item = root, parent[item]
        return root

    for first, second in pairs:
        root_a, root_b = find(first), find(second)
        if root_a != root_b:
            parent[max(root_a, root_b)] = min(root_a, root_b)
    members: dict[str, list[str]] = {}
    for item in parent:
        members.setdefault(find(item), []).append(item)
    return canonical_clusters(members.values())


def canonical_json(document: object) -> str:
    """JSON text independent of key order (NaN stays comparable)."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


# -- context ---------------------------------------------------------------------


def store_flush_policy(path: Path) -> str:
    """SQLite journal mode and default synchronous level of a store file."""
    connection = sqlite3.connect(str(path))
    try:
        journal = connection.execute("PRAGMA journal_mode").fetchone()[0]
        synchronous = connection.execute("PRAGMA synchronous").fetchone()[0]
    finally:
        connection.close()
    return f"journal_mode={journal},synchronous={synchronous}"


def base_context(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Fields every result records, whatever the workload."""
    return {
        "benchmark_version": BENCHMARK_VERSION,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": _platform.python_version(),
        "implementation": _platform.python_implementation(),
    }


class ContextMismatch(ValueError):
    """Two results were taken under different conditions."""

    def __init__(self, field_name: str, base: object, head: object) -> None:
        super().__init__(
            f"results are not comparable: context field {field_name!r} "
            f"differs ({base!r} -> {head!r})"
        )
        self.field = field_name


def check_comparable(base: Mapping, head: Mapping) -> None:
    """Raise :class:`ContextMismatch` naming the first differing field."""
    for name in sorted(set(base) | set(head)):
        if base.get(name) != head.get(name):
            raise ContextMismatch(name, base.get(name), head.get(name))


def compare_results(base: Mapping, head: Mapping, spec: Mapping) -> list[dict]:
    """Per-metric verdicts of ``head`` against ``base``.

    Both are result documents written by ``run.py --out``.  Refuses
    (raises :class:`ContextMismatch`) unless their contexts agree in
    every field.  A metric regresses when it got worse by more than
    its bound, a share of the base value.
    """
    check_comparable(base["context"], head["context"])
    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name not in base["metrics"] or name not in head["metrics"]:
            continue
        before = base["metrics"][name]["value"]
        after = head["metrics"][name]["value"]
        change = (after - before) / before if before else 0.0
        worse = change if metric["better"] == "lower" else -change
        rows.append({
            "name": name,
            "unit": metric["unit"],
            "base": before,
            "head": after,
            "change": change,
            "bound": metric["bound"],
            "regressed": worse > metric["bound"],
        })
    return rows


# -- results ---------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run measured.

    ``metrics`` holds every metric of the contract the run produced,
    by name; ``report`` holds the workload's own headline figures under
    the names its users know (``match_s``, ``request_p99_ms``, ...),
    as ``name -> (value, unit)``; ``context`` the conditions.
    """

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    context: dict[str, object] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        """Count one failed operation and remember why."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def result_document(outcome: Outcome, spec: Mapping, trace: bool) -> dict:
    """The run's full result: contract metrics, report and context."""
    names = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in outcome.metrics]
    if missing and not trace:
        raise BenchmarkError(f"workload did not produce {', '.join(missing)}")
    for name in missing:
        # A layer this workload never calls spent no time and did no work.
        outcome.metrics[name] = 0.0
    return {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": float(outcome.metrics[m["name"]]), "unit": m["unit"]}
            for m in names
        },
        "report": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.report.items()
        },
        "context": outcome.context,
    }


def render_table(document: Mapping) -> str:
    """Human-readable lines: every metric by name with its unit."""
    lines = [f"context: {json.dumps(document['context'], sort_keys=True)}"]
    attempted, failed = document["attempted"], document["failed"]
    lines.append(
        f"  {'failed_ratio':<34} {failed / attempted if attempted else 1.0:>14.6g} "
        f"ratio  ({failed} of {attempted} operations)"
    )
    for section in ("report", "metrics"):
        for name, entry in document[section].items():
            lines.append(
                f"  {name:<34} {entry['value']:>14.6g} {entry['unit']}"
            )
    return "\n".join(lines)


def summary_line(document: Mapping) -> str:
    """The last stdout line: exactly the contract's four keys."""
    return json.dumps({
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": document["metrics"],
    })
