"""Persisted performance trajectory for the benchmark harness.

Every ``bench_*.py`` ends its report by calling :func:`emit_trajectory`
with the numbers it just measured.  The helper writes them — together
with ambient measurements like peak RSS — to ``BENCH_<area>.json`` at
the repository root, so the performance of each subsystem is *versioned
next to the code that produced it* and drifts show up in review diffs
instead of being folklore.

Before overwriting, the previous file (the trajectory's last point) is
compared against the fresh numbers: any throughput drop or duration
increase beyond :data:`REGRESSION_TOLERANCE` is reported.  Comparison
is **report-only** by default — benchmark machines differ — and becomes
enforcing with ``REPRO_TRAJECTORY_ENFORCE=1``.  Runs whose *context*
(smoke vs. full scale, dataset sizes) differs from the stored point are
never compared: a smoke run regressing against a full run is noise.

``python -m benchmarks.trajectory`` compares the working tree's
``BENCH_*.json`` against the committed versions (``git show HEAD:...``)
and prints one consolidated report — the CI trajectory step.

Counters that are exact functions of a benchmark's seeded inputs
(candidate pairs, rows spilled) are not noise, so they get a gate
instead of a tolerance: each counter :data:`EXACT_COUNTERS` names must
equal the committed point of the same context, and any difference makes
the report exit 1, enforcing or not.  A change in what a stage emits
then fails CI even when every timing is within tolerance.

Environment knobs:

``REPRO_TRAJECTORY_DIR``
    Directory holding the JSON files (default: the repository root).
``REPRO_TRAJECTORY_ENFORCE``
    ``1`` turns >tolerance regressions into failures.
``REPRO_TELEMETRY_STORE``
    When set, every emitted point is also ingested into this telemetry
    warehouse database (see :mod:`repro.telemetry.store`), giving the
    trajectory a queryable history beyond the latest committed point.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
from collections.abc import Sequence
from pathlib import Path

__all__ = [
    "EXACT_COUNTERS",
    "REGRESSION_TOLERANCE",
    "emit_trajectory",
    "compare_trajectories",
    "counter_drift",
    "peak_rss_mb",
    "percentile",
]

REGRESSION_TOLERANCE = 0.20
# Per area, the counters of BENCH_<area>.json that must equal HEAD's.
EXACT_COUNTERS: dict[str, tuple[str, ...]] = {
    "streaming": ("delta_candidates", "full_candidates"),
    "serving": ("requests", "cache_hits", "computations"),
    "graph": ("nodes", "edges", "clusters"),
    "kernels": ("pairs",),
    "lsh_blocking": ("default_candidates", "pairs_completeness", "reduction_ratio"),
    "ablation_blocking": (
        "standard(last_name)", "standard(soundex last)",
        "sorted-neighborhood(w=10)", "token-blocking",
    ),
}
_REPO_ROOT = Path(__file__).resolve().parents[1]
_SCHEMA_VERSION = 1


def _trajectory_dir() -> Path:
    override = os.environ.get("REPRO_TRAJECTORY_DIR")
    return Path(override) if override else _REPO_ROOT


def _enforcing() -> bool:
    return os.environ.get("REPRO_TRAJECTORY_ENFORCE", "0") == "1"


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB.

    ``ru_maxrss`` is KiB on Linux and bytes on macOS — normalized here
    so trajectory files are comparable across both.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS units
        return peak / (1024 * 1024)
    return peak / 1024


def percentile(values, fraction: float) -> float:
    """The ``fraction``-quantile of ``values`` (linear interpolation)."""
    ordered = sorted(float(value) for value in values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    weight = position - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


def _context_mismatch(previous: object, current: object) -> str:
    """Name exactly which context fields differ between two points.

    The comparability gate rejects cross-context comparisons; this spells
    out *why* ("smoke: True -> False", "records: absent -> 5000") so a
    skipped baseline is a diagnosis, not a mystery.
    """
    if not isinstance(previous, dict) or not isinstance(current, dict):
        return f"{previous!r} -> {current!r}"
    differences = []
    for key in sorted(set(previous) | set(current)):
        if key not in previous:
            differences.append(f"{key}: absent -> {current[key]!r}")
        elif key not in current:
            differences.append(f"{key}: {previous[key]!r} -> absent")
        elif previous[key] != current[key]:
            differences.append(f"{key}: {previous[key]!r} -> {current[key]!r}")
    return ", ".join(differences) or "contexts differ"


def _incomparable(previous: dict, current: dict) -> str | None:
    """The "not comparable" note for two points of different contexts."""
    if previous.get("context") == current.get("context"):
        return None
    return (
        f"{current.get('area', '?')}: context changed "
        f"({_context_mismatch(previous.get('context'), current.get('context'))}); "
        "not comparable"
    )


def compare_trajectories(
    previous: dict, current: dict, tolerance: float = REGRESSION_TOLERANCE
) -> list[str]:
    """Human-readable regression findings between two trajectory points.

    Throughput entries regress by dropping, duration entries
    (``seconds`` and ``latency``) by growing; ``counters`` and
    ``peak_rss_mb`` are informational and never flagged.  A context
    mismatch yields a single "not comparable" note instead of findings.
    """
    note = _incomparable(previous, current)
    if note:
        return [note]
    findings: list[str] = []
    area = current.get("area", "?")
    for name, old in (previous.get("throughput") or {}).items():
        new = (current.get("throughput") or {}).get(name)
        if new is None or old <= 0:
            continue
        if new < old * (1 - tolerance):
            findings.append(
                f"{area}: throughput {name} fell "
                f"{(1 - new / old) * 100:.1f}% ({old:.2f} -> {new:.2f})"
            )
    for section in ("seconds", "latency"):
        for name, old in (previous.get(section) or {}).items():
            new = (current.get(section) or {}).get(name)
            if new is None or old <= 0:
                continue
            if new > old * (1 + tolerance):
                findings.append(
                    f"{area}: {section} {name} grew "
                    f"{(new / old - 1) * 100:.1f}% ({old:.4f} -> {new:.4f})"
                )
    return findings


def counter_drift(
    previous: dict, current: dict, names: Sequence[str]
) -> list[str]:
    """Findings where ``current``'s named counters differ from ``previous``.

    Meant for deterministic counters only, where any difference is a
    change of output.  A context mismatch or a counter missing on
    either side is a finding too, so the gate never passes by comparing
    nothing.
    """
    if not names:
        return []
    note = _incomparable(previous, current)
    if note:
        return [note]
    area = current.get("area", "?")
    old_counters = previous.get("counters") or {}
    new_counters = current.get("counters") or {}
    findings: list[str] = []
    for name in names:
        old, new = old_counters.get(name), new_counters.get(name)
        if old is None or new is None:
            findings.append(f"{area}: counter {name} missing ({old!r} -> {new!r})")
        elif old != new:
            findings.append(f"{area}: counter {name} changed ({old} -> {new})")
    return findings


def emit_trajectory(
    area: str,
    *,
    throughput: dict[str, float] | None = None,
    seconds: dict[str, float] | None = None,
    latencies=None,
    counters: dict[str, object] | None = None,
    context: dict[str, object] | None = None,
) -> Path:
    """Persist one benchmark's numbers as ``BENCH_<area>.json``.

    Parameters
    ----------
    area:
        Short lowercase identifier; becomes the file name suffix.
    throughput:
        Named higher-is-better rates (records/s, requests/s, ...).
    seconds:
        Named lower-is-better wall times.
    latencies:
        Raw per-operation durations in seconds; folded into
        ``latency.p50_ms`` / ``latency.p95_ms``.
    counters:
        Informational counts (pairs compared, cache hits, ...).
    context:
        What shaped the numbers (smoke mode, dataset sizes).  Points
        with different contexts are never compared to each other.

    Compares against the previous point (if any) before overwriting it,
    printing findings; with ``REPRO_TRAJECTORY_ENFORCE=1`` regressions
    raise ``AssertionError`` instead.  Returns the written path.
    """
    document: dict[str, object] = {
        "schema": _SCHEMA_VERSION,
        "area": area,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "context": context or {},
        "peak_rss_mb": round(peak_rss_mb(), 2),
    }
    if throughput:
        document["throughput"] = {
            name: round(float(value), 4) for name, value in throughput.items()
        }
    if seconds:
        document["seconds"] = {
            name: round(float(value), 6) for name, value in seconds.items()
        }
    if latencies is not None:
        values = list(latencies)
        if values:
            document["latency"] = {
                "p50_ms": round(percentile(values, 0.50) * 1000, 4),
                "p95_ms": round(percentile(values, 0.95) * 1000, 4),
            }
    if counters:
        document["counters"] = dict(counters)

    directory = _trajectory_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{area}.json"
    findings: list[str] = []
    if path.exists():
        try:
            previous = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            previous = None
        if isinstance(previous, dict):
            findings = compare_trajectories(previous, document)
    for finding in findings:
        print(f"trajectory: {finding}")
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    _ingest_into_warehouse(document)
    regressions = [f for f in findings if "not comparable" not in f]
    if regressions and _enforcing():
        raise AssertionError(
            "performance trajectory regressions:\n  " + "\n  ".join(regressions)
        )
    return path


def _ingest_into_warehouse(document: dict) -> None:
    """Mirror one trajectory point into the telemetry warehouse, if asked.

    Best-effort: the benchmark's own numbers land in ``BENCH_*.json``
    regardless; a missing package or unwritable store only prints.
    """
    target = os.environ.get("REPRO_TELEMETRY_STORE")
    if not target:
        return
    try:
        from repro.telemetry.store import TelemetryStore

        with TelemetryStore(target) as warehouse:
            warehouse.ingest_trajectory(document)
    except Exception as error:  # noqa: BLE001 - telemetry must not fail a bench
        print(f"trajectory: warehouse ingest into {target!r} failed: {error}")


def _committed_version(path: Path) -> dict | None:
    """The HEAD-committed content of ``path``, or ``None``."""
    try:
        completed = subprocess.run(
            ["git", "show", f"HEAD:{path.name}"],
            cwd=_REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return None
    if completed.returncode != 0:
        return None
    try:
        document = json.loads(completed.stdout)
    except json.JSONDecodeError:
        return None
    return document if isinstance(document, dict) else None


def main(argv=None) -> int:
    """Compare working-tree ``BENCH_*.json`` against HEAD.

    Timings are report-only: they fail (exit 1) only with
    ``REPRO_TRAJECTORY_ENFORCE=1``.  A counter :data:`EXACT_COUNTERS`
    names that differs from HEAD always fails.
    """
    directory = _trajectory_dir()
    paths = sorted(directory.glob("BENCH_*.json"))
    if not paths:
        print("trajectory: no BENCH_*.json files to compare")
        return 0
    all_findings: list[str] = []
    all_drift: list[str] = []
    for path in paths:
        try:
            current = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            print(f"trajectory: {path.name} is unreadable; skipped")
            continue
        previous = _committed_version(path)
        if previous is None:
            print(f"trajectory: {path.name} is new (no committed baseline)")
            continue
        findings = compare_trajectories(previous, current)
        exact = EXACT_COUNTERS.get(current.get("area"), ())
        drift = counter_drift(previous, current, exact)
        all_findings.extend(findings)
        all_drift.extend(drift)
        for finding in dict.fromkeys(findings + drift):
            print(f"trajectory: {finding}")
        if not findings and not drift:
            print(f"trajectory: {path.name} within tolerance")
        if exact and not drift:
            counters = {name: current["counters"][name] for name in exact}
            print(f"trajectory: {path.name} counters equal HEAD: {counters}")
    regressions = [f for f in all_findings if "not comparable" not in f]
    if regressions:
        print(f"trajectory: {len(regressions)} regression(s) found")
    if all_drift:
        print(f"trajectory: {len(all_drift)} exact-counter finding(s)")
        return 1
    return 1 if regressions and _enforcing() else 0


if __name__ == "__main__":
    sys.exit(main())
