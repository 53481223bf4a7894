"""Layer timing from outside the program.

The traced run wraps public functions of each layer (and the one
private stage ``MatchingPipeline.run`` calls instead of its public
twin) and records how long every call took.  The wrappers live here,
not in the program, so the untraced runs execute the program exactly
as shipped.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from collections.abc import Iterable


def layer_targets() -> list[tuple[object, str, str]]:
    """``(owner, attribute, name)`` of every timed layer entry point.

    ``MatchingPipeline.run`` calls the private ``_cluster`` rather than
    the public ``cluster_matches``, so that is what clustering time is
    taken from.  The served timeline route builds a ``DiagramTimeline``
    directly instead of calling ``FrostPlatform.timeline``, so both of
    its steps are timed.
    """
    from repro.core.platform import FrostPlatform
    from repro.core.timeline import DiagramTimeline
    from repro.engine import runner
    from repro.exploration import error_categories
    from repro.graph import build
    from repro.graph.model import MatchGraph
    from repro.matching.pipeline import MatchingPipeline
    from repro.storage.database import FrostStore
    from repro.streaming.delta_blocking import IncrementalBlockingIndex

    return [
        (MatchingPipeline, "run", "matching.run"),
        (MatchingPipeline, "prepare", "matching.prepare"),
        (MatchingPipeline, "generate_candidates", "matching.candidates"),
        (MatchingPipeline, "compare_candidates", "matching.similarity"),
        (MatchingPipeline, "score_vectors", "matching.decision"),
        (MatchingPipeline, "_cluster", "matching.clustering"),
        (runner, "serialize_experiment", "engine.serialize"),
        (runner, "deserialize_experiment", "engine.deserialize"),
        (FrostPlatform, "add_experiment", "core.register"),
        (FrostPlatform, "metrics_table", "metrics.table"),
        (FrostPlatform, "diagram", "core.diagram"),
        (DiagramTimeline, "__init__", "core.timeline_build"),
        (DiagramTimeline, "segment", "core.timeline_segment"),
        (error_categories, "categorize_errors", "exploration.categorize"),
        (IncrementalBlockingIndex, "ingest_delta", "streaming.delta_index"),
        (FrostStore, "append_stream_batch", "storage.append"),
        (build.GraphUpdater, "apply_batch", "graph.apply_batch"),
        (build, "load_graph", "graph.load"),
        (MatchGraph, "neighbors", "graph.neighbors"),
        (MatchGraph, "component_of", "graph.component"),
    ]


def install(keep: Iterable[str] = ()) -> "LayerTimer":
    """A timer wrapping every entry point of :func:`layer_targets`.

    Return values of the names in ``keep`` are retained, for the stage
    quality counts.
    """
    timer = LayerTimer()
    keep = set(keep)
    for owner, attribute, name in layer_targets():
        timer.wrap(owner, attribute, name, keep_result=name in keep)
    return timer


def stage_quality(candidates, scored, threshold: float, gold,
                  total_pairs: int, closure_pairs: int) -> dict[str, float]:
    """What blocking, the decision and clustering did to match quality.

    ``candidates`` are the blocked pairs, ``scored`` the decision
    model's :class:`ScoredPair` list, ``closure_pairs`` how many pairs
    the final clustering implies.  A speed-up bought by changing the
    output moves these.
    """
    from repro.metrics.blocking_quality import evaluate_blocking

    gold_pairs = gold.pairs()
    blocking = evaluate_blocking(candidates, gold_pairs, total_pairs)
    accepted = {sp.pair for sp in scored if sp.score >= threshold}
    true_accepted = len(accepted & gold_pairs)
    return {
        "matching.pairs_completeness": blocking.pairs_completeness,
        "matching.reduction_ratio": blocking.reduction_ratio,
        "matching.decision_precision": (
            true_accepted / len(accepted) if accepted else 0.0
        ),
        "matching.decision_recall": (
            true_accepted / len(gold_pairs) if gold_pairs else 0.0
        ),
        "matching.accept_ratio": (
            len(accepted) / blocking.candidate_count
            if blocking.candidate_count else 0.0
        ),
        "matching.closure_inflation": (
            closure_pairs / len(accepted) if accepted else 0.0
        ),
    }


def kernel_counts() -> tuple[float, float]:
    """Pairs and distinct value pairs the columnar kernels scored so far."""
    from repro.telemetry.metrics import get_metrics

    values = get_metrics().values()
    return (
        values.get("frost_kernel_pairs_total", 0),
        values.get("frost_kernel_distinct_pairs_total", 0),
    )


def distinct_ratio(before: tuple[float, float], after: tuple[float, float]) -> float:
    """Distinct attribute value pairs scored per attribute value pair.

    Below 1 the kernels' value-pair deduplication saves work; read
    from the program's own ``frost_kernel_*`` counters.
    """
    from perfbench.harness import MATCHER_CONFIG

    pairs = (after[0] - before[0]) * len(MATCHER_CONFIG["similarities"])
    return (after[1] - before[1]) / pairs if pairs else 0.0


class LayerTimer:
    """Record the wall time of calls into wrapped functions.

    Each wrapped callable is registered under a layer metric name
    (``matching.similarity``); every call appends its duration and,
    for names kept, its return value.  :meth:`close` restores the
    originals.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self.seconds: dict[str, list[float]] = defaultdict(list)
        self.results: dict[str, list[object]] = defaultdict(list)
        self._keep: set[str] = set()

    def wrap(self, owner: object, attribute: str, name: str,
             keep_result: bool = False) -> None:
        """Time calls of ``owner.attribute`` under ``name``.

        ``owner`` is a class (instance methods) or a module (functions
        looked up through the module at call time).  With
        ``keep_result`` the return values are kept for quality counts.
        """
        original = (
            owner.__dict__[attribute] if isinstance(owner, type)
            else getattr(owner, attribute)
        )
        if keep_result:
            self._keep.add(name)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            started = time.perf_counter()
            result = original(*args, **kwargs)
            elapsed = time.perf_counter() - started
            with self._lock:
                self.seconds[name].append(elapsed)
                if name in self._keep:
                    self.results[name].append(result)
            return result

        setattr(owner, attribute, timed)
        self._undo.append((owner, attribute, original))

    def close(self) -> None:
        """Put every original back, last wrapped first."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -- reading -----------------------------------------------------------------

    def mark(self) -> dict[str, int]:
        """A position to measure later calls from (see :meth:`since`)."""
        with self._lock:
            return {name: len(values) for name, values in self.seconds.items()}

    def between(self, name: str, start: dict[str, int],
                stop: dict[str, int] | None = None) -> list[float]:
        """Durations of ``name`` calls recorded after ``start``, before ``stop``."""
        with self._lock:
            values = self.seconds.get(name, [])
            end = len(values) if stop is None else stop.get(name, 0)
            return values[start.get(name, 0):end]

    def total(self, name: str, start: dict[str, int],
              stop: dict[str, int] | None = None) -> float:
        """Seconds spent in ``name`` between two marks."""
        return sum(self.between(name, start, stop))

    def totals(self, start: dict[str, int]) -> dict[str, float]:
        """Seconds per name spent since ``start``."""
        with self._lock:
            return {
                name: sum(values[start.get(name, 0):])
                for name, values in self.seconds.items()
            }

    def kept(self, name: str) -> list[object]:
        """Return values kept for ``name``; cleared by :meth:`drop_kept`."""
        with self._lock:
            return list(self.results.get(name, []))

    def drop_kept(self) -> None:
        """Forget kept return values (they can be large)."""
        with self._lock:
            self.results.clear()
