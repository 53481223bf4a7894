"""Span tracing: the one timing source of pipeline and serving code.

A *span* is one named, timed unit of work — a pipeline stage, an engine
job, a comparison kernel pass — with free-form annotations (record
counts, cache hits) and child spans.  :class:`Tracer` maintains a
thread-local span stack, so nesting falls out of lexical structure::

    with tracer.span("pipeline.run", records=len(dataset)) as run:
        with tracer.span("pipeline.prepare"):
            ...
    run.seconds  # measured, traced or not

Crossing a thread boundary needs *explicit* context propagation,
because a thread-local stack does not follow the work: capture
:meth:`Tracer.context` on the submitting thread, then wrap the
worker-side execution in :meth:`Tracer.activate`.  The engine's job
runner does exactly this, so job spans hang off the span that
submitted them.  All work runs in one process, so every span is an
interval this tracer measured itself.

Every span is measured and linked to its parent whether tracing is on
or off, so code that reports a duration (a pipeline's stage seconds, an
engine job's seconds, request latency metrics) reads it from its span
instead of keeping a stopwatch of its own.  :attr:`Tracer.enabled`
(off by default) only decides whether finished root trees are kept in
:meth:`Tracer.roots` for exporters.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "get_tracer",
    "span",
    "annotate",
]

_ids = itertools.count(1)

# Wall-clock time of the performance counter's zero, fixed at import: a
# span's ``started_at`` comes from the same clock reading as its
# ``seconds``, so the intervals of a parent and its children compare
# exactly.
_EPOCH = time.time() - time.perf_counter()


class Span:
    """One named, timed unit of work in a trace tree.

    :meth:`Tracer.span` opens a span and returns it; as a context
    manager it closes itself on exit, setting :attr:`seconds`.  A span
    built directly (an exported row, a test fixture) is just a record.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "started_at",
        "seconds",
        "annotations",
        "children",
        "_start",
        "_tracer",
        "_parent",
    )

    def __init__(
        self,
        name: str,
        parent_id: int | None,
        annotations: dict,
        start: float | None = None,
    ) -> None:
        self._start = time.perf_counter() if start is None else start
        self.started_at = _EPOCH + self._start
        self.name = name
        self.span_id = next(_ids)
        self.parent_id = parent_id
        self.annotations = annotations
        self.children: list[Span] = []
        self.seconds: float | None = None
        self._tracer: Tracer | None = None
        self._parent: Span | None = None

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds = time.perf_counter() - self._start
        if exc_type is not None:
            self.annotations.setdefault("error", exc_type.__name__)
        self._tracer._close(self)

    def annotate(self, **annotations: object) -> None:
        """Attach key/value annotations to this span."""
        self.annotations.update(annotations)

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable flat row (children are separate rows)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "started_at": self.started_at,
            "seconds": self.seconds,
            "annotations": dict(self.annotations),
        }

    def self_seconds(self) -> float | None:
        """Seconds of this span that no child span covers.

        :attr:`seconds` minus the union of the children's intervals
        (``started_at`` to ``started_at + seconds``, clipped to this
        span's own).  The union, not the sum: jobs submitted from one
        span run concurrently on the engine pool, so their intervals
        overlap.  ``None`` while the span is open; never negative.
        """
        if self.seconds is None:
            return None
        start = self.started_at
        end = start + self.seconds
        covered = 0.0
        reach = start
        for low, high in sorted(
            (max(child.started_at, start),
             min(child.started_at + child.seconds, end))
            for child in self.children
            if child.seconds is not None
        ):
            low = max(low, reach)
            if high > low:
                covered += high - low
                reach = high
        return max(0.0, self.seconds - covered)

    def walk(self):
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return f"Span({self.name!r}, seconds={self.seconds})"


class _ActivatedContext:
    """Context manager installing a captured span as this thread's parent."""

    __slots__ = ("_tracer", "_span", "_previous")

    def __init__(self, tracer: "Tracer", captured: Span) -> None:
        self._tracer = tracer
        self._span = captured
        self._previous = None

    def __enter__(self) -> Span:
        stack = self._tracer._stack()
        self._previous = list(stack)
        stack.append(self._span)
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._local.stack = self._previous


class SpanContext:
    """A capture of the current span, portable across threads."""

    __slots__ = ("span",)

    def __init__(self, span: Span | None) -> None:
        self.span = span


class Tracer:
    """A thread-aware span tracer that keeps finished trees when enabled.

    Spans are measured and linked to their parents either way; while
    :attr:`enabled`, completed root spans accumulate in :meth:`roots`
    until :meth:`reset`, and exporters read them from there.  Tree
    mutations are lock-guarded because context propagation means
    several threads may append children to one shared parent.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._local = threading.local()
        self._lock = threading.Lock()
        self._roots: list[Span] = []

    # -- switches ---------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop completed roots (any thread's open spans keep running)."""
        with self._lock:
            self._roots = []

    # -- span creation ----------------------------------------------------------

    def span(self, name: str, **annotations: object) -> Span:
        """Open a span timing one unit of work; use it as a context manager.

        The span starts now, as a child of this thread's innermost open
        span, and closes when its ``with`` block exits.  The clock is
        read first, so setting the span up counts as its own time, not
        its parent's.
        """
        start = time.perf_counter()
        stack = self._stack()
        parent = stack[-1] if stack else None
        # Correlation ids flow down the tree: a child span inherits the
        # parent's request_id unless it carries its own, so every span
        # of one served request — including spans opened on engine
        # workers under an activated context — shares the id.
        if parent is not None and "request_id" not in annotations:
            inherited = parent.annotations.get("request_id")
            if inherited is not None:
                annotations["request_id"] = inherited
        span = Span(name, parent.span_id if parent else None, annotations, start)
        span._tracer = self
        span._parent = parent
        stack.append(span)
        return span

    def annotate(self, **annotations: object) -> None:
        """Annotate the innermost open span (no-op without one)."""
        current = self.current()
        if current is not None:
            current.annotate(**annotations)

    # -- context propagation ----------------------------------------------------

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def context(self) -> SpanContext:
        """Capture the current span for another thread to adopt."""
        return SpanContext(self.current())

    def activate(self, context: SpanContext | None):
        """Install a captured context as this thread's span parent.

        Spans opened inside the ``with`` become children of the
        captured span even though they run on a different thread.
        ``None`` (or an empty capture) is a no-op, so callers can
        thread contexts through unconditionally.
        """
        if context is None or context.span is None:
            return contextlib.nullcontext()
        return _ActivatedContext(self, context.span)

    # -- results ----------------------------------------------------------------

    def roots(self) -> list[Span]:
        """Completed root spans, oldest first (kept only while enabled)."""
        with self._lock:
            return list(self._roots)

    # -- internals --------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _close(self, span: Span) -> None:
        stack = self._stack()
        # Tolerate exotic unwind orders (generators finalized late):
        # remove the span wherever it sits instead of corrupting peers.
        if span in stack:
            stack.remove(span)
        # A closed span keeps no link up the tree, so a finished tree
        # is freed by reference counting alone once nothing holds it.
        parent, span._parent = span._parent, None
        with self._lock:
            if parent is not None:
                parent.children.append(span)
            elif self.enabled:
                self._roots.append(span)


_DEFAULT_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-wide default tracer (keeps no trees until enabled)."""
    return _DEFAULT_TRACER


def span(name: str, **annotations: object) -> Span:
    """Open a span on the default tracer."""
    return _DEFAULT_TRACER.span(name, **annotations)


def annotate(**annotations: object) -> None:
    """Annotate the default tracer's innermost open span."""
    _DEFAULT_TRACER.annotate(**annotations)
