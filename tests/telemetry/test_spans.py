"""Span tracer unit tests: nesting, propagation, disabled-mode linking."""

from __future__ import annotations

import json
import threading

import pytest

from repro.telemetry import (
    Tracer,
    get_tracer,
    render_span_tree,
    spans_to_rows,
    write_spans_jsonl,
)
from repro.telemetry.spans import Span


@pytest.fixture
def tracer():
    return Tracer(enabled=True)


def test_nesting_follows_lexical_structure(tracer):
    with tracer.span("outer", records=10) as outer:
        with tracer.span("inner") as inner:
            inner.annotate(pairs=4)
    roots = tracer.roots()
    assert [root.name for root in roots] == ["outer"]
    assert roots[0].annotations == {"records": 10}
    assert [child.name for child in roots[0].children] == ["inner"]
    assert roots[0].children[0].annotations == {"pairs": 4}
    assert roots[0].children[0].parent_id == outer.span_id
    assert roots[0].seconds >= roots[0].children[0].seconds >= 0.0


def test_disabled_tracer_measures_and_links_but_keeps_no_roots():
    tracer = Tracer(enabled=False)
    with tracer.span("outer", records=1) as outer:
        with tracer.span("inner") as inner:
            tracer.annotate(pairs=2)
    assert tracer.roots() == []
    assert outer.children == [inner]
    assert inner.parent_id == outer.span_id
    assert inner.annotations == {"pairs": 2}
    assert outer.seconds >= inner.seconds >= 0.0
    tracer.annotate(ignored=True)  # no open span: no-op


def test_enabling_keeps_roots_from_then_on():
    tracer = Tracer(enabled=False)
    with tracer.span("dropped"):
        pass
    tracer.enable()
    with tracer.span("kept"):
        pass
    assert [root.name for root in tracer.roots()] == ["kept"]


def test_closed_span_holds_no_link_to_its_parent(tracer):
    """Finished trees are freed by reference counting, not the GC."""
    with tracer.span("outer"):
        with tracer.span("inner") as inner:
            assert inner._parent is not None
    assert inner._parent is None


def test_activating_an_empty_context_is_a_no_op(tracer):
    with tracer.activate(tracer.context()):
        with tracer.span("alone"):
            pass
    with tracer.activate(None):
        pass
    assert [root.name for root in tracer.roots()] == ["alone"]


def test_exception_annotates_and_closes_the_span(tracer):
    with pytest.raises(ValueError):
        with tracer.span("failing"):
            raise ValueError("boom")
    (root,) = tracer.roots()
    assert root.annotations["error"] == "ValueError"
    assert root.seconds is not None


def test_context_propagates_across_threads(tracer):
    def worker(context):
        with tracer.activate(context):
            with tracer.span("worker.job"):
                pass

    with tracer.span("submit") as submit_span:
        context = tracer.context()
        thread = threading.Thread(target=worker, args=(context,))
        thread.start()
        thread.join()
    (root,) = tracer.roots()
    assert root is submit_span
    assert [child.name for child in root.children] == ["worker.job"]


def test_reset_drops_completed_roots(tracer):
    with tracer.span("one"):
        pass
    tracer.reset()
    assert tracer.roots() == []


def test_default_tracer_is_disabled():
    assert get_tracer().enabled is False


def test_spans_export_jsonl_and_tree(tracer, tmp_path):
    with tracer.span("root", records=5):
        with tracer.span("child"):
            pass
    roots = tracer.roots()
    rows = spans_to_rows(roots)
    assert {row["name"] for row in rows} == {"root", "child"}
    path = write_spans_jsonl(tmp_path / "spans.jsonl", roots)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 2
    child = next(row for row in lines if row["name"] == "child")
    root = next(row for row in lines if row["name"] == "root")
    assert child["parent_id"] == root["span_id"]
    tree = render_span_tree(roots[0])
    assert "root" in tree and "└─ child" in tree and "[records=5]" in tree


def hand_built(seconds, *children, started_at=100.0):
    """A finished span over ``[started_at, started_at + seconds]``."""
    span = Span("span", None, {})
    span.started_at = started_at
    span.seconds = seconds
    span.children.extend(children)
    return span


class TestSelfTime:
    def test_leaf_self_time_is_its_duration(self):
        assert hand_built(0.5).self_seconds() == pytest.approx(0.5)

    def test_disjoint_children_are_subtracted(self):
        root = hand_built(
            1.0,
            hand_built(0.2, started_at=100.1),
            hand_built(0.3, started_at=100.5),
        )
        assert root.self_seconds() == pytest.approx(0.5)

    def test_overlapping_children_count_once(self):
        """Concurrent engine jobs overlap: subtract their union."""
        root = hand_built(
            1.0,
            hand_built(0.4, started_at=100.1),  # 100.1 - 100.5
            hand_built(0.4, started_at=100.3),  # 100.3 - 100.7
            hand_built(0.1, started_at=100.35),  # inside both
        )
        assert root.self_seconds() == pytest.approx(0.4)

    def test_grandchildren_do_not_count_against_the_root(self):
        child = hand_built(0.6, hand_built(0.5, started_at=100.05))
        root = hand_built(1.0, child)
        assert root.self_seconds() == pytest.approx(0.4)
        assert child.self_seconds() == pytest.approx(0.1)

    def test_self_time_is_never_negative(self):
        """Children reaching past the parent are clipped to it."""
        root = hand_built(
            0.5,
            hand_built(2.0, started_at=99.0),
            hand_built(0.3, started_at=100.4),
        )
        assert root.self_seconds() == 0.0
        assert hand_built(0.1, hand_built(0.1)).self_seconds() >= 0.0

    def test_back_to_back_children_leave_no_self_time(self):
        root = hand_built(
            1.0,
            hand_built(0.5, started_at=100.5),
            hand_built(0.5, started_at=100.0),
        )
        assert root.self_seconds() == pytest.approx(0.0, abs=1e-9)

    def test_open_spans_and_open_children(self):
        open_child = Span("open", None, {})
        assert open_child.self_seconds() is None
        assert hand_built(1.0, open_child).self_seconds() == pytest.approx(1.0)

    def test_tree_prints_self_time_next_to_duration(self):
        root = hand_built(
            1.0,
            hand_built(0.25, started_at=100.0),
            hand_built(0.25, started_at=100.5),
        )
        lines = render_span_tree(root).splitlines()
        assert lines[0] == "span    1000.00 ms  self 500.00 ms"
        assert lines[1].endswith("250.00 ms  self 250.00 ms")
        assert "?" in render_span_tree(Span("open", None, {}))

    def test_traced_spans_account_for_their_children(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        (outer,) = tracer.roots()
        (inner,) = outer.children
        assert 0.0 <= outer.self_seconds() <= outer.seconds
        assert inner.self_seconds() == inner.seconds
