"""Structured logging and request-id correlation across carriers."""

from __future__ import annotations

import io
import json
import logging

from repro.telemetry.logging import (
    JsonFormatter,
    RequestIdFilter,
    bind_request_id,
    configure_structured_logging,
    current_request_id,
    new_request_id,
)
from repro.telemetry.spans import get_tracer


class TestRequestIds:
    def test_new_request_id_is_unique_hex(self):
        first, second = new_request_id(), new_request_id()
        assert first != second
        assert len(first) == 16
        int(first, 16)  # parses as hex

    def test_bind_scopes_to_the_with_block(self):
        assert current_request_id() is None
        with bind_request_id("req-1"):
            assert current_request_id() == "req-1"
            with bind_request_id("req-2"):
                assert current_request_id() == "req-2"
            assert current_request_id() == "req-1"
        assert current_request_id() is None

    def test_span_annotation_is_the_fallback_carrier(self):
        tracer = get_tracer()
        tracer.reset()
        tracer.enable()
        try:
            with tracer.span("request.work", request_id="req-span"):
                # no thread-local binding: the open span answers
                assert current_request_id() == "req-span"
                with tracer.span("request.child"):
                    # inherited annotation keeps the id through nesting
                    assert current_request_id() == "req-span"
        finally:
            tracer.disable()
            tracer.reset()

    def test_thread_local_wins_over_span_annotation(self):
        tracer = get_tracer()
        tracer.reset()
        tracer.enable()
        try:
            with tracer.span("request.work", request_id="from-span"):
                with bind_request_id("from-thread"):
                    assert current_request_id() == "from-thread"
        finally:
            tracer.disable()
            tracer.reset()

class TestJsonLogging:
    def test_formatter_emits_one_json_object(self):
        record = logging.LogRecord(
            "repro.test", logging.INFO, __file__, 1, "hello %s", ("world",), None
        )
        document = json.loads(JsonFormatter().format(record))
        assert document["message"] == "hello world"
        assert document["level"] == "INFO"
        assert document["logger"] == "repro.test"
        assert "request_id" not in document

    def test_formatter_includes_bound_request_id(self):
        record = logging.LogRecord(
            "repro.test", logging.DEBUG, __file__, 1, "work", (), None
        )
        with bind_request_id("req-json"):
            document = json.loads(JsonFormatter().format(record))
        assert document["request_id"] == "req-json"

    def test_filter_stamps_records(self):
        record = logging.LogRecord(
            "repro.test", logging.INFO, __file__, 1, "x", (), None
        )
        with bind_request_id("req-filter"):
            assert RequestIdFilter().filter(record) is True
        assert record.request_id == "req-filter"

    def test_filter_keeps_explicit_request_id(self):
        record = logging.LogRecord(
            "repro.test", logging.INFO, __file__, 1, "x", (), None
        )
        record.request_id = "explicit"
        with bind_request_id("ambient"):
            RequestIdFilter().filter(record)
        assert record.request_id == "explicit"

    def test_configure_structured_logging_end_to_end(self):
        stream = io.StringIO()
        previous_handlers = logging.getLogger().handlers[:]
        try:
            configure_structured_logging(level=logging.DEBUG, stream=stream)
            with bind_request_id("req-e2e"):
                logging.getLogger("repro.configured").debug("traced line")
            lines = [
                json.loads(line)
                for line in stream.getvalue().splitlines()
                if line
            ]
            ours = [d for d in lines if d["logger"] == "repro.configured"]
            assert ours[0]["message"] == "traced line"
            assert ours[0]["request_id"] == "req-e2e"
        finally:
            root = logging.getLogger()
            for handler in root.handlers[:]:
                root.removeHandler(handler)
            for handler in previous_handlers:
                root.addHandler(handler)

    def test_exceptions_are_rendered_into_the_document(self):
        formatter = JsonFormatter()
        try:
            raise RuntimeError("boom")
        except RuntimeError:
            import sys

            record = logging.LogRecord(
                "repro.test", logging.ERROR, __file__, 1, "failed", (),
                sys.exc_info(),
            )
        document = json.loads(formatter.format(record))
        assert "RuntimeError: boom" in document["exc_info"]
