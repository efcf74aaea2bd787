"""Tests for the tracing core (spans, nesting, no-op path)."""

from __future__ import annotations

import threading

from repro.obs import (
    NOOP_SPAN,
    LedgerReader,
    RunLedger,
    Span,
    Tracer,
    telemetry,
)


class TestTracer:
    def test_span_records_duration_and_name(self):
        finished = []
        tracer = Tracer(finished.append)
        with tracer.span("work", kind="test") as sp:
            pass
        assert finished == [sp]
        assert sp.name == "work"
        assert sp.attrs == {"kind": "test"}
        assert sp.duration >= 0.0
        assert sp.parent_id is None

    def test_nesting_assigns_parent_ids(self):
        finished = []
        tracer = Tracer(finished.append)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None
        assert inner.parent_id == outer.span_id
        # children finish (and emit) before their parents
        assert [s.name for s in finished] == ["inner", "outer"]

    def test_explicit_parent_overrides_stack(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            detached = tracer.span("b", parent=a)
        with detached as b:
            pass
        assert b.parent_id == a.span_id

    def test_set_attribute_and_exception_marking(self):
        finished = []
        tracer = Tracer(finished.append)
        try:
            with tracer.span("boom") as sp:
                sp.set_attribute("x", 1)
                raise ValueError("no")
        except ValueError:
            pass
        assert sp.attrs["x"] == 1
        assert sp.attrs["error"] == "ValueError"
        assert finished  # emitted despite the exception
        assert tracer.current() is None

    def test_stacks_are_per_thread(self):
        tracer = Tracer()
        seen = {}

        def worker():
            seen["worker_current"] = tracer.current()
            with tracer.span("w") as sp:
                seen["worker_span_parent"] = sp.parent_id

        with tracer.span("main"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        # the worker thread starts with an empty stack: no implicit parent
        assert seen["worker_current"] is None
        assert seen["worker_span_parent"] is None

    def test_span_ids_unique(self):
        tracer = Tracer()
        ids = set()
        for _ in range(100):
            with tracer.span("s") as sp:
                ids.add(sp.span_id)
        assert len(ids) == 100

    def test_to_event_schema_fields(self):
        tracer = Tracer()
        with tracer.span("e", a=1) as sp:
            pass
        event = sp.to_event()
        assert event["type"] == "span"
        assert event["name"] == "e"
        assert event["attrs"] == {"a": 1}
        assert event["parent_id"] is None
        assert isinstance(event["span_id"], int)


class TestDisabledFacade:
    def test_disabled_span_is_shared_noop(self):
        assert not telemetry.enabled
        sp = telemetry.span("anything", x=1)
        assert sp is NOOP_SPAN
        with sp as inner:
            inner.set_attribute("ignored", True)
        assert sp.duration == 0.0
        assert telemetry.current_span() is None

    def test_disabled_metrics_are_dropped(self):
        telemetry.metrics.reset()  # the singleton registry outlives sessions
        telemetry.counter_add("c", 5)
        telemetry.gauge_set("g", 1.0)
        telemetry.observe("h", 0.1)
        assert telemetry.metrics.snapshot() == {}

    def test_round_finished_noop_when_disabled(self):
        telemetry.round_finished(3)  # must not raise or emit


class TestEnabledFacade:
    def test_real_span_when_enabled(self, memory_session):
        with telemetry.span("round", s=1) as sp:
            assert isinstance(sp, Span)
            assert telemetry.current_span() is sp
        spans = memory_session.by_type("span")
        assert [s["name"] for s in spans] == ["round"]
        assert spans[0]["attrs"] == {"s": 1}

    def test_configure_twice_rejected(self, memory_session):
        import pytest

        with pytest.raises(RuntimeError):
            telemetry.configure([])

    def test_shutdown_closes_sinks_and_keeps_totals(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        ledger = RunLedger(path, fsync=False)
        ledger.write_manifest({})
        telemetry.configure([ledger])
        telemetry.counter_add("n", 2)
        telemetry.shutdown()
        assert not telemetry.enabled
        assert LedgerReader(path).status == "completed"
        # the in-process total outlives the session
        assert telemetry.metrics.snapshot()["n"]["total"] == 2.0

    def test_sim_clock_stamps_events(self, memory_session):
        class FakeClock:
            def snapshot(self):
                return (12.5, 3, 4.0)

        telemetry.attach_sim_clock(FakeClock())
        with telemetry.span("round"):
            pass
        span = memory_session.by_type("span")[0]
        assert span["sim_time"] == 12.5
