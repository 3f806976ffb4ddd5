"""Unit tests for the repro.telemetry core: clock, tracer, metrics, export.

Everything here runs under a :class:`FakeClock`, so span durations and
export timestamps are asserted exactly, not approximately.
"""

import json

import pytest

from repro.telemetry import (
    NULL_TELEMETRY,
    FakeClock,
    MetricsRegistry,
    RankTelemetry,
    TelemetryConfig,
    TelemetrySession,
    Tracer,
    chrome_trace,
    merge_snapshots,
    validate_chrome_trace,
)
from repro.telemetry.trace import NULL_SPAN


class TestFakeClock:
    def test_tick_advances_per_read(self):
        clk = FakeClock(start=5.0, tick=0.5)
        assert clk() == 5.0
        assert clk() == 5.5

    def test_advance_jumps(self):
        clk = FakeClock()
        clk.advance(3.25)
        assert clk() == 3.25


class TestTracer:
    def test_span_records_exact_duration(self):
        clk = FakeClock(tick=1.0)
        tracer = Tracer(rank=2, clock=clk)
        with tracer.span("generate", edges=7):
            pass
        (event,) = tracer.events()
        assert event.name == "generate"
        assert event.ph == "X"
        assert event.ts == 0.0
        assert event.dur == 1.0
        assert event.rank == 2
        assert event.args == {"edges": 7}

    def test_span_nesting_orders_inner_first(self):
        clk = FakeClock(tick=1.0)
        tracer = Tracer(clock=clk)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [e.name for e in tracer.events()]
        # Inner exits (and records) before outer.
        assert names == ["inner", "outer"]
        inner, outer = tracer.events()
        assert outer.ts <= inner.ts
        assert outer.ts + outer.dur >= inner.ts + inner.dur

    def test_span_records_on_exception(self):
        tracer = Tracer(clock=FakeClock(tick=1.0))
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        assert [e.name for e in tracer.events()] == ["failing"]

    def test_instant(self):
        clk = FakeClock(start=9.0)
        tracer = Tracer(clock=clk)
        tracer.instant("marker", cat="event", detail="x")
        (event,) = tracer.events()
        assert event.ph == "i"
        assert event.ts == 9.0
        assert event.dur == 0.0

    def test_ring_drops_oldest_and_counts(self):
        tracer = Tracer(clock=FakeClock(tick=1.0), capacity=3)
        for i in range(5):
            tracer.instant(f"e{i}")
        assert tracer.dropped == 2
        assert [e.name for e in tracer.events()] == ["e2", "e3", "e4"]
        assert len(tracer) == 3

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestNullPath:
    def test_null_span_is_shared_singleton(self):
        # The zero-overhead contract: disabled span() allocates nothing.
        s1 = NULL_TELEMETRY.span("a", x=1)
        s2 = NULL_TELEMETRY.span("b")
        assert s1 is s2 is NULL_SPAN

    def test_null_telemetry_records_nothing(self):
        with NULL_TELEMETRY.span("ignored"):
            NULL_TELEMETRY.add("counter", 5)
            NULL_TELEMETRY.observe("hist", 1.0)
            NULL_TELEMETRY.instant("event")
        snap = NULL_TELEMETRY.finalize()
        assert snap.events == []
        assert snap.metrics == {}

    def test_null_clock_reads_no_wallclock(self):
        assert NULL_TELEMETRY.clock() == 0.0


class TestMetrics:
    def test_counters_and_histograms(self):
        reg = MetricsRegistry()
        reg.add("edges", 10)
        reg.add("edges", 5)
        reg.observe("lat", 0.5)
        reg.observe("lat", 2.0)
        snap = reg.snapshot()
        assert snap["counters"]["edges"] == 15
        hist = snap["histograms"]["lat"]
        assert hist["count"] == 2
        assert hist["sum"] == 2.5
        assert hist["min"] == 0.5
        assert hist["max"] == 2.0
        # The fixed log2 layout: 0.5 = 0.5 * 2**0 and 2.0 = 0.5 * 2**2
        # land in buckets 0 + 31 and 2 + 31.
        assert [i for i, c in enumerate(hist["counts"]) if c] == [31, 33]

    def test_counter_read(self):
        reg = MetricsRegistry()
        assert reg.counter("missing") == 0
        reg.add("hit")
        assert reg.counter("hit") == 1

    def test_merge_snapshots(self):
        r0, r1 = MetricsRegistry(), MetricsRegistry()
        r0.add("edges", 10)
        r1.add("edges", 32)
        r0.observe("lat", 0.5)
        r1.observe("lat", 8.0)
        merged = merge_snapshots([r0.snapshot(), r1.snapshot()])
        assert merged["counters"]["edges"] == 42
        hist = merged["histograms"]["lat"]
        assert hist["count"] == 2
        assert hist["min"] == 0.5
        assert hist["max"] == 8.0

    def test_merge_empty(self):
        merged = merge_snapshots([])
        assert merged == {"counters": {}, "histograms": {}}


class TestExport:
    def _session_with_two_ranks(self):
        config = TelemetryConfig(clock=FakeClock(start=100.0, tick=0.5))
        session = TelemetrySession(config)
        for rank in range(2):
            tel = RankTelemetry(config, rank)
            with tel.span("generate"):
                pass
            tel.add("edges", rank + 1)
            session.ranks.append(tel.finalize())
        return session

    def test_one_lane_per_rank(self):
        obj = self._session_with_two_ranks().to_chrome_trace()
        lanes = {
            e["tid"]: e["args"]["name"]
            for e in obj["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert lanes == {0: "rank 0", 1: "rank 1"}
        sort_keys = {
            e["tid"]: e["args"]["sort_index"]
            for e in obj["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_sort_index"
        }
        assert sort_keys == {0: 0, 1: 1}

    def test_timestamps_normalized_to_microseconds(self):
        obj = self._session_with_two_ranks().to_chrome_trace()
        spans = [e for e in obj["traceEvents"] if e["ph"] == "X"]
        assert min(e["ts"] for e in spans) == 0.0
        # FakeClock tick 0.5s -> 500000us duration.
        assert all(e["dur"] == 500_000.0 for e in spans)

    def test_supervisor_lane_after_ranks(self):
        session = self._session_with_two_ranks()
        session.record("supervisor.retry", attempt=1)
        obj = session.to_chrome_trace()
        sup = [
            e
            for e in obj["traceEvents"]
            if e["ph"] == "M"
            and e["name"] == "thread_name"
            and e["args"]["name"] == "supervisor"
        ]
        assert [e["tid"] for e in sup] == [2]

    def test_export_round_trip_validates(self, tmp_path):
        session = self._session_with_two_ranks()
        path = tmp_path / "trace.json"
        session.write_chrome_trace(path)
        obj = json.loads(path.read_text())
        assert validate_chrome_trace(obj) == []

    def test_validator_rejects_garbage(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": [{}]}) != []
        missing_dur = {
            "traceEvents": [
                {"name": "s", "ph": "X", "pid": 1, "tid": 0, "ts": 0}
            ]
        }
        assert any("dur" in p for p in validate_chrome_trace(missing_dur))

    def test_validator_flags_unnamed_lane(self):
        obj = chrome_trace([])
        obj["traceEvents"].append(
            {"name": "s", "ph": "i", "pid": 1, "tid": 9, "ts": 1.0, "s": "t"}
        )
        assert any("thread_name" in p for p in validate_chrome_trace(obj))

    def test_empty_trace_validates(self):
        assert validate_chrome_trace(chrome_trace([])) == []


class TestSessionSummaries:
    def test_span_totals_sum_across_ranks(self):
        config = TelemetryConfig(clock=FakeClock(tick=1.0))
        session = TelemetrySession(config)
        for rank in range(3):
            tel = RankTelemetry(config, rank)
            with tel.span("generate"):
                pass
            session.ranks.append(tel.finalize())
        totals = session.span_totals()
        assert totals["generate"]["count"] == 3
        assert totals["generate"]["seconds"] == 3.0

    def test_metrics_summary_shape(self):
        config = TelemetryConfig(clock=FakeClock())
        session = TelemetrySession(config)
        tel = RankTelemetry(config, 0)
        tel.add("edges", 4)
        session.ranks.append(tel.finalize())
        summary = session.metrics_summary()
        assert summary["nranks"] == 1
        assert summary["per_rank"]["0"]["counters"]["edges"] == 4
        assert summary["aggregate"]["counters"]["edges"] == 4
        assert summary["events_dropped"] == {}
