"""InstrumentedCommunicator: byte accounting, wrapper composition,
cross-rank aggregation through ``spmd_run(..., telemetry=...)``.

Rank functions are module-level so the process backend can pickle them.
"""

import numpy as np
import pytest

from repro.distributed import make_thread_world, spmd_run
from repro.distributed.checked import CheckedCommunicator, SentinelLedger
from repro.distributed.faults import FaultPlan, FaultyCommunicator
from repro.telemetry import (
    NULL_TELEMETRY,
    FakeClock,
    InstrumentedCommunicator,
    RankTelemetry,
    TelemetryConfig,
    TelemetrySession,
    merge_snapshots,
    payload_nbytes,
    telemetry_of,
)


def _sink():
    return RankTelemetry(TelemetryConfig(clock=FakeClock(tick=1.0)), rank=0)


class TestPayloadNbytes:
    @pytest.mark.parametrize(
        "obj, expected",
        [
            (None, 0),
            (b"abcd", 4),
            (np.zeros(3, dtype=np.int64), 24),
            ([np.zeros(2, dtype=np.int32), b"xy"], 10),
            (7, 8),
            ("abc", 3),
            (object(), 0),
        ],
    )
    def test_sizes(self, obj, expected):
        assert payload_nbytes(obj) == expected


class TestSingleRank:
    def test_collective_span_and_counters(self):
        tel = _sink()
        comm = InstrumentedCommunicator(make_thread_world(1)[0], tel)
        out = comm.allgather(np.zeros(4, dtype=np.int64))
        assert len(out) == 1
        snap = tel.metrics.snapshot()
        assert snap["counters"]["comm.allgather.calls"] == 1
        assert snap["counters"]["comm.allgather.bytes_out"] == 32
        assert snap["counters"]["comm.allgather.bytes_in"] == 32
        assert snap["histograms"]["comm.allgather.seconds"]["count"] == 1
        names = [e.name for e in tel.tracer.events()]
        assert "comm.allgather" in names

    def test_p2p_counts_bytes_without_spans(self):
        tel = _sink()
        comms = make_thread_world(2)
        sender = InstrumentedCommunicator(comms[0], tel)
        receiver = InstrumentedCommunicator(comms[1], tel)
        sender.send(np.zeros(2, dtype=np.int64), dest=1)
        receiver.recv(source=0)
        snap = tel.metrics.snapshot()
        assert snap["counters"]["comm.send.bytes"] == 16
        assert snap["counters"]["comm.recv.bytes"] == 16
        # p2p must not flood the trace ring with spans.
        assert tel.tracer.events() == []


class TestComposition:
    def test_telemetry_of_resolves_through_wrapper_stack(self):
        tel = _sink()
        base = make_thread_world(1)[0]
        stack = InstrumentedCommunicator(
            CheckedCommunicator(
                FaultyCommunicator(base, FaultPlan()),
                SentinelLedger(1),
            ),
            tel,
        )
        assert telemetry_of(stack) is tel
        assert telemetry_of(base) is NULL_TELEMETRY
        assert stack.rank == 0
        assert stack.size == 1

    def test_fault_counters_harvested_into_metrics(self):
        # drop_at (0, 0): rank 0's first send vanishes; delay_at (1, 0):
        # rank 1's first op sleeps (0 s).  Harvest through the outermost
        # wrappers must see both.
        plan = FaultPlan(drop_at=((0, 0),), delay_at=((1, 0),))

        tel = _sink()
        comms = make_thread_world(2)
        sender = InstrumentedCommunicator(
            FaultyCommunicator(comms[0], plan), tel
        )
        receiver = InstrumentedCommunicator(
            FaultyCommunicator(comms[1], plan), tel
        )
        sender.send(b"x", dest=1)
        sender.send(b"y", dest=1)
        assert receiver.recv(source=0) == b"y"
        tel.harvest_fault_counters(sender)
        tel.harvest_fault_counters(receiver)
        snap = tel.metrics.snapshot()
        assert snap["counters"]["faults.dropped"] == 1
        assert snap["counters"]["faults.delayed"] == 1

    def test_harvest_without_fault_layer_is_noop(self):
        tel = _sink()
        tel.harvest_fault_counters(make_thread_world(1)[0])
        assert tel.metrics.snapshot()["counters"] == {}


def _allgather_rank_fn(comm):
    tel = telemetry_of(comm)
    with tel.span("work"):
        gathered = comm.allgather(np.full(8, comm.rank, dtype=np.int64))
    tel.add("edges.generated", 10 * (comm.rank + 1))
    return sum(int(g[0]) for g in gathered)


def _sees_null_sink(comm):
    return telemetry_of(comm) is NULL_TELEMETRY


class TestSpmdIntegration:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_cross_rank_aggregation(self, backend):
        session = TelemetrySession()
        results = spmd_run(
            _allgather_rank_fn, 4, backend=backend, telemetry=session
        )
        assert results == [6, 6, 6, 6]
        assert len(session.ranks) == 4
        assert [t.rank for t in session.ranks] == [0, 1, 2, 3]

        agg = session.aggregated_metrics()["counters"]
        assert agg["edges.generated"] == 10 + 20 + 30 + 40
        # One user allgather per rank; finalize adds no collective.
        assert agg["comm.allgather.calls"] == 4
        # The user allgather alone ships 4 ranks x 64 bytes out.
        assert agg["comm.allgather.bytes_out"] >= 4 * 64

        # The world view is the merge of what each rank shipped home.
        assert [
            t.metrics["counters"]["edges.generated"] for t in session.ranks
        ] == [10, 20, 30, 40]
        # And every rank traced the user span.
        for trace in session.ranks:
            assert any(e.name == "work" for e in trace.events)

    def test_composes_with_checked_and_faulty(self):
        plan = FaultPlan(seed=7, delay_at=((1, 0),), delay_s=0.001)
        session = TelemetrySession()
        results = spmd_run(
            _allgather_rank_fn,
            2,
            backend="thread",
            checked=True,
            wrap_comm=plan.binder(),
            telemetry=session,
        )
        assert results == [1, 1]
        agg = session.aggregated_metrics()["counters"]
        assert agg["faults.delayed"] == 1
        assert agg["edges.generated"] == 30

    def test_aggregate_is_the_merge_of_rank_snapshots(self):
        session = TelemetrySession()
        spmd_run(_allgather_rank_fn, 2, backend="thread", telemetry=session)
        assert session.aggregated_metrics() == merge_snapshots(
            [t.metrics for t in session.ranks]
        )
        assert session.aggregated_metrics()["counters"]["edges.generated"] == 30

    def test_no_telemetry_means_null_sink(self):
        # Without a session the rank fn sees NULL_TELEMETRY and the
        # result list is the plain results, not (result, trace) pairs.
        results = spmd_run(_allgather_rank_fn, 2, backend="thread")
        assert results == [1, 1]

    def test_disabled_session_is_not_wired(self):
        # Telemetry is disabled by passing no session: on a forked backend
        # too, every rank then sees the null sink and returns plain results.
        results = spmd_run(_sees_null_sink, 2, backend="process")
        assert results == [True, True]
