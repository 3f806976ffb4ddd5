"""The communicator contract and its split-phase alltoall: conformance of
every transport and wrapper, Request semantics, wrapper threading
(checked / faulty / instrumented), and the emulated interconnect
(repro.distributed.netsim).

Rank functions are module-level so the process backend can pickle them.
"""

import threading
from functools import partial

import numpy as np
import pytest

from repro.distributed import (
    Communicator,
    NetworkModel,
    Request,
    ThrottledCommunicator,
    make_thread_world,
    spmd_run,
)
from repro.distributed.faults import FaultPlan
from repro.errors import CommunicatorError
from repro.telemetry import TelemetrySession
from repro.telemetry.clock import perf_clock

# Keep divergence tests fast: the sentinel gives up on absent peers after
# half the recv timeout.
FAST_SENTINEL = {"REPRO_RECV_TIMEOUT": "4.0"}


@pytest.fixture
def fast_sentinel(monkeypatch):
    for key, value in FAST_SENTINEL.items():
        monkeypatch.setenv(key, value)


# ---- rank programs (module-level for process-backend pickling) -----------

def _split_phase_matches_blocking(comm):
    assert isinstance(comm, Communicator)
    payload = [f"{comm.rank}->{dest}" for dest in range(comm.size)]
    blocking = comm.alltoall(list(payload))
    req = comm.alltoall_start(list(payload))
    acc = sum(range(1000))  # overlapped compute stands in here
    split = comm.alltoall_finish(req)
    assert acc == 499500
    # MPI semantics: re-waiting a completed request returns the cache.
    assert req.wait() is split
    return split == blocking


def _start_wrong_length(comm):
    try:
        comm.alltoall_start([0])
        return None
    except CommunicatorError as exc:
        return str(exc)


def _mixed_collectives(comm):
    # A blocking alltoall while a split-phase exchange is in flight must
    # not cross wires: they use different tags.
    req = comm.alltoall_start([("async", comm.rank)] * comm.size)
    blocking = comm.alltoall([("sync", comm.rank)] * comm.size)
    split = comm.alltoall_finish(req)
    return (
        [x[0] for x in blocking] == ["sync"] * comm.size
        and [x[0] for x in split] == ["async"] * comm.size
    )


def _divergent_start(comm):
    if comm.rank == 0:
        req = comm.alltoall_start(  # repro-lint: disable=collective-symmetry
            [None] * comm.size
        )
        return comm.alltoall_finish(req)
    return comm.allreduce(comm.rank, max)


def _split_phase_sum(comm):
    req = comm.alltoall_start([comm.rank] * comm.size)
    return sum(comm.alltoall_finish(req))


def _blocking_alltoall_arrays(comm):
    out = comm.alltoall([np.full(4, comm.rank, dtype=np.int64)] * comm.size)
    return [int(block[0]) for block in out]


def _timed_throttled_exchange(comm):
    payload = [np.zeros(1 << 12, dtype=np.int64)] * comm.size  # 32 KB each
    # Clock first, barrier second: no peer stamps a send before every rank
    # has entered the barrier, so ``elapsed`` covers a whole wire time even
    # if this thread is descheduled on its way out of the barrier.
    t0 = perf_clock()
    comm.barrier()
    out = comm.alltoall(list(payload))
    elapsed = perf_clock() - t0
    ok = all(np.array_equal(x, payload[0]) for x in out)
    return ok, elapsed


# ---- tests ---------------------------------------------------------------

#: ``spmd_run`` keywords of every world the contract is checked on: the
#: three transports, and each wrapper over a thread world.
WORLDS = {
    "thread": dict,
    "process": lambda: {"backend": "process"},
    "socket": lambda: {"backend": "socket"},
    "checked": lambda: {"checked": True},
    "faulty": lambda: {
        "wrap_comm": FaultPlan(
            seed=7, delay_prob=1.0, fault_attempts=9
        ).binder(0)
    },
    "instrumented": lambda: {"telemetry": TelemetrySession()},
    "throttled": lambda: {
        "wrap_comm": partial(
            ThrottledCommunicator, model=NetworkModel(bandwidth=1e12)
        )
    },
}

#: Exactly what rank programs in this repository call.
CONTRACT = {
    "rank", "size", "send", "recv", "barrier", "bcast", "gather",
    "allgather", "allreduce", "alltoall", "alltoall_start",
    "alltoall_finish",
}


def _public(cls):
    return {name for name in vars(cls) if not name.startswith("_")}


def _run_on(comms, fn):
    """Run ``fn`` on each prebuilt communicator, one thread per rank."""
    results = [None] * len(comms)

    def worker(r):
        results[r] = fn(comms[r])

    threads = [
        threading.Thread(target=worker, args=(r,)) for r in range(len(comms))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    return results


class TestSplitPhaseAlltoall:
    """Conformance to the communicator contract: every transport, and
    every wrapper over a thread world, against the same rank programs."""

    def test_contract_is_exactly_what_rank_programs_call(self):
        # The surface cannot silently re-widen: a new public name on the
        # ABC has to be added here, next to the caller that needs it.
        assert _public(Communicator) == CONTRACT
        assert _public(Request) == {"wait"}

    @pytest.mark.parametrize("backend", list(WORLDS))
    def test_matches_blocking_alltoall(self, backend):
        assert all(
            spmd_run(_split_phase_matches_blocking, 4, **WORLDS[backend]())
        )

    def test_wrong_object_count_raises(self):
        msgs = spmd_run(_start_wrong_length, 2)
        assert all(m and "alltoall_start" in m for m in msgs)

    def test_distinct_tag_from_blocking_alltoall(self):
        assert all(spmd_run(_mixed_collectives, 3))

    def test_checked_fingerprints_blocking_alltoall_once(self):
        comms = make_thread_world(3, checked=True)
        assert _run_on(comms, _blocking_alltoall_arrays) == [[0, 1, 2]] * 3
        # One fingerprint per rank, for the user-level op: the sends and
        # receives it decomposes into run on the inner communicator.
        fingerprints = comms[0]._ledger._fps
        assert sorted(fingerprints) == [(0, 0), (1, 0), (2, 0)]
        assert {op for op, _site in fingerprints.values()} == {"alltoall"}

    def test_instrumented_counts_blocking_alltoall_once(self):
        session = TelemetrySession()
        results = spmd_run(_blocking_alltoall_arrays, 3, telemetry=session)
        assert results == [[0, 1, 2]] * 3
        counters = session.aggregated_metrics()["counters"]
        assert counters["comm.alltoall.calls"] == 3
        # 3 ranks x 2 peers x 4 int64, counted once in each direction;
        # a rank's own block crosses nothing and is not counted.
        assert counters["comm.alltoall.bytes_out"] == 3 * 2 * 32
        assert counters["comm.alltoall.bytes_in"] == 3 * 2 * 32
        # ...and not again as the p2p traffic or the split-phase pair the
        # base decomposes it into.
        for name in ("comm.send.calls", "comm.recv.calls",
                     "comm.alltoall_start.calls", "comm.wait.calls"):
            assert name not in counters


class TestWrapperThreading:
    def test_checked_split_phase_is_symmetric_op(self, fast_sentinel):
        # alltoall_start is fingerprinted by the sentinel like any other
        # collective: mixing it with allreduce on another rank diverges.
        with pytest.raises(CommunicatorError, match="diverged"):
            spmd_run(_divergent_start, 2, checked=True)

    def test_checked_accepts_symmetric_split_phase(self):
        results = spmd_run(_split_phase_sum, 3, checked=True)
        assert results == [3, 3, 3]

    def test_fault_delay_on_inflight_exchange_is_transparent(self):
        plan = FaultPlan(seed=7, delay_prob=1.0, delay_s=0.01)
        results = spmd_run(
            _split_phase_sum, 3, wrap_comm=plan.binder(0)
        )
        assert results == [3, 3, 3]

    def test_fault_drop_stalls_inflight_exchange(self, monkeypatch):
        monkeypatch.setenv("REPRO_RECV_TIMEOUT", "0.5")
        plan = FaultPlan(seed=7, drop_prob=1.0)
        with pytest.raises(CommunicatorError):
            spmd_run(_split_phase_sum, 2, wrap_comm=plan.binder(0))

    def test_instrumented_wait_spans_and_counters(self):
        session = TelemetrySession()
        spmd_run(_split_phase_sum, 3, telemetry=session)
        counters = session.aggregated_metrics()["counters"]
        assert counters["comm.alltoall_start.calls"] == 3
        assert counters["comm.wait.calls"] == 3
        assert counters["comm.wait.seconds.total"] >= 0.0
        assert "comm.wait" in session.span_totals()


class TestNetsim:
    def test_wire_seconds(self):
        model = NetworkModel(bandwidth=1e6, latency=0.01)
        assert model.wire_seconds(0) == pytest.approx(0.01)
        assert model.wire_seconds(2_000_000) == pytest.approx(2.01)

    def test_throttled_results_are_unchanged(self):
        wrap = partial(
            ThrottledCommunicator,
            model=NetworkModel(bandwidth=1e12, latency=0.0),
        )
        assert spmd_run(_split_phase_sum, 3, wrap_comm=wrap) == [3, 3, 3]

    def test_wire_time_is_charged(self):
        # 3 ranks x 2 peer messages of 32 KB at 1 MB/s is ~32 ms per
        # message; messages to distinct peers overlap, so the kernel
        # must take at least one wire time but needn't take the sum.
        model = NetworkModel(bandwidth=1e6, latency=0.0)
        wrap = partial(ThrottledCommunicator, model=model)
        results = spmd_run(_timed_throttled_exchange, 3, wrap_comm=wrap)
        wire_one = model.wire_seconds((1 << 12) * 8)
        assert all(ok for ok, _ in results)
        assert all(elapsed >= wire_one for _, elapsed in results)

    def test_barrier_is_not_throttled(self):
        model = NetworkModel(bandwidth=1.0, latency=10.0)  # brutal wire

        def fn(comm):
            t0 = perf_clock()
            comm.barrier()
            return perf_clock() - t0

        wrap = partial(ThrottledCommunicator, model=model)
        assert all(t < 5.0 for t in spmd_run(fn, 2, wrap_comm=wrap))
