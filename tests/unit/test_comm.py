"""Unit tests for repro.distributed.comm and launcher."""

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.distributed import (
    make_thread_world,
    spmd_run,
)
from repro.distributed.comm import poll_interval
from repro.errors import CommunicatorError, RankFailedError, ReproError


class TestInline:
    """The single-rank world: a thread world of size 1."""

    def test_identity(self):
        (c,) = make_thread_world(1)
        assert c.rank == 0 and c.size == 1

    def test_collectives_trivial(self):
        (c,) = make_thread_world(1)
        assert c.bcast(42) == 42
        assert c.gather("x") == ["x"]
        assert c.allgather(7) == [7]
        assert c.allreduce(3, lambda a, b: a + b) == 3
        assert c.alltoall(["only"]) == ["only"]
        assert c.alltoall_finish(c.alltoall_start(["only"])) == ["only"]
        c.barrier()

    def test_p2p_rejected(self):
        (c,) = make_thread_world(1)
        with pytest.raises(CommunicatorError):
            c.send(1, 0)
        with pytest.raises(CommunicatorError):
            c.recv(0)


class TestThreadWorld:
    def test_world_size_validation(self):
        with pytest.raises(CommunicatorError):
            make_thread_world(0)

    def test_send_recv(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send({"a": 1}, dest=1)
                return None
            return comm.recv(0)

        results = spmd_run(fn, 2)
        assert results[1] == {"a": 1}

    def test_tagged_channels_independent(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("tag5", dest=1, tag=5)
                comm.send("tag9", dest=1, tag=9)
                return None
            # receive in reverse send order; tags demultiplex
            late = comm.recv(0, tag=9)
            early = comm.recv(0, tag=5)
            return (early, late)

        results = spmd_run(fn, 2)
        assert results[1] == ("tag5", "tag9")

    def test_fifo_within_channel(self):
        def fn(comm):
            if comm.rank == 0:
                for i in range(10):
                    comm.send(i, dest=1)
                return None
            return [comm.recv(0) for _ in range(10)]

        results = spmd_run(fn, 2)
        assert results[1] == list(range(10))

    def test_send_to_self_rejected(self):
        def fn(comm):
            with pytest.raises(CommunicatorError):
                comm.send(1, dest=comm.rank)
            return True

        assert all(spmd_run(fn, 2))

    def test_out_of_range_dest(self):
        def fn(comm):
            with pytest.raises(CommunicatorError):
                comm.send(1, dest=99)
            return True

        assert all(spmd_run(fn, 2))


@pytest.mark.parametrize("nranks", [2, 3, 5])
class TestCollectives:
    def test_bcast(self, nranks):
        def fn(comm):
            val = {"data": 123} if comm.rank == 1 else None
            return comm.bcast(val, root=1)

        results = spmd_run(fn, nranks)
        assert all(r == {"data": 123} for r in results)

    def test_gather(self, nranks):
        def fn(comm):
            return comm.gather(comm.rank * 10, root=0)

        results = spmd_run(fn, nranks)
        assert results[0] == [r * 10 for r in range(nranks)]
        assert all(r is None for r in results[1:])

    def test_allgather(self, nranks):
        def fn(comm):
            return comm.allgather(comm.rank)

        results = spmd_run(fn, nranks)
        assert all(r == list(range(nranks)) for r in results)

    def test_allreduce_sum(self, nranks):
        def fn(comm):
            return comm.allreduce(comm.rank + 1, lambda a, b: a + b)

        expected = sum(range(1, nranks + 1))
        assert all(r == expected for r in spmd_run(fn, nranks))

    def test_allreduce_arrays(self, nranks):
        def fn(comm):
            return comm.allreduce(
                np.full(3, comm.rank, dtype=np.int64), lambda a, b: a + b
            )

        expected = np.full(3, sum(range(nranks)))
        for r in spmd_run(fn, nranks):
            assert np.array_equal(r, expected)

    def test_alltoall(self, nranks):
        def fn(comm):
            outgoing = [(comm.rank, dest) for dest in range(nranks)]
            return comm.alltoall(outgoing)

        results = spmd_run(fn, nranks)
        for dest, received in enumerate(results):
            assert received == [(src, dest) for src in range(nranks)]

    def test_barrier_completes(self, nranks):
        def fn(comm):
            for _ in range(3):
                comm.barrier()
            return True

        assert all(spmd_run(fn, nranks))


def _outcome_rank(comm, outcome):
    comm.barrier()
    if outcome == "success":
        return comm.rank
    if comm.rank == 1:
        if outcome == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        raise ValueError("boom on rank 1")
    # A survivor that shrugs off the launcher's terminate(): only the
    # escalation to kill() can keep it from outliving the run.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(120)


class TestLauncher:
    def test_unknown_backend(self):
        # "inline" was a backend once; a lone rank is backend="thread" now.
        for backend in ("smoke-signals", "inline"):
            with pytest.raises(ReproError, match="unknown backend"):
                spmd_run(lambda c: None, 1, backend=backend)

    def test_single_rank_runs_on_the_calling_thread(self):
        assert spmd_run(lambda c: threading.current_thread(), 1) == [
            threading.current_thread()
        ]
        with pytest.raises(RankFailedError) as err:
            spmd_run(lambda c: 1 // 0, 1)
        assert isinstance(err.value.__cause__, ZeroDivisionError)

    @pytest.mark.parametrize("outcome", ["success", "raises", "killed"])
    @pytest.mark.parametrize("backend", ["process", "socket"])
    def test_no_process_outlives_the_run(self, monkeypatch, backend, outcome):
        monkeypatch.setenv("REPRO_RECV_TIMEOUT", "2")
        if outcome == "success":
            assert spmd_run(_outcome_rank, 3, outcome, backend=backend) == [
                0, 1, 2,
            ]
        else:
            with pytest.raises(CommunicatorError):
                spmd_run(_outcome_rank, 3, outcome, backend=backend)
        assert multiprocessing.active_children() == []
        assert [
            t.name
            for t in threading.enumerate()
            if t.name.startswith(("sock-", "rendezvous-"))
        ] == []

    def test_failed_thread_run_leaves_no_rank_thread(self):
        """Rank 0 fails while rank 1 waits in a recv and rank 2 in a
        barrier: the launcher aborts the world, so neither waits out its
        recv timeout."""
        def fn(comm):
            if comm.rank == 0:
                raise ValueError("boom on rank 0")
            if comm.rank == 1:
                return comm.recv(0)
            comm.barrier()

        def ranks():
            return [t for t in threading.enumerate()
                    if t.name.startswith("rank-")]

        before = ranks()
        with pytest.raises(RankFailedError, match="rank 0"):
            spmd_run(fn, 3)
        time.sleep(2 * poll_interval())
        assert [t.name for t in ranks() if t not in before] == []

    def test_bad_nranks(self):
        with pytest.raises(ReproError):
            spmd_run(lambda c: None, 0)

    def test_extra_args_forwarded(self):
        def fn(comm, a, b):
            return a + b + comm.rank

        assert spmd_run(fn, 3, 10, 20) == [30, 31, 32]

    def test_rank_failure_reported(self):
        def fn(comm):
            if comm.rank == 1:
                raise ValueError("boom on rank 1")
            return comm.rank  # rank 0 completes fine (no collectives used)

        with pytest.raises(CommunicatorError, match="rank 1"):
            spmd_run(fn, 2)


class TestWrapperBase:
    """The four wrapper communicators share one delegating base."""

    @staticmethod
    def wrappers(inner):
        from repro.distributed import (
            CheckedCommunicator,
            FaultPlan,
            FaultyCommunicator,
            NetworkModel,
            SentinelLedger,
            ThrottledCommunicator,
        )
        from repro.telemetry.instrument import InstrumentedCommunicator
        from repro.telemetry.session import NULL_TELEMETRY

        return [
            CheckedCommunicator(inner, SentinelLedger(inner.size)),
            FaultyCommunicator(inner, FaultPlan()),
            InstrumentedCommunicator(inner, NULL_TELEMETRY),
            ThrottledCommunicator(inner, NetworkModel(bandwidth=1e9)),
        ]

    def test_identity_and_inner(self):
        from repro.distributed import DelegatingCommunicator

        inner = make_thread_world(3)[1]
        for wrapper in self.wrappers(inner):
            assert isinstance(wrapper, DelegatingCommunicator)
            assert wrapper.inner is inner
            assert (wrapper.rank, wrapper.size) == (1, 3)
        # Backend extras resolve through the wrapper.
        inner.backend_extra = object()
        for wrapper in self.wrappers(inner):
            assert wrapper.backend_extra is inner.backend_extra

    def test_copy_and_pickle_probe_without_recursion(self):
        import copy
        import pickle

        for wrapper in self.wrappers(make_thread_world(1)[0]):
            assert copy.copy(wrapper).inner is wrapper.inner
            # copy/pickle probe private and dunder names on an instance
            # whose ``_inner`` is not set yet; delegating those recursed.
            blank = type(wrapper).__new__(type(wrapper))
            for name in ("_inner", "__deepcopy__"):
                with pytest.raises(AttributeError):
                    getattr(blank, name)
            try:
                clone = pickle.loads(pickle.dumps(wrapper))
            except TypeError:
                continue  # holds a lock (the sentinel's ledger): fine
            assert (clone.rank, clone.size) == (0, 1)

    def test_telemetry_resolves_through_full_stack(self):
        from repro.distributed import (
            CheckedCommunicator,
            FaultPlan,
            FaultyCommunicator,
            NetworkModel,
            SentinelLedger,
            ThrottledCommunicator,
        )
        from repro.telemetry.instrument import InstrumentedCommunicator
        from repro.telemetry.session import telemetry_of

        sink = object()
        stack = ThrottledCommunicator(
            FaultyCommunicator(
                CheckedCommunicator(
                    InstrumentedCommunicator(make_thread_world(1)[0], sink),
                    SentinelLedger(1),
                ),
                FaultPlan(),
            ),
            NetworkModel(bandwidth=1e9),
        )
        assert telemetry_of(stack) is sink
