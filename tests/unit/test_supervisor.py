"""Unit tests for repro.distributed.supervisor and the degradation ladder."""

import errno
import inspect
import multiprocessing
import os
import stat
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

import repro.distributed.launcher as launcher
import repro.distributed.mpcomm as mpcomm
from repro.distributed import spmd_run
from repro.distributed.checkpoint import (
    CheckpointedRankFn,
    CheckpointStore,
    generation_run_key,
    shard_key,
)
from repro.distributed.faults import FaultPlan
from repro.distributed.generator import (
    GenerationPlan,
    KronPair,
    RankOutput,
    generate_distributed,
)
from repro.distributed.supervisor import (
    ChaosOutcome,
    ChaosReport,
    SupervisorReport,
    canonical_edges,
    generate_to_directory,
    spmd_run_supervised,
)
from repro.errors import (
    CheckpointError,
    CommunicatorError,
    DegradationWarning,
    RankDiedError,
    RankFailedError,
    ReproError,
    is_transient,
)
from repro.graph.generators import clique, cycle
from repro.telemetry import TelemetrySession
from repro.util.hashing import edge_fingerprint


def _always_raises(comm, exc_type):
    if comm.rank == 1:
        raise exc_type("raised by the rank program")
    return comm.rank


def allsum(comm):
    return comm.allreduce(comm.rank + 1, lambda a, b: a + b)


def _refuse_to_unpickle():
    raise ValueError("this payload refuses to unpickle")


class _PoisonPayload:
    def __reduce__(self):
        return (_refuse_to_unpickle, ())


def _recv_poison(comm):
    if comm.rank == 0:
        comm.send(_PoisonPayload(), 1)
        return None
    return comm.recv(0)


class TestRetry:
    def test_no_fault_single_attempt(self):
        rep = SupervisorReport()
        assert spmd_run_supervised(allsum, 4, report=rep) == [10] * 4
        assert rep.attempts == 1 and rep.failures == []

    def test_crash_plan_retries_and_recovers(self):
        plan = FaultPlan(seed=1, crash_rank=1, crash_at=0)
        rep = SupervisorReport()
        out = spmd_run_supervised(allsum, 4, fault_plan=plan, report=rep)
        assert out == [10] * 4
        assert rep.attempts == 2
        assert len(rep.failures) == 1 and "rank 1" in rep.failures[0]

    def test_attempts_exhausted_reraises(self):
        # Armed on every attempt: no retry budget can save it.
        plan = FaultPlan(
            seed=1, crash_rank=0, crash_at=0, fault_attempts=1 << 20
        )
        rep = SupervisorReport()
        with pytest.raises(RankFailedError):
            spmd_run_supervised(
                allsum, 4, fault_plan=plan, max_attempts=2,
                backoff_base=0.0, report=rep,
            )
        assert rep.attempts == 2

    def test_program_bug_not_retried(self):
        calls = []

        def buggy(comm):
            if comm.rank == 0:
                calls.append(1)
                raise ValueError("deterministic bug")
            return comm.rank

        rep = SupervisorReport()
        with pytest.raises(RankFailedError, match="ValueError"):
            spmd_run_supervised(buggy, 2, report=rep)
        assert len(calls) == 1  # exactly one attempt

    def test_transient_rank_error_retried(self):
        state = {"failed": False}
        lock = threading.Lock()

        def flaky(comm):
            with lock:
                if comm.rank == 0 and not state["failed"]:
                    state["failed"] = True
                    raise CommunicatorError("transient network blip")
            return comm.rank

        out = spmd_run_supervised(flaky, 2, backoff_base=0.0)
        assert out == [0, 1]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize(
        "raised,attempts",
        [(EOFError, 1), (ValueError, 1), (CommunicatorError, 3)],
    )
    def test_retry_verdict_does_not_depend_on_backend(
        self, backend, raised, attempts
    ):
        # Judged once, on the live exception inside the failing rank: an
        # EOFError out of a rank program is a bug on every backend (a
        # type-name table used to make it retryable only across a
        # process hop), a CommunicatorError transient on every backend.
        rep = SupervisorReport()
        with pytest.raises(RankFailedError, match=raised.__name__) as err:
            spmd_run_supervised(
                _always_raises, 2, raised, backend=backend,
                max_attempts=3, backoff_base=0.0, report=rep,
            )
        assert rep.attempts == attempts
        assert err.value.transient == (attempts > 1)
        assert multiprocessing.active_children() == []

    def test_process_recv_failure_is_not_a_timeout(self, monkeypatch):
        # ProcessCommunicator.recv used to call *every* failure of its
        # queue read a timeout -- a CommunicatorError, hence transient,
        # hence three attempts at a payload that can never unpickle.
        monkeypatch.setenv("REPRO_RECV_TIMEOUT", "5")
        rep = SupervisorReport()
        with pytest.raises(
            RankFailedError, match="this payload refuses to unpickle"
        ) as err:
            spmd_run_supervised(
                _recv_poison, 2, backend="process",
                max_attempts=3, backoff_base=0.0, report=rep,
            )
        assert (err.value.rank, err.value.original_type) == (1, "ValueError")
        assert "timed out" not in str(err.value)
        assert not err.value.transient and rep.attempts == 1
        assert multiprocessing.active_children() == []

    def test_max_attempts_validated(self):
        with pytest.raises(ReproError) as err:
            spmd_run_supervised(allsum, 2, max_attempts=0)
        assert not is_transient(err.value)


class TestMisconfigurationIsRefusedOnce:
    """A launch the options make impossible fails the same way every time:
    one attempt, a non-transient error, no backoff."""

    @pytest.mark.parametrize(
        "nranks,launch,match",
        [
            (2, dict(backend="bogus"), "unknown backend 'bogus'"),
            (2, dict(backend="thread", rendezvous="127.0.0.1:1"),
             "socket backend only"),
            (2, dict(backend="process", local_ranks=(0,)),
             "socket backend only"),
            (2, dict(backend="process", checked=True), "thread backend"),
            (0, dict(backend="thread"), "nranks must be >= 1"),
            (2, dict(backend="socket", rendezvous="nohost"), "host:port"),
            (2, dict(backend="socket", rendezvous="h:notaport"),
             "non-numeric port"),
        ],
        ids=["unknown-backend", "rendezvous-off-socket",
             "local-ranks-off-socket", "checked-off-thread", "no-ranks",
             "rendezvous-no-port", "rendezvous-bad-port"],
    )
    def test_one_attempt(self, nranks, launch, match):
        rep = SupervisorReport()
        with pytest.raises(ReproError, match=match) as err:
            spmd_run_supervised(
                allsum, nranks, max_attempts=3, report=rep, **launch
            )
        assert rep.attempts == 1
        assert not is_transient(err.value)

    @pytest.mark.parametrize("backend", ["process", "socket"])
    def test_missing_fork_is_one_attempt(self, monkeypatch, backend):
        monkeypatch.setattr(launcher, "_fork_context", lambda: None)
        rep = SupervisorReport()
        with pytest.raises(ReproError, match=f"the {backend} backend") as err:
            spmd_run_supervised(
                allsum, 2, backend=backend, max_attempts=3, report=rep
            )
        assert rep.attempts == 1
        assert not is_transient(err.value)


def make_output(comm):
    edges = np.array(
        [[comm.rank, comm.rank + 1], [comm.rank, 0]], dtype=np.int64
    )
    return RankOutput(comm.rank, edges, len(edges))


def _stored(directory, nranks=4):
    """Every shard of run ``"t"``, read back verified from the store."""
    store = CheckpointStore(directory)
    return [store.get(shard_key("t", r)) for r in range(nranks)]


class TestCheckpointing:
    def test_independent_resume_skips_completed(self, tmp_path):
        calls = []
        lock = threading.Lock()

        def tracked(comm):
            with lock:
                calls.append(comm.rank)
            return make_output(comm)

        sink = CheckpointedRankFn(tracked, tmp_path, "t", "independent")
        first = spmd_run_supervised(sink, 4)
        assert sorted(calls) == [0, 1, 2, 3]
        stored = _stored(tmp_path)
        second = spmd_run_supervised(sink, 4)
        assert sorted(calls) == [0, 1, 2, 3]  # nothing re-ran
        # Ranks report scalars only; the edges are in the store.
        assert first == second == [
            (s.digest, edge_fingerprint(s.edges), 2, 2) for s in stored
        ]
        for a, b in zip(stored, _stored(tmp_path)):
            np.testing.assert_array_equal(a.edges, b.edges)

    def test_independent_partial_resume(self, tmp_path):
        out = spmd_run_supervised(
            CheckpointedRankFn(make_output, tmp_path, "t", "independent"), 4
        )
        stored = _stored(tmp_path)
        CheckpointStore(tmp_path).discard("t.rank00002")
        calls = []
        lock = threading.Lock()

        def tracked(comm):
            with lock:
                calls.append(comm.rank)
            return make_output(comm)

        resumed = spmd_run_supervised(
            CheckpointedRankFn(tracked, tmp_path, "t", "independent"), 4
        )
        assert calls == [2]  # only the discarded shard re-ran
        assert resumed == out
        for a, b in zip(stored, _stored(tmp_path)):
            np.testing.assert_array_equal(a.edges, b.edges)

    def test_collective_all_cached_loads(self, tmp_path):
        def with_comm(comm):
            comm.barrier()
            return make_output(comm)

        first = spmd_run_supervised(
            CheckpointedRankFn(with_comm, tmp_path, "t", "collective"), 4
        )
        stored = _stored(tmp_path)

        def must_not_run(comm):
            raise AssertionError("all shards cached; nothing should re-run")

        second = spmd_run_supervised(
            CheckpointedRankFn(must_not_run, tmp_path, "t", "collective"), 4
        )
        assert second == first
        for a, b in zip(stored, _stored(tmp_path)):
            np.testing.assert_array_equal(a.edges, b.edges)

    def test_collective_reexecution_verifies_digest(self, tmp_path):
        def with_comm(comm):
            comm.barrier()
            return make_output(comm)

        spmd_run_supervised(
            CheckpointedRankFn(with_comm, tmp_path, "t", "collective"), 4
        )
        CheckpointStore(tmp_path).discard("t.rank00000")

        def nondeterministic(comm):
            comm.barrier()
            out = make_output(comm)
            if comm.rank == 1:  # diverges from its recorded shard
                return RankOutput(1, out.edges + 1, out.generated)
            return out

        with pytest.raises(RankFailedError, match="CheckpointError"):
            spmd_run_supervised(
                CheckpointedRankFn(
                    nondeterministic, tmp_path, "t", "collective"
                ),
                4,
            )

    def test_bad_shard_mode_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="shard_mode"):
            CheckpointedRankFn(make_output, tmp_path, "t", "bogus")

    def test_launcher_only_retries(self):
        # The driver builds the persist wrapper; the launcher has no
        # checkpoint surface left to build one from.
        params = inspect.signature(spmd_run_supervised).parameters
        assert not {"checkpoint", "run_key", "shard_mode"} & set(params)
        with pytest.raises(TypeError, match="shard_mode"):
            spmd_run_supervised(allsum, 2, shard_mode="independent")

    def test_run_key_separates_configurations(self):
        plan = GenerationPlan(
            storage="source_block", chunk_size=100,
            source=KronPair(clique(3), cycle(4)),
        )
        k1 = generation_run_key(plan, 4)
        k2 = generation_run_key(replace(plan, storage="edge_hash"), 4)
        k3 = generation_run_key(plan, 2)
        assert len({k1, k2, k3}) == 3


class TestChaosReportText:
    def test_long_labels_keep_the_columns_aligned(self):
        outcomes = [
            ChaosOutcome("sock-partition-r1", "socket", True, True, 2, elapsed_s=1.6),
            ChaosOutcome("crash-r1", "process", True, False, 1),
            ChaosOutcome("drop-r0-many-frames", "thread", False, False, 3, "boom"),
        ]
        report = ChaosReport(outcomes)
        header, *rows, total = report.to_text().splitlines()
        at = header.index("backend")
        assert [row[at:].split()[0] for row in rows] == [
            "socket", "process", "thread"
        ]
        assert all(row[at - 1] == " " for row in rows)
        assert total == "1/3 cells recovered"

    def test_short_labels_keep_the_old_widths(self):
        report = ChaosReport([ChaosOutcome("crash-r1", "thread", True, True, 1)])
        header, row, _ = report.to_text().splitlines()
        assert header.index("backend") == 16
        assert row.startswith(f"{'crash-r1':<16}{'thread':<9}")


class TestSupervisedGeneration:
    def test_matches_unsupervised_after_crash(self, tmp_path):
        a, b = clique(3), cycle(4)
        ref, _ = generate_distributed(a, b, 4, storage="source_block")
        plan = FaultPlan(seed=9, crash_rank=2, crash_at=1)
        rep = SupervisorReport()
        manifest = generate_to_directory(
            KronPair(a, b), tmp_path, 4, storage="source_block",
            fault_plan=plan, report=rep,
        )
        el = CheckpointStore(tmp_path).load_run(manifest)
        np.testing.assert_array_equal(
            canonical_edges(el.edges), canonical_edges(ref.edges)
        )
        assert rep.attempts == 2

    def test_fresh_rerun_reuses_checkpoints(self, tmp_path):
        source, store = KronPair(clique(3), cycle(4)), CheckpointStore(tmp_path)
        el1 = store.load_run(generate_to_directory(source, tmp_path, 4))
        el2 = store.load_run(generate_to_directory(source, tmp_path, 4))
        np.testing.assert_array_equal(el1.edges, el2.edges)
        assert len(CheckpointStore(tmp_path).keys()) == 4


class TestLiveness:
    def test_kill_minus_nine_surfaces_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_RECV_TIMEOUT", "5")

        def killer(comm):
            if comm.rank == 1:
                os.kill(os.getpid(), 9)
            comm.barrier()
            return comm.rank

        start = time.monotonic()
        with pytest.raises(RankDiedError) as err:
            spmd_run(killer, 4, backend="process")
        elapsed = time.monotonic() - start
        # Liveness polling must beat the recv timeout, not ride the old
        # hardcoded 300s join deadline.
        assert elapsed < 5.0
        message = str(err.value)
        assert "rank 1" in message and "SIGKILL" in message
        assert "missing" in message

    def test_rank_died_is_retryable_family(self):
        assert issubclass(RankDiedError, CommunicatorError)


class TestDegradation:
    @pytest.mark.parametrize("backend", ["process", "socket"])
    def test_forked_backend_without_fork_raises(self, monkeypatch, backend):
        # No substitute backend: the launch names what it could not run.
        monkeypatch.setattr(launcher, "_fork_context", lambda: None)
        with pytest.raises(ReproError, match=f"the {backend} backend"):
            spmd_run(allsum, 4, backend=backend)

    def test_shm_failure_falls_back_to_pickle(self, monkeypatch):
        _fill_tmpfs_after(monkeypatch, 100)
        monkeypatch.setattr(mpcomm, "SHM_MIN_BYTES", 8)
        pipes = mpcomm.make_process_pipes(2)
        sender = mpcomm.ProcessCommunicator(pipes, 0, 2)
        receiver = mpcomm.ProcessCommunicator(pipes, 1, 2)
        payload = np.arange(64, dtype=np.int64)
        with pytest.warns(DegradationWarning, match="pickled") as caught:
            sender.send(payload, 1)
        assert len(caught) == 1 and "No space left" in str(caught[0].message)
        assert os.listdir(pipes.arena.path) == []  # partial file gone
        np.testing.assert_array_equal(receiver.recv(0), payload)
        # Degradation is sticky: later sends skip the arena without re-warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sender.send(payload, 1)
        np.testing.assert_array_equal(receiver.recv(0), payload)

    def test_result_put_failure_falls_back_to_pickle(self, monkeypatch):
        _fill_tmpfs_after(monkeypatch, 1000)
        arena = mpcomm.Arena()
        result = RankOutput(0, np.arange(20_000, dtype=np.int64).reshape(-1, 2), 7)
        with pytest.warns(DegradationWarning, match="pickled") as caught:
            head, name, parts = arena.pack(result, 0)
        assert len(caught) == 1 and name is None
        assert os.listdir(arena.path) == []  # partial file gone
        back = arena.unpack(head, name, parts)
        np.testing.assert_array_equal(back.edges, result.edges)
        assert back.edges.flags.writeable and back.generated == 7
        arena.remove()

    @pytest.mark.parametrize("backend", ["process", "socket"])
    def test_full_tmpfs_run_still_returns(self, monkeypatch, backend):
        _fill_tmpfs_after(monkeypatch, 1000)  # inherited by the forked ranks
        out = spmd_run(_exchange_then_return, 2, backend=backend)
        for rank, (block, degradations) in enumerate(out):
            np.testing.assert_array_equal(block, np.full(20_000, 1 - rank))
            assert block.flags.writeable
            # Sockets never enter the arena before the result does.
            assert degradations == (1 if backend == "process" else 0)
        assert multiprocessing.active_children() == []

    def test_traced_full_tmpfs_run_records_on_each_degraded_rank(
        self, monkeypatch
    ):
        _fill_tmpfs_after(monkeypatch, 100)
        monkeypatch.setattr(mpcomm, "SHM_MIN_BYTES", 8)
        # A degradation outside the traced run, in this process first: it
        # must not show up in the run's trace.
        pipes = mpcomm.make_process_pipes(2)
        with pytest.warns(DegradationWarning):
            mpcomm.ProcessCommunicator(pipes, 0, 2).send(np.arange(64), 1)
        pipes.arena.remove()
        session = TelemetrySession()
        out = spmd_run(
            _exchange_then_return, 2, backend="process", telemetry=session
        )
        assert [degradations for _, degradations in out] == [1, 1]
        for snap in session.ranks:
            (event,) = [e for e in snap.events if e.name == "degradation"]
            assert event.cat == "degradation"
            assert event.args["component"] == (
                f"zero-copy exchange (rank {snap.rank})"
            )
            assert event.args["fallback"] == "pickled queue messages"
            assert "No space left" in event.args["reason"]
            assert snap.metrics["counters"]["degradations"] == 1


def _exchange_then_return(comm):
    mine = np.full(20_000, comm.rank, dtype=np.int64)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(2):
            got = comm.alltoall([mine] * comm.size)[1 - comm.rank]
    return np.array(got), sum(
        isinstance(w.message, DegradationWarning) for w in caught
    )


def _fill_tmpfs_after(monkeypatch, capacity):
    """``os.write`` to a file as a full tmpfs does it: short, then ENOSPC."""
    real_write, room = os.write, [capacity]

    def write(fd, data):
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            return real_write(fd, data)  # the queues' pipes and sockets
        if room[0] <= 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        done = real_write(fd, bytes(data[:room[0]]))
        room[0] -= done
        return done

    monkeypatch.setattr(os, "write", write)


class TestDecorrelatedJitter:
    def test_deterministic_given_seed(self):
        import random

        from repro.distributed.supervisor import decorrelated_jitter

        def sequence(seed, steps=16):
            rng = random.Random(seed)
            delay, out = 0.05, []
            for _ in range(steps):
                delay = decorrelated_jitter(delay, 0.05, 3.0, 2.0, rng)
                out.append(delay)
            return out

        assert sequence(7) == sequence(7)
        assert sequence(7) != sequence(8)

    def test_stays_within_exponential_envelope(self):
        import random

        from repro.distributed.supervisor import decorrelated_jitter

        rng = random.Random(123)
        base, factor, cap = 0.05, 3.0, 2.0
        prev = base
        for _ in range(200):
            nxt = decorrelated_jitter(prev, base, factor, cap, rng)
            assert base <= nxt <= min(cap, max(base, prev * factor))
            prev = nxt

    def test_cap_clamps(self):
        import random

        from repro.distributed.supervisor import decorrelated_jitter

        rng = random.Random(0)
        for _ in range(50):
            assert decorrelated_jitter(100.0, 0.05, 3.0, 2.0, rng) <= 2.0

    def test_zero_base_zero_prev_stays_zero(self):
        # Tests that disable backoff (base=0) must keep sleeping 0s.
        import random

        from repro.distributed.supervisor import decorrelated_jitter

        rng = random.Random(0)
        assert decorrelated_jitter(0.0, 0.0, 3.0, 2.0, rng) == 0.0

    def test_desynchronizes_identical_failures(self):
        # Two ranks failing at the same instant with different seeds must
        # not re-dial in lockstep -- the whole point of the jitter.
        import random

        from repro.distributed.supervisor import decorrelated_jitter

        a = decorrelated_jitter(0.4, 0.05, 3.0, 2.0, random.Random(1))
        b = decorrelated_jitter(0.4, 0.05, 3.0, 2.0, random.Random(2))
        assert a != b

    @pytest.mark.parametrize("poll", [0.02, 0.15, 0.5])
    def test_reproduces_the_socket_redial_pauses(self, poll):
        # The socket transport's re-dial pauses start at poll/4 and follow
        # min(poll, uniform(poll/4, 2 * pause)); the shared formula must
        # draw exactly that sequence from the same generator.
        import random

        from repro.distributed import comm, supervisor

        assert supervisor.decorrelated_jitter is comm.decorrelated_jitter
        inline_rng, rng = random.Random(11), random.Random(11)
        inline = pause = poll / 4.0
        for _ in range(64):
            inline = min(poll, inline_rng.uniform(poll / 4.0, inline * 2.0))
            pause = comm.decorrelated_jitter(pause, poll / 4.0, 2.0, poll, rng)
            assert pause == inline
