"""Tests for the runtime collective-order sentinel and the configurable
recv timeout (repro.distributed.checked, comm.recv_timeout)."""

import pytest

from repro.distributed import (
    CheckedCommunicator,
    make_thread_world,
    recv_timeout,
    spmd_run,
)
from repro.distributed.comm import RECV_TIMEOUT_ENV
from repro.errors import CollectiveOrderError, CommunicatorError, ReproError

# Keep divergence tests fast: the sentinel gives up on absent peers after
# half the recv timeout.
FAST_SENTINEL = {"REPRO_RECV_TIMEOUT": "4.0"}


@pytest.fixture
def fast_sentinel(monkeypatch):
    for key, value in FAST_SENTINEL.items():
        monkeypatch.setenv(key, value)


class TestSymmetricPrograms:
    def test_full_collective_suite_passes(self):
        def fn(comm):
            comm.barrier()
            vals = comm.allgather(comm.rank)
            total = comm.allreduce(comm.rank, lambda a, b: a + b)
            root_view = comm.gather(0, root=0)
            exchanged = comm.alltoall(list(range(comm.size)))
            seen = comm.bcast(root_view, root=0)
            return (vals, total, exchanged, seen)

        results = spmd_run(fn, 3, checked=True)
        assert all(r[0] == [0, 1, 2] for r in results)
        assert all(r[1] == 3 for r in results)

    def test_generator_runs_under_sentinel(self):
        # the real rank programs must be collectively symmetric
        from repro.graph.generators import cycle, path
        from repro.distributed.generator import generate_distributed

        el_a = path(4)
        el_b = cycle(3)
        import os

        os.environ["REPRO_CHECK_COLLECTIVES"] = "1"
        try:
            el, outputs = generate_distributed(
                el_a, el_b, 3, scheme="1d", storage="source_block"
            )
        finally:
            del os.environ["REPRO_CHECK_COLLECTIVES"]
        assert el.m_directed == el_a.m_directed * el_b.m_directed
        assert len(outputs) == 3


class TestDivergence:
    def test_skipped_barrier_names_both_sites(self, fast_sentinel):
        """A would-be deadlock becomes a diagnostic naming both call sites."""

        def fn(comm):
            if comm.rank == 0:
                comm.barrier()  # repro-lint: disable=collective-symmetry
            return comm.allreduce(comm.rank, max)

        with pytest.raises(CommunicatorError) as exc_info:
            spmd_run(fn, 2, checked=True)
        msg = str(exc_info.value)
        assert "CollectiveOrderError" in msg or isinstance(
            exc_info.value, CollectiveOrderError
        )
        assert "diverged" in msg
        assert "barrier" in msg and "allreduce" in msg
        # both call sites are named file:line
        assert msg.count("test_checked_comm.py:") >= 2

    def test_rank_finishing_early_is_reported(self, fast_sentinel):
        def fn(comm):
            if comm.rank == 1:
                return "bailed"  # repro-lint: disable=collective-symmetry
            return comm.allreduce(1, max)

        with pytest.raises(CommunicatorError) as exc_info:
            spmd_run(fn, 2, checked=True)
        msg = str(exc_info.value)
        assert "finished its rank program" in msg
        assert "allreduce" in msg

    def test_same_op_different_site_diverges(self, fast_sentinel):
        def fn(comm):
            if comm.rank == 0:
                comm.barrier()  # repro-lint: disable=collective-symmetry
            else:
                comm.barrier()  # repro-lint: disable=collective-symmetry
            return True

        # same op at two different call sites is still a divergence: the
        # fingerprint is (op, site), catching copy-paste drift early
        with pytest.raises(CommunicatorError, match="diverged"):
            spmd_run(fn, 2, checked=True)


class TestWiring:
    def test_make_thread_world_checked_flag(self):
        comms = make_thread_world(2, checked=True)
        assert all(isinstance(c, CheckedCommunicator) for c in comms)
        assert [c.rank for c in comms] == [0, 1]

    def test_env_var_enables_sentinel(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_COLLECTIVES", "1")
        comms = make_thread_world(2)
        assert all(isinstance(c, CheckedCommunicator) for c in comms)

    def test_default_is_unchecked(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK_COLLECTIVES", raising=False)
        comms = make_thread_world(2)
        assert not any(isinstance(c, CheckedCommunicator) for c in comms)

    def test_process_backend_rejects_checked(self):
        with pytest.raises(ReproError, match="thread backend"):
            spmd_run(lambda c: None, 2, backend="process", checked=True)

    def test_p2p_not_fingerprinted(self):
        # asymmetric send/recv under the sentinel is fine
        def fn(comm):
            if comm.rank == 0:
                comm.send("hello", dest=1)
                out = None
            else:
                out = comm.recv(0)
            comm.barrier()
            return out

        assert spmd_run(fn, 2, checked=True)[1] == "hello"


class TestRecvTimeoutEnv:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(RECV_TIMEOUT_ENV, raising=False)
        assert recv_timeout() == 60.0
        assert recv_timeout(120.0) == 120.0

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(RECV_TIMEOUT_ENV, "0.25")
        assert recv_timeout() == 0.25

    def test_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv(RECV_TIMEOUT_ENV, "soon")
        assert recv_timeout() == 60.0
        monkeypatch.setenv(RECV_TIMEOUT_ENV, "-3")
        assert recv_timeout() == 60.0

    def test_timeout_error_names_rank_source_tag(self, monkeypatch):
        monkeypatch.setenv(RECV_TIMEOUT_ENV, "0.2")

        def fn(comm):
            if comm.rank == 1:
                comm.recv(0, tag=7)  # nobody ever sends
            return True

        with pytest.raises(CommunicatorError) as exc_info:
            spmd_run(fn, 2)
        msg = str(exc_info.value)
        assert "rank 1" in msg
        assert "rank 0" in msg
        assert "tag 7" in msg


class TestOneTimeoutKnob:
    def test_sentinel_waits_half_the_recv_timeout(self, monkeypatch):
        monkeypatch.setenv(RECV_TIMEOUT_ENV, "0.4")

        def fn(comm):
            if comm.rank == 0:
                # rank 1 is still in its recv when rank 0's sentinel gives up
                comm.barrier()  # repro-lint: disable=collective-symmetry
            else:
                comm.recv(0)
            return True

        with pytest.raises(CommunicatorError) as exc_info:
            spmd_run(fn, 2, checked=True)
        msg = str(exc_info.value)
        assert "sentinel timeout" in msg and "within 0.2s" in msg

    def test_only_two_environment_variables_are_read(self):
        """`src/` reads REPRO_RECV_TIMEOUT and REPRO_CHECK_COLLECTIVES and
        nothing else: every `os.environ[...]`, `os.environ.get(...)` and
        `os.getenv(...)` names one of them, through a string constant."""
        import ast
        from pathlib import Path

        src = Path(__file__).resolve().parents[2] / "src"
        trees = [ast.parse(p.read_text()) for p in sorted(src.rglob("*.py"))]
        constants = {
            node.targets[0].id: node.value.value
            for tree in trees
            for node in tree.body
            if isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        }

        def is_environ(node):
            return isinstance(node, ast.Attribute) and node.attr == "environ"

        read = set()
        for tree in trees:
            for node in ast.walk(tree):
                key = None
                if isinstance(node, ast.Subscript) and is_environ(node.value):
                    key = node.slice
                elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ) and (
                    (node.func.attr == "get" and is_environ(node.func.value))
                    or node.func.attr == "getenv"
                ):
                    key = node.args[0]
                else:
                    continue
                if isinstance(key, ast.Name):
                    read.add(constants.get(key.id, key.id))
                else:
                    read.add(ast.unparse(key).strip("'\""))
        assert read == {"REPRO_RECV_TIMEOUT", "REPRO_CHECK_COLLECTIVES"}
