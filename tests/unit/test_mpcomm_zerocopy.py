"""Zero-copy arena exchange on the process backend."""

import gc
import math
import mmap
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.distributed.mpcomm as mpcomm
from repro.distributed import spmd_run
from repro.distributed.shuffle import exchange_edges
from repro.errors import CommunicatorError


@pytest.fixture()
def tiny_threshold(monkeypatch):
    """Force every array through shared memory (fork children inherit it)."""
    monkeypatch.setattr(mpcomm, "SHM_MIN_BYTES", 1)


def _payload(rank: int) -> np.ndarray:
    return (np.arange(40_000, dtype=np.int64) + rank).reshape(-1, 2)


def test_alltoall_roundtrip_shared_memory(tiny_threshold):
    def fn(comm):
        out = comm.alltoall([_payload(comm.rank)] * comm.size)
        ok = all(np.array_equal(out[r], _payload(r)) for r in range(comm.size))
        remote_read_only = all(
            not out[r].flags.writeable
            for r in range(comm.size)
            if r != comm.rank
        )
        return ok and remote_read_only

    assert spmd_run(fn, 3, backend="process") == [True, True, True]


def test_send_recv_large_array_content(tiny_threshold):
    def fn(comm):
        if comm.rank == 0:
            comm.send(_payload(7), dest=1, tag=5)
            return True
        got = comm.recv(0, tag=5)
        return np.array_equal(got, _payload(7)) and not got.flags.writeable

    assert spmd_run(fn, 2, backend="process") == [True, True]


def test_small_and_nonarray_messages_still_pickle(tiny_threshold):
    def fn(comm):
        if comm.rank == 0:
            comm.send({"k": [1, 2]}, dest=1)
            return True
        return comm.recv(0) == {"k": [1, 2]}

    assert spmd_run(fn, 2, backend="process") == [True, True]


def test_zero_copy_disabled_sends_plain_arrays(tiny_threshold):
    def fn(comm):
        comm._zero_copy = False
        if comm.rank == 0:
            comm.send(_payload(1), dest=1)
            return True
        got = comm.recv(0)
        # pickled copies arrive writeable
        return np.array_equal(got, _payload(1)) and got.flags.writeable

    assert spmd_run(fn, 2, backend="process") == [True, True]


def test_received_array_outlives_communicator_and_arena():
    pipes = mpcomm.make_process_pipes(2)
    sender = mpcomm.ProcessCommunicator(pipes, 0, 2, shm_min_bytes=1)
    receiver = mpcomm.ProcessCommunicator(pipes, 1, 2, shm_min_bytes=1)
    sender.send(_payload(3), 1)
    got = receiver.recv(0)
    arena_path = pipes.arena.path
    assert os.listdir(arena_path) == []  # unlinked when taken
    pipes.arena.remove()
    del sender, receiver, pipes
    gc.collect()
    assert not os.path.exists(arena_path)
    assert np.array_equal(got, _payload(3)) and not got.flags.writeable


def test_exchange_edges_over_shared_memory(tiny_threshold):
    def fn(comm):
        outgoing = [_payload(comm.rank) for _ in range(comm.size)]
        got = exchange_edges(comm, outgoing)
        expect = np.vstack([_payload(r) for r in range(comm.size)])
        key = lambda e: np.sort(e[:, 0] * 10**9 + e[:, 1])  # noqa: E731
        return np.array_equal(key(got), key(expect)) and got.flags.writeable

    assert spmd_run(fn, 3, backend="process") == [True, True, True]


def test_default_threshold_keeps_tiny_arrays_off_shm():
    def fn(comm):
        small = np.arange(4, dtype=np.int64)
        if comm.rank == 0:
            comm.send(small, dest=1)
            return True
        got = comm.recv(0)
        return np.array_equal(got, small) and got.flags.writeable

    assert spmd_run(fn, 2, backend="process") == [True, True]


@settings(max_examples=60, deadline=None)
@given(
    name=st.one_of(
        st.sampled_from(["real", "", ".", "..", "../x", "/etc/passwd", "a/b",
                         "x\0y", "missing", 7, None, b"real"]),
        st.text(max_size=12),
    ),
    shape=st.one_of(
        st.lists(st.integers(-3, 40), max_size=3).map(tuple),
        st.sampled_from([(24,), (4, 6), (48,), None, "ab", (2.5,), ((1, 2),)]),
    ),
    dtype=st.sampled_from(["<i8", "<f4", "|u1", "O", "|S3", "<U2", "bogus", 5]),
)
@example(name="real", shape=(4, 6), dtype="<i8")
@example(name="real", shape=(4, 6), dtype="<i4")
def test_hostile_descriptor_fails_closed(name, shape, dtype):
    """A descriptor is a peer's word: a name that is not a bare file in this
    arena, or a file of any size but shape x itemsize, maps nothing."""
    pipes = mpcomm.make_process_pipes(2)
    arena = pipes.arena
    try:
        sender = mpcomm.ProcessCommunicator(pipes, 0, 2, shm_min_bytes=1)
        receiver = mpcomm.ProcessCommunicator(pipes, 1, 2)
        real = np.arange(24, dtype=np.int64)
        sender.send(real, 1)
        (real_name,) = os.listdir(arena.path)
        tag, genuine = pipes[0][1].get(timeout=5)
        assert genuine == (mpcomm._SHM_TAG, real_name, (24,), "<i8")
        if name == "real":
            name = real_name
        try:
            fits = (
                name == real_name
                and not np.dtype(dtype).hasobject
                and all(isinstance(n, int) and n >= 0 for n in shape)
                and math.prod(shape) * np.dtype(dtype).itemsize == real.nbytes
            )
        except TypeError:
            fits = False
        pipes[0][1].put((tag, (mpcomm._SHM_TAG, name, shape, dtype)))
        if fits:
            assert receiver.recv(0).tobytes() == real.tobytes()
        else:
            with pytest.raises(CommunicatorError):
                receiver.recv(0)
    finally:
        arena.remove()


def test_take_rejects_wrong_size_and_escaping_names(tmp_path):
    arena = mpcomm.Arena()
    try:
        victim = tmp_path / "victim"
        victim.write_bytes(b"x" * 64)
        for name in (str(victim), os.path.relpath(victim, arena.path)):
            with pytest.raises(CommunicatorError, match="not a bare file name"):
                arena.take(name, 64, mmap.ACCESS_READ)
        assert victim.read_bytes() == b"x" * 64  # neither mapped nor unlinked
        os.symlink(victim, os.path.join(arena.path, "link"))
        with pytest.raises(CommunicatorError, match="arena descriptor .link."):
            arena.take("link", 64, mmap.ACCESS_READ)
        name = arena.put([np.arange(8, dtype=np.int64)], 0)
        with pytest.raises(CommunicatorError, match="not 63 bytes"):
            arena.take(name, 63, mmap.ACCESS_READ)
    finally:
        arena.remove()
