"""Zero-copy arena exchange on the process backend."""

import gc
import mmap
import os
import pickle
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.distributed.mpcomm as mpcomm
from repro.distributed import spmd_run
from repro.distributed.netsim import NetworkModel, ThrottledCommunicator
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


def test_received_array_outlives_communicator_and_arena(tiny_threshold):
    pipes = mpcomm.make_process_pipes(2)
    sender = mpcomm.ProcessCommunicator(pipes, 0, 2)
    receiver = mpcomm.ProcessCommunicator(pipes, 1, 2)
    sender.send(_payload(3), 1)
    got = receiver.recv(0)
    arena_path = pipes.arena.path
    assert os.listdir(arena_path) == []  # unlinked when taken
    pipes.arena.remove()
    del sender, receiver, pipes
    gc.collect()
    assert not os.path.exists(arena_path)
    assert np.array_equal(got, _payload(3)) and not got.flags.writeable


@pytest.fixture()
def put_spy(monkeypatch):
    """Bytes of every ``Arena.put``, recorded in the process that made it
    (forked ranks inherit the patch and each fill their own copy)."""
    puts = []
    real_put = mpcomm.Arena.put

    def put(self, buffers, rank):
        buffers = list(buffers)
        puts.append(sum(pickle.PickleBuffer(b).raw().nbytes for b in buffers))
        return real_put(self, buffers, rank)

    monkeypatch.setattr(mpcomm.Arena, "put", put)
    return puts


def _arena_files(comm):
    """What is left in the world's arena once every rank got here."""
    comm.barrier()
    while not hasattr(comm, "_pipes"):
        comm = comm.inner
    return os.listdir(comm._pipes.arena.path)


def _arrived(got, rank):
    return np.array_equal(got, _payload(rank)) and not got.flags.writeable


@pytest.mark.parametrize(
    "wrap",
    [
        partial(ThrottledCommunicator, model=NetworkModel(bandwidth=1e12)),
    ],
    ids=["throttled"],
)
def test_wrapped_block_still_rides_the_arena(put_spy, wrap):
    """A timestamp around the block is part of the pickle head; the block
    itself still crosses as an arena file."""
    def fn(comm):
        if comm.rank == 0:
            comm.send(_payload(0), 1, tag=3)
            comm.send(None, 1, tag=3)
            return put_spy, _arena_files(comm)
        got = comm.recv(0, tag=3)
        assert comm.recv(0, tag=3) is None
        return _arrived(got, 0), _arena_files(comm)

    (puts, left), (ok, left_too) = spmd_run(fn, 2, backend="process", wrap_comm=wrap)
    assert ok and left == left_too == []
    assert puts and set(puts) == {_payload(0).nbytes}


def test_allgather_list_rides_the_arena(put_spy):
    def fn(comm):
        got = comm.allgather(_payload(comm.rank))
        ok = all(_arrived(got[r], r) for r in range(comm.size) if r != comm.rank)
        return ok, put_spy, _arena_files(comm)

    results = spmd_run(fn, 3, backend="process")
    assert [ok for ok, _, _ in results] == [True] * 3
    assert [left for _, _, left in results] == [[]] * 3
    one = _payload(0).nbytes
    # gather leg: one block each; bcast leg: the whole list, to each peer.
    assert [puts for _, puts, _ in results] == [[3 * one, 3 * one], [one], [one]]


def test_no_payload_is_sniffed(put_spy):
    """What is sent is what arrives -- the retired descriptor tuple included --
    and nothing below the threshold touches the arena or comes back frozen."""
    retired = ("__shm_ndarray__", "x", (1,), "<i8")
    small = np.arange(16, dtype=np.int64)
    sent = [retired, None, 7, -1, {"k": [1, 2]}, small, [small, (retired,)]]

    def fn(comm):
        if comm.rank == 0:
            for obj in sent:
                comm.send(obj, 1)
            return put_spy
        got = [comm.recv(0) for _ in sent]
        assert got[:5] == sent[:5] and type(got[0]) is tuple
        for arr in (got[5], got[6][0]):
            assert np.array_equal(arr, small) and arr.flags.writeable
        assert got[6][1] == (retired,)
        return put_spy

    assert spmd_run(fn, 2, backend="process") == [[], []]


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


_BLOCK = np.arange(1 << 13, dtype=np.int64)  # SHM_MIN_BYTES exactly


@settings(max_examples=60, deadline=None)
@given(
    name=st.one_of(
        st.sampled_from(["real", "", ".", "..", "../x", "/etc/passwd", "a/b",
                         "x\0y", "missing", 7, b"real"]),
        st.text(max_size=12),
    ),
    parts=st.one_of(
        st.lists(st.sampled_from([0, 1, 8, 1 << 15, 1 << 16, -1, -(1 << 16),
                                  1 << 40, 1 << 70, 2.0, True, "8", None]),
                 max_size=4),
        st.sampled_from([None, 1 << 16, (1 << 16,), "ab", b"\0" * 8, {1 << 16: 0},
                         [[1 << 16]], [1 << 16, [0]]]),
    ),
)
@example(name="real", parts=[1 << 16])
@example(name="real", parts=[1 << 15, 0, 1 << 15])
@example(name="real", parts=[(1 << 16) - 1])
@example(name="real", parts=[1 << 17, -(1 << 16)])
@example(name="real", parts=[float(1 << 16)])
def test_hostile_descriptor_fails_closed(name, parts):
    """``(name, parts)`` is a peer's word: a name that is not a bare file in
    this arena, sizes that are not a list of non-negative ints, or a file of
    any size but their sum, maps nothing and allocates next to nothing."""
    pipes = mpcomm.make_process_pipes(2)
    arena = pipes.arena
    try:
        sender = mpcomm.ProcessCommunicator(pipes, 0, 2)
        receiver = mpcomm.ProcessCommunicator(pipes, 1, 2)
        sender.send(_BLOCK, 1)
        (real_name,) = os.listdir(arena.path)
        tag, head, genuine_name, genuine_parts = pipes[0][1].get(timeout=5)
        assert (genuine_name, genuine_parts) == (real_name, [_BLOCK.nbytes])
        if name == "real":
            name = real_name
        fits = (
            name == real_name
            and isinstance(parts, list)
            and all(type(n) is int and n >= 0 for n in parts)
            and sum(parts) == _BLOCK.nbytes
        )
        pipes[0][1].put((tag, head, name, parts))
        with mock.patch.object(mpcomm.mmap, "mmap", wraps=mmap.mmap) as mapped:
            tracemalloc.start()
            try:
                if fits and parts[0] == _BLOCK.nbytes:
                    assert receiver.recv(0).tobytes() == _BLOCK.tobytes()
                elif fits:
                    # The right file cut at the wrong places: mapped, then
                    # the head's own unpickling fails, as itself.
                    with pytest.raises(ValueError, match="cannot reshape"):
                        receiver.recv(0)
                else:
                    with pytest.raises(CommunicatorError):
                        receiver.recv(0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert mapped.call_count == int(fits)
        assert peak <= 1 << 20
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
