"""The launcher's arena: big results come back mapped, nothing is left behind."""

import gc
import glob
import multiprocessing
import os
import signal
import tempfile
import time
from multiprocessing import resource_tracker

import numpy as np
import pytest

import repro.distributed.mpcomm as mpcomm
from repro.distributed import spmd_run
from repro.distributed.generator import RankOutput
from repro.errors import RankDiedError, RankFailedError

FORKED = ["process", "socket"]


def _worlds() -> set[str]:
    root = "/dev/shm" if os.path.isdir("/dev/shm") else tempfile.gettempdir()
    return set(glob.glob(os.path.join(root, "repro-world-*")))


def _block(rank: int, rows: int) -> np.ndarray:
    return (np.arange(2 * rows, dtype=np.int64) + rank).reshape(rows, 2)


# ---- results equal the thread backend's ---------------------------------- #
def _large_output(comm):
    return RankOutput(comm.rank, _block(comm.rank, 30_000), 30_000)


def _small_output(comm):
    return RankOutput(comm.rank, _block(comm.rank, 5), 5)


def _mixed_tuple(comm):
    wide = _block(comm.rank, 40_000)
    return wide, np.asfortranarray(wide[:20_000] * 3.5), wide[::7, 1], "tail"


def _empty_block(comm):
    return RankOutput(comm.rank, np.empty((0, 2), dtype=np.int64), 0)


def _arrays(result):
    if isinstance(result, RankOutput):
        return [result.edges]
    return [x for x in result if isinstance(x, np.ndarray)]


@pytest.mark.parametrize("backend", FORKED)
@pytest.mark.parametrize(
    "program", [_large_output, _small_output, _mixed_tuple, _empty_block]
)
def test_results_equal_thread_backend(program, backend):
    expected = spmd_run(program, 2)
    got = spmd_run(program, 2, backend=backend)
    gc.collect()  # the arena is gone; the mappings must not be
    assert _worlds() == set()
    for want, have in zip(expected, got):
        assert type(have) is type(want)
        if isinstance(want, RankOutput):
            assert (have.rank, have.generated) == (want.rank, want.generated)
        else:
            assert have[-1] == want[-1]
        for a, b in zip(_arrays(want), _arrays(have)):
            assert a.dtype == b.dtype and a.shape == b.shape
            np.testing.assert_array_equal(a, b)
            assert b.flags.writeable
            b[...] = 0  # private to the parent: writing faults nothing
    assert multiprocessing.active_children() == []


# ---- nothing outlives the call ------------------------------------------- #
def _exchange_and_return(comm):
    got = comm.alltoall([_block(comm.rank, 10_000)] * comm.size)
    return np.vstack(got)


def _fail_after_send(comm):
    if comm.rank == 0:
        comm.send(_block(0, 10_000), 1)
        raise ValueError("rank 0 fails with its message still parked")
    comm.barrier()


def _die_after_send(comm, seen_path):
    if comm.rank == 0:
        comm.send(_block(0, 10_000), 1)
        comm.recv(1)  # until the peer has seen the parked file
        os.kill(os.getpid(), signal.SIGKILL)
    arena = comm._pipes.arena.path
    deadline = time.monotonic() + 10
    while not os.listdir(arena) and time.monotonic() < deadline:
        time.sleep(0.01)
    with open(seen_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(os.listdir(arena)))
    comm.send(None, 0)
    comm.barrier()  # never take: the file is still parked when rank 0 dies


def _assert_nothing_left():
    """No arena, no child -- and no resource tracker in the parent.

    The last is the PR 18 regression guard: any ``SharedMemory`` the parent
    touches starts a tracker process that is re-parented to PID 1 and
    still alive when the command has exited (``process_left_running``).
    The arena uses no ``multiprocessing.shared_memory`` at all, so no
    process of a run ever starts one.
    """
    assert _worlds() == set()
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None  # noqa: SLF001


def test_nothing_left_after_clean_run():
    out = spmd_run(_exchange_and_return, 2, backend="process")
    assert [len(block) for block in out] == [20_000, 20_000]
    _assert_nothing_left()


def test_nothing_left_after_rank_failure(monkeypatch):
    monkeypatch.setenv("REPRO_RECV_TIMEOUT", "5")
    with pytest.raises(RankFailedError, match="still parked"):
        spmd_run(_fail_after_send, 2, backend="process")
    _assert_nothing_left()


def test_nothing_left_after_sigkill_between_put_and_take(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RECV_TIMEOUT", "5")
    seen = tmp_path / "seen"
    with pytest.raises(RankDiedError, match="SIGKILL"):
        spmd_run(_die_after_send, 2, str(seen), backend="process")
    assert seen.read_text(encoding="utf-8")  # a message really was parked
    _assert_nothing_left()


def test_hand_built_world_cleans_up_after_itself():
    pipes = mpcomm.make_process_pipes(1)
    path = pipes.arena.path
    assert path in _worlds()
    del pipes
    gc.collect()
    assert not os.path.exists(path)
