"""``multiprocessing`` communicator backend.

True multi-process SPMD execution for the generator: ranks are OS processes
exchanging messages over ``multiprocessing`` queues, the closest stdlib
analogue to MPI point-to-point semantics.  Useful to demonstrate the
generator is free of shared-state assumptions; the thread backend remains
the default for tests (lower startup cost, no pickling).

Design: a full ``size x size`` grid of queues is created up front --
``pipes[src][dst]`` carries messages from ``src`` to ``dst`` -- so there is
no central router process.  Tags are carried in-band and demultiplexed on
the receiving side, since a process pair shares one queue.

Zero-copy edge exchange
-----------------------
Pickling multi-megabyte edge blocks through a queue costs two full copies
(serialize + deserialize) plus pipe traffic.  When ``zero_copy`` is enabled
(the default), large contiguous numeric arrays instead cross through the
world's :class:`Arena` -- one private tmpfs directory per world, made and
removed by whoever builds it (see :mod:`~repro.distributed.launcher`) -- and
only a small descriptor (file name, shape, dtype) rides the queue.  Received
arrays are read-only views of a mapping that lives as long as an array
references it; callers that need to mutate must copy -- the edge shuffle's
``vstack`` already does.

*Put* creates a file exclusively and ``os.write``-s the buffers into it: no
sender-side mapping means no page fault per 4 KB, and a full tmpfs is a
catchable ``ENOSPC`` where a store through a mapping dies with ``SIGBUS``.
On failure the partial file is unlinked and the rank falls back, with a
:class:`~repro.errors.DegradationWarning`, to the pickled queue path for the
rest of its life -- slower, never fatal.  *Take* checks the descriptor (a
bare name inside this arena, the promised size) before it maps, then
unlinks; a message nobody took (a crashed peer) goes with the directory.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing as mp
import os
import pickle
import queue
import shutil
import tempfile
import warnings
import weakref
from itertools import accumulate
from typing import Any, Iterable

import numpy as np

from repro.distributed.comm import Communicator, recv_timeout
from repro.errors import CommunicatorError, DegradationWarning
from repro.telemetry.session import record_degradation

__all__ = ["Arena", "ProcessCommunicator", "make_process_pipes", "SHM_MIN_BYTES"]

#: Default blocked-recv timeout for the process backend (higher than the
#: thread backend: fork + pickling adds real latency).  Overridable via
#: the ``REPRO_RECV_TIMEOUT`` environment variable, like the thread world.
_RECV_TIMEOUT = 120.0

#: Buffers at least this large (bytes) ride the arena instead of pickle.
SHM_MIN_BYTES = 1 << 16

_SHM_TAG = "__shm_ndarray__"


def _remove_tree(path: str, owner_pid: int) -> None:
    if os.getpid() == owner_pid:
        shutil.rmtree(path, ignore_errors=True)


class Arena:
    """One world's private tmpfs directory; see the module docstring."""

    def __init__(self) -> None:
        root = "/dev/shm" if os.path.isdir("/dev/shm") else None
        self.path = tempfile.mkdtemp(prefix="repro-world-", dir=root)
        self._degraded = False
        # Forked ranks inherit this object; only the creating process may
        # remove the directory: when told to, or when the object goes.
        self.remove = weakref.finalize(self, _remove_tree, self.path, os.getpid())

    def put(self, buffers: Iterable, rank: int) -> str | None:
        """Write ``buffers`` back to back into a new file; return its name,
        or ``None`` once degraded: the caller ships the payload in-band."""
        if self._degraded:
            return None
        path = None
        try:
            fd, path = tempfile.mkstemp(dir=self.path)  # O_CREAT | O_EXCL
            with open(fd, "wb", buffering=0):  # closes fd
                for buf in buffers:
                    view = pickle.PickleBuffer(buf).raw()
                    while view.nbytes:
                        view = view[os.write(fd, view):]
        except OSError as exc:
            # The tmpfs may be missing, full, or too small (containers).
            if path is not None:
                os.unlink(path)
            self._degraded = True
            rung = (f"zero-copy exchange (rank {rank})", "pickled queue messages",
                    f"arena write failed: {exc}")
            record_degradation(*rung)
            warnings.warn(DegradationWarning(*rung), stacklevel=3)
            return None
        return os.path.basename(path)

    def take(self, name: Any, nbytes: int, access: int) -> mmap.mmap:
        """Map file ``name`` and unlink it.  A peer's word: all but a bare name
        in this arena holding ``nbytes`` raises before any mapping is made."""
        try:
            if os.path.basename(name) != name or name in ("", ".", ".."):
                raise ValueError("not a bare file name")
            path = os.path.join(self.path, name)
            fd = os.open(path, os.O_RDONLY | os.O_NOFOLLOW)
        except (OSError, TypeError, ValueError) as exc:
            raise CommunicatorError(f"arena descriptor {name!r}: {exc}") from exc
        try:
            if os.fstat(fd).st_size != nbytes:
                raise CommunicatorError(f"arena file {name!r} is not {nbytes} bytes")
            return mmap.mmap(fd, nbytes, access=access)
        finally:
            os.close(fd)
            os.unlink(path)

    def pack(self, result: Any, rank: int) -> tuple:
        """A rank's result for the queue: ``(pickle, file name, sizes)`` with
        its buffers in one file if worth it, else ``(pickle, None, buffers)``."""
        buffers: list[pickle.PickleBuffer] = []
        head = pickle.dumps(result, protocol=5, buffer_callback=buffers.append)
        sizes = [buf.raw().nbytes for buf in buffers]
        name = self.put(buffers, rank) if sum(sizes) >= max(1, SHM_MIN_BYTES) else None
        return head, name, sizes if name else [bytearray(buf.raw()) for buf in buffers]

    def unpack(self, head: bytes, name: str | None, parts: list) -> Any:
        """Inverse of :meth:`pack`, in the parent: results stay writable and
        private (a copy-on-write mapping freed with the last array on it)."""
        if name is not None:
            view = memoryview(self.take(name, sum(parts), mmap.ACCESS_COPY))
            parts = [view[end - n:end] for end, n in zip(accumulate(parts), parts)]
        return pickle.loads(head, buffers=parts)


class _Grid(list):
    """The ``size x size`` queue grid; ``arena`` is its world's :class:`Arena`."""


def make_process_pipes(
    size: int, ctx: mp.context.BaseContext | None = None, arena: Arena | None = None
) -> _Grid:
    """Build the world's shared state: the queue grid and its arena (a
    hand-built world gets its own, removed with the grid)."""
    ctx = ctx or mp.get_context("fork")
    grid = _Grid([ctx.Queue() for _dst in range(size)] for _src in range(size))
    grid.arena = arena or Arena()
    return grid


class ProcessCommunicator(Communicator):
    """One rank of a process-backed world.

    Parameters
    ----------
    pipes:
        Queue grid from :func:`make_process_pipes` (inherited through fork
        or passed to the child at spawn); it carries the world's arena.
    rank, size:
        This process's identity.
    zero_copy:
        Ship large contiguous numeric arrays through the arena instead of
        pickling them (see module docstring); they arrive read-only.
    shm_min_bytes:
        Minimum array size for the arena path; smaller payloads pickle
        (file setup would dominate).
    """

    def __init__(
        self,
        pipes,
        rank: int,
        size: int,
        *,
        zero_copy: bool = True,
        shm_min_bytes: int | None = None,
    ) -> None:
        self._pipes = pipes
        self._rank = rank
        self._size = size
        self._zero_copy = bool(zero_copy)
        # None defers to the module constant at call time so tests (and
        # forked children) can lower the threshold via monkeypatching.
        self._shm_min_bytes = shm_min_bytes
        # messages that arrived while waiting for a different tag
        self._stash: dict[tuple[int, int], list[Any]] = {}

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._size

    # ---- zero-copy payload handling ------------------------------------
    def _shm_eligible(self, obj: Any) -> bool:
        threshold = (
            SHM_MIN_BYTES if self._shm_min_bytes is None else self._shm_min_bytes
        )
        return (
            self._zero_copy
            and isinstance(obj, np.ndarray)
            and obj.dtype.kind in "biuf"
            and obj.flags.c_contiguous
            and obj.nbytes >= max(1, threshold)
        )

    def _shm_unwrap(self, obj: Any) -> Any:
        """Rehydrate an arena descriptor into a read-only view."""
        if not (isinstance(obj, tuple) and len(obj) == 4 and obj[0] == _SHM_TAG):
            return obj
        _, name, shape, dtype = obj
        try:
            dtype = np.dtype(dtype)
            nbytes = math.prod(shape) * dtype.itemsize
            buf = self._pipes.arena.take(name, nbytes, mmap.ACCESS_READ)
            return np.frombuffer(buf, dtype=dtype).reshape(shape)
        except (TypeError, ValueError) as exc:
            raise CommunicatorError(f"arena descriptor {obj[1:]!r}: {exc}") from exc

    # ---- point-to-point ------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_peer(dest, "send")
        if self._shm_eligible(obj):
            name = self._pipes.arena.put([obj], self._rank)
            if name is not None:
                obj = (_SHM_TAG, name, obj.shape, obj.dtype.str)
        self._pipes[self._rank][dest].put((tag, obj))

    def recv(self, source: int, tag: int = 0) -> Any:
        self._check_peer(source, "recv")
        key = (source, tag)
        stash = self._stash.get(key)
        if stash:
            return stash.pop(0)
        q = self._pipes[source][self._rank]
        timeout = recv_timeout(_RECV_TIMEOUT)
        while True:
            try:
                got_tag, obj = q.get(timeout=timeout)
            except queue.Empty as exc:
                raise CommunicatorError(
                    f"rank {self._rank} timed out after {timeout:g}s waiting "
                    f"to receive from rank {source} (tag {tag}); the sender "
                    f"never sent or died"
                ) from exc
            obj = self._shm_unwrap(obj)
            if got_tag == tag:
                return obj
            self._stash.setdefault((source, got_tag), []).append(obj)
