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

One way across a process boundary
---------------------------------
Every message between forked processes -- rank to rank here, a rank's result
to the parent in :mod:`~repro.distributed.launcher` -- is
:meth:`Arena.pack` on one side and :meth:`Arena.unpack` on the other: a
protocol-5 pickle whose out-of-band buffers (the data of contiguous numeric
arrays, wherever they sit in the object) cross through the world's
:class:`Arena` -- one private tmpfs directory per world, made and removed by
whoever builds it -- when together they reach ``SHM_MIN_BYTES``, and ride the
queue beside the pickle when they do not.  The message's own shape
``(head, name, sizes | buffers)`` says which; no payload is ever inspected,
so a block crosses the same way bare or wrapped (in a timestamp tuple or a
list), and any picklable object arrives as it was sent.
Arrays a rank receives through the arena are read-only views of a mapping
that lives as long as an array references it; callers that need to mutate
must copy.  In-band arrays arrive writable.

*Put* creates a file exclusively and ``os.write``-s the buffers into it: no
sender-side mapping means no page fault per 4 KB, and a full tmpfs is a
catchable ``ENOSPC`` where a store through a mapping dies with ``SIGBUS``.
On failure the partial file is unlinked and the rank falls back, with a
:class:`~repro.errors.DegradationWarning`, to in-band buffers for the rest
of its life -- slower, never fatal.  A traced rank records the fallback
on its own sink too (the one ``bind_telemetry`` attached); a rank's result
is packed after its trace has shipped, so a fallback there only warns.
*Take* checks the descriptor (a bare name inside this arena, the promised
size) before it maps, then unlinks; a message nobody took (a crashed peer)
goes with the directory.
"""

from __future__ import annotations

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

from repro.distributed.comm import Communicator, recv_timeout
from repro.errors import CommunicatorError, DegradationWarning
from repro.telemetry.session import NULL_TELEMETRY

__all__ = ["Arena", "ProcessCommunicator", "make_process_pipes", "SHM_MIN_BYTES"]

#: Default blocked-recv timeout for the process backend (higher than the
#: thread backend: fork + pickling adds real latency).  Overridable via
#: the ``REPRO_RECV_TIMEOUT`` environment variable, like the thread world.
_RECV_TIMEOUT = 120.0

#: A message whose out-of-band buffers total at least this many bytes ships
#: them through the arena instead of the queue.
SHM_MIN_BYTES = 1 << 16


def _remove_tree(path: str, owner_pid: int) -> None:
    if os.getpid() == owner_pid:
        shutil.rmtree(path, ignore_errors=True)


class Arena:
    """One world's private tmpfs directory; see the module docstring."""

    def __init__(self) -> None:
        root = "/dev/shm" if os.path.isdir("/dev/shm") else None
        self.path = tempfile.mkdtemp(prefix="repro-world-", dir=root)
        self._degraded = False
        #: Where a degradation is recorded (``ProcessCommunicator.bind_telemetry``).
        self.telemetry = NULL_TELEMETRY
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
            self.telemetry.degradation(*rung)
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

    def pack(self, obj: Any, rank: int) -> tuple:
        """``obj`` for a queue: ``(pickle, file name, sizes)`` with its
        buffers in one file if worth it, else ``(pickle, None, buffers)``."""
        buffers: list[pickle.PickleBuffer] = []
        head = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
        sizes = [buf.raw().nbytes for buf in buffers]
        name = self.put(buffers, rank) if sum(sizes) >= max(1, SHM_MIN_BYTES) else None
        return head, name, sizes if name else [bytearray(buf.raw()) for buf in buffers]

    def unpack(self, head: bytes, name: Any, parts: Any,
               access: int = mmap.ACCESS_COPY) -> Any:
        """Inverse of :meth:`pack`.  The mapping is freed with the last array
        on it: copy-on-write (writable, private) for the parent's results,
        ``ACCESS_READ`` for a rank.  ``parts`` is a peer's word like ``name``:
        all but a list of non-negative sizes, one of them positive, raises
        before anything is mapped."""
        if name is not None:
            if not (isinstance(parts, list)
                    and all(type(n) is int and n >= 0 for n in parts)
                    and any(parts)):
                raise CommunicatorError(
                    f"arena descriptor {name!r}: bad sizes {parts!r:.200}")
            view = memoryview(self.take(name, sum(parts), access))
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
    """

    def __init__(self, pipes, rank: int, size: int) -> None:
        self._pipes = pipes
        self._rank = rank
        self._size = size
        # messages that arrived while waiting for a different tag
        self._stash: dict[tuple[int, int], list[Any]] = {}

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._size

    def bind_telemetry(self, telemetry) -> None:
        """Attach this rank's telemetry sink to its arena, where a fallback
        to in-band buffers is recorded.  A forked rank holds its own copy of
        the world's :class:`Arena`, so the sink is this rank's alone."""
        self._pipes.arena.telemetry = telemetry

    # ---- point-to-point ------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_peer(dest, "send")
        head, name, parts = self._pipes.arena.pack(obj, self._rank)
        self._pipes[self._rank][dest].put((tag, head, name, parts))

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
                got_tag, head, name, parts = q.get(timeout=timeout)
            except queue.Empty as exc:
                raise CommunicatorError(
                    f"rank {self._rank} timed out after {timeout:g}s waiting "
                    f"to receive from rank {source} (tag {tag}); the sender "
                    f"never sent or died"
                ) from exc
            obj = self._pipes.arena.unpack(head, name, parts, mmap.ACCESS_READ)
            if got_tag == tag:
                return obj
            self._stash.setdefault((source, got_tag), []).append(obj)
