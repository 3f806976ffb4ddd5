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
(the default), large contiguous numeric arrays are instead written once into
a ``multiprocessing.shared_memory`` segment and only a small descriptor
(name, shape, dtype) travels through the queue; the receiver maps the
segment and wraps it **without copying**.  Received arrays are flagged
read-only and stay valid for the lifetime of the receiving communicator
(the segment is kept mapped until the rank finishes); callers that need to
mutate or outlive the rank must copy -- the edge shuffle's ``vstack``
already does.

Segment lifecycle: the sender creates the segment, hands tracker
responsibility over with ``resource_tracker.unregister`` (the receiving
process re-registers on attach), and the receiver unlinks immediately after
mapping, so the name disappears as soon as the message is consumed while the
memory survives until the mapping is dropped.  A message that is never
received (a crashed peer) can therefore leak its segment until reboot; the
launcher's fail-fast error propagation makes that a pathological case only.

When segment creation fails (no ``/dev/shm``, quota exhausted), the sender
emits a structured :class:`~repro.errors.DegradationWarning` and falls back
to the pickled queue path for the rest of the rank's life -- slower, never
fatal.
"""

from __future__ import annotations

import multiprocessing as mp
import queue
import warnings
from multiprocessing import resource_tracker, shared_memory
from typing import Any

import numpy as np

from repro.distributed.comm import Communicator, recv_timeout
from repro.errors import CommunicatorError, DegradationWarning
from repro.telemetry.session import record_degradation

__all__ = ["ProcessCommunicator", "make_process_pipes", "SHM_MIN_BYTES"]

#: Default blocked-recv timeout for the process backend (higher than the
#: thread backend: fork + pickling adds real latency).  Overridable via
#: the ``REPRO_RECV_TIMEOUT`` environment variable, like the thread world.
_RECV_TIMEOUT = 120.0

#: Arrays at least this large (bytes) ride shared memory instead of pickle.
SHM_MIN_BYTES = 1 << 16

_SHM_TAG = "__shm_ndarray__"


def make_process_pipes(size: int, ctx: mp.context.BaseContext | None = None):
    """Build the ``size x size`` queue grid shared by all ranks."""
    ctx = ctx or mp.get_context("fork")
    return [[ctx.Queue() for _dst in range(size)] for _src in range(size)]


def _shm_wrap(arr: np.ndarray) -> tuple:
    """Copy ``arr`` into a fresh shared segment; return its descriptor."""
    seg = shared_memory.SharedMemory(create=True, size=arr.nbytes)
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
    view[...] = arr
    # Hand cleanup responsibility to the receiver: it re-registers on
    # attach and unregisters via unlink, keeping every tracker balanced.
    resource_tracker.unregister(seg._name, "shared_memory")  # noqa: SLF001
    seg.close()
    return (_SHM_TAG, seg.name, arr.shape, arr.dtype.str)


class ProcessCommunicator(Communicator):
    """One rank of a process-backed world.

    Parameters
    ----------
    pipes:
        Queue grid from :func:`make_process_pipes` (inherited through fork
        or passed to the child at spawn).
    rank, size:
        This process's identity.
    zero_copy:
        Ship large contiguous numeric arrays through shared memory instead
        of pickling them (see module docstring).  Received arrays are then
        read-only views backed by segments this communicator keeps mapped.
    shm_min_bytes:
        Minimum array size for the shared-memory path; smaller payloads
        pickle (segment setup would dominate).
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
        # received segments kept mapped so returned views stay valid
        self._segments: list[shared_memory.SharedMemory] = []

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
            and obj.nbytes >= threshold
        )

    def _shm_unwrap(self, obj: Any) -> Any:
        """Rehydrate a shared-memory descriptor into a read-only view."""
        if not (isinstance(obj, tuple) and len(obj) == 4 and obj[0] == _SHM_TAG):
            return obj
        _, name, shape, dtype = obj
        seg = shared_memory.SharedMemory(name=name)
        seg.unlink()  # name gone now; memory lives while mapped
        self._segments.append(seg)
        arr = np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf)
        arr.flags.writeable = False
        return arr

    def free_received_buffers(self) -> None:
        """Drop the mappings behind previously received zero-copy arrays.

        After this, arrays returned by earlier ``recv``/``alltoall`` calls
        on the zero-copy path are invalid.  Called automatically when the
        process exits; exposed for long-lived ranks that exchange many
        rounds and copy what they keep.
        """
        for seg in self._segments:
            seg.close()
        self._segments.clear()

    # ---- point-to-point ------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_peer(dest, "send")
        if self._shm_eligible(obj):
            try:
                obj = _shm_wrap(obj)
            except (OSError, ValueError) as exc:
                # /dev/shm may be missing, full, or too small (containers).
                # The pickled queue path is slower but always works, so
                # degrade for the rest of this rank's life instead of dying.
                self._zero_copy = False
                record_degradation(
                    f"zero-copy exchange (rank {self._rank})",
                    "pickled queue messages",
                    f"shared-memory segment creation failed: {exc}",
                )
                warnings.warn(
                    DegradationWarning(
                        f"zero-copy exchange (rank {self._rank})",
                        "pickled queue messages",
                        f"shared-memory segment creation failed: {exc}",
                    ),
                    stacklevel=2,
                )
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
