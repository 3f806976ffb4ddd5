"""MPI-style communicators for SPMD graph generation.

The paper's generator is built on an asynchronous message-passing runtime
(HavoqGT over MPI).  We reproduce the programming model with a
:class:`Communicator` interface exposing the point-to-point and collective
operations the generator needs (``send``/``recv``, ``barrier``, ``bcast``,
``gather``, ``allgather``, ``allreduce``, ``alltoall`` and its split-phase
``alltoall_start``/``alltoall_finish``) and one in-process implementation,
:class:`ThreadCommunicator`: ranks are threads with queue mailboxes, giving
real interleaved execution (numpy releases the GIL in the kernels that
matter) with zero serialization cost.  A world of size 1 is the trivial
single-rank case: every collective returns locally.

A ``multiprocessing`` implementation lives in
:mod:`repro.distributed.mpcomm` and a TCP one in
:mod:`repro.distributed.sockcomm`; all three satisfy the same contract, and
the test suite runs the generator against each.  The contract is exactly as
wide as the rank programs of this repository need -- a transport supplies
``rank``/``size``/``send``/``recv`` and inherits the rest.

The collectives follow mpi4py's lowercase-object semantics: Python objects
in, Python objects out, with numpy arrays passed by reference inside one
process (callers must not mutate received buffers).
"""

from __future__ import annotations

import os
import queue
import random
import threading
from abc import ABC, abstractmethod
from typing import Any, Callable

from repro.errors import CommunicatorError

__all__ = [
    "Communicator",
    "Request",
    "AlltoallRequest",
    "DelegatingCommunicator",
    "ThreadCommunicator",
    "make_thread_world",
    "recv_timeout",
    "poll_interval",
    "decorrelated_jitter",
]

#: Default timeout (seconds) after which a blocked recv raises instead of
#: deadlocking the test suite.  Overridable per run via the
#: ``REPRO_RECV_TIMEOUT`` environment variable (see :func:`recv_timeout`).
_RECV_TIMEOUT = 60.0

#: Environment variable overriding the blocked-recv/barrier timeout.
RECV_TIMEOUT_ENV = "REPRO_RECV_TIMEOUT"


def recv_timeout(default: float = _RECV_TIMEOUT) -> float:
    """Effective recv/barrier timeout in seconds.

    Reads ``REPRO_RECV_TIMEOUT`` at call time so long-running services and
    tests can tighten or relax it without code changes; falls back to
    ``default`` when unset or unparsable.
    """
    raw = os.environ.get(RECV_TIMEOUT_ENV)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        return default
    return value if value > 0 else default


#: Liveness polls wake this many times per recv-timeout window, clamped so
#: polling stays responsive under huge timeouts and cheap under tiny ones.
_POLLS_PER_TIMEOUT = 20.0
_POLL_MIN = 0.02
_POLL_MAX = 0.5


def poll_interval() -> float:
    """Period (seconds) for liveness/result polling loops.

    Derived from :func:`recv_timeout` so ``REPRO_RECV_TIMEOUT`` governs
    every wait in the runtime: the launcher's child-liveness monitor and
    result-queue loops poll at this rate instead of blocking for a whole
    timeout window.
    """
    return min(_POLL_MAX, max(_POLL_MIN, recv_timeout() / _POLLS_PER_TIMEOUT))


def decorrelated_jitter(
    prev: float,
    base: float,
    factor: float,
    cap: float,
    rng: random.Random,
) -> float:
    """Next backoff delay under decorrelated jitter.

    The AWS-style scheme: uniform in ``[base, prev * factor]``, clamped to
    ``cap``.  Retaining the exponential *envelope* (never above
    ``min(cap, prev * factor)``) while randomizing within it keeps
    simultaneously-failing ranks/hosts from re-dialing in lockstep --
    synchronized retry storms are exactly what took down the network the
    first time.  Deterministic given ``rng``; with ``base == prev == 0``
    the sequence stays 0 (tests that disable backoff keep sleeping 0s).
    The supervisor's retry loop and the socket transport's re-dial loop
    both pace themselves with it.
    """
    return min(cap, rng.uniform(base, max(base, prev * factor)))


class Request(ABC):
    """Handle for an in-flight split-phase exchange (MPI ``Request``).

    ``wait()`` blocks until the operation completes and returns its
    result (the received list for ``alltoall_start``).  Waiting a
    completed request again returns the cached result -- MPI semantics,
    and what makes the split-phase API forgiving to drive from wrappers.

    Completion contract
    -------------------
    The buffer passed to ``alltoall_start`` is **owned by the runtime
    until the request completes**: mutating it before ``wait()`` races
    the (possibly zero-copy) delivery.  Requests on the same
    ``(peer, tag)`` channel must be waited in issue order;
    the generator keeps at most one exchange in flight, which trivially
    satisfies this.
    """

    @abstractmethod
    def wait(self) -> Any:
        """Block until complete; return the operation's result."""


class AlltoallRequest(Request):
    """In-flight personalized exchange: sends issued, receives deferred.

    ``wait()`` drains the remaining peers (source-rank order) and
    returns the list indexed by source rank, under the same
    buffer-ownership contract as :meth:`Communicator.alltoall`.
    """

    def __init__(
        self,
        comm: "Communicator",
        out: list[Any],
        pending: list[int],
        tag: int,
    ) -> None:
        self._comm = comm
        self._out = out
        self._pending = pending
        self._tag = tag

    def wait(self) -> list[Any]:
        for r in self._pending:
            self._out[r] = self._comm.recv(r, self._tag)
        self._pending = []
        return self._out


class Communicator(ABC):
    """Abstract SPMD communicator: one instance per rank."""

    @property
    @abstractmethod
    def rank(self) -> int:
        """This process's rank in ``0..size-1``."""

    @property
    @abstractmethod
    def size(self) -> int:
        """Number of ranks in the world."""

    # ---- point-to-point ------------------------------------------------
    @abstractmethod
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Asynchronous send: enqueue ``obj`` for ``dest`` (never blocks)."""

    @abstractmethod
    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive of the next message from ``source`` with ``tag``."""

    def _check_dest(self, dest: int) -> None:
        if not (0 <= dest < self.size):
            raise CommunicatorError(
                f"destination rank {dest} out of range for size {self.size}"
            )

    def _check_peer(self, peer: int, op: str) -> None:
        """Guard a transport's ``send``/``recv``: in range and not self.

        A rank's own collective contribution never travels (the base
        collectives place it locally), and a self-addressed message would
        sit behind the very ``recv`` that is meant to drain it.
        """
        self._check_dest(peer)
        if peer == self.rank:
            raise CommunicatorError(
                f"{op} on rank {peer} addressed to itself is not supported"
            )

    # ---- collectives -----------------------------------------------------
    def barrier(self) -> None:
        """Block until all ranks arrive.

        Dissemination barrier over point-to-point messages, log2(size)
        rounds: in round ``k`` each rank signals ``(rank + 2**k) % size``
        and waits for ``(rank - 2**k) % size``.  Transports with a native
        primitive (the thread world) override it.
        """
        k = 1
        while k < self.size:
            self.send(None, (self.rank + k) % self.size, tag=-100 - k)
            self.recv((self.rank - k) % self.size, tag=-100 - k)
            k *= 2

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; every rank returns the value."""
        self._check_dest(root)
        if self.rank == root:
            for r in range(self.size):
                if r != root:
                    self.send(obj, r, tag=-1)
            return obj
        return self.recv(root, tag=-1)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object per rank at ``root`` (rank order); others get None."""
        self._check_dest(root)
        if self.rank == root:
            out = [None] * self.size
            out[root] = obj
            for r in range(self.size):
                if r != root:
                    out[r] = self.recv(r, tag=-2)
            return out
        self.send(obj, root, tag=-2)
        return None

    def allgather(self, obj: Any) -> list[Any]:
        """Gather at rank 0, then broadcast the list to all."""
        gathered = self.gather(obj, root=0)
        return self.bcast(gathered, root=0)

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any]) -> Any:
        """Reduce with binary ``op`` across ranks (rank order), result on all."""
        values = self.allgather(obj)
        acc = values[0]
        for v in values[1:]:
            acc = op(acc, v)
        return acc

    def _alltoall_issue(self, objs: list[Any], tag: int, op: str) -> Request:
        """Send every peer its entry now; receives wait on the request."""
        if len(objs) != self.size:
            raise CommunicatorError(
                f"{op} needs exactly {self.size} objects, got {len(objs)}"
            )
        out: list[Any] = [None] * self.size
        out[self.rank] = objs[self.rank]
        peers = [r for r in range(self.size) if r != self.rank]
        for r in peers:
            self.send(objs[r], r, tag)
        return AlltoallRequest(self, out, peers, tag)

    def alltoall(self, objs: list[Any]) -> list[Any]:
        """Personalized exchange: rank r sends ``objs[s]`` to rank s.

        Returns the list indexed by source rank.  This is the edge-shuffle
        primitive: each generator rank routes produced edges to their
        storage owners in one collective.

        Buffer-ownership contract
        -------------------------
        Received entries may be **shared, read-only buffers** rather than
        private copies: the thread backend passes arrays by reference, and
        the process backend's zero-copy path returns read-only views of a
        mapped arena file, valid as long as they are referenced (see
        :mod:`repro.distributed.mpcomm`).  Callers must treat every received
        entry as immutable, copy anything they keep or mutate, and tolerate
        ``None`` or zero-size entries from ranks with nothing to send --
        :func:`repro.distributed.shuffle.exchange_edges` is the reference
        consumer.
        """
        return self._alltoall_issue(objs, -4, "alltoall").wait()

    def alltoall_start(self, objs: list[Any]) -> Request:
        """Split-phase alltoall: issue all sends now, defer the receives.

        Returns a :class:`Request` whose ``wait()`` (equivalently
        :meth:`alltoall_finish`) yields the same list
        :meth:`alltoall` would.  Between start and finish the caller may
        compute -- that overlap is the entire point -- but must not
        mutate any entry of ``objs`` (see :class:`Request`), and must
        not start a second exchange on the same communicator until the
        first finishes (one in-flight phase per channel).

        Uses its own tag (``-5``) so a split-phase exchange can never
        cross wires with a blocking :meth:`alltoall`.
        """
        return self._alltoall_issue(objs, -5, "alltoall_start")

    def alltoall_finish(self, request: Request) -> list[Any]:
        """Complete a split-phase exchange started by :meth:`alltoall_start`."""
        return request.wait()


class DelegatingCommunicator(Communicator):
    """Base of the wrapper communicators: hold ``inner``, forward the rest.

    Supplies identity (``rank``/``size``/``inner``), pass-through
    ``send``/``recv``/``barrier``, and attribute delegation for backend
    extras (fault ``counters``, the sentinel's ``finish``, a transport's
    ``close``, ...), so a wrapper stack exposes the whole surface of what
    it wraps and each subclass states only what it intercepts.

    The collectives are deliberately *not* forwarded here: a wrapper that
    intercepts the p2p primitives (fault injection, emulated wire)
    inherits the :class:`Communicator` decompositions so collective
    traffic flows through its ``send``/``recv``, while one that
    intercepts whole collectives (sentinel, instrumentation) forwards
    each to ``inner`` itself so a user-level collective is seen exactly
    once.
    """

    def __init__(self, inner: Communicator) -> None:
        self._inner = inner

    @property
    def rank(self) -> int:
        return self._inner.rank

    @property
    def size(self) -> int:
        return self._inner.size

    @property
    def inner(self) -> Communicator:
        """The wrapped communicator."""
        return self._inner

    def __getattr__(self, name: str) -> Any:
        # Only reached for names not found normally.  Private names never
        # delegate: copy/pickle probe ``__deepcopy__``/``__getstate__`` on
        # instances whose ``_inner`` is not set yet, and forwarding those
        # would recurse through this very method.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._inner, name)

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._inner.send(obj, dest, tag)

    def recv(self, source: int, tag: int = 0) -> Any:
        return self._inner.recv(source, tag)

    def barrier(self) -> None:
        self._inner.barrier()


#: The message :meth:`_ThreadWorld.abort` leaves in every mailbox.
_ABORTED = object()


class _ThreadWorld:
    """Shared state for one thread-backed world: mailboxes + barrier."""

    def __init__(self, size: int) -> None:
        self.size = size
        # mailbox[dest][(source, tag)] -> queue of messages
        self.mailboxes: list[dict[tuple[int, int], queue.Queue]] = [
            {} for _ in range(size)
        ]
        self.locks = [threading.Lock() for _ in range(size)]
        self.barrier = threading.Barrier(size)
        self.aborted = False

    def box(self, dest: int, source: int, tag: int) -> queue.Queue:
        with self.locks[dest]:
            box = self.mailboxes[dest].get((source, tag))
            if box is None:
                box = self.mailboxes[dest][(source, tag)] = queue.Queue()
                if self.aborted:
                    box.put(_ABORTED)
            return box

    def abort(self) -> None:
        """Fail every rank's blocked and future ``recv`` and ``barrier``.

        The launcher calls this when one rank failed: threads cannot be
        stopped, but each survivor blocked on the world now raises
        :class:`~repro.errors.CommunicatorError` and unwinds at once
        instead of waiting out its own recv timeout.
        """
        self.aborted = True
        self.barrier.abort()
        for lock, boxes in zip(self.locks, self.mailboxes):
            with lock:
                for box in boxes.values():
                    box.put(_ABORTED)


class ThreadCommunicator(Communicator):
    """One rank of a thread-backed world (see :func:`make_thread_world`)."""

    def __init__(self, world: _ThreadWorld, rank: int) -> None:
        self._world = world
        self._rank = rank

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._world.size

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_peer(dest, "send")
        self._world.box(dest, self._rank, tag).put(obj)

    def recv(self, source: int, tag: int = 0) -> Any:
        self._check_peer(source, "recv")
        timeout = recv_timeout()
        box = self._world.box(self._rank, source, tag)
        try:
            obj = box.get(timeout=timeout)
        except queue.Empty as exc:
            raise CommunicatorError(
                f"rank {self._rank} timed out after {timeout:g}s waiting to "
                f"receive from rank {source} (tag {tag}); the sender never "
                f"sent or died -- run under REPRO_CHECK_COLLECTIVES=1 to "
                f"diagnose collective-order divergence"
            ) from exc
        if obj is _ABORTED:
            box.put(_ABORTED)  # every later recv on this box fails too
            raise CommunicatorError(
                f"rank {self._rank} stopped waiting to receive from rank "
                f"{source} (tag {tag}): another rank failed and the world "
                f"was aborted"
            )
        return obj

    def abort(self) -> None:
        """Abort this rank's whole world (see :meth:`_ThreadWorld.abort`)."""
        self._world.abort()

    def barrier(self) -> None:
        timeout = recv_timeout()
        try:
            self._world.barrier.wait(timeout=timeout)
        except threading.BrokenBarrierError as exc:
            if self._world.aborted:
                raise CommunicatorError(
                    f"rank {self._rank} left the barrier: another rank "
                    f"failed and the world was aborted"
                ) from exc
            raise CommunicatorError(
                f"rank {self._rank} timed out after {timeout:g}s in barrier "
                f"(size {self.size}); some rank never arrived -- run under "
                f"REPRO_CHECK_COLLECTIVES=1 to diagnose"
            ) from exc


def make_thread_world(
    size: int,
    *,
    checked: bool | None = None,
    wrap: Callable[[Communicator], Communicator] | None = None,
) -> list[Communicator]:
    """Create ``size`` communicators sharing one thread world.

    ``checked=True`` wraps every rank in the runtime collective-order
    sentinel (:class:`repro.distributed.checked.CheckedCommunicator`),
    which converts collective-sequence divergence into a diagnostic
    naming both call sites.  ``checked=None`` (default) defers to the
    ``REPRO_CHECK_COLLECTIVES`` environment variable.

    ``wrap`` interposes a per-rank communicator wrapper *beneath* the
    sentinel -- the hook the fault-injection harness
    (:mod:`repro.distributed.faults`) uses, so injected faults flow
    through the checked collectives like real ones.
    """
    if size < 1:
        raise CommunicatorError(f"world size must be >= 1, got {size}")
    world = _ThreadWorld(size)
    comms: list[Communicator] = [
        ThreadCommunicator(world, r) for r in range(size)
    ]
    if wrap is not None:
        comms = [wrap(c) for c in comms]
    if checked is None:
        from repro.distributed.checked import checked_env_enabled

        checked = checked_env_enabled()
    if checked:
        from repro.distributed.checked import CheckedCommunicator, SentinelLedger

        ledger = SentinelLedger(size)
        comms = [CheckedCommunicator(c, ledger) for c in comms]
    return comms
