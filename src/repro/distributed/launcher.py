"""SPMD launcher: run a rank function across a communicator world.

``spmd_run(fn, nranks)`` executes ``fn(comm, *args)`` once per rank and
returns the per-rank results in rank order -- the moral equivalent of
``mpiexec -n R python script.py`` for this library's in-process backends.

Backends
--------
``"thread"`` (default):
    one Python thread per rank over queue mailboxes; a single rank runs
    in the caller's thread.
``"process"``:
    one forked OS process per rank (``fn`` and its arguments must be
    picklable).
``"socket"``:
    one forked OS process per rank over the TCP mesh of
    :mod:`repro.distributed.sockcomm`, bootstrapped through a rendezvous
    service -- the same backend that spans hosts (``rendezvous=`` plus a
    per-host ``local_ranks=`` subset).

A launch runs the backend it was asked for or fails: options that make
it impossible (say, ``fork``-less platforms) raise a non-transient
:class:`~repro.errors.ReproError` before any rank starts, and an
unreachable rendezvous fails in each rank's connect, transiently.

Every backend runs the same rank entry (:func:`_run_rank`: build the
communicator, wrap it, run, ship the result) under the same collection
loop (:func:`_run_world`); they differ only in what builds a rank's
communicator and whether a thread or a forked process carries it.

Forked ranks (``process``, ``socket``) share one :class:`Arena` per world, a
private tmpfs directory made before the fork and removed in ``finally``.
:meth:`Arena.pack` / :meth:`Arena.unpack` carry every message between forked
processes -- process ranks' sends to each other, and each rank's result to
this parent: large buffers come back as a file the parent maps (a few
hundred bytes cross the result queue).
``multiprocessing.shared_memory`` is not used: its first use in a process
execs a resource-tracker interpreter -- in every rank of every run, and one
that outlives the command once the parent touches a segment.

A rank raising an exception cancels the run and re-raises in the caller as
:class:`~repro.errors.RankFailedError` (naming the failing rank), rather
than deadlocking peers.  The collection loop polls child liveness: a rank
killed without reporting (segfault, OOM, ``kill -9``) surfaces as
:class:`~repro.errors.RankDiedError` within a few poll intervals instead
of blocking until the result-queue timeout, and no child process outlives
the call -- one still alive past the reap window is killed.

Every wait in this module derives from
:func:`repro.distributed.comm.recv_timeout`, so one environment variable
(``REPRO_RECV_TIMEOUT``) tightens or relaxes the whole failure-detection
ladder -- chaos tests set it to a couple of seconds.
"""

from __future__ import annotations

import multiprocessing as mp
import queue
import signal
import threading
import traceback
from functools import partial
from typing import Any, Callable

from repro.distributed.comm import (
    make_thread_world,
    poll_interval,
    recv_timeout,
)
from repro.distributed.mpcomm import Arena, ProcessCommunicator, make_process_pipes
from repro.errors import (
    CommunicatorError,
    RankDiedError,
    RankFailedError,
    ReproError,
    is_transient,
)
from repro.telemetry.clock import monotonic
from repro.telemetry.session import TelemetrySession, _TelemetryRankFn

__all__ = ["spmd_run", "BACKENDS"]

BACKENDS = ("thread", "process", "socket")

RankFn = Callable[..., Any]
CommWrapper = Callable[[Any], Any]

#: Worst-case wall clock for a whole rank program, as a multiple of the
#: recv timeout (compute phases between communication steps need headroom
#: beyond a single blocked-recv window).  5 x the 60s default recv timeout
#: preserves the launcher's historical 300s ceiling.
_RUN_TIMEOUT_FACTOR = 5.0

#: How long to wait for a terminated child to be reaped, as a fraction of
#: the recv timeout (0.5 x the 60s default preserves the old 30s grace).
_REAP_FACTOR = 0.5

#: A child observed dead without a result is declared failed after staying
#: dead for this many poll intervals (grace for its queued result to drain
#: through the feeder thread).
_DEAD_GRACE_POLLS = 3


def _run_rank(
    rank: int,
    build_comm: Callable[[int], Any],
    wrap_comm: CommWrapper | None,
    fn: RankFn,
    args: tuple,
    result_q,
    arena: Arena | None,
) -> None:
    """The one rank entry, whatever carries the rank (thread or child).

    Build the communicator, wrap it, run the program, and ship
    ``(rank, True, result, None)`` -- a forked rank's result packed
    through its world's ``arena`` (:meth:`Arena.pack`) -- or ``(rank, False,
    (type name, traceback, extra), cause)``.  Exception objects do not reliably
    survive pickling across a process hop, so whether the failure is
    worth a retry is judged here, on the live exception
    (:func:`~repro.errors.is_transient`), and the verdict ships in
    ``extra`` -- the same answer on every backend.  Inside one process
    (no ``arena``) the exception itself rides along instead of its
    traceback text and becomes the ``__cause__`` of the
    :class:`RankFailedError`; the caller formats it.  ``extra`` also carries
    peer liveness when the failure has it (``RankDiedError`` from the
    socket heartbeat detector: last-heartbeat age and peer address).
    """
    comm = None
    try:
        comm = build_comm(rank)
        if wrap_comm is not None:
            comm = wrap_comm(comm)
        result = fn(comm, *args)
        if arena is not None:
            result = arena.pack(result, rank)
        result_q.put((rank, True, result, None))
    except BaseException as exc:  # noqa: BLE001 - reported to the caller
        extra = {"transient": is_transient(exc)}
        if getattr(exc, "address", None) is not None:
            extra.update(
                heartbeat_age_s=getattr(exc, "heartbeat_age_s", None),
                address=exc.address,
            )
        # In-process the caller formats the traceback: formatting calls
        # ``ast.parse`` (3.11 caret anchors), which CPython 3.11 can fail
        # with a SystemError when two threads parse at once -- and a rank
        # thread may outlive its world.
        tb = None if arena is None else traceback.format_exc()
        result_q.put(
            (rank, False, (type(exc).__name__, tb, extra),
             exc if arena is None else None)
        )
        if not isinstance(exc, Exception):
            raise  # interrupt/exit: reported for the peers, never swallowed
    finally:
        # Both resolve through the wrapper stack.  The sentinel's
        # ``finish`` says this rank's program is over, so peers still
        # waiting on a collective fail fast with a divergence diagnostic
        # instead of a timeout; the socket transport's ``close`` tears
        # down its mesh.
        for hook in ("finish", "close"):
            release = getattr(comm, hook, None)
            if release is not None:
                release()


def _fork_context() -> mp.context.BaseContext | None:
    """The fork start-method context, or ``None`` when unavailable."""
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-posix
        return None


def _describe_exit(exitcode: int | None) -> str:
    if exitcode is None:
        return "ended without an exit code"
    if exitcode < 0:
        try:
            name = signal.Signals(-exitcode).name
        except ValueError:  # pragma: no cover - unknown signal number
            name = f"signal {-exitcode}"
        return f"killed by {name}"
    return f"exited with code {exitcode}"


def _rank_roster(reported: set[int], nranks: int) -> str:
    missing = sorted(set(range(nranks)) - reported)
    return (
        f"ranks reported: {sorted(reported) or '[]'}; "
        f"ranks missing: {missing or '[]'}"
    )


def _run_world(
    ctx: mp.context.BaseContext | None,
    arena: Arena | None,
    ranks: tuple[int, ...],
    nranks: int,
    build_comm: Callable[[int], Any],
    wrap_comm: CommWrapper | None,
    fn: RankFn,
    args: tuple,
) -> list[Any]:
    """Start one child per rank, drain results watching liveness, reap.

    ``ctx`` and ``arena`` are the fork context whose processes carry the
    ranks and the arena their results return through, or ``None`` for
    threads of this process -- where a lone rank needs no thread at all and
    runs on the caller's.  ``ranks`` are the ranks this launch owns (a
    subset for a multi-host socket launch); the returned list always has
    ``nranks`` slots and ranks launched elsewhere stay ``None``.  No child
    outlives this function: whoever is alive past the reap window is killed,
    and after a failure a thread world is aborted (its blocked ranks raise
    and unwind) and its threads joined inside the same window.
    """
    threads = ctx is None
    result_q = queue.Queue() if threads else ctx.Queue()

    def entry(rank: int) -> tuple:
        return (rank, build_comm, wrap_comm, fn, args, result_q, arena)

    children: dict[int, Any] = {}
    if threads and nranks == 1:
        _run_rank(*entry(0))
    else:
        spawn = threading.Thread if threads else ctx.Process
        for r in ranks:
            children[r] = spawn(
                target=_run_rank, args=entry(r), name=f"rank-{r}", daemon=True
            )
            children[r].start()

    results: list[Any] = [None] * nranks
    reported: set[int] = set()
    failure: CommunicatorError | None = None
    timeout = _RUN_TIMEOUT_FACTOR * recv_timeout()
    deadline = monotonic() + timeout
    dead_since: dict[int, float] = {}
    while len(reported) < len(ranks):
        poll = poll_interval()
        try:
            rank, ok, payload, cause = result_q.get(timeout=poll)
        except queue.Empty:
            now = monotonic()
            # Liveness: a child that died without reporting will never put
            # a result; give its (possibly already queued) result a few
            # polls to drain through the feeder thread, then declare it.
            for r, child in children.items():
                if r in reported or child.is_alive():
                    dead_since.pop(r, None)
                else:
                    dead_since.setdefault(r, now)
            confirmed = sorted(
                r
                for r, t0 in dead_since.items()
                if now - t0 >= _DEAD_GRACE_POLLS * poll
            )
            if confirmed:
                detail = ", ".join(
                    f"rank {r} "
                    f"{_describe_exit(getattr(children[r], 'exitcode', None))}"
                    for r in confirmed
                )
                failure = RankDiedError(
                    f"rank process(es) died without reporting a result: "
                    f"{detail}; {_rank_roster(reported, nranks)}",
                    ranks=tuple(confirmed),
                )
                break
            if now > deadline:
                failure = CommunicatorError(
                    f"timed out after {timeout:g}s waiting for rank "
                    f"results; {_rank_roster(reported, nranks)} -- a "
                    f"missing rank is hung or deadlocked (set "
                    f"REPRO_RECV_TIMEOUT to tune every wait)"
                )
                break
            continue
        if ok:
            results[rank] = payload
            reported.add(rank)
        else:
            original_type, tb, extra = payload
            if tb is None:
                tb = "".join(traceback.format_exception(cause))
            failure = RankFailedError(rank, original_type, tb, **extra)
            failure.__cause__ = cause
            break

    reap_by = monotonic() + _REAP_FACTOR * recv_timeout()
    if failure is not None and children:
        if threads:
            # Threads cannot be stopped, but their world can fail every
            # recv and barrier they block on.  The world is built before
            # the launch, so any rank's communicator reaches it.
            build_comm(ranks[0]).abort()
        else:
            for child in children.values():
                child.terminate()
    for child in children.values():
        child.join(timeout=max(0.0, reap_by - monotonic()))
        if not threads and child.is_alive():
            # Ignored SIGTERM, or a clean result followed by a hung
            # exit: past the reap window nothing is left to wait for.
            child.kill()
            child.join()
    if failure is not None:
        raise failure
    if not threads:  # after the reap: a bad descriptor leaves no child behind
        results = [p if p is None else arena.unpack(*p) for p in results]
    return results


def spmd_run(
    fn: RankFn,
    nranks: int,
    *args: Any,
    backend: str = "thread",
    checked: bool | None = None,
    wrap_comm: CommWrapper | None = None,
    telemetry: TelemetrySession | None = None,
    rendezvous: str | None = None,
    local_ranks: tuple[int, ...] | None = None,
) -> list[Any]:
    """Execute ``fn(comm, *args)`` on every rank; return results in rank order.

    Parameters
    ----------
    fn:
        The rank program.  Receives its :class:`Communicator` first.
    nranks:
        World size (>= 1).
    args:
        Extra positional arguments passed to every rank (replicated inputs,
        like the paper's replicated factor ``B``).
    backend:
        ``"thread"``, ``"process"`` or ``"socket"`` (see the module
        docstring).
    checked:
        Run under the collective-order sentinel
        (:mod:`repro.distributed.checked`): divergent collective sequences
        raise a diagnostic naming both call sites instead of deadlocking.
        ``None`` defers to the ``REPRO_CHECK_COLLECTIVES`` environment
        variable (thread backend only; the fork-based process and socket
        backends reject an explicit ``checked=True`` rather than silently
        skipping the check).
    wrap_comm:
        Optional per-rank communicator wrapper applied beneath the sentinel
        -- the fault-injection hook (:mod:`repro.distributed.faults`).
        Must be picklable for the process backend.
    telemetry:
        Optional :class:`~repro.telemetry.session.TelemetrySession`.  When
        given, every rank runs with per-rank tracing and
        metrics: its communicator -- including any sentinel/fault wrappers
        -- is wrapped in an
        :class:`~repro.telemetry.instrument.InstrumentedCommunicator`
        (telemetry observes the stack from the outside), and the session
        collects one :class:`~repro.telemetry.session.RankTrace` per rank
        alongside the results.  ``None`` (the default) adds no wrapper at
        all: rank programs see the shared no-op telemetry.
    rendezvous:
        Socket backend only: ``"host:port"`` of a running
        ``repro-kron serve-rendezvous``.  ``None`` starts a private
        in-process rendezvous for the duration of the run (single-host
        socket worlds).  Ranks advertise the local address of their
        connection to it, so every host must name it as the others do.
        An unreachable one fails every rank's connect with a transient
        :class:`~repro.errors.CommunicatorError`.
    local_ranks:
        Socket backend only: the subset of ranks this invocation should
        launch (each host of a multi-host world runs its own share and
        they meet at the rendezvous).  Result slots for ranks launched
        elsewhere are ``None``.  Default: all ranks.
    """
    if nranks < 1:
        raise ReproError(f"nranks must be >= 1, got {nranks}")
    if backend != "socket" and (rendezvous is not None
                                or local_ranks is not None):
        raise ReproError(
            "rendezvous/local_ranks apply to the socket backend only"
        )
    traced = telemetry is not None
    run_fn: RankFn = _TelemetryRankFn(fn, telemetry.config) if traced else fn
    results = _dispatch(run_fn, nranks, args, backend, checked, wrap_comm,
                        rendezvous, local_ranks)
    if traced:
        results = telemetry.ingest(results)
    return results


def _dispatch(
    fn: RankFn,
    nranks: int,
    args: tuple,
    backend: str,
    checked: bool | None,
    wrap_comm: CommWrapper | None,
    rendezvous: str | None = None,
    local_ranks: tuple[int, ...] | None = None,
) -> list[Any]:
    if backend not in BACKENDS:
        raise ReproError(f"unknown backend {backend!r}; use one of {BACKENDS}")
    ctx = None
    if backend != "thread":
        if checked:
            raise ReproError(
                "checked collective mode needs in-process shared state; "
                "it supports the thread backend only"
            )
        ctx = _fork_context()
        if ctx is None:
            raise ReproError(
                f"the {backend} backend needs the fork start method, which "
                f"this platform does not have"
            )
    server = None
    if backend == "socket":
        from repro.distributed.sockcomm import (
            RendezvousServer,
            SocketCommunicator,
            parse_hostport,
        )

        if rendezvous is None:
            # Single-host launch: a private rendezvous for this run.
            server = RendezvousServer().start()
            addr = server.address
        else:
            addr = parse_hostport(rendezvous)
    ranks = tuple(range(nranks)) if local_ranks is None else tuple(local_ranks)
    arena = None if ctx is None else Arena()
    if backend == "thread":
        # The world is built whole: its ranks share mailboxes, and the
        # sentinel has to sit above ``wrap_comm``.  The rank entry is
        # handed each finished stack and has nothing left to wrap.
        build_comm = make_thread_world(
            nranks, checked=checked, wrap=wrap_comm
        ).__getitem__
        wrap_comm = None
    elif backend == "process":
        build_comm = partial(
            ProcessCommunicator, make_process_pipes(nranks, ctx, arena), size=nranks
        )
    else:
        build_comm = partial(SocketCommunicator.connect, addr, size=nranks)
    try:
        return _run_world(ctx, arena, ranks, nranks, build_comm, wrap_comm, fn, args)
    finally:
        if arena is not None:
            arena.remove()
        if server is not None:
            server.stop()
