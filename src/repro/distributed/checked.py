"""Runtime collective-order sentinel: deadlocks become diagnostics.

The static pass (:mod:`repro.lint`) can only *warn* that a collective
looks rank-dependent; this module catches the divergence when it actually
happens.  :class:`CheckedCommunicator` wraps any communicator and
fingerprints every collective call -- operation name, caller's code
location, and a per-rank sequence number -- into a side channel shared by
the world (out-of-band: the fingerprints never travel through the
communicator being checked, so a broken collective pattern cannot break
the check).  Before executing collective *k*, each rank waits for every
peer's *k*-th fingerprint and verifies it matches; on mismatch all ranks
raise :class:`~repro.errors.CollectiveOrderError` naming **both**
divergent call sites instead of hanging until the recv timeout::

    CollectiveOrderError: collective sequence diverged at step 3:
      rank 0 called barrier at generator.py:210
      rank 1 called allreduce at generator.py:354

Enabling it
-----------
* ``make_thread_world(size, checked=True)`` -- explicit;
* environment variable ``REPRO_CHECK_COLLECTIVES=1`` -- picked up by
  ``make_thread_world`` and therefore by ``spmd_run(backend="thread")``.
  The test suite sets it (``tests/conftest.py``), so every thread world
  tier-1 builds runs checked: of the seeded protocol bugs in
  ``tests/fixtures/mutants``, the sentinel is the fastest to catch a
  collective skipped on a data-dependent branch and a round count the
  ranks never agreed (EXPERIMENTS.md L17).

The sentinel serializes ranks at each collective boundary (that is the
point: it makes the ordering observable), so it is a debugging mode, not
a production path.  A rank waits half of :func:`recv_timeout` for a
peer's fingerprint -- 30 s at the default -- so ``REPRO_RECV_TIMEOUT``
rescales the sentinel with every other wait and its divergence
diagnostic still lands before a peer's plain recv times out.
Point-to-point ``send``/``recv`` are deliberately not fingerprinted --
rank-asymmetric p2p is the normal SPMD idiom.

The side channel is in-process shared state, so checked mode covers the
``thread`` backend; the fork-based process and socket backends would
need a shared-memory ledger and are rejected explicitly rather than
silently unchecked.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Any, Callable

from repro.distributed.comm import (
    Communicator,
    DelegatingCommunicator,
    Request,
    recv_timeout,
)
from repro.errors import CollectiveOrderError

__all__ = [
    "CheckedCommunicator",
    "SentinelLedger",
    "checked_env_enabled",
]

#: Environment variable turning checked mode on for thread worlds.
CHECK_ENV = "REPRO_CHECK_COLLECTIVES"


def checked_env_enabled() -> bool:
    """Is checked mode requested via :data:`CHECK_ENV`?"""
    return os.environ.get(CHECK_ENV, "").strip().lower() in (
        "1", "true", "yes", "on",
    )


class SentinelLedger:
    """World-shared fingerprint table (one per checked world).

    ``post``/``wait_for`` are keyed by ``(rank, seq)``; a rank that
    finishes its program marks itself done so waiting peers fail fast
    with "rank r finished after N collectives" instead of timing out.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._fps: dict[tuple[int, int], tuple[str, str]] = {}
        self._done: dict[int, int] = {}
        self._cv = threading.Condition()

    def post(self, rank: int, seq: int, fp: tuple[str, str]) -> None:
        with self._cv:
            self._fps[(rank, seq)] = fp
            self._cv.notify_all()

    def mark_done(self, rank: int, seq_count: int) -> None:
        with self._cv:
            self._done[rank] = seq_count
            self._cv.notify_all()

    def last_of(self, rank: int, before: int) -> tuple[int, tuple[str, str]] | None:
        """The latest fingerprint rank posted with ``seq < before``."""
        with self._cv:
            for seq in range(before - 1, -1, -1):
                fp = self._fps.get((rank, seq))
                if fp is not None:
                    return seq, fp
        return None

    def wait_for(
        self, rank: int, seq: int, timeout: float
    ) -> tuple[str, tuple[str, str] | int | None]:
        """Wait for rank's ``seq``-th fingerprint.

        Returns ``("fp", fingerprint)`` when it arrives, ``("done", n)``
        if the rank finished after ``n`` collectives without reaching
        ``seq``, or ``("timeout", None)``.
        """
        with self._cv:
            def ready() -> bool:
                return (rank, seq) in self._fps or (
                    rank in self._done and self._done[rank] <= seq
                )

            if not self._cv.wait_for(ready, timeout=timeout):
                return "timeout", None
            fp = self._fps.get((rank, seq))
            if fp is not None:
                return "fp", fp
            return "done", self._done[rank]


def _call_site() -> str:
    """``file.py:line`` of the first stack frame outside this module."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_filename == __file__:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - defensive
        return "<unknown>"
    return f"{os.path.basename(frame.f_code.co_filename)}:{frame.f_lineno}"


class CheckedCommunicator(DelegatingCommunicator):
    """Sentinel wrapper: verify collective symmetry, then delegate.

    Wraps by containment, not inheritance: the inner communicator's own
    default collective implementations (``allgather`` -> ``gather`` ->
    ``send``/``recv``) run on the *inner* object, so each user-level
    collective is fingerprinted exactly once.
    """

    def __init__(self, inner: Communicator, ledger: SentinelLedger) -> None:
        super().__init__(inner)
        self._ledger = ledger
        self._seq = 0

    # ---- sentinel core ---------------------------------------------------
    def finish(self) -> None:
        """Announce this rank's program completed (launcher calls this)."""
        self._ledger.mark_done(self.rank, self._seq)

    def _enter(self, op: str) -> None:
        seq = self._seq
        self._seq += 1
        site = _call_site()
        mine = (op, site)
        self._ledger.post(self.rank, seq, mine)
        timeout = recv_timeout() / 2
        for peer in range(self.size):
            if peer == self.rank:
                continue
            status, payload = self._ledger.wait_for(peer, seq, timeout)
            if status == "fp" and payload != mine:
                peer_op, peer_site = payload  # type: ignore[misc]
                raise CollectiveOrderError(
                    f"collective sequence diverged at step {seq}:\n"
                    f"  rank {self.rank} called {op} at {site}\n"
                    f"  rank {peer} called {peer_op} at {peer_site}"
                )
            if status == "done":
                raise CollectiveOrderError(
                    f"collective sequence diverged at step {seq}: "
                    f"rank {self.rank} called {op} at {site}, but rank "
                    f"{peer} finished its rank program after {payload} "
                    f"collective(s) and will never arrive"
                )
            if status == "timeout":
                last = self._ledger.last_of(peer, seq + 1)
                seen = (
                    f"its last collective was {last[1][0]} at {last[1][1]} "
                    f"(step {last[0]})"
                    if last is not None
                    else "it has executed no collectives"
                )
                raise CollectiveOrderError(
                    f"sentinel timeout at step {seq}: rank {self.rank} "
                    f"called {op} at {site}, but rank {peer} did not "
                    f"announce a matching collective within {timeout:.1f}s; "
                    f"{seen}"
                )

    # ---- collectives: fingerprint, verify, delegate ----------------------
    def barrier(self) -> None:
        self._enter("barrier")
        self._inner.barrier()

    def bcast(self, obj: Any, root: int = 0) -> Any:
        self._enter("bcast")
        return self._inner.bcast(obj, root)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        self._enter("gather")
        return self._inner.gather(obj, root)

    def allgather(self, obj: Any) -> list[Any]:
        self._enter("allgather")
        return self._inner.allgather(obj)

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any]) -> Any:
        self._enter("allreduce")
        return self._inner.allreduce(obj, op)

    def alltoall(self, objs: list[Any]) -> list[Any]:
        self._enter("alltoall")
        return self._inner.alltoall(objs)

    def alltoall_start(self, objs: list[Any]) -> Request:
        # The *start* is the symmetric event every rank must reach in the
        # same order -- fingerprint it.  The wait is rank-local (ranks may
        # overlap different amounts of compute before finishing), so
        # ``alltoall_finish`` is deliberately left to the base: it waits
        # the inner request, unfingerprinted.
        self._enter("alltoall_start")
        return self._inner.alltoall_start(objs)
