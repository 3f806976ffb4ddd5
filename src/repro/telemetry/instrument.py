"""``InstrumentedCommunicator``: every collective timed and sized.

Wraps any communicator (by containment, like the sentinel) so that the
rank program's communication is measured without touching a single call
site:

* each **collective** (``barrier``/``bcast``/``gather``/``allgather``/
  ``allreduce``/``alltoall``/``alltoall_start``) becomes a ``comm``-category
  span plus ``comm.<op>.calls`` / ``comm.<op>.seconds`` counters and
  byte counters for the payloads in and out (for the alltoall pair: the
  entries that cross between ranks, so not a rank's own);
* **point-to-point** ``send``/``recv`` update byte/call counters only
  (no spans -- p2p is the chatty substrate collectives decompose into,
  and per-message spans would flood the ring on pipelined runs);
* everything else (fault ``counters``, ``finish``, ``close``, ...)
  delegates through ``__getattr__`` so the full wrapper stack stays
  visible.

Composition order is **outermost**: the launcher builds
``Instrumented(Checked(Faulty(base)))``, so the measured time includes
sentinel fingerprint waits and injected fault delays -- which is the
point: the trace shows what the run actually experienced.  Collectives
are delegated to the *inner* object's implementations, so each user
collective is measured exactly once even though the base class would
decompose it into p2p calls.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.distributed.comm import (
    Communicator,
    DelegatingCommunicator,
    Request,
)

__all__ = ["InstrumentedCommunicator", "payload_nbytes"]


def payload_nbytes(obj: Any) -> int:
    """Approximate wire size of a message payload, in bytes.

    Exact for the payloads the runtime actually exchanges (numpy arrays,
    bytes, and lists/tuples of them); scalars count their machine width;
    unknown objects count zero rather than paying a serialization to
    find out.
    """
    if obj is None:
        return 0
    nbytes = getattr(obj, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (list, tuple)):
        return sum(payload_nbytes(item) for item in obj)
    if isinstance(obj, (int, float, bool)):
        return 8
    if isinstance(obj, str):
        return len(obj)
    return 0


def _crossing_nbytes(objs: list[Any], rank: int) -> int:
    """Bytes of an alltoall's entries that travel: all but ``objs[rank]``,
    which every transport hands back to its own rank by reference."""
    return sum(payload_nbytes(o) for r, o in enumerate(objs) if r != rank)


class _InstrumentedRequest(Request):
    """Times the *wait* phase of a split-phase exchange.

    The exchange is issued under a ``comm.alltoall_start`` span; the time
    the caller later blocks in ``wait()`` is recorded separately as a
    ``comm.wait`` span plus ``comm.wait.seconds`` counters, so a trace
    distinguishes "issuing the exchange" from "stalled on the network".
    Metrics are recorded once (first completion), matching the request's
    cached-result semantics.
    """

    def __init__(self, inner: Request, telemetry, rank: int) -> None:
        self._inner = inner
        self._telemetry = telemetry
        self._rank = rank
        self._counted = False

    def wait(self) -> Any:
        if self._counted:
            return self._inner.wait()
        tel = self._telemetry
        t0 = tel.clock()
        with tel.span("comm.wait", cat="comm"):
            result = self._inner.wait()
        elapsed = tel.clock() - t0
        self._counted = True
        tel.add("comm.wait.calls")
        tel.observe("comm.wait.seconds", elapsed)
        tel.add("comm.wait.seconds.total", elapsed)
        bytes_in = _crossing_nbytes(result, self._rank)
        if bytes_in:
            # The same counter as blocking alltoall (see alltoall_start).
            tel.add("comm.alltoall.bytes_in", bytes_in)
        return result


class InstrumentedCommunicator(DelegatingCommunicator):
    """Measure every operation of the wrapped communicator.

    ``telemetry`` is the rank's
    :class:`~repro.telemetry.session.RankTelemetry`; rank programs reach
    it through :func:`~repro.telemetry.session.telemetry_of`, which
    resolves the ``telemetry`` attribute through any wrapper stack.
    """

    def __init__(self, inner: Communicator, telemetry) -> None:
        super().__init__(inner)
        self.telemetry = telemetry

    # ---- point-to-point: counters only ----------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        tel = self.telemetry
        tel.add("comm.send.calls")
        tel.add("comm.send.bytes", payload_nbytes(obj))
        self._inner.send(obj, dest, tag)

    def recv(self, source: int, tag: int = 0) -> Any:
        obj = self._inner.recv(source, tag)
        tel = self.telemetry
        tel.add("comm.recv.calls")
        tel.add("comm.recv.bytes", payload_nbytes(obj))
        return obj

    # ---- collectives: span + counters, delegated to inner ---------------
    def _timed(
        self,
        op: str,
        call: Callable[[], Any],
        bytes_out: int = 0,
        size_in: Callable[[Any], int] | None = None,
    ) -> Any:
        tel = self.telemetry
        clock = tel.clock
        t0 = clock()
        with tel.span(f"comm.{op}", cat="comm"):
            result = call()
        elapsed = clock() - t0
        tel.add(f"comm.{op}.calls")
        tel.observe(f"comm.{op}.seconds", elapsed)
        tel.add(f"comm.{op}.seconds.total", elapsed)
        if bytes_out:
            tel.add(f"comm.{op}.bytes_out", bytes_out)
        if size_in is not None:
            bytes_in = size_in(result)
            if bytes_in:
                tel.add(f"comm.{op}.bytes_in", bytes_in)
        return result

    def barrier(self) -> None:
        self._timed("barrier", self._inner.barrier)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        out = payload_nbytes(obj) if self.rank == root else 0
        return self._timed(
            "bcast",
            lambda: self._inner.bcast(obj, root),
            bytes_out=out,
            size_in=payload_nbytes if self.rank != root else None,
        )

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        return self._timed(
            "gather",
            lambda: self._inner.gather(obj, root),
            bytes_out=payload_nbytes(obj) if self.rank != root else 0,
            size_in=payload_nbytes if self.rank == root else None,
        )

    def allgather(self, obj: Any) -> list[Any]:
        return self._timed(
            "allgather",
            lambda: self._inner.allgather(obj),
            bytes_out=payload_nbytes(obj),
            size_in=payload_nbytes,
        )

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any]) -> Any:
        return self._timed(
            "allreduce",
            lambda: self._inner.allreduce(obj, op),
            bytes_out=payload_nbytes(obj),
            size_in=payload_nbytes,
        )

    def alltoall(self, objs: list[Any]) -> list[Any]:
        return self._timed(
            "alltoall",
            lambda: self._inner.alltoall(objs),
            bytes_out=_crossing_nbytes(objs, self.rank),
            size_in=lambda received: _crossing_nbytes(received, self.rank),
        )

    # ---- split-phase alltoall: issue timed here, wait on the request ----
    def alltoall_start(self, objs: list[Any]) -> Request:
        request = self._timed(
            "alltoall_start", lambda: self._inner.alltoall_start(objs)
        )
        # Volume lands on the same counters as blocking alltoall so
        # ``bytes_shuffled`` aggregations see both paths uniformly.
        self.telemetry.add(
            "comm.alltoall.bytes_out", _crossing_nbytes(objs, self.rank)
        )
        return _InstrumentedRequest(request, self.telemetry, self.rank)
