"""Emulated-interconnect wrapper: charge wire time for every payload byte.

The in-memory backends move an edge block between ranks at memcpy (or
pointer-pass) speed, so the runtime never *feels* the communication cost
that dominates the paper's cluster runs -- a 16-byte edge is "free"
locally but costs real microseconds on a bisection-limited alltoall.
:class:`ThrottledCommunicator` restores that physics: every message is
stamped with its send time, and the receiver sleeps until the message
could actually have arrived under a :class:`NetworkModel`::

    ready = sent_at + latency + nbytes / bandwidth

The sleep is charged at *receive* time against the *send* timestamp, so
time a rank spends computing while a message is in flight counts toward
the transfer -- a nonblocking exchange that overlaps generation with the
wire genuinely hides the cost, exactly like hardware.  Per-source
messages are charged independently (parallel links); ``barrier`` is
control-plane and passes through unthrottled.

Only the p2p primitives are overridden.  Every collective -- including
the split-phase ``alltoall_start``/``alltoall_finish`` -- is inherited
from the :class:`~repro.distributed.comm.Communicator` base class and
therefore routes through the throttled ``send``/``recv`` automatically,
on any backend.  The performance ledger (``benchmarks/ledger``, workload
``gen_stream_wan``) uses this to measure the async pipeline in the
communication-bound regime it was built for; tests use it to assert
overlap semantics with deterministic wire times.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from repro.distributed.comm import Communicator, DelegatingCommunicator
from repro.telemetry.clock import monotonic
from repro.telemetry.instrument import payload_nbytes

__all__ = ["NetworkModel", "ThrottledCommunicator"]


@dataclass(frozen=True)
class NetworkModel:
    """Per-link wire model: fixed latency plus bytes over bandwidth."""

    #: Sustained per-link bandwidth in bytes per second.
    bandwidth: float
    #: Fixed per-message latency in seconds.
    latency: float = 0.0

    def wire_seconds(self, nbytes: int) -> float:
        """Transfer time of an ``nbytes`` payload over one link."""
        return self.latency + nbytes / self.bandwidth


class ThrottledCommunicator(DelegatingCommunicator):
    """Wrap ``inner`` so every message pays ``model``'s wire time.

    Messages are sent immediately (annotated with the send timestamp);
    the receive side sleeps out whatever portion of the wire time has
    not already elapsed; the stamp changes nothing about how ``inner``
    carries the payload (on the process backend a stamped block still
    crosses through the arena).  Wrap it *under* the instrumented
    communicator (``spmd_run(..., wrap_comm=...)`` does this) so telemetry
    counters see the un-annotated payloads.
    """

    def __init__(self, inner: Communicator, model: NetworkModel) -> None:
        super().__init__(inner)
        self._model = model

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._inner.send((monotonic(), obj), dest, tag)

    def recv(self, source: int, tag: int = 0) -> Any:
        sent_at, obj = self._inner.recv(source, tag)
        remaining = (
            sent_at + self._model.wire_seconds(payload_nbytes(obj))
            - monotonic()
        )
        if remaining > 0:
            time.sleep(remaining)
        return obj
