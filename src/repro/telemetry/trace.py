"""Span/event tracer with a bounded per-rank ring buffer.

One :class:`Tracer` lives on each rank.  A *span* is a named interval
(``with tracer.span("generate"): ...``); an *instant* is a point event
(a degradation, a supervisor retry).  Completed events land in a ring
buffer of fixed capacity -- a rank that traces more than it can hold
drops the **oldest** events and counts the drops, so tracing can never
grow memory without bound on a long generation.

Timestamps come exclusively from the injected clock (see
:mod:`repro.telemetry.clock`); the tracer itself never reads the wall
clock, which keeps traces deterministic under a fake clock and the
determinism lint rules clean.

Events use Chrome trace-event phase codes (``"X"`` complete span,
``"i"`` instant) so export (:mod:`repro.telemetry.export`) is a direct
mapping.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.telemetry.clock import Clock, perf_clock

__all__ = ["TraceEvent", "Tracer", "NULL_SPAN"]

#: Default ring capacity: 64Ki events per rank (~8 MB of event objects),
#: plenty for a traced generation while bounding a runaway span loop.
DEFAULT_CAPACITY = 1 << 16


@dataclass(frozen=True)
class TraceEvent:
    """One completed trace event.

    ``ts`` and ``dur`` are clock seconds (converted to microseconds only
    at export time); ``ph`` is the Chrome phase code (``"X"`` span,
    ``"i"`` instant); ``args`` carries structured attributes.
    """

    name: str
    ph: str
    ts: float
    dur: float
    rank: int
    cat: str = "phase"
    args: dict[str, Any] = field(default_factory=dict)


class _Span:
    """Context manager recording one complete ("X") event on exit."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_t0")

    def __init__(
        self, tracer: "Tracer", name: str, cat: str, args: dict[str, Any]
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = self._tracer._clock()
        return self

    def __exit__(self, *exc: object) -> None:
        tracer = self._tracer
        tracer._append(
            TraceEvent(
                name=self._name,
                ph="X",
                ts=self._t0,
                dur=tracer._clock() - self._t0,
                rank=tracer.rank,
                cat=self._cat,
                args=self._args,
            )
        )


class Tracer:
    """Per-rank span/instant recorder over a bounded ring buffer."""

    __slots__ = ("rank", "_clock", "_ring", "_capacity", "dropped")

    def __init__(
        self,
        rank: int = 0,
        clock: Clock | None = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"tracer capacity must be >= 1, got {capacity}")
        self.rank = rank
        self._clock = clock if clock is not None else perf_clock
        self._capacity = capacity
        self._ring: deque[TraceEvent] = deque(maxlen=capacity)
        #: Events evicted because the ring was full.
        self.dropped = 0

    def _append(self, event: TraceEvent) -> None:
        if len(self._ring) == self._capacity:
            self.dropped += 1
        self._ring.append(event)

    def span(self, name: str, cat: str = "phase", **args: Any) -> _Span:
        """A context manager timing one named interval."""
        return _Span(self, name, cat, args)

    def instant(self, name: str, cat: str = "event", **args: Any) -> None:
        """Record a point event at the current clock reading."""
        self._append(
            TraceEvent(
                name=name,
                ph="i",
                ts=self._clock(),
                dur=0.0,
                rank=self.rank,
                cat=cat,
                args=args,
            )
        )

    def events(self) -> list[TraceEvent]:
        """Snapshot of the ring's contents, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)


class _NullSpan:
    """The shared no-op span: enter/exit do nothing, allocate nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


#: The singleton no-op span every disabled ``span()`` call returns.
NULL_SPAN = _NullSpan()

