"""Telemetry sessions: per-run collection, per-rank sinks, null path.

Three layers:

:class:`TelemetryConfig`
    frozen, picklable description of what to collect (ships to forked
    rank processes).
:class:`RankTelemetry`
    one rank's live sink: tracer + metrics + the injected clock.  Rank
    programs reach it through :func:`telemetry_of`; when no telemetry is
    active they get the shared :data:`NULL_TELEMETRY`, whose every
    operation is a constant-time no-op (``span()`` returns one reused
    null context manager -- no allocation, no clock read, no comm).
:class:`TelemetrySession`
    the parent-side collector handed to ``spmd_run(...,
    telemetry=session)``.  The launcher wraps the rank function so each
    rank builds a sink, wraps its communicator in an
    :class:`~repro.telemetry.instrument.InstrumentedCommunicator`, runs
    the program, and ships a :class:`RankTrace` snapshot back with its
    result; the session merges the ranks' metrics parent-side.

Degradation events
------------------
A rank that falls back to a slower path records it on its own sink
(:meth:`RankTelemetry.degradation`: a ``degradation`` instant plus a
counter), reached through the communicator's ``bind_telemetry`` hook --
so a degraded run shows it in its own trace, and no other run does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.telemetry.clock import Clock, perf_clock
from repro.telemetry.metrics import MetricsRegistry, merge_snapshots
from repro.telemetry.trace import NULL_SPAN, TraceEvent, Tracer

__all__ = [
    "TelemetryConfig",
    "RankTelemetry",
    "RankTrace",
    "TelemetrySession",
    "NULL_TELEMETRY",
    "telemetry_of",
]


@dataclass(frozen=True)
class TelemetryConfig:
    """A telemetry session's configuration: the clock its sinks read.

    ``clock`` must be a picklable callable (module-level function) or
    ``None`` for the perf-counter default -- the config crosses the fork
    boundary to process-backend ranks.
    """

    clock: Clock | None = None

    def resolve_clock(self) -> Clock:
        return self.clock if self.clock is not None else perf_clock


@dataclass
class RankTrace:
    """One rank's shipped-home snapshot: events + metrics."""

    rank: int
    events: list[TraceEvent] = field(default_factory=list)
    dropped: int = 0
    metrics: dict[str, Any] = field(default_factory=dict)


class RankTelemetry:
    """One rank's live telemetry sink (tracer + metrics + clock)."""

    def __init__(self, config: TelemetryConfig, rank: int) -> None:
        self.config = config
        self.rank = rank
        self.clock = config.resolve_clock()
        self.tracer = Tracer(rank, self.clock)
        self.metrics = MetricsRegistry()

    # ---- hot-path forwarding -------------------------------------------
    def span(self, name: str, cat: str = "phase", **args: Any):
        return self.tracer.span(name, cat, **args)

    def instant(self, name: str, cat: str = "event", **args: Any) -> None:
        self.tracer.instant(name, cat, **args)

    def add(self, name: str, value: float = 1) -> None:
        self.metrics.add(name, value)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    def degradation(self, component: str, fallback: str, reason: str) -> None:
        """Structured fallback event: instant in the trace + a counter."""
        self.tracer.instant(
            "degradation",
            cat="degradation",
            component=component,
            fallback=fallback,
            reason=reason,
        )
        self.metrics.add("degradations")

    def harvest_fault_counters(self, comm) -> None:
        """Copy the fault layer's injection counters into the metrics.

        ``counters`` resolves through the wrapper stack to
        :class:`~repro.distributed.faults.FaultCounters` when a fault
        plan is armed; absent one, this is a no-op.
        """
        fc = getattr(comm, "counters", None)
        if fc is None:
            return
        for name in ("dropped", "delayed", "crashes", "disconnects",
                     "partitions"):
            value = getattr(fc, name, 0)
            if value:
                self.metrics.add(f"faults.{name}", value)

    def harvest_sock_counters(self, comm) -> None:
        """Copy the socket layer's liveness counters into the metrics.

        ``sock_counters`` resolves through the wrapper stack to
        :class:`~repro.distributed.sockcomm.SocketCounters` on the socket
        backend; other backends have none and this is a no-op.  Only
        non-zero fields are recorded, as ``sock.<field>`` -- which is how
        reconnect/replay counts reach chaos reports and traces.  Heals
        still in flight are waited for first (``await_heals``), so the
        counts do not depend on who wins that race.
        """
        sc = getattr(comm, "sock_counters", None)
        if sc is None:
            return
        comm.await_heals()
        for name in ("frames_sent", "frames_received", "deduplicated",
                     "replayed", "disconnects", "reconnects",
                     "heartbeats_sent", "heartbeats_received"):
            value = getattr(sc, name, 0)
            if value:
                self.metrics.add(f"sock.{name}", value)

    def finalize(self, comm=None) -> RankTrace:
        """Snapshot this rank's telemetry (no communication)."""
        if comm is not None:
            self.harvest_fault_counters(comm)
            self.harvest_sock_counters(comm)
        return RankTrace(
            rank=self.rank,
            events=self.tracer.events(),
            dropped=self.tracer.dropped,
            metrics=self.metrics.snapshot(),
        )


class _NullTelemetry:
    """The disabled path: every call is a constant-time no-op.

    ``span()`` hands back the one shared null context manager, so a rank
    program instrumented with ``with tel.span(...):`` costs a method
    call and nothing else when telemetry is off.
    """

    __slots__ = ()

    rank = -1

    @staticmethod
    def clock() -> float:
        return 0.0

    def span(self, name: str, cat: str = "phase", **args: Any):
        return NULL_SPAN

    def instant(self, name: str, cat: str = "event", **args: Any) -> None:
        return None

    def add(self, name: str, value: float = 1) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def degradation(self, component: str, fallback: str, reason: str) -> None:
        return None

    def finalize(self, comm=None) -> RankTrace:
        return RankTrace(rank=-1)


#: The shared disabled sink: what ``telemetry_of`` returns when no
#: telemetry is active.
NULL_TELEMETRY = _NullTelemetry()


def telemetry_of(comm) -> Any:
    """The telemetry sink attached to a communicator stack, or the null.

    Resolves the ``telemetry`` attribute through any wrapper chain
    (wrappers delegate unknown attributes inward); plain communicators
    have none and yield :data:`NULL_TELEMETRY`.  Call once per rank
    program and keep the local -- the lookup walks the wrapper stack.
    """
    tel = getattr(comm, "telemetry", None)
    return tel if tel is not None else NULL_TELEMETRY


class _TelemetryRankFn:
    """Picklable rank-fn wrapper installing per-rank telemetry.

    The launcher substitutes this for the user's rank function when a
    session is active: each rank builds its sink, wraps its communicator
    in an :class:`~repro.telemetry.instrument.InstrumentedCommunicator`
    (outermost, above the sentinel and fault layers the launcher already
    applied), runs the program, and returns ``(result, RankTrace)`` for
    :meth:`TelemetrySession.ingest` to unzip.  Finalize happens only on
    success.
    """

    __slots__ = ("fn", "config")

    def __init__(self, fn, config: TelemetryConfig) -> None:
        self.fn = fn
        self.config = config

    def __call__(self, comm, *args):
        from repro.telemetry.instrument import InstrumentedCommunicator

        tel = RankTelemetry(self.config, comm.rank)
        icomm = InstrumentedCommunicator(comm, tel)
        # The forked backends record on the sink once it is attached: the
        # socket transport its heartbeat and reconnect spans, the process
        # transport its arena fallback.  Threads have no bind hook.
        bind = getattr(icomm, "bind_telemetry", None)
        if bind is not None:
            bind(tel)
        result = self.fn(icomm, *args)
        return (result, tel.finalize(icomm))


class TelemetrySession:
    """Parent-side collector for one (or more) instrumented runs.

    Pass to :func:`repro.distributed.launcher.spmd_run` (or the
    supervised variant) as ``telemetry=``; after a successful run,
    ``ranks`` holds one :class:`RankTrace` per rank and ``events`` any
    parent-side instants (supervisor retries).
    A session may be reused across attempts/runs; ``ranks`` reflects the
    last successful run.
    """

    def __init__(self, config: TelemetryConfig | None = None) -> None:
        self.config = config if config is not None else TelemetryConfig()
        self.ranks: list[RankTrace] = []
        self.events: list[TraceEvent] = []
        self._clock = self.config.resolve_clock()

    def record(self, name: str, cat: str = "supervisor", **args: Any) -> None:
        """Parent-side instant event (rendered on the supervisor lane)."""
        self.events.append(
            TraceEvent(
                name=name,
                ph="i",
                ts=self._clock(),
                dur=0.0,
                rank=-1,
                cat=cat,
                args=args,
            )
        )

    def ingest(self, tagged_results: list) -> list:
        """Unzip ``(result, RankTrace)`` pairs from an instrumented run.

        ``None`` entries pass through unchanged: a socket launch driving
        only a subset of ranks (``local_ranks``) reports no result -- and
        no trace -- for the ranks living on other hosts.
        """
        self.ranks = [pair[1] for pair in tagged_results if pair is not None]
        return [
            None if pair is None else pair[0] for pair in tagged_results
        ]

    # ---- summaries -------------------------------------------------------
    def aggregated_metrics(self) -> dict[str, Any]:
        """World-aggregate metrics of the last run: the merge of the
        snapshots every rank shipped home (counters sum, histograms merge
        bucket-wise)."""
        return merge_snapshots([snap.metrics for snap in self.ranks])

    def metrics_summary(self) -> dict[str, Any]:
        """Per-rank and aggregate metrics plus trace bookkeeping."""
        return {
            "nranks": len(self.ranks),
            "per_rank": {
                str(snap.rank): snap.metrics for snap in self.ranks
            },
            "aggregate": self.aggregated_metrics(),
            "events_dropped": {
                str(snap.rank): snap.dropped
                for snap in self.ranks
                if snap.dropped
            },
            "supervisor_events": [
                {"name": e.name, **e.args} for e in self.events
            ],
        }

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Total duration and count per span name across all ranks.

        Durations are inclusive: a span nested in another (``route`` inside
        ``generate`` under ``edge_hash`` storage) is counted under both
        names, so totals of different names must not be added up.
        """
        totals: dict[str, dict[str, float]] = {}
        for snap in self.ranks:
            for event in snap.events:
                if event.ph != "X":
                    continue
                t = totals.setdefault(
                    event.name, {"seconds": 0.0, "count": 0}
                )
                t["seconds"] += event.dur
                t["count"] += 1
        return totals

    def to_chrome_trace(self) -> dict[str, Any]:
        """The Chrome trace-event JSON object (one lane per rank)."""
        from repro.telemetry.export import chrome_trace

        return chrome_trace(self.ranks, parent_events=self.events)

    def write_chrome_trace(self, path) -> None:
        from repro.telemetry.export import write_chrome_trace

        write_chrome_trace(path, self.ranks, parent_events=self.events)
