"""Observability for the SPMD runtime: tracing, metrics, profiling.

The paper's headline results are throughput and scale numbers (Section
III, Remark 1: 1-D vs 2-D partitioned generation on up to 1.57M cores);
reproducing that methodology means measuring where each rank spends its
time and moves its bytes.  This package is the runtime's observability
layer, sitting beside the static lint (:mod:`repro.lint`), the runtime
sentinel (:mod:`repro.distributed.checked`), and the fault harness
(:mod:`repro.distributed.faults`):

:mod:`~repro.telemetry.clock`
    injected clocks -- the *only* wall-clock source distributed code may
    use (enforced by the ``wall-clock`` lint rule), so determinism and
    testability survive instrumentation.
:mod:`~repro.telemetry.trace`
    a low-overhead span/event tracer with a bounded per-rank ring buffer.
:mod:`~repro.telemetry.metrics`
    counters / histograms per rank, merged across ranks parent-side
    from the snapshots every rank ships home.
:mod:`~repro.telemetry.instrument`
    :class:`InstrumentedCommunicator` -- wraps any communicator so every
    collective is timed and sized automatically; composes *outside* the
    sentinel and fault layers
    (``Instrumented(Checked(Faulty(base)))``).
:mod:`~repro.telemetry.session`
    the per-run :class:`TelemetrySession` handed to ``spmd_run`` /
    ``spmd_run_supervised``, per-rank sinks (which also carry a rank's
    structured degradation events), and the null (zero-overhead)
    telemetry.
:mod:`~repro.telemetry.export`
    Chrome trace-event / Perfetto JSON export, one lane per rank, plus
    the trace schema validator the CI smoke job runs.

Everything is off by default: without a session, rank programs see the
shared :data:`NULL_TELEMETRY` whose spans are a reused no-op context
manager -- no allocation, no communication, no clock reads.
"""

from repro.telemetry.clock import Clock, FakeClock, monotonic, perf_clock
from repro.telemetry.export import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.instrument import InstrumentedCommunicator, payload_nbytes
from repro.telemetry.metrics import MetricsRegistry, merge_snapshots
from repro.telemetry.session import (
    NULL_TELEMETRY,
    RankTelemetry,
    RankTrace,
    TelemetryConfig,
    TelemetrySession,
    telemetry_of,
)
from repro.telemetry.trace import TraceEvent, Tracer

__all__ = [
    "Clock",
    "FakeClock",
    "perf_clock",
    "monotonic",
    "Tracer",
    "TraceEvent",
    "MetricsRegistry",
    "merge_snapshots",
    "InstrumentedCommunicator",
    "payload_nbytes",
    "TelemetryConfig",
    "TelemetrySession",
    "RankTelemetry",
    "RankTrace",
    "NULL_TELEMETRY",
    "telemetry_of",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
]
