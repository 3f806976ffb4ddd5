"""Exception hierarchy for :mod:`repro`.

Every error raised intentionally by the library derives from
:class:`ReproError` so downstream users can catch library failures with a
single ``except`` clause while letting programming errors (``TypeError`` from
misuse of numpy, etc.) propagate unchanged.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphFormatError",
    "VertexRangeError",
    "AssumptionError",
    "PartitionError",
    "CommunicatorError",
    "WireFormatError",
    "CollectiveOrderError",
    "RankCrashError",
    "RankFailedError",
    "RankDiedError",
    "CheckpointError",
    "CheckpointCorruptionError",
    "ServiceError",
    "RequestError",
    "TenantNotFoundError",
    "GraphNotFoundError",
    "ExperimentError",
    "ReproWarning",
    "DegradationWarning",
    "is_transient",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GraphFormatError(ReproError):
    """An edge list / adjacency structure is malformed.

    Raised for negative vertex ids, ragged arrays, out-of-range endpoints,
    or file parse failures.
    """


class VertexRangeError(GraphFormatError):
    """A query named a vertex id outside the graph's ``[0, n)``."""


class AssumptionError(ReproError):
    """A ground-truth formula's hypothesis is violated.

    The Kronecker formulas in the paper hold only under explicit structural
    hypotheses (e.g. "both factors have full self loops", "no self loops",
    "graph is undirected").  Functions in :mod:`repro.groundtruth` verify
    their hypotheses and raise this error instead of silently returning
    wrong ground truth.
    """


class PartitionError(ReproError):
    """An edge/vertex partition request is invalid (e.g. zero parts)."""


class CommunicatorError(ReproError):
    """A collective or point-to-point operation was misused.

    Examples: mismatched collective participation, send to an out-of-range
    rank, or use of a communicator after shutdown.
    """


class WireFormatError(CommunicatorError):
    """An encoded edge block failed to decode.

    Raised by :mod:`repro.distributed.wire` when a payload carries the
    wire magic but its header or varint stream is malformed (truncated
    stream, impossible varint length, count mismatch).  In practice this
    only happens when fault injection corrupts a message, so the
    supervisor treats it as retryable like any other
    :class:`CommunicatorError`.
    """


class CollectiveOrderError(CommunicatorError):
    """Ranks diverged in their collective call sequence.

    Raised by the runtime sentinel (:mod:`repro.distributed.checked`)
    instead of letting the mismatched world deadlock; the message names
    the divergent call sites on both ranks.
    """


class RankCrashError(CommunicatorError):
    """A rank was deliberately killed by the fault-injection harness.

    Raised by :class:`repro.distributed.faults.FaultyCommunicator` at the
    Nth communication operation of a rank scheduled to crash; the
    supervised launcher treats it like any other rank death (retryable).
    """


class RankFailedError(CommunicatorError):
    """A rank program raised; the launcher cancelled the world.

    ``rank`` is the failing rank and ``original_type`` the exception class
    name raised inside the rank program (the process backend ships
    tracebacks as strings, so only the name survives the hop).
    ``transient`` is :func:`is_transient` of that exception, judged inside
    the failing rank while it was still alive -- the one verdict the
    supervisor retries on, whichever backend carried the rank.

    ``heartbeat_age_s``/``address`` are populated only when the failure
    crossed the socket backend (they enrich the message with the peer's
    last-heartbeat age and TCP address); thread/process failures leave
    them ``None`` and their messages unchanged.
    """

    def __init__(
        self,
        rank: int,
        original_type: str,
        detail: str,
        *,
        transient: bool = False,
        heartbeat_age_s: float | None = None,
        address: str | None = None,
    ) -> None:
        message = f"rank {rank} failed ({original_type}):\n{detail}"
        if address is not None:
            age = (
                f"last heartbeat {heartbeat_age_s:.2f}s before the failure"
                if heartbeat_age_s is not None
                else "no heartbeat ever received"
            )
            message += f"\n[socket peer {address}; {age}]"
        super().__init__(message)
        self.rank = rank
        self.original_type = original_type
        self.transient = transient
        self.heartbeat_age_s = heartbeat_age_s
        self.address = address


class RankDiedError(CommunicatorError):
    """A rank process vanished without reporting a result.

    Raised by the process backend's liveness monitor when a child exits
    (segfault, OOM kill, ``kill -9``) before putting anything on the
    result queue; ``ranks`` names the dead ranks.  The socket backend
    raises it too -- from the heartbeat/reconnect failure detector -- and
    then attaches ``heartbeat_age_s`` (seconds since the peer's last
    heartbeat, ``None`` if none ever arrived) and ``address`` (the peer's
    ``host:port``); thread/process messages are built by their callers
    and stay unchanged.
    """

    def __init__(
        self,
        message: str,
        ranks: tuple[int, ...] = (),
        *,
        heartbeat_age_s: float | None = None,
        address: str | None = None,
    ) -> None:
        super().__init__(message)
        self.ranks = tuple(ranks)
        self.heartbeat_age_s = heartbeat_age_s
        self.address = address


class CheckpointError(ReproError):
    """A shard checkpoint is unusable or contradicts a re-execution.

    Raised when a recovered shard's content digest does not match the
    digest recorded at checkpoint time, or when a re-executed shard
    produces output whose digest differs from the persisted one --
    deterministic generation makes either a hard error, never retryable.
    """


class CheckpointCorruptionError(CheckpointError):
    """A persisted artifact was damaged at rest and has been discarded.

    Raised for truncated/corrupted ``.npz`` shards and manifest digest
    mismatches discovered while *loading*.  Unlike its parent -- which the
    supervisor treats as a hard determinism violation -- corruption at
    rest is transient by construction: the loader deletes the damaged
    artifact before raising, so a supervised retry regenerates the shard
    from scratch and recovers bit-identically.
    """


def is_transient(exc: BaseException) -> bool:
    """Transient infrastructure failure (retry) vs. deterministic bug (raise).

    Communicator failures -- timeouts, crashed or dead ranks, collective
    divergence, corrupted wire blocks -- and corruption *at rest* (the
    loader already deleted the damaged artifact) are cured by running
    again; anything else a rank program raises would fail the same way
    every time.  A :class:`RankFailedError` answers for the exception it
    wraps.
    """
    if isinstance(exc, RankFailedError):
        return exc.transient
    return isinstance(exc, (CommunicatorError, CheckpointCorruptionError))


class ServiceError(ReproError):
    """A ground-truth query-service request failed.

    Structured: ``digest`` names the content address involved (a factor or
    graph digest, hex string), ``property`` the analytics property, and
    ``params`` the request parameters -- so the service can emit machine-
    readable error bodies and operators can alert on fields instead of
    parsing messages.  ``http_status``/``code`` give every subclass a
    *deterministic* HTTP mapping: the same failure always produces the
    same status line and JSON ``error`` code.
    """

    http_status = 500
    code = "service_error"

    def __init__(
        self,
        message: str,
        *,
        digest: str | None = None,
        property: str | None = None,
        params: dict | None = None,
    ) -> None:
        super().__init__(message)
        self.digest = digest
        self.property = property
        self.params = params

    def context(self) -> dict:
        """The non-``None`` structured fields, for JSON error bodies."""
        out: dict = {}
        if self.digest is not None:
            out["digest"] = self.digest
        if self.property is not None:
            out["property"] = self.property
        if self.params is not None:
            out["params"] = self.params
        return out


class RequestError(ServiceError):
    """A request was malformed (bad JSON, missing field, bad vertex id)."""

    http_status = 400
    code = "bad_request"


class TenantNotFoundError(ServiceError):
    """A request named a tenant that has registered nothing."""

    http_status = 404
    code = "tenant_not_found"

    def __init__(self, tenant: str, **kw) -> None:
        super().__init__(f"unknown tenant {tenant!r}", **kw)
        self.tenant = tenant


class GraphNotFoundError(ServiceError):
    """A request named a graph digest the tenant never registered."""

    http_status = 404
    code = "graph_not_found"


class ExperimentError(ReproError):
    """An experiment driver was configured inconsistently."""


class ReproWarning(UserWarning):
    """Base class for warnings emitted by :mod:`repro`."""


class DegradationWarning(ReproWarning):
    """A subsystem fell back to a slower but functional path.

    Structured: ``component`` names what degraded, ``fallback`` what it
    degraded to, and ``reason`` why -- so operators can alert on the
    fields rather than parse the message.
    """

    def __init__(self, component: str, fallback: str, reason: str) -> None:
        super().__init__(
            f"{component}: {reason}; degrading to {fallback}"
        )
        self.component = component
        self.fallback = fallback
        self.reason = reason
