"""The SPMD rule families.

Importing this package registers every rule with the framework
registries (:func:`repro.lint.core.register` for file rules,
:func:`repro.lint.core.register_program` for program rules).

File rules (one AST pass per file):

``dtype-overflow`` (warning)
    Kronecker index arithmetic must stay int64; allocations in the index
    path need explicit dtypes.
``determinism`` (warning)
    ground-truth output must not depend on set iteration order, global
    ``np.random`` state, or time-derived seeds.
``timeout-literal`` (error)
    distributed waits must derive from ``recv_timeout()`` so one
    environment variable rescales the whole failure-detection ladder;
    bare numeric ``timeout=`` literals are flagged.
``wall-clock`` (warning)
    distributed code must take time from the injected clocks of
    :mod:`repro.telemetry.clock`, not ``time.time()`` /
    ``time.perf_counter()`` directly, so traces stay deterministic
    under a fake clock.

Program rules (run over the communication IR of every analyzed file at
once; see :mod:`repro.lint.ir` and :mod:`repro.lint.callgraph`):

``collective-symmetry`` (error)
    collectives reachable only under rank-dependent control flow deadlock
    the world.
``protocol-divergence`` (error)
    a rank-guarded call reaches a collective down its call chain.
``protocol-leak`` (error)
    a nonblocking request is discarded, rebound, or left in flight on
    some path.
``inflight-buffer`` (error)
    a buffer passed to ``alltoall_start`` is mutated before the request
    completes.
``protocol-inflight`` (error)
    the same, with the start inside a helper that returned the request.
``buffer-ownership`` (error)
    buffers received from collectives/``recv``/``wait()`` may be shared
    read-only views and must not be mutated in place.
"""

from repro.lint.rules.collectives import CollectiveSymmetryRule
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.dtypes import DtypeOverflowRule
from repro.lint.rules.protocol import (
    BufferOwnershipRule,
    InflightBufferRule,
    ProtocolDivergenceRule,
    ProtocolInflightRule,
    ProtocolLeakRule,
)
from repro.lint.rules.timeouts import TimeoutLiteralRule
from repro.lint.rules.wallclock import WallClockRule

__all__ = [
    "CollectiveSymmetryRule",
    "BufferOwnershipRule",
    "DtypeOverflowRule",
    "DeterminismRule",
    "TimeoutLiteralRule",
    "WallClockRule",
    "ProtocolDivergenceRule",
    "ProtocolLeakRule",
    "InflightBufferRule",
    "ProtocolInflightRule",
]
