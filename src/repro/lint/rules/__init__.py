"""The SPMD rule families.

Importing this package registers every rule with the framework
registries (:func:`repro.lint.core.register` for file rules,
:func:`repro.lint.core.register_program` for program rules).

File rules (one AST pass per file):

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
``protocol-leak`` (error)
    a nonblocking request is discarded, rebound, or left in flight on
    some path.
``buffer-ownership`` (error)
    buffers received from collectives/``recv``/``wait()`` may be shared
    read-only views and must not be mutated in place.

Each rule is the only checker that catches some row of the seeded
protocol-bug corpus (``tests/fixtures/mutants``) as fast; see DESIGN.md
section 6.
"""

from repro.lint.rules.collectives import CollectiveSymmetryRule
from repro.lint.rules.protocol import BufferOwnershipRule, ProtocolLeakRule
from repro.lint.rules.timeouts import TimeoutLiteralRule
from repro.lint.rules.wallclock import WallClockRule

__all__ = [
    "CollectiveSymmetryRule",
    "BufferOwnershipRule",
    "TimeoutLiteralRule",
    "WallClockRule",
    "ProtocolLeakRule",
]
