"""Deterministic fault injection for the SPMD runtime.

The paper's generator ran on up to 1.57M cores, where rank death and
message loss are routine; this module makes those failures *reproducible*
so the recovery machinery (:mod:`repro.distributed.supervisor`) can be
tested like any other code path.  A :class:`FaultPlan` is a frozen,
seed-driven schedule of faults; :class:`FaultyCommunicator` wraps any
backend's communicator and injects the plan's faults into the message
stream.  Every decision is a pure function of
``(seed, rank, attempt, op index)`` via the splitmix64 hashing of
:mod:`repro.util.hashing` -- never of wall clock or scheduler order -- so
a chaos run replays bit-for-bit.

Fault taxonomy
--------------
``delay``
    sleep before a communication op (scaled by a deterministic uniform).
    Tolerated in-run: the op still completes.
``drop``
    a send silently vanishes.  Not recoverable in-run: the receiver times
    out (:func:`repro.distributed.comm.recv_timeout`) and the supervised
    launcher retries the world.
``crash``
    :class:`~repro.errors.RankCrashError` is raised at the Nth
    communication op of the scheduled rank, modelling rank death.
    Recovered by supervised retry (+ shard checkpoints).

Faults are *armed* only while ``attempt < plan.fault_attempts``
(default 1), so a whole-run retry under the same plan is guaranteed to
converge: attempt 0 suffers the faults, attempt 1 runs clean.  Plans for
in-run-tolerated faults (delay) may set ``fault_attempts``
high to prove tolerance without any retry.

Composition: the launcher applies fault wrapping *beneath* the
collective-order sentinel (``CheckedCommunicator(FaultyCommunicator(base))``),
so injected faults flow through checked collectives like real ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.distributed.comm import Communicator, DelegatingCommunicator
from repro.errors import RankCrashError
from repro.util.hashing import edge_uniform

__all__ = [
    "FaultPlan",
    "FaultyCommunicator",
    "FaultCounters",
    "PlanBinder",
    "default_fault_matrix",
    "socket_fault_matrix",
]

# Sub-seed offsets so drop/delay decisions draw independent streams.
_KIND_DROP = 0x10001
_KIND_DELAY = 0x30003
_KIND_DELAY_AMOUNT = 0x40004
_KIND_DISCONNECT = 0x50005
_KIND_PARTITION = 0x60006


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible schedule of communication faults.

    Probabilistic rates (``*_prob``) draw per-op uniforms from the seeded
    hash stream; targeted schedules (``*_at``, tuples of
    ``(rank, op_index)`` pairs) fire unconditionally, which is what the
    chaos matrix uses to guarantee coverage.  A ``drop_at`` entry fires
    once, at the first *send* whose op index is at or past the
    scheduled one -- sends interleave with recvs and barriers in
    workload-dependent order, and "at or after op N" keeps the entry from
    silently missing when op N happens to be a recv.  ``delay_at`` matches
    op indices exactly (every op kind can delay).  ``crash_rank`` raises
    :class:`~repro.errors.RankCrashError` at the first comm op whose index
    is ``>= crash_at`` on that rank.  Op indices count the wrapped rank's
    primitive communicator calls (``send``/``recv``/``barrier``) in
    program order; collectives decompose into these, so a crash "inside an
    alltoall" is expressible.
    """

    seed: int = 0
    name: str = ""
    drop_prob: float = 0.0
    delay_prob: float = 0.0
    delay_s: float = 0.0
    drop_at: tuple[tuple[int, int], ...] = ()
    delay_at: tuple[tuple[int, int], ...] = ()
    crash_rank: int | None = None
    crash_at: int = 0
    #: Socket-level fault kinds (no-ops on backends without the hooks):
    #: ``disconnect_at`` abruptly closes one peer connection at the first
    #: comm op at-or-after the scheduled index (the socket backend
    #: self-heals via reconnect + replay, so runs recover *in-run*);
    #: ``partition_at`` severs the link permanently (no reconnect is ever
    #: accepted -- both sides declare the peer dead and supervised retry
    #: recovers); ``slow_rank`` stalls every DATA frame that rank sends by
    #: ``slow_s`` seconds (heartbeats keep flowing, so slowness is not
    #: mistaken for death).
    disconnect_at: tuple[tuple[int, int], ...] = ()
    partition_at: tuple[tuple[int, int], ...] = ()
    slow_rank: int | None = None
    slow_s: float = 0.0
    #: Faults fire only on attempts < this (1 = first attempt only).
    fault_attempts: int = 1

    def binder(self, attempt: int = 0) -> "PlanBinder":
        """A picklable per-attempt communicator wrapper for the launcher."""
        return PlanBinder(self, attempt)

    def label(self) -> str:
        if self.name:
            return self.name
        kinds = []
        if self.drop_prob or self.drop_at:
            kinds.append("drop")
        if self.delay_prob or self.delay_at:
            kinds.append("delay")
        if self.crash_rank is not None:
            kinds.append(f"crash@r{self.crash_rank}")
        if self.disconnect_at:
            kinds.append("disconnect")
        if self.partition_at:
            kinds.append("partition")
        if self.slow_rank is not None:
            kinds.append(f"slow@r{self.slow_rank}")
        return "+".join(kinds) or "noop"


@dataclass(frozen=True)
class PlanBinder:
    """Bind a plan to an attempt number; callable per-rank wrapper.

    Module-level and frozen so the process backend can ship it to
    children; the launcher calls it once per rank communicator.
    """

    plan: FaultPlan
    attempt: int = 0

    def __call__(self, comm: Communicator) -> "FaultyCommunicator":
        return FaultyCommunicator(comm, self.plan, attempt=self.attempt)


@dataclass
class FaultCounters:
    """What one wrapped rank actually injected (for tests/diagnostics)."""

    ops: int = 0
    dropped: int = 0
    delayed: int = 0
    crashes: int = 0
    disconnects: int = 0
    partitions: int = 0


class FaultyCommunicator(DelegatingCommunicator):
    """Inject a :class:`FaultPlan` into any communicator's message stream.

    Point-to-point ``send``/``recv`` and ``barrier`` are wrapped; the
    collectives inherit the :class:`Communicator` base implementations and
    therefore route through the faulty primitives, so faults reach
    collective traffic on every backend.  ``barrier`` delegates to the
    inner backend's (possibly native) implementation and counts as one op.

    The split-phase ``alltoall_start``/``alltoall_finish`` is likewise
    inherited: the base issues sends through :meth:`send` (so
    drops/delays/crashes fire while the phase is in flight) and
    defers receives into the returned request, whose ``wait()`` runs
    through :meth:`recv` -- injected faults hit the split-phase exchange
    with no extra plumbing here.
    """

    def __init__(
        self,
        inner: Communicator,
        plan: FaultPlan,
        *,
        attempt: int = 0,
    ) -> None:
        super().__init__(inner)
        self._plan = plan
        self._attempt = int(attempt)
        self._armed = self._attempt < plan.fault_attempts
        self._fired: set[tuple[int, tuple[int, int]]] = set()
        self.counters = FaultCounters()
        if self._armed and plan.slow_rank == inner.rank and plan.slow_s > 0:
            # Slow-peer fault: installed once at construction; a backend
            # without the hook (thread/process) ignores the plan entry.
            setter = getattr(inner, "set_send_delay", None)
            if setter is not None:
                setter(plan.slow_s)

    # ---- deterministic decisions ----------------------------------------
    def _uniform(self, kind: int, op: int) -> float:
        # One scalar hash per decision: (op, rank/attempt) under a
        # kind-offset seed.  Scheduler-independent by construction.
        u = edge_uniform(
            np.uint64(op),
            np.uint64((self.rank << 32) ^ self._attempt),
            seed=self._plan.seed + kind,
            directed=True,
        )
        return float(u)

    def _send_fault(
        self,
        targeted: tuple[tuple[int, int], ...],
        prob: float,
        kind: int,
        op: int,
    ) -> bool:
        """Does a targeted-or-probabilistic send fault fire at ``op``?

        Each targeted entry fires once, at the first send with op index at
        or past the scheduled one (see :class:`FaultPlan`).
        """
        for entry in targeted:
            r, at = entry
            if r == self.rank and op >= at and (kind, entry) not in self._fired:
                self._fired.add((kind, entry))
                return True
        return prob > 0 and self._uniform(kind, op) < prob

    def _next_op(self) -> int:
        op = self.counters.ops
        self.counters.ops += 1
        if not self._armed:
            return op
        plan = self._plan
        if plan.crash_rank == self.rank and op >= plan.crash_at:
            self.counters.crashes += 1
            raise RankCrashError(
                f"injected crash: rank {self.rank} scheduled to die at comm "
                f"op {plan.crash_at} (attempt {self._attempt}, plan "
                f"'{plan.label()}', seed {plan.seed})"
            )
        if (self.rank, op) in plan.delay_at or (
            plan.delay_prob > 0
            and self._uniform(_KIND_DELAY, op) < plan.delay_prob
        ):
            self.counters.delayed += 1
            time.sleep(plan.delay_s * self._uniform(_KIND_DELAY_AMOUNT, op))
        for entry in plan.disconnect_at:
            r, at = entry
            if (
                r == self.rank
                and op >= at
                and (_KIND_DISCONNECT, entry) not in self._fired
            ):
                self._fired.add((_KIND_DISCONNECT, entry))
                hook = getattr(self._inner, "inject_disconnect", None)
                if hook is not None:
                    self.counters.disconnects += 1
                    hook()
        for entry in plan.partition_at:
            r, at = entry
            if (
                r == self.rank
                and op >= at
                and (_KIND_PARTITION, entry) not in self._fired
            ):
                self._fired.add((_KIND_PARTITION, entry))
                hook = getattr(self._inner, "inject_partition", None)
                if hook is not None:
                    self.counters.partitions += 1
                    hook()
        return op

    # ---- faulty point-to-point ------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        op = self._next_op()
        if self._armed and self._send_fault(
            self._plan.drop_at, self._plan.drop_prob, _KIND_DROP, op
        ):
            self.counters.dropped += 1
            return
        self._inner.send(obj, dest, tag)

    def recv(self, source: int, tag: int = 0) -> Any:
        self._next_op()
        return self._inner.recv(source, tag)

    def barrier(self) -> None:
        self._next_op()
        self._inner.barrier()


def default_fault_matrix(
    seed: int = 0, nranks: int = 4
) -> list[FaultPlan]:
    """The seeded chaos matrix: 9 plans covering every fault kind.

    Targeted faults (fixed ``(rank, op)`` schedules) guarantee each kind
    actually fires on small worlds; the probabilistic plans exercise the
    attempt-reseeded retry path.  Crash/drop plans arm faults on the first
    attempt only, so supervised retry converges deterministically; delay
    plans stay armed on every attempt because the runtime tolerates them
    without a retry.
    """
    last = max(0, nranks - 1)
    tolerated = {"fault_attempts": 1 << 20}
    plans = [
        # -- crashes: first op, mid-stream, late, on different ranks ------
        FaultPlan(seed=seed + 1, name="crash-r0-op0", crash_rank=0, crash_at=0),
        FaultPlan(seed=seed + 2, name="crash-r1-op3", crash_rank=min(1, last),
                  crash_at=3),
        FaultPlan(seed=seed + 3, name=f"crash-r{last}-op5", crash_rank=last,
                  crash_at=5),
        # -- drops: targeted on specific ops, plus a probabilistic plan ---
        FaultPlan(seed=seed + 4, name="drop-r0-op1", drop_at=((0, 1),)),
        FaultPlan(seed=seed + 5, name=f"drop-r{last}-op2",
                  drop_at=((last, 2),)),
        FaultPlan(seed=seed + 6, name="drop-p10", drop_prob=0.10),
        # -- delays: in-run tolerated, armed on every attempt -------------
        FaultPlan(seed=seed + 7, name="delay-all", delay_prob=1.0,
                  delay_s=0.02, **tolerated),
        FaultPlan(seed=seed + 8, name="delay-r1-heavy",
                  delay_at=tuple((min(1, last), op) for op in range(4)),
                  delay_s=0.05, **tolerated),
        # -- compound plan -----------------------------------------------
        FaultPlan(seed=seed + 11, name="drop+delay", drop_at=((0, 2),),
                  delay_prob=0.5, delay_s=0.01),
    ]
    return plans


def socket_fault_matrix(
    seed: int = 0, nranks: int = 4
) -> list[FaultPlan]:
    """Fault plans that exercise the socket backend's recovery machinery.

    Disconnect plans sever a live TCP connection mid-run; the socket
    backend is expected to reconnect and replay in-flight frames, so these
    stay armed on every attempt (tolerated in-run, no retry needed).
    Partition plans are permanent for the attempt -- the victim refuses
    reconnection until the rank is torn down -- so they arm on the first
    attempt only and supervised retry recovers.  Slow-peer plans throttle
    one rank's sends while heartbeats keep flowing, proving liveness
    detection does not misfire on a slow-but-alive peer.

    On non-socket backends the disconnect/partition/slow hooks resolve to
    ``None`` and the plans degrade to no-fault reference runs.
    """
    last = max(0, nranks - 1)
    tolerated = {"fault_attempts": 1 << 20}
    plans = [
        # -- disconnects: self-healing, tolerated within a single run.
        # Firing at op 0 severs the link before the victim-bound data has
        # moved, so the run *must* reconnect and replay to finish -- a
        # later op can land after that peer's sends already completed,
        # quietly testing the happy path instead of the heal.
        FaultPlan(seed=seed + 101, name="sock-disc-r1-op0",
                  disconnect_at=((min(1, last), 0),), **tolerated),
        FaultPlan(seed=seed + 102, name=f"sock-disc-r{last}-op0",
                  disconnect_at=((last, 0),), **tolerated),
        FaultPlan(seed=seed + 103, name="sock-disc-multi",
                  disconnect_at=((0, 0), (min(1, last), 2)), **tolerated),
        # -- partition: permanent for the attempt; supervised retry heals -
        FaultPlan(seed=seed + 104, name="sock-partition-r1",
                  partition_at=((min(1, last), 2),)),
        # -- slow peer: heartbeats keep it alive despite throttled sends --
        FaultPlan(seed=seed + 105, name="sock-slow-r0", slow_rank=0,
                  slow_s=0.02, **tolerated),
    ]
    return plans
