"""Supervised SPMD execution: retry, the persisted run, chaos harness.

:func:`spmd_run_supervised` is a drop-in replacement for
:func:`repro.distributed.launcher.spmd_run` that adds the recovery layer
the bare launcher deliberately lacks:

* **whole-run retry with exponential backoff** on communicator failures
  (timeouts, rank crashes, dead child processes, collective divergence) --
  rank-program bugs (``ValueError`` in user code, checkpoint digest
  mismatches) are *not* retried, they re-raise immediately;
* **deterministic fault injection** via a
  :class:`~repro.distributed.faults.FaultPlan` -- each attempt re-binds the
  plan to its attempt number, so probabilistic faults reroll and scheduled
  faults disarm once ``fault_attempts`` is exhausted.

There is one driver per job, each taking the run's source -- a
:class:`~repro.distributed.generator.KronPair` or an ``SKGSpec`` -- the
same way.  In memory, retry alone is the generator's own driver with this
launcher as its ``runner`` (``generate_distributed(...,
runner=functools.partial(spmd_run_supervised, ...))``).
:func:`generate_to_directory` is the *persisted* run: every rank writes its
shard through the one sink
(:class:`~repro.distributed.checkpoint.CheckpointedRankFn`), a retry
re-executes only missing or damaged shards, and a shard that *is*
re-executed (because peers need its collective traffic) is verified
bit-for-bit against the recorded digest;
:meth:`~repro.distributed.checkpoint.CheckpointStore.load_run` reads it
back.  :func:`run_chaos_matrix` drives a seeded fault matrix through that
persisted run, asserting every cell recovers to output bit-identical
(canonical edge order) to the source's serial product -- the
``repro-kron chaos`` subcommand.
"""

from __future__ import annotations

import contextlib
import functools
import os
import random
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.distributed import faults
from repro.distributed.checkpoint import (
    CheckpointedRankFn,
    CheckpointStore,
    RunManifest,
    elastic_pre_attempt,
    generation_family_key,
    generation_run_key,
)
from repro.distributed.comm import RECV_TIMEOUT_ENV, decorrelated_jitter
from repro.distributed.faults import FaultPlan
from repro.distributed.generator import (
    GenerationPlan,
    KronPair,
    Source,
    generate_rank,
)
from repro.distributed.launcher import spmd_run
from repro.errors import ReproError, is_transient
from repro.graph.edgelist import canonical_order
from repro.kronecker.product import DEFAULT_CHUNK, kron_product
from repro.telemetry.clock import monotonic
from repro.telemetry.session import TelemetrySession

__all__ = [
    "SupervisorReport",
    "spmd_run_supervised",
    "decorrelated_jitter",
    "generate_to_directory",
    "ChaosOutcome",
    "ChaosReport",
    "run_chaos_matrix",
]

#: The backoff envelope between attempts: each retry may wait up to
#: ``_BACKOFF_FACTOR`` times the previous delay, never more than
#: ``_BACKOFF_MAX`` seconds.
_BACKOFF_FACTOR = 2.0
_BACKOFF_MAX = 2.0


@dataclass
class SupervisorReport:
    """What a supervised run did (filled in place by the supervisor)."""

    attempts: int = 0
    failures: list[str] = field(default_factory=list)

    def record_failure(self, attempt: int, exc: BaseException) -> None:
        first_line = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        self.failures.append(f"attempt {attempt}: {first_line}")


def spmd_run_supervised(
    fn,
    nranks: int,
    *args,
    fault_plan: FaultPlan | None = None,
    max_attempts: int = 3,
    backoff_base: float = 0.05,
    report: SupervisorReport | None = None,
    telemetry=None,
    local_ranks: tuple[int, ...] | None = None,
    pre_attempt=None,
    **launch,
) -> list:
    """Run ``fn`` across ``nranks`` ranks under supervision.

    Drop-in for :func:`spmd_run` (same positional contract, returns
    per-rank results in rank order; ``launch`` takes its ``backend``,
    ``checked`` and ``rendezvous``, forwarded to every attempt), plus:

    fault_plan:
        Inject this :class:`FaultPlan` (re-bound to each attempt number)
        beneath the collective-order sentinel.
    max_attempts:
        Total attempts before the last failure re-raises.  Only transient
        failures (:func:`repro.errors.is_transient`, judged on the live
        exception inside the failing rank, whatever the backend) are
        retried.
    backoff_base:
        Seconds slept before the first retry; later retries draw
        decorrelated jitter within the exponential envelope
        (:func:`decorrelated_jitter`) so simultaneous multi-rank failures
        do not retry in lockstep.
    report:
        Optional :class:`SupervisorReport` filled with attempt counts and
        per-attempt failure summaries.
    telemetry:
        Optional :class:`~repro.telemetry.session.TelemetrySession`,
        forwarded to every :func:`spmd_run` attempt.  Retries additionally
        land on the session's supervisor lane as instant events (attempt
        number, error, backoff), so a recovered run's trace shows *why* it
        took the time it took.
    local_ranks:
        Socket backend only; forwarded to every :func:`spmd_run` attempt
        (the share of a multi-host world this invocation launches).  A
        partial world makes one attempt: its peers on the other hosts
        would not retry with it.
    pre_attempt:
        Optional ``pre_attempt(attempt)`` callable run *inside* each
        attempt's try block, before the launch -- the elastic-resume hook:
        a transient failure it raises (e.g.
        :class:`CheckpointCorruptionError` from resharding damaged
        checkpoints) is retried like any launch failure.
    """
    if max_attempts < 1:
        raise ReproError(f"max_attempts must be >= 1, got {max_attempts}")
    if local_ranks is not None:
        max_attempts = 1
    rng = random.Random()
    delay = backoff_base
    for attempt in range(max_attempts):
        if report is not None:
            report.attempts = attempt + 1
        wrap = fault_plan.binder(attempt) if fault_plan is not None else None
        try:
            if pre_attempt is not None:
                pre_attempt(attempt)
            results = spmd_run(
                fn,
                nranks,
                *args,
                wrap_comm=wrap,
                telemetry=telemetry,
                local_ranks=local_ranks,
                **launch,
            )
        except ReproError as exc:
            if report is not None:
                report.record_failure(attempt, exc)
            retrying = is_transient(exc) and attempt + 1 < max_attempts
            if telemetry is not None:
                telemetry.record(
                    "supervisor.retry" if retrying else "supervisor.giveup",
                    attempt=attempt + 1,
                    error=type(exc).__name__,
                    backoff_s=min(delay, _BACKOFF_MAX) if retrying else 0.0,
                )
            if not retrying:
                raise
            time.sleep(min(delay, _BACKOFF_MAX))
            delay = decorrelated_jitter(
                delay, backoff_base, _BACKOFF_FACTOR, _BACKOFF_MAX, rng
            )
            continue
        if telemetry is not None and attempt:
            telemetry.record("supervisor.recovered", attempts=attempt + 1)
        return results
    raise AssertionError("unreachable")  # pragma: no cover


def generate_to_directory(
    source: Source,
    directory: str | os.PathLike,
    nranks: int,
    *,
    scheme: str = "1d",
    storage: str | None = None,
    backend: str = "thread",
    chunk_size: int = DEFAULT_CHUNK,
    pipeline: str = "sync",
    wire: str = "raw",
    telemetry=None,
    **retry,
) -> RunManifest:
    """Generate ``source`` across ranks into one shard file per rank.

    The persisted, supervised run -- what ``repro-kron generate`` runs,
    traced or not.  ``scheme`` ... ``wire`` are the :class:`GenerationPlan`
    axes and ``retry`` takes :func:`spmd_run_supervised`'s ``fault_plan``,
    ``max_attempts``, ``report``, ``rendezvous`` and ``local_ranks``.

    Each rank leaves its shard in the store through
    :class:`CheckpointedRankFn`, under a run key folded from the source's
    key and the plan, and reports O(1) scalars; the parent folds them into
    the :class:`RunManifest` it persists and returns -- it hashes nothing
    and never holds an edge.  A retry, or a later call with the same
    configuration, re-executes only missing or damaged shards
    (``plan.shard_mode``).  Before each attempt of an exchanging plan
    :func:`elastic_pre_attempt` re-partitions a same-family manifest
    written at another rank count, so the resumed run restores every shard
    and generates nothing whether the world shrank or grew; shards of a
    non-exchanging plan have no ownership map (they live where the
    *partition* put them) and are not eligible.  A partial world's
    manifest covers the shards written on this host only and is not
    persisted: no host can vouch for the whole run.

    ``CheckpointStore(directory).load_run(manifest)`` reassembles the
    product, every shard digest-checked, for verification at test scale.
    A rank holds its shard whole before writing it (``.npz`` is not
    appendable), so peak memory per rank is ``|E_C| / R`` edges while
    ``chunk_size`` bounds the kernel's temporaries.
    """
    plan = GenerationPlan(
        scheme, storage, chunk_size, pipeline, wire, source=source
    )
    cells = plan.partition(nranks)
    run_key = generation_run_key(plan, nranks)
    family = generation_family_key(plan)
    sink = CheckpointedRankFn(generate_rank, directory, run_key, plan.shard_mode)
    pre_attempt = None
    if plan.exchanges:
        pre_attempt = functools.partial(
            elastic_pre_attempt, sink.store, run_key, family, nranks, telemetry
        )
    # O(1) scalars per rank; ranks launched on other hosts report None.
    shards = spmd_run_supervised(
        sink, nranks, plan, cells,
        backend=backend, telemetry=telemetry, pre_attempt=pre_attempt,
        **retry,
    )
    manifest = RunManifest.from_shards(
        run_key, family, source.n, plan.effective_storage, shards
    )
    if None not in shards:
        sink.store.put_manifest(manifest)
    return manifest


# --------------------------------------------------------------------- #
# chaos harness
# --------------------------------------------------------------------- #
def canonical_edges(edges: np.ndarray) -> np.ndarray:
    """Edges in canonical (lexicographic) row order for bit-comparison.

    Distributed reassembly order varies with world size and backend; the
    canonical sort makes "same multiset" checkable as array equality.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return canonical_order(edges, int(edges.max()) + 1 if edges.size else 0)


@dataclass(frozen=True)
class ChaosOutcome:
    """One (plan, backend) cell of the chaos matrix."""

    plan: str
    backend: str
    recovered: bool
    identical: bool
    attempts: int
    error: str = ""
    #: Wall time of the whole cell -- including retries and backoff -- so
    #: a report shows recovery *cost*, not just recovery success.
    elapsed_s: float = 0.0
    #: Socket-backend recovery work observed in the cell: TCP reconnects
    #: completed and in-flight frames replayed after them.  Zero on
    #: thread/process cells, which have no connections to heal.
    reconnects: int = 0
    replays: int = 0

    @property
    def ok(self) -> bool:
        return self.recovered and self.identical


@dataclass
class ChaosReport:
    """Every cell of one chaos-matrix run."""

    outcomes: list[ChaosOutcome] = field(default_factory=list)

    @property
    def all_recovered(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def to_text(self) -> str:
        """One row per cell.  The plan and backend columns fit their
        longest label plus a space (at least 16 and 9 characters)."""
        plan_w = max([15, *(len(o.plan) for o in self.outcomes)]) + 1
        backend_w = max([8, *(len(o.backend) for o in self.outcomes)]) + 1
        lines = [
            f"{'plan':<{plan_w}}{'backend':<{backend_w}}"
            f"{'attempts':>9}{'elapsed':>9}  status"
        ]
        for o in self.outcomes:
            if o.ok:
                status = "recovered, bit-identical"
            elif o.recovered:
                status = "RAN BUT OUTPUT DIVERGED"
            else:
                status = f"FAILED: {o.error}"
            lines.append(
                f"{o.plan:<{plan_w}}{o.backend:<{backend_w}}"
                f"{o.attempts:>9}{o.elapsed_s:>8.2f}s  {status}"
            )
        good = sum(o.ok for o in self.outcomes)
        lines.append(f"{good}/{len(self.outcomes)} cells recovered")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """Machine-readable report (``repro-kron chaos --json``)."""
        return {
            "cells": [{**asdict(o), "ok": o.ok} for o in self.outcomes],
            "cells_ok": sum(o.ok for o in self.outcomes),
            "cells_total": len(self.outcomes),
            "all_recovered": self.all_recovered,
        }


def _sock_repair_counts(tel) -> dict[str, int]:
    """Reconnect/replay counts harvested from a cell's telemetry session.

    Sums the per-rank ``sock.*`` counters the socket backend reports at
    finalize; a ``None`` session (non-socket cell) contributes zeros.
    """
    if tel is None:
        return {"reconnects": 0, "replays": 0}
    counters = tel.aggregated_metrics().get("counters", {})
    return {
        "reconnects": int(counters.get("sock.reconnects", 0)),
        "replays": int(counters.get("sock.replayed", 0)),
    }


def run_chaos_matrix(
    source: Source,
    nranks: int = 4,
    *,
    plans: list[FaultPlan] | None = None,
    seed: int = 0,
    backends: tuple[str, ...] = ("thread", "process"),
    recv_timeout_s: float = 2.0,
    max_attempts: int = 4,
    checkpoint_root: str | os.PathLike | None = None,
    rendezvous: str | None = None,
    **generation,
) -> ChaosReport:
    """Drive every fault plan against the persisted run of ``source``.

    Each plan x backend cell is the run ``repro-kron generate`` executes:
    :func:`generate_to_directory` under the plan, into the cell's own
    directory under ``checkpoint_root`` (``None``: a temporary directory,
    removed afterwards), read back through :meth:`CheckpointStore.load_run`
    and compared, in canonical edge order, bit-for-bit with the source's
    serial product -- ``kron_product`` of a :class:`KronPair`,
    ``skg_sample_edges`` of an SKG spec -- computed once.  A recovered
    cell is the right answer, not just the fault-free run's answer.

    ``plans`` defaults per backend: socket cells run
    :func:`~repro.distributed.faults.socket_fault_matrix`, the others
    :func:`~repro.distributed.faults.default_fault_matrix`, seeded by
    ``seed``.  ``recv_timeout_s`` pins ``REPRO_RECV_TIMEOUT`` for the
    duration so dropped-message timeouts resolve in seconds, not minutes.
    ``generation`` takes the :class:`GenerationPlan` axes (``storage``
    defaults to ``"source_block"`` here): ``pipeline``/``wire`` select the
    async double-buffered loop and the varint wire format
    (``scheme="1d-pipelined"`` required for ``pipeline="async"``), so the
    matrix can prove fault recovery with a round in flight too.  A socket
    cell's outcome carries the reconnect/replay counts the
    connection-healing machinery reported.
    """
    from unittest import mock  # lazy: only the harness pins the environment

    generation.setdefault("storage", "source_block")
    GenerationPlan(**generation, source=source)  # refuse a bad axis up front
    if isinstance(source, KronPair):
        product = kron_product(source.a, source.b)
    else:
        from repro.skg.sample import skg_sample_edges  # repro.skg imports us

        product = skg_sample_edges(source)
    reference = canonical_edges(product.edges)

    def matrix(backend: str) -> list[FaultPlan]:
        if plans is not None:
            return plans
        # Read at call time, so a patched matrix is the one that runs.
        if backend == "socket":
            return faults.socket_fault_matrix(seed=seed, nranks=nranks)
        return faults.default_fault_matrix(seed=seed, nranks=nranks)

    # Plan-major, each plan's backends in the order given.
    cells = sorted(
        ((i, plan, backend) for backend in backends
         for i, plan in enumerate(matrix(backend))),
        key=lambda cell: cell[0],
    )
    report = ChaosReport()
    pinned = {RECV_TIMEOUT_ENV: str(recv_timeout_s)}
    scratch = (
        tempfile.TemporaryDirectory(prefix="repro-chaos-")
        if checkpoint_root is None else contextlib.nullcontext(checkpoint_root)
    )
    with mock.patch.dict(os.environ, pinned), scratch as root:
        for i, plan, backend in cells:
            sup = SupervisorReport()
            # Socket cells get their own telemetry session purely to
            # harvest sock.* counters; thread/process cells stay
            # un-instrumented so their comm-op indices (and therefore
            # the targeted fault schedules) are unchanged.
            tel = TelemetrySession() if backend == "socket" else None
            directory = Path(root) / f"{i:02d}-{plan.label()}-{backend}"
            recovered = identical = False
            error = ""
            t0 = monotonic()
            try:
                manifest = generate_to_directory(
                    source, directory, nranks, backend=backend,
                    telemetry=tel, fault_plan=plan, max_attempts=max_attempts,
                    report=sup,
                    rendezvous=rendezvous if backend == "socket" else None,
                    **generation,
                )
                el = CheckpointStore(directory).load_run(manifest)
            except ReproError as exc:
                error = str(exc).splitlines()[0]
            else:
                recovered = True
                identical = np.array_equal(canonical_edges(el.edges), reference)
            report.outcomes.append(
                ChaosOutcome(
                    plan=plan.label(), backend=backend,
                    recovered=recovered, identical=identical,
                    attempts=sup.attempts, error=error,
                    elapsed_s=monotonic() - t0,
                    **_sock_repair_counts(tel),
                )
            )
    return report
