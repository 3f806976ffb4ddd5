"""Generation workloads of the ledger: factors in -> owned edges stored.

Every workload is a factor pair (or an SKG spec) built from the seed plus
the keyword arguments that define it; everything else is left to the
library's defaults so a change of default is measured too.  Two numbers
come out of the untraced run:

* the *kernel* rate: the rank program is timed barrier to barrier on
  every rank through the public ``runner=`` hook (no spawn, no result
  return) and the slowest rank sets the time;
* the *call* time: the wall of the public ``generate_distributed`` /
  ``generate_skg_distributed`` call as its Python caller sees it.

Each rank digests the block it ends up storing after the closing barrier
and the parent compares row count and digest with the serial product on
every repeat, so a wrong answer can never be reported as a fast one.

The traced run re-enacts the rank program layer by layer on the same
per-rank data (see :func:`measure_layers`).
"""

from __future__ import annotations

import inspect
import resource
import sys
import traceback
from dataclasses import dataclass
from functools import partial
from statistics import median
from typing import Callable

import numpy as np

from common import HostProbe, metric, random_graph  # first: puts the library on sys.path

from repro.distributed.costmodel import CostModel
from repro.distributed.generator import RankOutput, generate_distributed
from repro.distributed.launcher import spmd_run
from repro.distributed.netsim import NetworkModel, ThrottledCommunicator
from repro.distributed.partition import partition_edges_1d, partition_edges_2d
from repro.distributed.shuffle import bucket_edges, exchange_edges
from repro.distributed.wire import decode_edges, encode_edges
from repro.graph.datasets import gnutella_like
from repro.graph.edgelist import EdgeList
from repro.kronecker.product import (
    iter_kron_product,
    iter_kron_product_routed,
    kron_product,
    kron_routed_full,
)
from repro.skg.distributed import (
    generate_skg_distributed,
    skg_candidate_factors,
)
from repro.skg.model import SKGSpec
from repro.skg.sample import SKGAcceptor, skg_sample_edges
from repro.telemetry import TelemetrySession
from repro.telemetry.clock import perf_clock
from repro.util.hashing import hash_pair

from tracer import Tracer

__all__ = ["WORKLOADS", "LAYER_UNITS", "measure_end_to_end", "measure_layers"]

#: Two ranks = the two cores of the reference box; more ranks than cores
#: would measure the scheduler.
NRANKS = 2

#: The emulated interconnect of ``gen_stream_wan``: 8 MB/s per link plus
#: 100 us per message, slow enough that bytes cost more than the CPU that
#: compresses them.
WAN = NetworkModel(bandwidth=8e6, latency=100e-6)
_WAN_WRAP = partial(ThrottledCommunicator, model=WAN)

_EMPTY = np.empty((0, 2), dtype=np.int64)
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Inputs:
    """What the program is handed: factors, and the SKG spec if stochastic."""

    a: EdgeList
    b: EdgeList
    spec: SKGSpec | None = None

    @property
    def work(self) -> int:
        """Product edges enumerated (for SKG: candidate pairs)."""
        return self.a.m_directed * self.b.m_directed


@dataclass(frozen=True)
class GenWorkload:
    name: str
    #: ``(seed, smoke) -> Inputs``.
    inputs: Callable[[int, bool], Inputs]
    #: Exactly the keyword arguments that define the workload.
    options: dict
    #: Run under the emulated interconnect (through ``wrap_comm``).
    wan: bool = False


# Sizes: ~4e6 product edges.  At 1.1e7 one repeat on the reference VM
# swings 0.28-1.2 s with first-touch page faults and only four repeats
# fit a run; at 4e6 the kernel already runs at the same 35-39 M edges/s
# and a dozen repeats fit.
def _uniform_pair(seed: int, smoke: bool) -> Inputs:
    # Density 0.2: 1980 directed edges a factor, 3.92e6 in the product.
    n, m = (24, 55) if smoke else (100, 990)
    a = random_graph(n, m, seed)
    # A's rows in arrival order, not sorted by source: the 1-D split is
    # by row, so a sorted A hands each rank the very sources whose block
    # it owns and 0.6% of the product ever crosses between ranks.  In
    # seeded random order half of every rank's edges are owned elsewhere
    # and the exchange carries real bytes.
    rows = np.random.default_rng(seed).permutation(a.edges)
    return Inputs(EdgeList(rows, a.n), random_graph(n, m, seed + 1))


def _scale_free(n: int, keep: int, seed: int) -> EdgeList:
    """``gnutella_like`` cut down to ``keep`` undirected edges plus its loops.

    The generator draws its edge count (819-967 at n = 270) and the product
    of two draws varies by 3%, which the call time would follow; a seeded
    subset of fixed size leaves only the component's vertex count (249-269
    self loops) to vary, 0.5% of the rows.
    """
    graph = gnutella_like(n=n, seed=seed)
    rows = graph.edges
    upper = rows[rows[:, 0] < rows[:, 1]]
    pick = np.random.default_rng(seed).choice(
        len(upper), size=min(keep, len(upper)), replace=False
    )
    loops = rows[rows[:, 0] == rows[:, 1]]
    return EdgeList(np.vstack([loops, upper[pick]]), graph.n).symmetrized()


def _gnutella_pair(seed: int, smoke: bool) -> Inputs:
    n, keep = (40, 90) if smoke else (270, 800)
    return Inputs(_scale_free(n, keep, seed), _scale_free(n, keep, seed + 1))


def _skg(seed: int, smoke: bool) -> Inputs:
    spec = SKGSpec.from_library("polblogs", k=7 if smoke else 11, skg_seed=seed)
    return Inputs(*skg_candidate_factors(spec.k), spec)


_STREAM = {
    "scheme": "1d-pipelined", "pipeline": "async", "wire": "varint",
    "backend": "process",
}

WORKLOADS = {
    w.name: w
    for w in (
        # Fused kron_routed_full + one raw alltoall: the kernel-rate ceiling.
        GenWorkload("gen_block_batch", _uniform_pair, {
            "scheme": "1d", "storage": "source_block", "backend": "process",
        }),
        # Dense expansion, then hash owners + counting scatter, on skewed
        # factors with self loops: the shuffle layer dominates.
        GenWorkload("gen_hash_2d", _gnutella_pair, {
            "scheme": "2d", "storage": "edge_hash", "backend": "process",
        }),
        # Every block encoded and decoded over a free wire: the CPU price
        # of compression.
        GenWorkload("gen_stream_varint", _uniform_pair, _STREAM),
        # The same program where bytes cost time, so compression and
        # overlap pay: guards against "faster by shipping more bytes".
        GenWorkload("gen_stream_wan", _uniform_pair, _STREAM, wan=True),
        # Acceptance filter inside the generate step, tiny stored output,
        # the library's default (thread) backend.
        GenWorkload("gen_skg_hash", _skg, {"storage": "edge_hash"}),
    )
}


# --------------------------------------------------------------------- #
# correctness oracle
# --------------------------------------------------------------------- #
def multiset_digest(edges: np.ndarray) -> int:
    """Order-independent digest: directed row hashes summed mod 2**64."""
    if len(edges) == 0:
        return 0
    hashes = hash_pair(edges[:, 0], edges[:, 1], directed=True)
    return int(hashes.sum(dtype=np.uint64))


def reference(inputs: Inputs) -> tuple[int, int]:
    """Row count and digest of the serial, single-process answer."""
    if inputs.spec is not None:
        product = skg_sample_edges(inputs.spec)
    else:
        product = kron_product(inputs.a, inputs.b)
    return product.m_directed, multiset_digest(product.edges)


# --------------------------------------------------------------------- #
# the two timed entry points
# --------------------------------------------------------------------- #
def _timed_rank(fn, comm, *args):
    """Rank program ``fn`` bracketed by barriers; returns a probe, no edges."""
    comm.barrier()
    t0 = perf_clock()
    out = fn(comm, *args)
    comm.barrier()
    kernel_s = perf_clock() - t0
    return {
        "kernel_s": kernel_s,
        "rows": len(out.edges),
        "digest": multiset_digest(out.edges),
        "generated": out.generated,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


class KernelRunner:
    """``spmd_run``-compatible launcher that times the rank program.

    Handed to the public entry points as ``runner=``: the library still
    partitions and picks the rank program, this only brackets it.  The
    probes stay here; the library gets empty stored blocks back, so no
    edge crosses the process boundary.
    """

    def __init__(self, wrap_comm=None) -> None:
        self.wrap_comm = wrap_comm
        self.probes: list[dict] = []

    def __call__(self, fn, nranks, *args, **kwargs):
        self.probes = spmd_run(
            partial(_timed_rank, fn), nranks, *args,
            wrap_comm=self.wrap_comm, **kwargs,
        )
        return [
            RankOutput(rank, _EMPTY, probe["generated"])
            for rank, probe in enumerate(self.probes)
        ]


def _generate(workload: GenWorkload, inputs: Inputs, runner=None, telemetry=None):
    kwargs = dict(workload.options)
    if runner is not None:
        kwargs["runner"] = runner
    if telemetry is not None:
        kwargs["telemetry"] = telemetry
    if inputs.spec is not None:
        return generate_skg_distributed(inputs.spec, NRANKS, **kwargs)
    return generate_distributed(inputs.a, inputs.b, NRANKS, **kwargs)


def kernel_repeat(workload, inputs, expected, telemetry=None):
    """One barrier-to-barrier repeat: ``(slowest-rank seconds, probes, ok)``."""
    runner = KernelRunner(_WAN_WRAP if workload.wan else None)
    _generate(workload, inputs, runner, telemetry)
    rows = sum(p["rows"] for p in runner.probes)
    digest = sum(p["digest"] for p in runner.probes) & _MASK64
    seconds = max(p["kernel_s"] for p in runner.probes)
    return seconds, runner.probes, (rows, digest) == expected


def call_repeat(workload, inputs, expected):
    """One public call as its caller sees it: ``(wall seconds, ok)``."""
    # generate_distributed has no wrap_comm of its own; the emulated wire
    # goes in through the launcher it is given.
    runner = partial(spmd_run, wrap_comm=_WAN_WRAP) if workload.wan else None
    t0 = perf_clock()
    product, _outputs = _generate(workload, inputs, runner)
    seconds = perf_clock() - t0
    ok = (product.m_directed, multiset_digest(product.edges)) == expected
    return seconds, ok


def setup(workload: GenWorkload, seed: int, smoke: bool):
    """Inputs, serial reference, and one warm-up call (checked)."""
    inputs = workload.inputs(seed, smoke)
    expected = reference(inputs)
    _seconds, ok = call_repeat(workload, inputs, expected)
    if not ok:
        raise RuntimeError(f"{workload.name}: warm-up output != serial product")
    return inputs, expected


def _pair(workload, inputs, expected):
    """One kernel repeat then one public call: seconds, rank probes, wrong."""
    kernel_s, rank_probes, kernel_ok = kernel_repeat(workload, inputs, expected)
    call_s, call_ok = call_repeat(workload, inputs, expected)
    return kernel_s, call_s, rank_probes, (not kernel_ok) + (not call_ok)


def _repeats(workload, inputs, expected, seconds, min_pairs, host):
    """Alternate kernel and call repeats until ``seconds`` are used up.

    Returns the kernel seconds, call seconds and host slowdown of every
    pair, the rank probes, and how many repeats were attempted and how
    many failed (raised or wrong output).
    """
    kernel, calls, slowdowns, probes = [], [], [], []
    attempted = failed = 0
    deadline = perf_clock() + seconds
    while attempted < 2 * min_pairs or perf_clock() < deadline:
        attempted += 2
        try:
            (kernel_s, call_s, rank_probes, wrong), slowdown = host.bracket(
                partial(_pair, workload, inputs, expected)
            )
        except Exception:  # noqa: BLE001 - a repeat that raised is a failed one
            traceback.print_exc(file=sys.stderr)
            failed += 2
            continue
        failed += wrong
        kernel.append(kernel_s)
        calls.append(call_s)
        slowdowns.append(slowdown)
        probes.extend(rank_probes)
    if not kernel:
        raise RuntimeError(f"{workload.name}: every repeat raised")
    return kernel, calls, slowdowns, probes, attempted, failed


def measure_end_to_end(
    workload: GenWorkload, seed: int, seconds: float, smoke: bool
) -> dict:
    """The untraced run of one generation workload."""
    host = HostProbe()
    setups = []
    for _ in range(1 if smoke else 3):
        t0 = perf_clock()
        inputs, expected = setup(workload, seed, smoke)
        setups.append(perf_clock() - t0)
    kernel, calls, slowdowns, _probes, attempted, failed = _repeats(
        workload, inputs, expected, seconds, 1 if smoke else 3, host
    )
    if workload.wan:
        # A third of these seconds is emulated wire, which the host's speed
        # does not stretch; dividing them by the slowdown over-corrects (a
        # 34% spread over ten seeds).  They are reported as measured.
        slowdowns = None
    return {
        "attempted": attempted,
        "failed": failed,
        "host_slowdown": median(host.samples),
        "metrics": {
            "items_per_s": metric(
                "1/s", [inputs.work / s for s in kernel], slowdowns, rate=True
            ),
            "wait_p50_ms": metric("ms", [1e3 * s for s in calls], slowdowns),
            "setup_s": metric("s", setups, pick=min),
        },
    }


# --------------------------------------------------------------------- #
# traced run: the rank program, layer by layer
# --------------------------------------------------------------------- #
#: Per-layer metrics of the generation workloads, with their units.
LAYER_UNITS = {
    "partition.seconds": "s",
    "product.routed.seconds": "s",
    "product.routed.edges_per_s": "1/s",
    "product.rounds": "count",
    "product.dense.seconds": "s",
    "product.dense.edges_per_s": "1/s",
    "shuffle.bucket.seconds": "s",
    "shuffle.bucket.edges_per_s": "1/s",
    "shuffle.imbalance": "ratio",
    "skg.accept.seconds": "s",
    "skg.accept.candidates_per_s": "1/s",
    "skg.accept.rate": "fraction",
    "wire.encode.seconds": "s",
    "wire.encode.edges_per_s": "1/s",
    "wire.decode.seconds": "s",
    "wire.decode.edges_per_s": "1/s",
    "wire.bytes_ratio": "ratio",
    "comm.exchange.seconds": "s",
    "comm.exchange.bytes": "bytes",
    "comm.exchange.bytes_per_s": "bytes/s",
    "comm.exchange.rounds": "count",
    "netsim.wire.seconds": "s",
    "launcher.spawn.seconds": "s",
    "launcher.return.seconds": "s",
    "launcher.overhead.seconds": "s",
    "launcher.rank_peak_rss_mb": "MB",
    "generator.kernel.seconds": "s",
    "generator.call.seconds": "s",
    "generator.reassemble.seconds": "s",
    "generator.layers.seconds": "s",
    "generator.residual.seconds": "s",
    "generator.residual.frac": "fraction",
    "generator.kernel_frac_of_product": "fraction",
    "costmodel.predicted.seconds": "s",
    "costmodel.residual.frac": "fraction",
    "telemetry.overhead.frac": "fraction",
    "telemetry.overlap.frac": "fraction",
    # How much slower than the quiet reference host the traced run's host
    # was (common.HostProbe); the layer numbers themselves are uncorrected.
    "host.slowdown": "ratio",
}

#: Layers whose self time adds up to the rank program's kernel time.
_KERNEL_LAYERS = (
    "product.routed", "product.dense", "skg.accept", "shuffle.bucket",
    "wire.encode", "wire.decode", "comm.exchange", "netsim.wire",
)


def _plan(workload: GenWorkload, inputs: Inputs) -> dict:
    """The workload's options over the entry point's own defaults."""
    entry = generate_distributed if inputs.spec is None else generate_skg_distributed
    plan = {
        name: p.default
        for name, p in inspect.signature(entry).parameters.items()
        if p.default is not inspect.Parameter.empty
    }
    plan.update(workload.options)
    if plan["scheme"] == "1d-pipelined" and plan["storage"] is None:
        plan["storage"] = "source_block"
    return plan


def _rank_cells(plan: dict, inputs: Inputs, tracer: Tracer) -> list[list]:
    """Per-rank ``(A part, B part)`` cells, timing the partition layer."""
    with tracer.span("partition"):
        if plan["scheme"] == "2d":
            return partition_edges_2d(inputs.a, inputs.b, NRANKS)
        return [
            [(part, inputs.b)]
            for part in partition_edges_1d(inputs.a, NRANKS)
        ]


def _rank_rounds(plan, inputs, cells, tracer, rank, rep) -> tuple[list, int]:
    """One rank's generate -> accept -> bucket steps; its outgoing rounds.

    Returns the per-round bucket lists the rank would hand to the
    exchange, and how many candidates it enumerated.
    """
    n_c = inputs.a.n * inputs.b.n
    chunk = plan["chunk_size"]
    tag = {"rank": rank, "rep": rep}
    acceptor = SKGAcceptor(inputs.spec) if inputs.spec is not None else None
    enumerated = 0

    def accept(block: np.ndarray) -> np.ndarray:
        if acceptor is None:
            return block
        with tracer.span("skg.accept", **tag):
            return acceptor.filter_edges(block)

    if plan["storage"] == "source_block":
        rounds = []
        for part_a, part_b in cells:
            enumerated += part_a.m_directed * part_b.m_directed
            if plan["scheme"] == "1d-pipelined":
                routed = iter_kron_product_routed(part_a, part_b, NRANKS, n_c, chunk)
                while True:
                    with tracer.span("product.routed", **tag):
                        buckets = next(routed, None)
                    if buckets is None:
                        break
                    rounds.append([accept(b) for b in buckets])
            else:
                with tracer.span("product.routed", **tag):
                    buckets = kron_routed_full(part_a, part_b, NRANKS, n_c, chunk)
                rounds.append([accept(b) for b in buckets])
        return rounds, enumerated

    kept = []
    for part_a, part_b in cells:
        enumerated += part_a.m_directed * part_b.m_directed
        chunks = iter_kron_product(part_a, part_b, chunk)
        while True:
            with tracer.span("product.dense", **tag):
                block = next(chunks, None)
            if block is None:
                break
            kept.append(accept(block))
    edges = np.vstack(kept) if kept else _EMPTY
    with tracer.span("shuffle.bucket", **tag):
        buckets = bucket_edges(
            edges, NRANKS, scheme=plan["storage"], n=n_c, method="scatter"
        )
    return [buckets], enumerated


def _exchange_rank(comm, all_rounds, wire, reps):
    """Exchange this rank's pre-built rounds ``reps`` times; the time spans."""
    rounds = all_rounds[comm.rank]
    spans = []
    for _ in range(reps):
        comm.barrier()
        t0 = perf_clock()
        for outgoing in rounds:
            exchange_edges(comm, outgoing, wire=wire)
        spans.append((t0, perf_clock()))
    comm.barrier()
    return spans


def _noop_rank(comm):
    return None


def _return_rank(comm, rows):
    return np.ones((rows[comm.rank], 2), dtype=np.int64)


def _timed_median(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        t0 = perf_clock()
        fn()
        samples.append(perf_clock() - t0)
    return median(samples)


def measure_layers(
    workload: GenWorkload, seed: int, seconds: float, smoke: bool, tracer: Tracer
) -> dict:
    """The traced run: per-layer metrics of one generation workload.

    First the end-to-end repeats with tracing off (the numbers the layers
    must add up to), then one repeat under the library's own telemetry
    (its overhead), then every layer's public functions on each rank's
    share, the exchange inside a real ``NRANKS`` world, and the launcher
    and reassembly costs around it.
    """
    reps = 1 if smoke else 3
    with tracer.span("setup"):
        inputs, expected = setup(workload, seed, smoke)
    plan = _plan(workload, inputs)
    wrap = _WAN_WRAP if workload.wan else None

    host = HostProbe()
    with tracer.span("untraced"):
        kernel, calls, _slowdowns, probes, attempted, failed = _repeats(
            workload, inputs, expected, seconds / 4, reps, host
        )
    kernel_s, call_s = median(kernel), median(calls)

    session = TelemetrySession()
    with tracer.span("telemetry"):
        traced_s, _probes, ok = kernel_repeat(workload, inputs, expected, session)
    failed += not ok
    counters = session.aggregated_metrics()["counters"]
    overlap_s = float(counters.get("exchange.overlap_s", 0.0))
    wait_s = float(counters.get("comm.wait.seconds.total", 0.0))

    # ---- layers on each rank's share, in this process ------------------
    cells = _rank_cells(plan, inputs, tracer)
    varint = plan["wire"] == "varint"
    for rep in range(reps):
        all_rounds, enumerated, encoded = [], [], []
        for rank in range(NRANKS):
            rounds, count = _rank_rounds(plan, inputs, cells[rank], tracer, rank, rep)
            all_rounds.append(rounds)
            enumerated.append(count)
            if varint:
                blocks = []
                for buckets in rounds:
                    with tracer.span("wire.encode", rank=rank, rep=rep):
                        blocks.append(
                            [encode_edges(b) if len(b) else None for b in buckets]
                        )
                encoded.append(blocks)
        if varint:
            for rank in range(NRANKS):
                for sender in encoded:
                    for blocks in sender:
                        if blocks[rank] is not None:
                            with tracer.span("wire.decode", rank=rank, rep=rep):
                                decode_edges(blocks[rank])

    n_rounds = max(len(rounds) for rounds in all_rounds)
    for rounds in all_rounds:
        rounds.extend([[_EMPTY] * NRANKS] * (n_rounds - len(rounds)))
    routed = [sum(len(b) for bs in rounds for b in bs) for rounds in all_rounds]
    stored = [
        sum(len(rounds[i][rank]) for rounds in all_rounds for i in range(n_rounds))
        for rank in range(NRANKS)
    ]
    raw_bytes = 16 * sum(routed)
    wire_bytes = (
        sum(b.nbytes for s in encoded for bs in s for b in bs if b is not None)
        if varint else raw_bytes
    )

    def payload_bytes(sender: int, i: int, dest: int) -> int:
        if varint:
            block = encoded[sender][i][dest] if i < len(encoded[sender]) else None
            return 0 if block is None else block.nbytes
        return all_rounds[sender][i][dest].nbytes

    crossing = sum(
        payload_bytes(s, i, d)
        for s in range(NRANKS) for d in range(NRANKS) if s != d
        for i in range(n_rounds)
    )
    netsim_s = {
        rank: sum(
            WAN.wire_seconds(payload_bytes(s, i, rank))
            for s in range(NRANKS) if s != rank for i in range(n_rounds)
        ) if workload.wan else 0.0
        for rank in range(NRANKS)
    }

    # ---- the exchange, inside a real world of the workload's backend ---
    exchange_spans = spmd_run(
        _exchange_rank, NRANKS, all_rounds, plan["wire"], reps,
        backend=plan["backend"], wrap_comm=wrap,
    )
    for rank, spans in enumerate(exchange_spans):
        for rep, (t0, t1) in enumerate(spans):
            tracer.add("exchange", t0, t1, rank=rank, rep=rep)

    # ---- launcher and reassembly around the rank program ---------------
    with tracer.span("launcher.spawn"):
        spawn_s = _timed_median(
            lambda: spmd_run(_noop_rank, NRANKS, backend=plan["backend"]), reps
        )
    with tracer.span("launcher.return"):
        return_s = _timed_median(
            lambda: spmd_run(_return_rank, NRANKS, stored, backend=plan["backend"]),
            reps,
        )
    blocks = [np.ones((rows, 2), dtype=np.int64) for rows in stored]
    with tracer.span("generator.reassemble"):
        reassemble_s = _timed_median(lambda: np.vstack(blocks), reps)

    # ---- derive: the slowest rank's layers against the kernel ----------
    seconds_of = {name: tracer.layer_seconds(name) for name in _KERNEL_LAYERS}
    seconds_of["netsim.wire"] = netsim_s
    exchange_total = tracer.layer_seconds("exchange")
    # exchange_edges encodes and decodes inside; under the emulated wire
    # it also sleeps.  What is left is the transport's own time.
    seconds_of["comm.exchange"] = {
        rank: max(
            0.0,
            exchange_total[rank]
            - seconds_of["wire.encode"].get(rank, 0.0)
            - seconds_of["wire.decode"].get(rank, 0.0)
            - netsim_s[rank],
        )
        for rank in range(NRANKS)
    }
    rank_total = {
        rank: sum(seconds_of[name].get(rank, 0.0) for name in _KERNEL_LAYERS)
        for rank in range(NRANKS)
    }
    slow = max(rank_total, key=rank_total.get)
    layer = {name: seconds_of[name].get(slow, 0.0) for name in _KERNEL_LAYERS}
    layers_s = rank_total[slow]

    def rate(count: float, layer_seconds: float) -> float:
        return count / layer_seconds if layer_seconds > 0 else 0.0

    product_s = layer["product.routed"] + layer["product.dense"]
    product_rate = rate(enumerated[slow], product_s)
    accepted = sum(routed)
    # Remark 1's two terms: generate at the product layer's rate, then
    # move every edge once at the measured exchange rate.  Acceptance and
    # bucketing are not in the model, so they show up in its residual.
    model = CostModel.calibrated(
        enumerated[slow], product_s,
        shuffle_bandwidth_edges=rate(enumerated[slow], exchange_total[slow])
        or float("inf"),
    )
    predicted_s = model.generation_time(
        inputs.a.m_directed, inputs.b.m_directed, NRANKS,
        "2d" if plan["scheme"] == "2d" else "1d",
    )
    values = {
        "partition.seconds": tracer.layer_seconds("partition")[0],
        "product.routed.seconds": layer["product.routed"],
        "product.routed.edges_per_s": rate(enumerated[slow], layer["product.routed"]),
        "product.rounds": n_rounds,
        "product.dense.seconds": layer["product.dense"],
        "product.dense.edges_per_s": rate(enumerated[slow], layer["product.dense"]),
        "shuffle.bucket.seconds": layer["shuffle.bucket"],
        "shuffle.bucket.edges_per_s": rate(routed[slow], layer["shuffle.bucket"]),
        "shuffle.imbalance": max(stored) / (sum(stored) / NRANKS) if sum(stored) else 0.0,
        "skg.accept.seconds": layer["skg.accept"],
        "skg.accept.candidates_per_s": rate(enumerated[slow], layer["skg.accept"]),
        "skg.accept.rate": accepted / inputs.work if inputs.spec is not None else 0.0,
        "wire.encode.seconds": layer["wire.encode"],
        "wire.encode.edges_per_s": rate(routed[slow], layer["wire.encode"]),
        "wire.decode.seconds": layer["wire.decode"],
        "wire.decode.edges_per_s": rate(stored[slow], layer["wire.decode"]),
        "wire.bytes_ratio": wire_bytes / raw_bytes if raw_bytes else 0.0,
        "comm.exchange.seconds": layer["comm.exchange"],
        "comm.exchange.bytes": crossing,
        "comm.exchange.bytes_per_s": rate(crossing / NRANKS, layer["comm.exchange"]),
        "comm.exchange.rounds": n_rounds,
        "netsim.wire.seconds": layer["netsim.wire"],
        "launcher.spawn.seconds": spawn_s,
        "launcher.return.seconds": max(0.0, return_s - spawn_s),
        "launcher.overhead.seconds": call_s - kernel_s,
        "launcher.rank_peak_rss_mb": max(p["peak_rss_mb"] for p in probes),
        "generator.kernel.seconds": kernel_s,
        "generator.call.seconds": call_s,
        "generator.reassemble.seconds": reassemble_s,
        "generator.layers.seconds": layers_s,
        "generator.residual.seconds": kernel_s - layers_s,
        "generator.residual.frac": (kernel_s - layers_s) / kernel_s,
        "generator.kernel_frac_of_product": rate(
            inputs.work / kernel_s, NRANKS * product_rate
        ),
        "costmodel.predicted.seconds": predicted_s,
        "costmodel.residual.frac": (kernel_s - predicted_s) / kernel_s,
        "telemetry.overhead.frac": traced_s / kernel_s - 1.0,
        "telemetry.overlap.frac": rate(overlap_s, overlap_s + wait_s),
        "host.slowdown": median(host.samples),
    }
    print(
        f"{workload.name}: kernel {kernel_s:.4f} s = layers {layers_s:.4f} s "
        f"(slowest rank {slow}) + residual {kernel_s - layers_s:+.4f} s; "
        f"costmodel predicts {predicted_s:.4f} s; "
        f"telemetry overhead {values['telemetry.overhead.frac']:+.1%}"
    )
    return {
        "attempted": attempted + 1,
        "failed": failed,
        "metrics": {
            name: metric(LAYER_UNITS[name], [value]) for name, value in values.items()
        },
    }
