"""Distributed Kronecker generation (Section III).

One :class:`GenerationPlan` describes a run; one rank program,
:func:`generate_rank`, executes it.  The plan's *source* is what is
generated: a :class:`KronPair` of factors (the paper's exact model) or an
``SKGSpec`` of the stochastic tier, read only through :class:`Source`.
Each rank:

1. takes its cells of the source, one per piece -- for a factor pair, the
   blocks of the (A part, B part) cells of the 1-D scheme (a shard of A
   with B replicated) or of the 2-D grid (Remark 1); for a spec, ranges
   of sampler chunks -- fixed before anything is generated;
2. expands them round by round -- one round holding everything for the
   batch schemes, one cell per round for ``"1d-pipelined"``, mirroring
   the asynchronous chunked sends of the HavoqGT implementation;
3. optionally routes each round to its storage owners
   (:mod:`repro.distributed.shuffle`), so generation and storage placement
   stay decoupled.

Every block a rank builds -- kernel output, bucket, received stack, the
stored :class:`RankOutput` -- is in the product's id dtype
(:func:`repro.kronecker.product.id_dtype` of ``n_C``): ``int32`` whenever
``n_C <= 2**31``, so 8 bytes a row move through the kernel, the exchange,
the return to the parent and the shard instead of 16.  Only the
reassembled :class:`~repro.graph.edgelist.EdgeList` is ``int64``.

The loop is the same for every plan::

    round source -> per-owner buckets -> exchange -> store
    `- per piece, inside "generate" -'

*Factor pairs.*  Both storage maps arrive *pre-bucketed by owner*: a piece
of a round is always one block per owner.  Under ``source_block`` the
routed kernel of :mod:`repro.kronecker.product` computes the owner
analytically from the product index structure, so no product-sized sort
or scatter happens at all.  Under ``edge_hash`` every dense chunk is
hashed (:mod:`repro.util.hashing`, one cache-resident tile at a time) and
counting-scattered where it is produced -- a ``route`` span per chunk,
nested in the round's ``generate`` span -- so the only product-sized
arrays a rank ever holds are the scattered chunks and their per-owner
stack; per-chunk stable scatters concatenated in chunk order are row for
row the scatter of the whole round, so shard contents and digests do not
depend on where the bucketing happens.  With nothing to exchange
(``storage=None`` or a single rank) the rank is the sole owner and the
round is kept whole, written chunk by chunk into one preallocated block.

*Specs.*  An SKG spec's pieces are samples of ranges of sampler chunks
(work proportional to the edges emitted, not to the ``4**k`` pairs),
routed like dense chunks; the output is bit-identical across world
sizes, schemes, storages, chunk sizes, backends, retries and elastic
re-sharding -- the same invariants the exact model enjoys.

:func:`generate_rank` is a plain module-level callable taking its
:class:`Communicator` first, runnable under any backend via
:func:`repro.distributed.launcher.spmd_run`.  :func:`execute_plan` wires
partitioning + launch + reassembly for any plan; :func:`generate_distributed`
is its factor-pair driver (``generate_skg_distributed`` is the spec's) and
what the examples, tests, and benches call.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from itertools import islice
from typing import Protocol, runtime_checkable

import numpy as np

from repro.distributed.comm import Communicator
from repro.distributed.launcher import spmd_run
from repro.distributed.partition import partition_edges_1d, partition_edges_2d
from repro.distributed.shuffle import (
    WIRE_FORMATS,
    bucket_edges,
    exchange_edges_finish,
    exchange_edges_start,
)
from repro.errors import PartitionError
from repro.graph.edgelist import EdgeList
from repro.kronecker.product import (
    DEFAULT_CHUNK,
    id_dtype,
    kron_edge_block,
    kron_edge_block_routed,
    kron_rounds,
    plan_route_b,
)
from repro.telemetry.session import telemetry_of
from repro.util.hashing import edges_digest
from repro.util.validation import check_id_block

__all__ = [
    "SCHEMES",
    "STORAGES",
    "PIPELINES",
    "Source",
    "KronPair",
    "GenerationPlan",
    "RankOutput",
    "generate_rank",
    "execute_plan",
    "generate_distributed",
    "reassemble",
]

#: The legal values of the plan's axes (``wire``: ``WIRE_FORMATS``).
SCHEMES = ("1d", "1d-pipelined", "2d")
STORAGES = (None, "source_block", "edge_hash")
PIPELINES = ("sync", "async")


@runtime_checkable
class Source(Protocol):
    """What the rank program reads of a run's source.

    ``cells`` are one rank's share from :meth:`partition`, one per piece,
    opaque to all but the source that made them; a *piece* is a list of
    ``nparts`` per-owner blocks in the product's id dtype (``nparts ==
    1``: the rank keeps what it generates).
    """

    n: int  # vertices of the generated graph

    def key(self) -> str:
        """This source's part of a run key: a content digest."""

    def partition(self, plan: GenerationPlan, nranks: int) -> list:
        """Every rank's cells under ``plan``."""

    def pieces(self, plan, cells, nparts, tel) -> Iterator[list[np.ndarray]]:
        """The piece of each cell, in generation order."""

    def row_bound(self, cells) -> int:
        """Rows the pieces of ``cells`` hold, or almost surely stay under."""


@dataclass(frozen=True, eq=False)
class KronPair:
    """The exact model's source: the factors of ``C = A (x) B``."""

    a: EdgeList
    b: EdgeList

    @property
    def n(self) -> int:
        return self.a.n * self.b.n

    def key(self) -> str:
        """The two factor edge digests."""
        a, b = edges_digest(self.a.edges), edges_digest(self.b.edges)
        return f"{a:016x}-{b:016x}"

    def partition(
        self, plan: GenerationPlan, nranks: int
    ) -> list[list[tuple[EdgeList, EdgeList, tuple[int, int, int, int]]]]:
        """Per rank, ``(A part, B part, block)``: the :func:`kron_rounds`
        blocks of its scheme's (A part, B part) cells.  A batch routed cell
        is one block: the routed kernel writes exact-size owner slices."""
        if plan.scheme == "2d":
            parts = partition_edges_2d(self.a, self.b, nranks)
        else:
            parts = [[(a, self.b)] for a in partition_edges_1d(self.a, nranks)]
        routed = self._routed(plan, nranks)

        def blocks(a: EdgeList, b: EdgeList) -> list[tuple[int, int, int, int]]:
            ma, mb = a.m_directed, b.m_directed
            chunk = ma * mb if routed and not plan.streams else plan.chunk_size
            return kron_rounds(ma, mb, chunk, split_b=not routed)

        return [
            [(a, b, blk) for a, b in cells for blk in blocks(a, b)] for cells in parts
        ]

    @staticmethod
    def _routed(plan: GenerationPlan, nparts: int) -> bool:
        """Does the routed kernel split each piece by owner analytically?"""
        return nparts > 1 and plan.effective_storage == "source_block"

    def pieces(self, plan, cells, nparts, tel) -> Iterator[list[np.ndarray]]:
        """Each cell's block, expanded by the routed kernel or densely and
        routed where it is produced."""
        routed = self._routed(plan, nparts)
        route_b = None
        for part_a, part_b, (a0, a1, b0, b1) in cells:
            edges_a = part_a.edges[a0:a1]
            if not routed:
                block = kron_edge_block(edges_a, part_b.edges[b0:b1], part_b.n, self.n)
                yield plan.route(block, nparts, tel)
                continue
            if route_b is None or route_b[0] is not part_b:
                # B's one small sort, shared by the cells that expand it.
                route_b = part_b, plan_route_b(part_b.edges, self.n)
            piece = kron_edge_block_routed(
                edges_a, part_b.edges, part_b.n, nparts, self.n, route_b[1]
            )
            # The blocks left the kernel already split by owner; the
            # trace shows that degenerate route phase on purpose.
            with tel.span("route", cat="phase", method="fused"):
                pass
            yield piece

    def row_bound(self, cells) -> int:
        """The exact row count of the cells' expansion."""
        return sum((a1 - a0) * (b1 - b0) for _, _, (a0, a1, b0, b1) in cells)


@dataclass(frozen=True)
class GenerationPlan:
    """Everything that decides *what a rank program does*, validated once.

    The axes are exactly the fields that affect shard contents or row
    order besides the source, so :meth:`token` -- built by iterating the
    fields, never by listing them -- is what checkpoint run keys are made
    of, next to the source's own key: an axis added here is in the key by
    construction.  ``backend``, the launcher and the telemetry session are
    deliberately not part of the plan; they change how ranks are run, not
    what they compute.

    Attributes
    ----------
    scheme:
        ``"1d"`` (paper Section III), ``"2d"`` (Remark 1), or
        ``"1d-pipelined"`` (1-D, exchanging chunk by chunk).
    storage:
        ``None`` (keep where generated), ``"source_block"``, or
        ``"edge_hash"``.
    chunk_size:
        Max product edges materialized at once per rank (for SKG: expected
        rows per sampled piece).
    pipeline:
        ``"sync"`` or ``"async"`` (see module docstring).  ``"async"``
        requires ``scheme="1d-pipelined"`` -- the batch schemes have a
        single exchange with nothing to overlap.
    wire:
        ``"raw"`` or ``"varint"`` (:mod:`repro.distributed.wire`).
    source:
        What is generated (keyword only): a :class:`KronPair` or an
        ``SKGSpec``.
    """

    scheme: str = "1d"
    storage: str | None = None
    chunk_size: int = DEFAULT_CHUNK
    pipeline: str = "sync"
    wire: str = "raw"
    source: Source = field(kw_only=True)

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise PartitionError(
                f"unknown scheme {self.scheme!r}; use '1d', '1d-pipelined', "
                f"or '2d'"
            )
        if self.storage not in STORAGES:
            raise PartitionError(
                f"unknown storage {self.storage!r}; use None, "
                f"'source_block', or 'edge_hash'"
            )
        if (
            not isinstance(self.chunk_size, int)
            or isinstance(self.chunk_size, bool)
            or self.chunk_size < 1
        ):
            raise PartitionError(
                f"chunk_size must be an int >= 1, got {self.chunk_size!r}"
            )
        if self.pipeline not in PIPELINES:
            raise PartitionError(
                f"unknown pipeline {self.pipeline!r}; use 'sync' or 'async'"
            )
        if self.wire not in WIRE_FORMATS:
            raise PartitionError(
                f"unknown wire format {self.wire!r}; use one of {WIRE_FORMATS}"
            )
        if self.pipeline == "async" and not self.streams:
            raise PartitionError(
                f"pipeline='async' requires scheme='1d-pipelined' (scheme "
                f"{self.scheme!r} performs a single batch exchange with "
                f"nothing to overlap)"
            )
        if not isinstance(self.source, Source):
            raise PartitionError(
                f"source must be a KronPair or an SKGSpec, got "
                f"{type(self.source).__name__}"
            )

    @property
    def streams(self) -> bool:
        """Does the program exchange chunk by chunk (vs. one batch round)?"""
        return self.scheme == "1d-pipelined"

    @property
    def effective_storage(self) -> str | None:
        """The storage map the program runs with.

        Streaming exists to route chunks as they are produced, so
        ``"1d-pipelined"`` with no storage named means ``source_block``.
        """
        if self.storage is None and self.streams:
            return "source_block"
        return self.storage

    @property
    def exchanges(self) -> bool:
        """Does the rank program communicate (on a world of size > 1)?

        ``False`` promises *no* collective at all: the supervisor resumes
        such shards independently of each other.  ``True`` also means the
        shards have an ownership map, which elastic resume needs to
        re-partition them onto a different world size.
        """
        return self.effective_storage is not None

    @property
    def shard_mode(self) -> str:
        """Checkpoint mode of this program's shards (see the supervisor)."""
        return "collective" if self.exchanges else "independent"

    def token(self) -> str:
        """Canonical ``field=value`` token of every axis, in field order.

        Two plans of one source share a token iff they are equal; the
        source is in a run key through its own :meth:`Source.key`.
        """
        return "-".join(
            f"{f.name}={getattr(self, f.name)}"
            for f in fields(self)
            if f.name != "source"
        )

    def partition(self, nranks: int) -> list:
        """Every rank's cells of the source under this plan."""
        return self.source.partition(self, nranks)

    def route(self, block: np.ndarray, nparts: int, tel) -> list[np.ndarray]:
        """``block`` split into its ``nparts`` owners' blocks.

        Hashed or block-owned per the storage map and counting-scattered
        -- a stable scatter, so per-chunk scatters concatenated in chunk
        order are row for row the scatter of the whole round.  The
        ``route`` span nests in the caller's ``generate`` span.  A single
        owner takes the block as it is.
        """
        if nparts == 1:
            return [block]
        with tel.span("route", cat="phase", method="scatter"):
            return bucket_edges(
                block, nparts, scheme=self.effective_storage,
                n=self.source.n, method="scatter",
            )


@dataclass(frozen=True)
class RankOutput:
    """What one rank produced.

    Attributes
    ----------
    rank:
        Producer rank.
    edges:
        The product edges this rank ends up *storing* (post-shuffle when a
        storage scheme is active, otherwise its generated edges), in the
        product's id dtype -- also when there are none.
    generated:
        How many edges this rank generated (pre-shuffle), for load stats.
    """

    rank: int
    edges: np.ndarray
    generated: int


def _stack(blocks: list[np.ndarray], dtype: np.dtype) -> np.ndarray:
    """Vertical stack of ``dtype`` blocks that skips empties and never
    copies a lone block."""
    blocks = [b for b in blocks if len(b)]
    if len(blocks) > 1:
        return np.vstack(blocks)
    return blocks[0] if blocks else np.empty((0, 2), dtype=dtype)


def reassemble(blocks: list[np.ndarray], n: int) -> EdgeList:
    """The ``int64`` edge list of ``n`` vertices holding ``blocks`` in order.

    Each block is range-checked in its own (id) dtype, then cast-copied into
    its slice of one preallocated ``int64`` array: the widening happens in
    the one copy that stacks the blocks, and the wide copy is never scanned
    again.  An id outside ``[0, n)`` in any block raises
    :class:`~repro.errors.GraphFormatError`.
    """
    for block in blocks:
        check_id_block(block, n)
    edges = np.empty((sum(len(b) for b in blocks), 2), dtype=np.int64)
    at = 0
    for block in blocks:
        edges[at : at + len(block)] = block
        at += len(block)
    return EdgeList.from_checked(edges, n)


def _collect(
    pieces: Iterator[list[np.ndarray]],
    width: int,
    capacity: int | None,
    dtype: np.dtype,
) -> list[np.ndarray]:
    """Column-wise concatenation of ``pieces`` into ``width`` ``dtype`` blocks.

    ``capacity`` bounds the row count of a single-column batch round
    (nothing exchanged) when one is known up front: the exact count of a
    dense expansion, or a sample's expected rows plus a wide margin.  The
    output is then allocated once and every piece written into its slice,
    so peak memory is the output plus one chunk rather than twice the
    output; rows past the last one written are never touched, so an
    over-estimate costs address space, not memory.  Pieces that would
    overflow it (a sample far out in its tail) are stacked on after.
    """
    if capacity is not None:
        out = np.empty((capacity, 2), dtype=dtype)
        fill = 0
        spill: list[np.ndarray] = []
        for (block,) in pieces:
            if spill or fill + len(block) > capacity:
                spill.append(block)
                continue
            out[fill : fill + len(block)] = block
            fill += len(block)
        return [_stack([out[:fill], *spill], dtype)]
    columns: list[list[np.ndarray]] = [[] for _ in range(width)]
    for piece in pieces:
        for column, block in zip(columns, piece):
            column.append(block)
    return [_stack(column, dtype) for column in columns]


def generate_rank(
    comm: Communicator, plan: GenerationPlan, cells: list
) -> RankOutput:
    """The rank program: generate ``cells[comm.rank]`` and store per ``plan``.

    ``cells`` is the full per-rank assignment (``plan.partition``:
    replicated, tiny -- views of the factor edge arrays, or sampler-chunk
    ranges) and each rank picks its own, matching the paper's
    file-per-rank read without I/O in the hot path.

    A batch plan is one round; a streaming plan is one round per cell,
    with the round count fixed up front by an allreduce over per-rank cell
    counts (ranks that exhaust their cells early join the remaining
    exchanges with empty buckets).  Resident memory of a streaming rank is
    therefore one or two chunks plus its stored share, against the batch
    schemes' full generated volume.

    Every round's exchange is issued split-phase
    (:func:`exchange_edges_start`).  Under ``pipeline="sync"`` it is
    finished at once; under ``"async"`` only after the *next* round has
    been produced, so generation overlaps the in-flight exchange -- the
    paper's overlap of generation with asynchronous edge sends -- and the
    time so hidden accumulates into ``exchange.overlap_s``.  Either way at
    most one request is in flight, which keeps the per-channel FIFO
    contract trivially satisfied, and the in-flight buckets are owned by
    the runtime until finished (Request contract), which holds because
    every round builds fresh arrays.  The same blocks arrive in the same
    order, so the stored output is bit-identical between the two.  A plan
    that does not exchange, or a single rank, performs **no** collective.
    """
    tel = telemetry_of(comm)
    source = plan.source
    my_cells = cells[comm.rank]
    exchanging = plan.exchanges and comm.size > 1
    nparts = comm.size if exchanging else 1
    dtype = id_dtype(source.n)
    pieces = source.pieces(plan, my_cells, nparts, tel)

    per_round = None
    rounds = 1
    capacity = None
    if plan.streams:
        per_round = 1
        rounds = len(my_cells)
        if exchanging:
            rounds = comm.allreduce(rounds, max)
    elif not exchanging:
        capacity = source.row_bound(my_cells)

    def produce(rnd: int) -> list[np.ndarray]:
        """One round's per-owner buckets."""
        with tel.span("generate", cat="phase", round=rnd):
            return _collect(islice(pieces, per_round), nparts, capacity, dtype)

    stored: list[np.ndarray] = []
    generated = 0
    pending = None
    issued_at = overlap_s = 0.0
    for rnd in range(rounds):
        outgoing = produce(rnd)
        generated += sum(len(b) for b in outgoing)
        if not exchanging:
            stored.append(outgoing[0])
            continue
        if pending is not None:
            # Everything since the issue was generation that hid the
            # in-flight exchange.
            overlap_s += tel.clock() - issued_at
            stored.append(exchange_edges_finish(comm, pending, source.n))
        pending = exchange_edges_start(comm, outgoing, wire=plan.wire)
        issued_at = tel.clock()
        if plan.pipeline == "sync":
            stored.append(exchange_edges_finish(comm, pending, source.n))
            pending = None
    if pending is not None:
        # Tail flush: no generation left to hide this wait, so it does
        # not count toward the overlap.
        stored.append(exchange_edges_finish(comm, pending, source.n))
    edges = _stack(stored, dtype)
    if plan.pipeline == "async":
        tel.add("exchange.overlap_s", overlap_s)
    tel.add("edges.generated", generated)
    tel.add("edges.stored", len(edges))
    return RankOutput(comm.rank, edges, generated)


def execute_plan(
    plan: GenerationPlan,
    nranks: int,
    *,
    backend: str = "thread",
    runner=spmd_run,
    telemetry=None,
) -> tuple[EdgeList, list[RankOutput]]:
    """Partition, launch :func:`generate_rank` under ``plan``, reassemble.

    The in-memory run of any source.  ``runner`` is called as
    ``runner(generate_rank, nranks, plan, cells, backend=...,
    [telemetry=...])``; see :func:`generate_distributed`.
    """
    cells = plan.partition(nranks)
    run_kwargs = {"backend": backend}
    if telemetry is not None:
        run_kwargs["telemetry"] = telemetry
    outputs = runner(generate_rank, nranks, plan, cells, **run_kwargs)
    stored = [o.edges for o in outputs if o is not None]
    return reassemble(stored, plan.source.n), outputs


def generate_distributed(
    el_a: EdgeList,
    el_b: EdgeList,
    nranks: int,
    *,
    scheme: str = "1d",
    storage: str | None = None,
    backend: str = "thread",
    chunk_size: int = DEFAULT_CHUNK,
    pipeline: str = "sync",
    wire: str = "raw",
    runner=spmd_run,
    telemetry=None,
) -> tuple[EdgeList, list[RankOutput]]:
    """Generate ``C = A (x) B`` across ``nranks`` ranks and reassemble.

    Parameters
    ----------
    el_a, el_b:
        Factor edge lists.
    nranks:
        World size.
    scheme, storage, chunk_size, pipeline, wire:
        The :class:`GenerationPlan` axes; inconsistent or unknown values
        raise :class:`~repro.errors.PartitionError`.
    backend:
        Launcher backend (``"thread"``, ``"process"`` or ``"socket"``).
    runner:
        The launch function, ``spmd_run``-compatible.  The supervised
        launcher (:func:`repro.distributed.supervisor.spmd_run_supervised`)
        is passed here -- pre-bound with its retry/fault configuration
        -- to add recovery without the generator knowing.
    telemetry:
        Optional :class:`~repro.telemetry.session.TelemetrySession`,
        forwarded to the runner.  ``None`` forwards nothing, so
        ``spmd_run``-compatible runners without a ``telemetry`` parameter
        keep working.

    Returns
    -------
    (EdgeList, list[RankOutput])
        The reassembled product (row order may differ from the serial
        product; contents are identical as multisets) and per-rank outputs.
    """
    source = KronPair(el_a, el_b)
    plan = GenerationPlan(
        scheme, storage, chunk_size, pipeline, wire, source=source
    )
    return execute_plan(
        plan, nranks, backend=backend, runner=runner, telemetry=telemetry
    )
