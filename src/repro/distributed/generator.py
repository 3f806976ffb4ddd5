"""Distributed nonstochastic Kronecker generation (Section III).

One :class:`GenerationPlan` describes a run; one rank program,
:func:`generate_rank`, executes it.  Each rank:

1. takes its cells of the factor edge space (1-D: a shard of A with B
   replicated; 2-D: the (A-part, B-part) grid cells of Remark 1) -- or,
   for an SKG plan, its range of sampler chunks;
2. expands them round by round -- one round holding everything for the
   batch schemes, one bounded chunk per round for ``"1d-pipelined"``,
   mirroring the asynchronous chunked sends of the HavoqGT implementation;
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
    `- per chunk, inside "generate" -'

where the round source is either the product kernels over factor cells
or the SKG sampler over chunk ranges.

*Round source.*  Both storage maps arrive *pre-bucketed by owner*: a piece
of a round is always one block per owner.  Under ``source_block`` the
routed kernels of :mod:`repro.kronecker.product` compute the owner
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

*SKG source.*  The stochastic Kronecker tier (:mod:`repro.skg`) is the
same program with ``plan.skg`` set and a different round source: the
grass-hopping sampler (:class:`repro.skg.sample.SKGSampler`), whose work
is proportional to the edges it emits, not to the ``4**k`` pairs.  The
plan gives every rank a contiguous range of sampler chunks by expected
rows, cut into rounds of at most ``chunk_size`` expected rows, so the
round count is known before anything is sampled.  Each chunk's sample is
a pure function of the spec, so the output is bit-identical across
world sizes, schemes, storages, chunk sizes, backends, retries and
elastic re-sharding -- the same invariants the exact model enjoys.
Sampled blocks are routed like dense chunks (hashed or block-owned and
counting-scattered); ``edges.generated`` counts the rows a rank sampled.

:func:`generate_rank` is a plain module-level callable taking its
:class:`Communicator` first, runnable under any backend via
:func:`repro.distributed.launcher.spmd_run`.  The convenience driver
(:func:`generate_distributed`) wires partitioning + launch + reassembly
and is what the examples, tests, and benches call.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, fields
from itertools import islice

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
    dense_chunk_count,
    id_dtype,
    iter_kron_product,
    iter_kron_product_routed,
    kron_routed_full,
    routed_chunk_count,
)
from repro.telemetry.session import telemetry_of

__all__ = [
    "GenerationPlan",
    "RankOutput",
    "generate_rank",
    "execute_plan",
    "generate_distributed",
    "reassemble",
]

_SCHEMES = ("1d", "1d-pipelined", "2d")
_STORAGES = (None, "source_block", "edge_hash")
_PIPELINES = ("sync", "async")

#: A rank's share: ``(A part, B part)`` factor cells, or for an SKG plan
#: the ``(start, stop)`` sampler-chunk range of each round.
Cells = list[tuple[EdgeList, EdgeList]] | list[tuple[int, int]]


@dataclass(frozen=True)
class GenerationPlan:
    """Everything that decides *what a rank program does*, validated once.

    The fields are exactly the axes that affect shard contents or row
    order, so :meth:`token` -- built by iterating the fields, never by
    listing them -- is what checkpoint run keys are made of: an axis added
    here is in the key by construction.  ``backend``, the launcher and the
    telemetry session are deliberately not part of the plan; they change
    how ranks are run, not what they compute.

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
    skg:
        ``None`` for the exact generator, or the
        :class:`repro.skg.model.SKGSpec` to sample.
    """

    scheme: str = "1d"
    storage: str | None = None
    chunk_size: int = DEFAULT_CHUNK
    pipeline: str = "sync"
    wire: str = "raw"
    skg: object | None = None

    def __post_init__(self) -> None:
        if self.scheme not in _SCHEMES:
            raise PartitionError(
                f"unknown scheme {self.scheme!r}; use '1d', '1d-pipelined', "
                f"or '2d'"
            )
        if self.storage not in _STORAGES:
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
        if self.pipeline not in _PIPELINES:
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
        if self.skg is not None:
            # Imported lazily: repro.skg depends on this module for its
            # distributed drivers, so a top-level import would be circular.
            from repro.skg.model import SKGSpec
            from repro.skg.sample import check_sampler_bound

            if not isinstance(self.skg, SKGSpec):
                raise PartitionError(
                    f"skg must be an SKGSpec, got {type(self.skg).__name__}"
                )
            check_sampler_bound(self.skg.k)

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
        """Canonical ``field=value`` token of every field, in field order.

        Two plans share a token iff they are equal.  The SKG spec appears
        as its digest (seed matrix, ``skg_seed``, noise parameters); an
        exact plan carries no SKG token at all.
        """
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "skg":
                if value is None:
                    continue
                value = f"{value.digest():016x}"
            parts.append(f"{f.name}={value}")
        return "-".join(parts)

    def partition(
        self, el_a: EdgeList, el_b: EdgeList, nranks: int
    ) -> list[Cells]:
        """Per-rank ``(A part, B part)`` cells under this plan's scheme.

        With an SKG spec the factors must enumerate exactly its candidate
        space (anything else is rejected here, before any rank runs) and
        each rank gets its rounds' sampler-chunk ranges instead, which
        depend on the spec, ``nranks`` and ``chunk_size`` only.
        """
        n_c = el_a.n * el_b.n
        if self.skg is not None:
            if self.skg.n != n_c:
                raise PartitionError(
                    f"SKG spec covers 2**{self.skg.k} = {self.skg.n} vertices "
                    f"but the factor product has {n_c}; the factors must "
                    f"enumerate exactly the spec's candidate space (see "
                    f"repro.skg.distributed.skg_candidate_factors)"
                )
            from repro.skg.sample import skg_sampler  # lazy: see __post_init__

            return skg_sampler(self.skg).rounds(nranks, self.chunk_size)
        if self.scheme == "2d":
            return partition_edges_2d(el_a, el_b, nranks)
        return [[(part, el_b)] for part in partition_edges_1d(el_a, nranks)]


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

    One preallocated ``int64`` array, each block cast-copied into its
    slice: id-dtype blocks are widened in the one copy that stacks them.
    """
    edges = np.empty((sum(len(b) for b in blocks), 2), dtype=np.int64)
    at = 0
    for block in blocks:
        edges[at : at + len(block)] = block
        at += len(block)
    return EdgeList(edges, n)


def _pieces(
    plan: GenerationPlan,
    cells: Cells,
    routed: bool,
    nparts: int,
    n_c: int,
    tel,
) -> Iterator[list[np.ndarray]]:
    """Pieces of this rank's cells, in generation order.

    A piece is a list of ``nparts`` blocks, one per owner -- the shape the
    exchange takes.  Under ``routed`` the kernels emit it analytically;
    otherwise each dense chunk (or sampled SKG piece) is hashed and
    counting-scattered where it is produced (the ``route`` span, which
    therefore nests inside the caller's ``generate`` span), while that
    chunk is the only product-sized thing alive.  Stable per-chunk
    scatters concatenated in chunk order are row for row the stable
    scatter of the whole round.  With a single owner the chunk is the
    piece.

    Streaming plans make a round of every piece, batch plans of all of
    them -- which is why the routed batch kernel emits a whole cell as one
    exactly-sized piece while the dense one streams bounded chunks.
    """
    chunk = plan.chunk_size

    def route(block: np.ndarray) -> list[np.ndarray]:
        if nparts == 1:
            return [block]
        with tel.span("route", cat="phase", method="scatter"):
            return bucket_edges(
                block, nparts, scheme=plan.effective_storage, n=n_c,
                method="scatter",
            )

    if plan.skg is not None:
        from repro.skg.sample import skg_sampler  # lazy: see GenerationPlan

        sampler = skg_sampler(plan.skg)
        for start, stop in cells:
            yield route(sampler.sample(start, stop))
        return
    for part_a, part_b in cells:
        if not routed:
            for block in iter_kron_product(part_a, part_b, chunk):
                yield route(block)
        elif plan.streams:
            yield from iter_kron_product_routed(
                part_a, part_b, nparts, n_c, chunk
            )
        else:
            yield kron_routed_full(part_a, part_b, nparts, n_c, chunk)


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
    comm: Communicator, plan: GenerationPlan, cells: list[Cells]
) -> RankOutput:
    """The rank program: generate ``cells[comm.rank]`` and store per ``plan``.

    ``cells`` is the full per-rank assignment (replicated, tiny -- it holds
    views of the factor edge arrays) and each rank picks its own, matching
    the paper's file-per-rank read without I/O in the hot path.

    A batch plan is one round; a streaming plan is one round per chunk,
    with the round count fixed up front by an allreduce over per-rank chunk
    counts (ranks that exhaust their chunks early join the remaining
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
    my_cells = cells[comm.rank]
    storage = plan.effective_storage
    exchanging = plan.exchanges and comm.size > 1
    nparts = comm.size if exchanging else 1
    skg = plan.skg is not None
    routed = exchanging and storage == "source_block" and not skg
    if skg:
        n_c = plan.skg.n
    else:
        # From any rank's cells, so a rank with none agrees on the dtype.
        n_c = next((a.n * b.n for share in cells for a, b in share), 0)
    dtype = id_dtype(n_c)
    pieces = _pieces(plan, my_cells, routed, nparts, n_c, tel)

    per_round = None
    rounds = 1
    capacity = None
    if plan.streams:
        per_round = 1
        if skg:
            rounds = len(my_cells)
        else:
            count = routed_chunk_count if routed else dense_chunk_count
            rounds = sum(
                count(a.m_directed, b.m_directed, plan.chunk_size)
                for a, b in my_cells
            )
        if exchanging:
            rounds = comm.allreduce(rounds, max)
    elif not exchanging and skg:
        from repro.skg.sample import skg_sampler  # lazy: see GenerationPlan

        capacity = skg_sampler(plan.skg).row_bound(my_cells)
    elif not exchanging:
        capacity = sum(a.m_directed * b.m_directed for a, b in my_cells)

    def produce(rnd: int) -> list[np.ndarray]:
        """One round's per-owner buckets: generate, bucket."""
        with tel.span("generate", cat="phase", round=rnd):
            round_pieces = islice(pieces, per_round)
            blocks = _collect(round_pieces, nparts, capacity, dtype)
        if routed:
            # Routed blocks left the kernel already split by owner; the
            # trace shows that degenerate route phase on purpose.
            with tel.span("route", cat="phase", method="fused"):
                pass
        return blocks

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
            stored.append(exchange_edges_finish(comm, pending, n_c))
        pending = exchange_edges_start(comm, outgoing, wire=plan.wire)
        issued_at = tel.clock()
        if plan.pipeline == "sync":
            stored.append(exchange_edges_finish(comm, pending, n_c))
            pending = None
    if pending is not None:
        # Tail flush: no generation left to hide this wait, so it does
        # not count toward the overlap.
        stored.append(exchange_edges_finish(comm, pending, n_c))
    if next(pieces, None) is not None:
        raise PartitionError(
            f"rank {comm.rank}: generation rounds underestimated -- "
            f"{rounds} round(s) left product chunks unsent"
        )
    edges = _stack(stored, dtype)
    if plan.pipeline == "async":
        tel.add("exchange.overlap_s", overlap_s)
    tel.add("edges.generated", generated)
    tel.add("edges.stored", len(edges))
    return RankOutput(comm.rank, edges, generated)


def execute_plan(
    plan: GenerationPlan,
    el_a: EdgeList,
    el_b: EdgeList,
    nranks: int,
    *,
    backend: str = "thread",
    runner=spmd_run,
    telemetry=None,
) -> tuple[EdgeList, list[RankOutput]]:
    """Partition, launch :func:`generate_rank` under ``plan``, reassemble.

    ``runner`` is called as ``runner(generate_rank, nranks, plan, cells,
    backend=..., [telemetry=...])``; see :func:`generate_distributed`.
    """
    cells = plan.partition(el_a, el_b, nranks)
    run_kwargs = {"backend": backend}
    if telemetry is not None:
        run_kwargs["telemetry"] = telemetry
    outputs = runner(generate_rank, nranks, plan, cells, **run_kwargs)
    stored = [o.edges for o in outputs if o is not None]
    return reassemble(stored, el_a.n * el_b.n), outputs


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
    skg=None,
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
    scheme, storage, chunk_size, pipeline, wire, skg:
        The :class:`GenerationPlan` fields; inconsistent or unknown values
        raise :class:`~repro.errors.PartitionError`.  With ``skg`` the
        factors must enumerate the spec's candidate space
        (:func:`repro.skg.distributed.skg_candidate_factors`); they name
        its vertex set and run key, and the sampler does the rest.
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
    plan = GenerationPlan(scheme, storage, chunk_size, pipeline, wire, skg)
    return execute_plan(
        plan, el_a, el_b, nranks,
        backend=backend, runner=runner, telemetry=telemetry,
    )
