"""Out-of-core distributed generation: write product shards to disk.

At paper scale the product never fits in one memory; each rank writes its
``C_r`` to its own shard file.  This module runs the shared rank program
(:func:`repro.distributed.generator.generate_rank`, no storage exchange)
and wires its output to the partitioned file layout of
:mod:`repro.graph.io`, so the full pipeline is::

    factors on disk -> per-rank generation -> per-rank shard files.

The expansion itself is chunked (``chunk_size`` bounds the kernel's
temporaries), but a rank's shard is held whole before it is written --
numpy's ``.npz`` container is not appendable -- so peak memory per rank is
its shard, ``|E_C| / R`` edges.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.distributed.comm import Communicator
from repro.distributed.generator import Cells, GenerationPlan, generate_rank
from repro.distributed.launcher import spmd_run
from repro.graph.edgelist import EdgeList
from repro.kronecker.product import DEFAULT_CHUNK

__all__ = ["ShardManifest", "generate_to_directory"]


@dataclass(frozen=True)
class ShardManifest:
    """What one out-of-core run produced."""

    directory: Path
    n: int
    nranks: int
    edges_total: int
    shard_paths: list[Path]

    def load(self) -> EdgeList:
        """Read every shard back into one edge list (for verification)."""
        parts = []
        for p in self.shard_paths:
            arr = np.load(p)["edges"]
            if len(arr):
                parts.append(arr)
        edges = (
            np.vstack(parts) if parts else np.empty((0, 2), dtype=np.int64)
        )
        return EdgeList(edges, self.n)


def _rank_to_shard(
    comm: Communicator, plan: GenerationPlan, cells: list[Cells], directory: str
) -> tuple[str, int]:
    """Rank program: run the shared generator, write one ``.npz`` shard.

    Module-level (not a closure) so the multiprocess backends can ship it.
    With an SKG spec in the plan the shard holds (and the count reports)
    accepted edges only.
    """
    out = generate_rank(comm, plan, cells)
    out_path = Path(directory) / f"shard_{comm.rank:05d}.npz"
    np.savez_compressed(out_path, edges=out.edges)
    return str(out_path), out.generated


def generate_to_directory(
    el_a: EdgeList,
    el_b: EdgeList,
    directory: str | os.PathLike,
    nranks: int,
    *,
    scheme: str = "2d",
    backend: str = "thread",
    chunk_size: int = DEFAULT_CHUNK,
    rendezvous: str | None = None,
    local_ranks: tuple[int, ...] | None = None,
    skg=None,
) -> ShardManifest:
    """Generate ``A (x) B`` across ranks, writing one shard file per rank.

    Returns a :class:`ShardManifest`; ``manifest.load()`` reassembles the
    product for verification at test scale.  ``rendezvous`` (socket
    backend only) points the ranks at an external ``host:port`` roster
    server instead of a private in-process one; ``local_ranks`` restricts
    this invocation to its share of a multi-host world, in which case the
    manifest covers only the shards written on this host (the remote
    shards live on the other hosts' filesystems).  ``skg`` (an
    :class:`repro.skg.model.SKGSpec`) filters the product with the
    stochastic tier's acceptance hash -- the factors must then enumerate
    the spec's candidate space
    (:func:`repro.skg.distributed.skg_candidate_factors`).
    """
    plan = GenerationPlan(scheme=scheme, chunk_size=chunk_size, skg=skg)
    cells = plan.partition(el_a, el_b, nranks)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    run_kwargs = {"backend": backend}
    if rendezvous is not None:
        run_kwargs["rendezvous"] = rendezvous
    if local_ranks is not None:
        run_kwargs["local_ranks"] = local_ranks
    results = spmd_run(
        _rank_to_shard, nranks, plan, cells, str(directory), **run_kwargs
    )
    # Ranks launched on other hosts report None slots; their shards are
    # on those hosts, so this manifest covers the local share only.
    local = [r for r in results if r is not None]
    paths = [Path(p) for p, _c in local]
    total = sum(c for _p, c in local)
    return ShardManifest(
        directory=directory,
        n=el_a.n * el_b.n,
        nranks=nranks,
        edges_total=total,
        shard_paths=paths,
    )
