"""Out-of-core distributed generation: write product shards to disk.

At paper scale the product never fits in one memory; each rank writes its
``C_r`` to its own shard file and only O(1) scalars per rank reach the
parent.  This module runs the shared rank program
(:func:`repro.distributed.generator.generate_rank`, no storage exchange;
with an SKG spec in the plan a shard holds accepted edges only) under the
shared persist step
(:class:`repro.distributed.checkpoint.CheckpointedRankFn`)::

    factors on disk -> per-rank generation -> per-rank shard files
                    -> one run manifest describing them.

The shards are the checkpoint store's, so running the same configuration
into the same directory again verifies what is there and regenerates only
what is missing or damaged.  The expansion is chunked (``chunk_size``
bounds the kernel's temporaries), but a rank's shard is held whole before
it is written -- ``.npz`` is not appendable -- so peak memory per rank is
its shard, ``|E_C| / R`` edges.
"""

from __future__ import annotations

import os

from repro.distributed.checkpoint import (
    CheckpointedRankFn,
    CheckpointStore,
    RunManifest,
    generation_family_key,
    generation_run_key,
)
from repro.distributed.generator import GenerationPlan, generate_rank
from repro.distributed.launcher import spmd_run
from repro.graph.edgelist import EdgeList
from repro.kronecker.product import DEFAULT_CHUNK

__all__ = ["generate_to_directory"]


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
) -> RunManifest:
    """Generate ``A (x) B`` across ranks, writing one shard file per rank.

    Returns the run's :class:`RunManifest`, also persisted in ``directory``;
    ``CheckpointStore(directory).load_run(manifest)`` reassembles the
    product, every shard digest-checked, for verification at test scale.
    ``rendezvous`` (socket backend only) points the ranks at an external
    ``host:port`` roster server instead of a private in-process one;
    ``local_ranks`` restricts this invocation to its share of a multi-host
    world, and the manifest then covers only the shards written on this
    host and is not persisted -- no host can vouch for the whole run.
    ``skg`` (an :class:`repro.skg.model.SKGSpec`) filters the product with
    the stochastic tier's acceptance hash -- the factors must then
    enumerate the spec's candidate space
    (:func:`repro.skg.distributed.skg_candidate_factors`).
    """
    plan = GenerationPlan(scheme=scheme, chunk_size=chunk_size, skg=skg)
    cells = plan.partition(el_a, el_b, nranks)
    store = CheckpointStore(directory)
    run_key = generation_run_key(el_a, el_b, nranks, plan)
    checkpointed = CheckpointedRankFn(
        generate_rank, store.directory, run_key, plan.shard_mode
    )
    # O(1) scalars per rank; ranks launched on other hosts report None.
    shards = spmd_run(
        checkpointed.summary, nranks, plan, cells,
        backend=backend, rendezvous=rendezvous, local_ranks=local_ranks,
    )
    manifest = RunManifest.from_shards(
        run_key, generation_family_key(el_a, el_b, plan), el_a.n * el_b.n,
        plan.effective_storage, shards,
    )
    if local_ranks is None:
        store.put_manifest(manifest)
    return manifest
