"""The SKG driver over the SPMD runtime.

A spec is a generation source of its own
(:class:`~repro.distributed.generator.Source`): the exact generator's one
rank program samples each rank's range of sampler chunks
(:class:`repro.skg.sample.SKGSampler`) in place of expanding factor
cells.  Everything downstream -- routing, pipelined async exchange, varint
wire, storage, supervised retry, checkpointed and elastic resume -- is the
exact generator's machinery, and every driver that takes a source takes
the spec itself: :func:`~repro.distributed.supervisor.generate_to_directory`
and :func:`~repro.distributed.supervisor.run_chaos_matrix`, or
:func:`generate_skg_distributed` below for the in-memory run.  No factor
pair is built: the spec names its vertex set and run key.
"""

from __future__ import annotations

from repro.distributed.generator import GenerationPlan, RankOutput, execute_plan
from repro.distributed.launcher import spmd_run
from repro.graph.edgelist import EdgeList
from repro.graph.generators import complete_with_loops
from repro.kronecker.product import DEFAULT_CHUNK
from repro.skg.model import SKGSpec
from repro.skg.sample import check_sampler_bound

__all__ = [
    "skg_candidate_factors",
    "generate_skg_distributed",
]


def skg_candidate_factors(k: int) -> tuple[EdgeList, EdgeList]:
    """Factor pair whose product enumerates all ``2**k x 2**k`` pairs.

    Kept only for the performance ledger's re-enactment of the candidate
    filter (:class:`~repro.skg.sample.SKGAcceptor` over the expanded
    product); nothing in the library generates from it.  Splits the
    exponent near-evenly (``ka = k // 2``) so both factor edge lists stay
    around ``2**k`` rows.  Refuses ``k`` above the sampler's bound before
    allocating anything (:func:`repro.skg.sample.check_sampler_bound`).
    """
    check_sampler_bound(k)
    ka = k // 2
    kb = k - ka
    return complete_with_loops(1 << ka), complete_with_loops(1 << kb)


def generate_skg_distributed(
    spec: SKGSpec,
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
    """Generate the SKG instance ``spec`` describes across ``nranks``.

    :func:`~repro.distributed.generator.generate_distributed`'s contract
    with the spec as the source.  All scheme/storage/pipeline/wire
    combinations of the exact generator are available and produce
    bit-identical edge sets for a fixed spec.
    """
    plan = GenerationPlan(
        scheme, storage, chunk_size, pipeline, wire, source=spec
    )
    return execute_plan(
        plan, nranks, backend=backend, runner=runner, telemetry=telemetry
    )
