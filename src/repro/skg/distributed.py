"""SKG drivers over the SPMD runtime.

The stochastic tier runs the exact generator's one rank program with a
different round source: the grass-hopping sampler
(:class:`repro.skg.sample.SKGSampler`) over each rank's range of
sampler chunks, in place of the product kernels over factor cells.
Everything downstream -- routing, pipelined async exchange, varint wire,
storage, supervised retry, checkpointed and elastic resume -- is the
exact generator's machinery, reused verbatim through
``generate_distributed(..., skg=spec)``.

The drivers still hand that entry point a factor pair whose Kronecker
product is the complete candidate space -- two complete-with-self-loops
graphs on ``2**ka`` and ``2**kb`` vertices (``ka + kb = k``) -- because
it names the run: the vertex count and the factor digests of the run
key.  Nothing enumerates it; code that wants the candidate pairs
themselves (the candidate filter :class:`~repro.skg.sample.SKGAcceptor`)
can expand it with the product kernels.
"""

from __future__ import annotations

from repro.distributed.generator import RankOutput, generate_distributed
from repro.distributed.launcher import spmd_run
from repro.distributed.supervisor import generate_distributed_supervised
from repro.graph.edgelist import EdgeList
from repro.graph.generators import complete_with_loops
from repro.kronecker.product import DEFAULT_CHUNK
from repro.skg.model import SKGSpec
from repro.skg.sample import check_sampler_bound

__all__ = [
    "skg_candidate_factors",
    "generate_skg_distributed",
    "generate_skg_supervised",
]


def skg_candidate_factors(k: int) -> tuple[EdgeList, EdgeList]:
    """Factor pair whose product enumerates all ``2**k x 2**k`` pairs.

    Splits the exponent near-evenly (``ka = k // 2``) so both factor
    edge lists stay around ``2**k`` rows -- the 1-D scheme shards the
    ``2**(2*ka)`` A-edges across ranks and replicates B, exactly the
    paper's layout.  Refuses ``k`` above the sampler's bound before
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

    Thin wrapper: builds the candidate factors for ``spec.k`` and calls
    :func:`repro.distributed.generator.generate_distributed` with
    ``skg=spec``, which samples instead of enumerating.  All
    scheme/storage/pipeline/wire combinations of the exact generator are
    available and produce bit-identical edge sets for a fixed spec.
    """
    el_a, el_b = skg_candidate_factors(spec.k)
    return generate_distributed(
        el_a,
        el_b,
        nranks,
        scheme=scheme,
        storage=storage,
        backend=backend,
        chunk_size=chunk_size,
        pipeline=pipeline,
        wire=wire,
        skg=spec,
        runner=runner,
        telemetry=telemetry,
    )


def generate_skg_supervised(
    spec: SKGSpec, nranks: int, **supervised
) -> tuple[EdgeList, list[RankOutput]]:
    """Supervised SKG generation: retry, checkpoint/resume, elastic.

    :func:`repro.distributed.supervisor.generate_distributed_supervised`
    on the spec's candidate factors; ``supervised`` takes every keyword of
    that driver except ``skg``.  The run key (and elastic family key)
    folds the spec digest, so resumed shards can only ever be consumed by
    the identical stochastic configuration, and a 4-rank checkpointed run
    re-shards onto a different world size with bit-identical output.
    """
    el_a, el_b = skg_candidate_factors(spec.k)
    return generate_distributed_supervised(
        el_a, el_b, nranks, skg=spec, **supervised
    )
