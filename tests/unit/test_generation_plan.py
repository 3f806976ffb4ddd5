"""GenerationPlan: one validation, derived answers, keys by construction.

Also pins the driver surface the performance ledger
(``benchmarks/ledger/gen.py``) is written against, so a later
simplification cannot silently break the benchmark.
"""

import dataclasses
import inspect

import numpy as np
import pytest

from repro.cli import main
from repro.distributed import (
    GenerationPlan,
    KronPair,
    RankOutput,
    bucket_edges,
    exchange_edges,
    generate_distributed,
    generate_rank,
    spmd_run,
)
from repro.distributed.checkpoint import (
    CheckpointStore,
    generation_family_key,
    generation_run_key,
)
from repro.distributed.comm import Communicator
from repro.distributed.supervisor import generate_to_directory
from repro.errors import PartitionError
from repro.graph import EdgeList
from repro.graph.generators import clique, cycle
from repro.kronecker import kron_product
from repro.kronecker.product import DEFAULT_CHUNK
from repro.skg.distributed import (
    generate_skg_distributed,
    skg_candidate_factors,
)
from repro.skg.model import SKGSpec
from repro.skg.sample import SKGAcceptor, skg_sample_edges

SPEC = SKGSpec.from_library("polblogs", k=6, skg_seed=3)
PAIR = KronPair(clique(3), cycle(4))

#: One alternative value per plan field, valid next to BASE's others.
BASE = GenerationPlan(scheme="1d-pipelined", storage="source_block", source=PAIR)
ALTERNATIVES = {
    "scheme": "1d",
    "storage": "edge_hash",
    "chunk_size": 12345,
    "pipeline": "async",
    "wire": "varint",
    "source": SPEC,
}


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"scheme": "3d"}, "unknown scheme '3d'; use '1d'"),
            ({"storage": "vertex_hash"}, "unknown storage"),
            ({"pipeline": "overlapped"},
             "unknown pipeline 'overlapped'; use 'sync' or 'async'"),
            ({"wire": "zstd"}, "unknown wire format 'zstd'; use one of"),
            ({"pipeline": "async"}, "requires scheme='1d-pipelined'"),
            ({"scheme": "2d", "pipeline": "async"}, "nothing to overlap"),
            ({"source": "polblogs"},
             "must be a KronPair or an SKGSpec, got str"),
        ],
    )
    def test_rejected_once_with_partition_error(self, kwargs, match):
        with pytest.raises(PartitionError, match=match):
            GenerationPlan(**{"source": PAIR, **kwargs})

    @pytest.mark.parametrize("chunk_size", [0, -1, 1.5, True, "64", None])
    @pytest.mark.parametrize(
        "shape",
        [
            {},  # default routed plan: used to run to "exact" with 0
            {"scheme": "2d", "storage": "edge_hash"},
            {"scheme": "1d-pipelined", "storage": "edge_hash"},
        ],
    )
    def test_chunk_size_must_be_a_positive_int(self, chunk_size, shape):
        with pytest.raises(
            PartitionError, match="chunk_size must be an int >= 1, got"
        ):
            GenerationPlan(chunk_size=chunk_size, **shape, source=PAIR)

    def test_bad_chunk_size_never_reaches_a_rank(self, tmp_path, capsys):
        """Rejected where the plan is built: no world is spawned (so a
        supervised runner has nothing to retry) and the CLI exits 2."""
        from repro.cli import main

        a, b = clique(3), cycle(4)

        def runner(*args, **kwargs):
            raise AssertionError("a rank world was launched")

        for chunk_size in (0, -1, 1.5, True):
            with pytest.raises(PartitionError, match="chunk_size"):
                generate_distributed(
                    a, b, 2, storage="edge_hash", chunk_size=chunk_size,
                    runner=runner,
                )
        assert GenerationPlan(chunk_size=1, source=PAIR).chunk_size == 1
        out = tmp_path / "unused"
        assert main([
            "generate", "--chunk-size", "0", "--out", str(out),
            "--trace", str(tmp_path / "unused.json"),
        ]) == 2
        assert "chunk_size must be an int >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_drivers_validate_through_the_plan(self):
        a, b = clique(3), cycle(4)
        with pytest.raises(PartitionError, match="unknown scheme"):
            generate_distributed(a, b, 2, scheme="3d")
        with pytest.raises(PartitionError, match="unknown scheme"):
            generate_skg_distributed(SPEC, 2, scheme="3d")

    def test_removed_axes_are_gone(self):
        a, b = clique(3), cycle(4)
        for removed in ("routing", "model", "skg"):
            with pytest.raises(TypeError):
                generate_distributed(a, b, 2, **{removed: "x"})


class TestDerivedAnswers:
    @pytest.mark.parametrize(
        "scheme,storage,effective,mode",
        [
            ("1d", None, None, "independent"),
            ("2d", None, None, "independent"),
            ("1d", "edge_hash", "edge_hash", "collective"),
            ("2d", "source_block", "source_block", "collective"),
            ("1d-pipelined", None, "source_block", "collective"),
            ("1d-pipelined", "edge_hash", "edge_hash", "collective"),
        ],
    )
    def test_storage_exchange_and_shard_mode(
        self, scheme, storage, effective, mode
    ):
        plan = GenerationPlan(scheme, storage, source=PAIR)
        assert plan.effective_storage == effective
        assert plan.exchanges == (effective is not None)
        assert plan.shard_mode == mode
        assert plan.streams == (scheme == "1d-pipelined")


class _NoComm(Communicator):
    """A rank of a 3-rank world on which any communication is an error."""

    def __init__(self, rank):
        self._rank = rank

    rank = property(lambda self: self._rank)
    size = property(lambda self: 3)

    def send(self, obj, dest, tag=0):
        raise AssertionError("message in a non-exchanging program")

    def recv(self, source, tag=0):
        raise AssertionError("message in a non-exchanging program")


class TestRankProgram:
    @pytest.mark.parametrize("scheme", ["1d", "2d"])
    def test_no_storage_means_no_collective(self, scheme):
        a, b = clique(4), cycle(5)
        plan = GenerationPlan(scheme, source=KronPair(a, b))
        cells = plan.partition(3)
        blocks = [
            generate_rank(_NoComm(rank), plan, cells).edges
            for rank in range(3)
        ]
        got = np.vstack([blk for blk in blocks if len(blk)])
        assert EdgeList(got, a.n * b.n) == kron_product(a, b)


#: Shard digests of ``PAIR`` on 3 ranks per (scheme, storage, chunk size),
#: recorded before one function laid out every factor-pair round.  Chunk
#: sizes around ``m_B = 8``: one product edge a round, 7 = ``m_B - 1`` (B
#: split on the dense path, whole on the routed one), ``m_B`` and the
#: default.  Every plan stores the union ``UNION`` of 48 rows.
PINNED_SHARDS = {
    ("1d", "edge_hash", 1): (
        0x9B97CC2C929DE1EA, 0xED9DABD4E452AA3D, 0xED74366377323BA7,
    ),
    ("1d", "edge_hash", 7): (
        0x9B97CC2C929DE1EA, 0xED9DABD4E452AA3D, 0xED74366377323BA7,
    ),
    ("1d", "edge_hash", 8): (
        0x9B97CC2C929DE1EA, 0xED9DABD4E452AA3D, 0xED74366377323BA7,
    ),
    ("1d", "edge_hash", DEFAULT_CHUNK): (
        0x9B97CC2C929DE1EA, 0xED9DABD4E452AA3D, 0xED74366377323BA7,
    ),
    ("1d", "source_block", 1): (
        0xBDB8CE606CFA0587, 0x4CFA526DA54D5D1C, 0x93715582C0A6BCFC,
    ),
    ("1d", "source_block", 7): (
        0xBDB8CE606CFA0587, 0x4CFA526DA54D5D1C, 0x93715582C0A6BCFC,
    ),
    ("1d", "source_block", 8): (
        0xBDB8CE606CFA0587, 0x4CFA526DA54D5D1C, 0x93715582C0A6BCFC,
    ),
    ("1d", "source_block", DEFAULT_CHUNK): (
        0xBDB8CE606CFA0587, 0x4CFA526DA54D5D1C, 0x93715582C0A6BCFC,
    ),
    ("2d", "edge_hash", 1): (
        0x735DE450CB3C99BB, 0x74F389179E09D632, 0x2A18A5EEA7FB51CC,
    ),
    ("2d", "edge_hash", 7): (
        0x735DE450CB3C99BB, 0x74F389179E09D632, 0x2A18A5EEA7FB51CC,
    ),
    ("2d", "edge_hash", 8): (
        0x735DE450CB3C99BB, 0x74F389179E09D632, 0x2A18A5EEA7FB51CC,
    ),
    ("2d", "edge_hash", DEFAULT_CHUNK): (
        0x735DE450CB3C99BB, 0x74F389179E09D632, 0x2A18A5EEA7FB51CC,
    ),
    ("2d", "source_block", 1): (
        0x1BF25FB32384307D, 0x1B66A3970B8CE55F, 0x56130B791876FAD3,
    ),
    ("2d", "source_block", 7): (
        0x1BF25FB32384307D, 0x1B66A3970B8CE55F, 0x56130B791876FAD3,
    ),
    ("2d", "source_block", 8): (
        0x1BF25FB32384307D, 0x1B66A3970B8CE55F, 0x56130B791876FAD3,
    ),
    ("2d", "source_block", DEFAULT_CHUNK): (
        0x1BF25FB32384307D, 0x1B66A3970B8CE55F, 0x56130B791876FAD3,
    ),
    ("1d-pipelined", "edge_hash", 1): (
        0x3E72C2D1A7BD1197, 0xCB5834DF7662351F, 0x6386BB8E18539CCE,
    ),
    ("1d-pipelined", "edge_hash", 7): (
        0x995E6D55DFB26DD6, 0xF2D6FCCF983EA0C7, 0xF4E7A6941695020B,
    ),
    ("1d-pipelined", "edge_hash", 8): (
        0xA06B3FDA37E1EC36, 0xF2D6FCCF983EA0C7, 0x5A8AA7CDA41C2CAA,
    ),
    ("1d-pipelined", "edge_hash", DEFAULT_CHUNK): (
        0x9B97CC2C929DE1EA, 0xED9DABD4E452AA3D, 0xED74366377323BA7,
    ),
    ("1d-pipelined", "source_block", 1): (
        0xBDB8CE606CFA0587, 0x4CFA526DA54D5D1C, 0x93715582C0A6BCFC,
    ),
    ("1d-pipelined", "source_block", 7): (
        0xBDB8CE606CFA0587, 0x4CFA526DA54D5D1C, 0x93715582C0A6BCFC,
    ),
    ("1d-pipelined", "source_block", 8): (
        0xBDB8CE606CFA0587, 0x4CFA526DA54D5D1C, 0x93715582C0A6BCFC,
    ),
    ("1d-pipelined", "source_block", DEFAULT_CHUNK): (
        0xBDB8CE606CFA0587, 0x4CFA526DA54D5D1C, 0x93715582C0A6BCFC,
    ),
}
UNION = 0x3FA603F595693F05

#: Shard digests of ``repro-kron generate``'s built-in K4 (x) C5 on 3
#: process ranks, per (plan flags, ``--chunk-size``): one row a round, B
#: split on the dense path (m_B = 10), and the default.  Every run stores
#: the union ``(0x4061A26C73CEC456, 120)``.
CLI_ASYNC = "1d-pipelined --pipeline async --storage source_block"
CLI_HASH = "2d --storage edge_hash"
CLI_SHARDS = {
    (CLI_ASYNC, "1"): [0x4153CFCD359AD4D6, 0xCBF048684D4B5835, 0xF76DD227FF795D34],
    (CLI_ASYNC, "7"): [0x4153CFCD359AD4D6, 0xCBF048684D4B5835, 0xF76DD227FF795D34],
    (CLI_ASYNC, None): [0xDC00681B4E701F32, 0x42E84AE28C384270, 0x33670D7F29A5A992],
    (CLI_HASH, "1"): [0x1123898186C8C36F, 0x24EDA0F5F2A6D342, 0xA8BC7B215DB35285],
    (CLI_HASH, "7"): [0x1123898186C8C36F, 0x24EDA0F5F2A6D342, 0xA8BC7B215DB35285],
    (CLI_HASH, None): [0x1123898186C8C36F, 0x24EDA0F5F2A6D342, 0xA8BC7B215DB35285],
}


class TestPinnedShards:
    """The stored shards and run keys do not depend on how the rounds are
    laid out in code: literal values, not a second copy of the layout."""

    @pytest.mark.parametrize("scheme,storage,chunk", list(PINNED_SHARDS))
    def test_shards_and_keys_are_pinned(self, scheme, storage, chunk, tmp_path):
        manifest = generate_to_directory(
            PAIR, tmp_path, 3, scheme=scheme, storage=storage,
            chunk_size=chunk,
        )
        assert manifest.run_key == (
            f"gen-cba76e0e13324faf-ec8858c752a1e5b0-r3-scheme={scheme}-"
            f"storage={storage}-chunk_size={chunk}-pipeline=sync-wire=raw"
        )
        assert manifest.shard_digests == PINNED_SHARDS[scheme, storage, chunk]
        assert (manifest.union_digest, manifest.edges_total) == (UNION, 48)

    @pytest.mark.parametrize(
        "plan,chunk", list(CLI_SHARDS),
        ids=[f"{p.split()[0]}-{p.split()[-1]}-{c or 'default'}"
             for p, c in CLI_SHARDS],
    )
    def test_process_runs_of_the_cli_are_pinned(self, plan, chunk, tmp_path):
        argv = ["generate", "--ranks", "3", "--backend", "process",
                "--scheme", *plan.split(), "--out", str(tmp_path)]
        if chunk is not None:
            argv += ["--chunk-size", chunk]
        assert main(argv) == 0
        (manifest,) = CheckpointStore(tmp_path).manifests()
        assert list(manifest.shard_digests) == CLI_SHARDS[plan, chunk]
        assert (manifest.union_digest, manifest.edges_total) == (
            0x4061A26C73CEC456, 120
        )


class TestRunKeysByConstruction:
    def test_alternatives_cover_every_field(self):
        names = {f.name for f in dataclasses.fields(GenerationPlan)}
        assert names == set(ALTERNATIVES)

    @pytest.mark.parametrize("field", sorted(ALTERNATIVES))
    def test_every_field_changes_run_and_family_key(self, field):
        other = dataclasses.replace(BASE, **{field: ALTERNATIVES[field]})
        assert other != BASE
        assert generation_run_key(other, 4) != generation_run_key(BASE, 4)
        assert generation_family_key(other) != generation_family_key(BASE)

    def test_nranks_changes_run_key_but_not_family(self):
        assert generation_run_key(BASE, 4) != generation_run_key(BASE, 2)
        family = generation_family_key(BASE)
        for nranks in (2, 4):
            key = generation_run_key(BASE, nranks)
            assert key.replace(f"-r{nranks}-", "-r*-") == family

    def test_factors_change_the_key(self):
        other = dataclasses.replace(BASE, source=KronPair(clique(3), cycle(5)))
        assert generation_run_key(BASE, 4) != generation_run_key(other, 4)

    def test_skg_seed_separates_keys_and_exact_has_no_skg_token(self):
        specs = [
            SKGSpec.from_library("polblogs", k=6, skg_seed=seed)
            for seed in range(4)
        ]
        keys = {
            generation_run_key(dataclasses.replace(BASE, source=s), 4)
            for s in specs
        }
        assert len(keys) == len(specs)
        assert "skg" not in BASE.token()
        assert "skg" not in generation_run_key(BASE, 4)
        assert "skg" not in generation_family_key(BASE)

    def test_skg_keys_fold_the_spec_alone(self):
        """An SKG key is the spec, the world size and the plan axes: equal
        specs built apart share it, and no factor digest is in it."""
        plan = dataclasses.replace(BASE, source=SPEC)
        twin = dataclasses.replace(
            BASE, source=SKGSpec.from_library("polblogs", k=6, skg_seed=3)
        )
        assert generation_run_key(plan, 4) == generation_run_key(twin, 4) == (
            f"gen-skg-{SPEC.digest():016x}-r4-{BASE.token()}"
        )

    @pytest.mark.parametrize(
        "plan,run_key",
        [
            (
                GenerationPlan("1d", "source_block", source=PAIR),
                "gen-cba76e0e13324faf-ec8858c752a1e5b0-r2-scheme=1d-"
                "storage=source_block-chunk_size=1048576-pipeline=sync-"
                "wire=raw",
            ),
            (
                GenerationPlan(
                    "1d-pipelined", "edge_hash", pipeline="async",
                    wire="varint", source=PAIR,
                ),
                "gen-cba76e0e13324faf-ec8858c752a1e5b0-r2-"
                "scheme=1d-pipelined-storage=edge_hash-chunk_size=1048576-"
                "pipeline=async-wire=varint",
            ),
        ],
        ids=["1d-source_block", "1d-pipelined-async-varint-edge_hash"],
    )
    def test_exact_keys_are_pinned(self, plan, run_key):
        """Literal ``clique(3) (x) cycle(4)`` keys written before a factor
        pair became a source: old exact checkpoints keep resuming."""
        assert generation_run_key(plan, 2) == run_key
        assert generation_family_key(plan) == run_key.replace("-r2-", "-r*-")


class TestLedgerDriverSurface:
    """What ``benchmarks/ledger/gen.py`` relies on."""

    AXES = {
        "scheme": "1d", "storage": None, "backend": "thread",
        "pipeline": "sync", "wire": "raw",
    }

    @pytest.mark.parametrize(
        "driver", [generate_distributed, generate_skg_distributed]
    )
    def test_axes_are_defaulted_keywords(self, driver):
        params = inspect.signature(driver).parameters
        for name, default in self.AXES.items():
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY
            assert params[name].default == default
        assert isinstance(params["chunk_size"].default, int)
        assert params["runner"].default is spmd_run
        assert params["telemetry"].default is None

    @pytest.mark.parametrize("telemetry", [None, object()])
    def test_runner_contract(self, telemetry):
        calls = []

        def runner(rank_fn, nranks, *args, **kwargs):
            calls.append(kwargs)
            outs = spmd_run(rank_fn, nranks, *args, backend=kwargs["backend"])
            assert all(hasattr(o, "edges") and hasattr(o, "generated")
                       for o in outs)
            return outs

        a, b = clique(3), cycle(4)
        got, _ = generate_distributed(
            a, b, 2, storage="edge_hash", runner=runner, telemetry=telemetry
        )
        assert got == kron_product(a, b)
        el, _ = generate_skg_distributed(
            SPEC, 2, runner=runner, telemetry=telemetry
        )
        assert len(calls) == 2
        expected = {"backend"} | ({"telemetry"} if telemetry else set())
        assert all(set(kwargs) == expected for kwargs in calls)

    def test_rank_output_is_positional(self):
        edges = np.zeros((1, 2), dtype=np.int64)
        out = RankOutput(3, edges, 7)
        assert (out.rank, out.edges, out.generated) == (3, edges, 7)

    def test_shuffle_entry_points_keep_their_signatures(self):
        bucket = inspect.signature(bucket_edges).parameters
        assert list(bucket)[:2] == ["edges", "nparts"]
        assert bucket["method"].default == "scatter"
        assert {"scheme", "n", "method"} <= set(bucket)
        exchange = inspect.signature(exchange_edges).parameters
        assert list(exchange) == ["comm", "outgoing", "wire"]
        assert exchange["wire"].kind is inspect.Parameter.KEYWORD_ONLY

    @pytest.mark.parametrize("k", [3, 4])
    def test_skg_candidate_factors_cover_every_pair(self, k):
        """The ledger re-enacts the candidate filter over this pair's
        product: it must stay the complete ``4**k``-pair candidate space."""
        a, b = skg_candidate_factors(k)
        product = kron_product(a, b)
        assert product.n == 1 << k
        assert product.m_directed == 4**k
        rows = product.edges[:, 0] * product.n + product.edges[:, 1]
        assert len(np.unique(rows)) == 4**k

    def test_skg_acceptor_and_oracle_exist(self):
        spec = SKGSpec.from_library("polblogs", k=4, skg_seed=1)
        acceptor = SKGAcceptor(spec)
        candidates = kron_product(*skg_candidate_factors(spec.k)).edges
        kept = acceptor.filter_edges(candidates)
        assert acceptor.accepted == len(kept)
        assert acceptor.accepted + acceptor.rejected == 4**spec.k
        assert isinstance(skg_sample_edges(spec), EdgeList)

