"""SKG generation through the SPMD runtime: bit-identity everywhere.

The stochastic tier's one promise is that a fixed ``(seed_matrix,
skg_seed)`` names *one* graph, no matter how the candidate space is
enumerated: every scheme x storage x pipeline x wire x
backend combination, supervised retry under faults, and checkpointed
elastic re-sharding must reproduce the serial oracle bit-for-bit.
Also covers the rank and round layout of the sampler, the plan's bound
on ``k``, the run-key digest folding, telemetry counters, the
``--model skg`` CLI, and the service layer's SKG routes.
"""

import asyncio

import numpy as np
import pytest

from repro.cli import main
from repro.distributed.checkpoint import (
    CheckpointStore,
    generation_family_key,
    generation_run_key,
)
from repro.distributed.faults import FaultPlan
from repro.distributed.generator import GenerationPlan, KronPair
from repro.distributed.shuffle import bucket_edges
from repro.distributed.supervisor import (
    SupervisorReport,
    canonical_edges,
    generate_to_directory,
    run_chaos_matrix,
)
from repro.errors import PartitionError, ReproError
from repro.graph.generators import clique, cycle
from repro.skg.distributed import (
    generate_skg_distributed,
    skg_candidate_factors,
)
from repro.skg.model import SKGSpec
from repro.skg.sample import (
    SKG_MAX_K,
    SKGSampler,
    skg_sample_edges,
    skg_sampler,
)
from repro.telemetry import TelemetrySession

SPEC = SKGSpec.from_library("polblogs", k=6, skg_seed=3)


@pytest.fixture(scope="module")
def oracle():
    """Serial reference edge set, canonical order."""
    return canonical_edges(skg_sample_edges(SPEC).edges)


def check(el, oracle):
    np.testing.assert_array_equal(canonical_edges(el.edges), oracle)


class TestCandidateFactors:
    def test_product_enumerates_every_pair(self):
        a, b = skg_candidate_factors(5)
        assert a.n * b.n == 1 << 5
        assert a.m_directed == a.n * a.n  # complete with loops
        assert b.m_directed == b.n * b.n

    def test_split_is_near_even(self):
        a, b = skg_candidate_factors(7)
        assert (a.n, b.n) == (1 << 3, 1 << 4)


class TestDistributedBitIdentity:
    @pytest.mark.parametrize("scheme", ["1d", "2d"])
    @pytest.mark.parametrize("storage", ["source_block", "edge_hash"])
    def test_scheme_storage_grid(self, oracle, scheme, storage):
        el, _ = generate_skg_distributed(
            SPEC, 4, scheme=scheme, storage=storage
        )
        check(el, oracle)

    @pytest.mark.parametrize("ranks", [1, 2, 5])
    def test_rank_count_invariance(self, oracle, ranks):
        el, _ = generate_skg_distributed(SPEC, ranks)
        check(el, oracle)

    def test_chunk_size_invariance(self, oracle):
        for chunk in (64, 1 << 10):
            el, _ = generate_skg_distributed(SPEC, 3, chunk_size=chunk)
            check(el, oracle)

    @pytest.mark.parametrize("wire", ["raw", "varint"])
    def test_async_pipeline_and_wire(self, oracle, wire):
        el, _ = generate_skg_distributed(
            SPEC, 4, scheme="1d-pipelined", pipeline="async", wire=wire
        )
        check(el, oracle)

    def test_legacy_routing(self, oracle):
        """Accepted edges land where the argsort reference routes them."""
        _, outputs = generate_skg_distributed(SPEC, 4, storage="edge_hash")
        reference = bucket_edges(
            oracle, 4, scheme="edge_hash", n=SPEC.n, method="argsort"
        )
        for out, want in zip(outputs, reference):
            check(out, canonical_edges(want))

    def test_process_backend(self, oracle):
        el, _ = generate_skg_distributed(SPEC, 2, backend="process")
        check(el, oracle)

    def test_generated_counter_equals_rows(self):
        tel = TelemetrySession()
        el, outputs = generate_skg_distributed(
            SPEC, 3, storage="edge_hash", telemetry=tel
        )
        counters = tel.aggregated_metrics().get("counters", {})
        assert counters["edges.generated"] == len(el.edges) > 0
        assert sum(o.generated for o in outputs) == len(el.edges)

    def test_noisy_spec_also_bit_identical(self):
        noisy = SKGSpec.from_library(
            "polblogs", k=6, skg_seed=3, noise_b=0.1
        )
        ref = canonical_edges(skg_sample_edges(noisy).edges)
        el, _ = generate_skg_distributed(noisy, 4, scheme="2d")
        check(el, ref)
        assert not np.array_equal(
            ref, canonical_edges(skg_sample_edges(SPEC).edges)
        )


class TestSamplerLayout:
    """Ranks get even shares, and rounds stay inside their bound."""

    BALANCE_SPEC = SKGSpec.from_library("polblogs", k=11, skg_seed=5)

    @pytest.mark.parametrize("ranks", [2, 4])
    def test_generated_rows_balanced_at_k11(self, ranks):
        _, outputs = generate_skg_distributed(
            self.BALANCE_SPEC, ranks, storage="edge_hash"
        )
        rows = [o.generated for o in outputs]
        assert max(rows) / np.mean(rows) <= 1.15, rows

    def test_pipelined_rounds_stay_bounded(self):
        spec, chunk = self.BALANCE_SPEC, 2000
        sampler = skg_sampler(spec)
        per_rank = GenerationPlan(
            "1d-pipelined", chunk_size=chunk, source=spec
        ).partition(3)
        tel = TelemetrySession()
        el, _ = generate_skg_distributed(
            spec, 3, scheme="1d-pipelined", chunk_size=chunk, telemetry=tel
        )
        check(el, canonical_edges(skg_sample_edges(spec).edges))
        rounds = max(len(r) for r in per_rank)
        assert rounds > 3
        for snap in tel.ranks:
            spans = [e for e in snap.events if e.name == "generate"]
            assert len(spans) == rounds
        for start, stop in (r for ranges in per_rank for r in ranges):
            expect = sampler.expected(start, stop)
            assert expect <= chunk
            # Undirected rows come in mirrored pairs: variance 2 * mean.
            got = len(sampler.sample(start, stop))
            assert got <= expect + 6.0 * np.sqrt(2.0 * expect) + 2.0

    def test_rows_past_the_capacity_bound_still_land(self, oracle, monkeypatch):
        """A batch round without exchange fills one block sized by the
        sample's row bound; a sample past it is stacked on, not lost."""
        monkeypatch.setattr(SKGSampler, "row_bound", lambda self, ranges: 5)
        el, _ = generate_skg_distributed(SPEC, 2, chunk_size=16)
        check(el, oracle)


class TestSamplerBound:
    def test_plan_rejects_k_above_the_bound(self, tmp_path):
        """Refused when the plan is partitioned, before the sampler
        allocates anything and before any rank or shard exists."""
        big = SKGSpec.from_library("polblogs", k=SKG_MAX_K + 1)
        assert SKG_MAX_K >= 22
        with pytest.raises(PartitionError, match=f"k <= {SKG_MAX_K}"):
            GenerationPlan(source=big).partition(2)
        with pytest.raises(PartitionError, match="sampler's bound"):
            generate_skg_distributed(big, 2)
        with pytest.raises(PartitionError, match="sampler's bound"):
            generate_to_directory(big, tmp_path, 2)
        assert not any(tmp_path.iterdir())
        GenerationPlan(source=SKGSpec.from_library("polblogs", k=SKG_MAX_K))

    def test_closed_form_queries_stay_valid_above_the_bound(self):
        from repro.skg.expected import expected_edge_rows

        big = SKGSpec.from_library("polblogs", k=40)
        assert expected_edge_rows(big) > 1e15


class TestRunKeys:
    def test_digest_folds_into_run_and_family_keys(self):
        exact = GenerationPlan(
            storage="source_block", source=KronPair(clique(3), cycle(4))
        )
        keys = {
            generation_run_key(plan, 4)
            for plan in (
                exact,
                GenerationPlan(storage="source_block", source=SPEC),
                GenerationPlan(
                    storage="source_block",
                    source=SKGSpec.from_library("polblogs", k=6, skg_seed=4),
                ),
            )
        }
        assert len(keys) == 3
        skg = GenerationPlan(storage="source_block", source=SPEC)
        assert f"{SPEC.digest():016x}" in generation_run_key(skg, 4)
        assert f"{SPEC.digest():016x}" in generation_family_key(skg)
        assert "skg" not in generation_run_key(exact, 4)

    def test_skg_model_requires_spec(self):
        with pytest.raises(ReproError, match="must be a KronPair or an SKGSpec"):
            GenerationPlan(source="polblogs")


def persisted(spec, nranks, directory, **kwargs):
    """``generate_to_directory`` of ``spec``, read back whole, plus its
    aggregated telemetry counters."""
    tel = TelemetrySession()
    manifest = generate_to_directory(
        spec, directory, nranks, telemetry=tel, **kwargs
    )
    el = CheckpointStore(directory).load_run(manifest)
    return el, tel.aggregated_metrics().get("counters", {})


class TestSupervisedAndElastic:
    def test_crash_retry_recovers_bit_identical(self, oracle, tmp_path):
        rep = SupervisorReport()
        el, _ = persisted(
            SPEC, 3, tmp_path, storage="edge_hash",
            fault_plan=FaultPlan(name="crash", crash_rank=1, crash_at=0),
            report=rep,
        )
        check(el, oracle)
        assert rep.attempts >= 2

    def test_elastic_reshard_4_to_2(self, oracle, tmp_path):
        el_ref, _ = persisted(SPEC, 4, tmp_path, storage="source_block")
        check(el_ref, oracle)
        el, counters = persisted(SPEC, 2, tmp_path, storage="source_block")
        check(el, oracle)
        assert len(CheckpointStore(tmp_path).manifests()) == 2
        assert counters.get("edges.generated", 0) == 0, \
            "resumed shards must not regenerate"
        assert counters.get("edges.restored", 0) == len(el.edges)

    def test_different_spec_never_consumes_foreign_checkpoints(
        self, tmp_path
    ):
        persisted(SPEC, 4, tmp_path, storage="source_block")
        other = SKGSpec.from_library("polblogs", k=6, skg_seed=99)
        el, counters = persisted(other, 4, tmp_path, storage="source_block")
        assert counters.get("edges.generated", 0) == len(el.edges), \
            "a different spec digest must regenerate, not resume"


class TestNoFactorPair:
    """An SKG run names its vertex set and run key by the spec alone: with
    every binding of the stand-in factor builders made to raise, each
    driver still runs and stores exactly the serial oracle."""

    SMALL = SKGSpec.from_library("polblogs", k=5, skg_seed=2)

    @pytest.fixture(autouse=True)
    def no_factor_builders(self, monkeypatch):
        import sys

        def boom(*args, **kwargs):
            raise AssertionError("an SKG run built a factor pair")

        for name in ("skg_candidate_factors", "complete_with_loops"):
            for module in list(sys.modules.values()):
                if callable(getattr(module, name, None)):
                    monkeypatch.setattr(module, name, boom)

    @pytest.fixture
    def small_oracle(self):
        return canonical_edges(skg_sample_edges(self.SMALL).edges)

    @staticmethod
    def stored(directory):
        store = CheckpointStore(directory)
        (manifest,) = store.manifests()
        return canonical_edges(store.load_run(manifest).edges)

    def test_in_memory(self, small_oracle):
        el, _ = generate_skg_distributed(self.SMALL, 2)
        check(el, small_oracle)

    def test_persisted(self, small_oracle, tmp_path):
        generate_to_directory(self.SMALL, tmp_path, 2)
        np.testing.assert_array_equal(self.stored(tmp_path), small_oracle)

    def test_chaos_harness(self, small_oracle, tmp_path):
        report = run_chaos_matrix(
            self.SMALL, 2, backends=("thread",), checkpoint_root=tmp_path,
            plans=[FaultPlan(name="crash", crash_rank=1, crash_at=0)],
        )
        assert report.all_recovered, report.to_text()
        (cell,) = tmp_path.iterdir()
        np.testing.assert_array_equal(self.stored(cell), small_oracle)

    def test_cli_generate(self, small_oracle, tmp_path):
        assert main([
            "generate", "--model", "skg", "--seed-matrix", "polblogs",
            "--skg-k", "5", "--skg-seed", "2", "--ranks", "2",
            "--out", str(tmp_path),
        ]) == 0
        np.testing.assert_array_equal(self.stored(tmp_path), small_oracle)

    def test_cli_chaos(self, small_oracle, tmp_path, monkeypatch):
        import repro.distributed.faults as faults

        monkeypatch.setattr(
            faults, "default_fault_matrix",
            lambda **_: [FaultPlan(name="crash", crash_rank=0, crash_at=0)],
        )
        assert main([
            "chaos", "--model", "skg", "--seed-matrix", "polblogs",
            "--skg-k", "5", "--skg-seed", "2", "--ranks", "2",
            "--backends", "thread", "--checkpoint-root", str(tmp_path),
        ]) == 0
        (cell,) = tmp_path.iterdir()
        np.testing.assert_array_equal(self.stored(cell), small_oracle)


class TestCli:
    def test_generate_model_skg_writes_shards(self, tmp_path, capsys):
        code = main([
            "generate", "--model", "skg",
            "--seed-matrix", "polblogs", "--skg-k", "6", "--skg-seed", "3",
            "--out", str(tmp_path / "shards"), "--ranks", "3",
            "--scheme", "1d", "--backend", "thread",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "generated" in out
        store = CheckpointStore(tmp_path / "shards")
        (manifest,) = store.manifests()
        assert manifest.nranks == 3 and len(store.keys()) == 3
        np.testing.assert_array_equal(
            canonical_edges(store.load_run(manifest).edges),
            canonical_edges(skg_sample_edges(SPEC).edges),
        )

    def test_list_seed_matrices(self, capsys):
        assert main(["generate", "--list-seed-matrices"]) == 0
        out = capsys.readouterr().out
        assert "polblogs" in out and "facebook" in out

    @pytest.mark.parametrize(
        "command", [["generate", "--out", "s"], ["chaos"]],
        ids=["generate", "chaos"],
    )
    def test_skg_rejects_positional_factors(
        self, tmp_path, capsys, monkeypatch, command
    ):
        """Both subcommands refuse factor files next to ``--model skg``,
        with one message, before reading them or running anything."""
        monkeypatch.chdir(tmp_path)
        # The CLI turns ReproError into exit code 2 + stderr message.
        code = main([
            *command, "a.txt", "b.txt", "--model", "skg",
            "--seed-matrix", "polblogs", "--skg-k", "4",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: --model skg samples the seed matrix's 2**k " \
            "vertices; do not pass factor files" in err
        assert not (tmp_path / "s").exists()


class TestServiceSkgRoutes:
    @staticmethod
    def serve(fn):
        from repro.service.loadgen import HTTPClient
        from repro.service.server import KronService, ServiceConfig

        async def run():
            service = KronService(ServiceConfig(port=0))
            await service.start()
            client = HTTPClient("127.0.0.1", service.bound_port)
            await client.connect()
            try:
                return await fn(client)
            finally:
                await client.aclose()
                await service.aclose()

        return asyncio.run(run())

    PAYLOAD = {"seed_matrix": "polblogs", "k": 6, "skg_seed": 3}

    def test_register_query_and_cache(self):
        from repro.skg.expected import expected_undirected_edges

        async def go(client):
            status, doc = await client.request(
                "POST", "/v1/tenants/t/skg", self.PAYLOAD
            )
            assert status == 200, doc
            digest = doc["skg"]
            assert digest == f"{SPEC.digest():016x}"

            status, doc = await client.request("GET", "/v1/tenants/t/skg")
            assert status == 200
            assert [h["skg"] for h in doc["skg"]] == [digest]

            status, doc = await client.request(
                "GET", f"/v1/tenants/t/skg/{digest}/summary"
            )
            assert status == 200
            assert doc["theta"] == list(SPEC.theta)

            url = f"/v1/tenants/t/skg/{digest}/expected/edge_count"
            status, doc = await client.request("POST", url, {})
            assert status == 200 and doc["cached"] is False
            assert doc["value"]["expected_undirected_edges"] == \
                pytest.approx(expected_undirected_edges(SPEC))
            status, doc = await client.request("POST", url, {})
            assert status == 200 and doc["cached"] is True

        self.serve(go)

    def test_error_paths(self):
        async def go(client):
            status, doc = await client.request(
                "POST", "/v1/tenants/t/skg", {"seed_matrix": "nope"}
            )
            assert status == 400

            status, doc = await client.request(
                "GET", "/v1/tenants/t/skg/0123456789abcdef/summary"
            )
            assert status == 404

            await client.request("POST", "/v1/tenants/t/skg", self.PAYLOAD)
            digest = f"{SPEC.digest():016x}"
            status, doc = await client.request(
                "POST", f"/v1/tenants/t/skg/{digest}/expected/nope", {}
            )
            assert status == 400

        self.serve(go)

    def test_properties_listing_includes_expected(self):
        async def go(client):
            status, doc = await client.request("GET", "/v1/properties")
            assert status == 200
            assert "edge_count" in doc["skg_expected"]

        self.serve(go)
