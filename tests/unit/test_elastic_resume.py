"""Checkpoint robustness and elastic re-sharded resume.

Covers the recovery invariants the supervised launcher promises:

* damaged checkpoint artifacts (truncated/corrupted shard files, shards
  rewritten after their manifest) surface as the *transient*
  :class:`CheckpointCorruptionError` and the retry regenerates the run
  bit-identically;
* a run checkpointed at R ranks restores onto R' ranks (shrink and grow)
  through :func:`reshard_run`, producing the identical edge set while
  generating nothing.
"""

import dataclasses

import numpy as np
import pytest

from repro.distributed.checkpoint import (
    CheckpointStore,
    generation_family_key,
    generation_run_key,
    reshard_run,
    shard_key,
)
from repro.distributed.generator import (
    GenerationPlan,
    KronPair,
    generate_distributed,
)
from repro.distributed.supervisor import (
    SupervisorReport,
    canonical_edges,
    generate_to_directory,
)
from repro.errors import (
    CheckpointCorruptionError,
    CheckpointError,
    is_transient,
)
from repro.graph.generators import clique, cycle
from repro.kronecker import kron_product
from repro.telemetry import TelemetrySession
from repro.util.hashing import edge_fingerprint

#: The plan ``_supervised`` runs under (everything else at its default).
PLAN = GenerationPlan(storage="source_block", source=KronPair(clique(3), cycle(4)))


@pytest.fixture
def factors():
    return clique(3), cycle(4)


def _supervised(factors, nranks, tmp_path, **kw):
    """The persisted run read back: ``(product, manifest)``."""
    manifest = generate_to_directory(
        KronPair(*factors), tmp_path, nranks, storage="source_block", **kw
    )
    return CheckpointStore(tmp_path).load_run(manifest), manifest


class TestElasticResume:
    @pytest.mark.parametrize("r_from,r_to", [(4, 2), (2, 3), (3, 8)])
    def test_resume_at_different_rank_count(
        self, factors, tmp_path, r_from, r_to
    ):
        el_ref, _ = _supervised(factors, r_from, tmp_path)
        tel = TelemetrySession()
        el, manifest = _supervised(factors, r_to, tmp_path, telemetry=tel)
        np.testing.assert_array_equal(
            canonical_edges(el.edges), canonical_edges(el_ref.edges)
        )
        # Everything came out of resharded checkpoints: zero generation.
        assert manifest.nranks == r_to
        counters = tel.aggregated_metrics().get("counters", {})
        assert counters.get("edges.generated", 0) == 0
        assert counters.get("edges.restored", 0) == len(el.edges)

    def test_reshard_run_direct_round_trip(self, factors, tmp_path):
        a, b = factors
        _supervised(factors, 4, tmp_path)
        store = CheckpointStore(tmp_path)
        family = generation_family_key(PLAN)
        manifests = [m for m in store.manifests() if m.family == family]
        assert len(manifests) == 1 and manifests[0].nranks == 4
        new_key = generation_run_key(PLAN, 2)
        resharded = reshard_run(
            store, manifests[0], new_key=new_key, new_ranks=2
        )
        assert resharded.nranks == 2
        assert resharded.union_digest == manifests[0].union_digest
        assert resharded.edges_total == manifests[0].edges_total
        assert (resharded.n, resharded.storage) == (a.n * b.n, "source_block")
        # Both shard sets reassemble to the same union.
        blocks = [
            store.get(shard_key(new_key, r)).edges for r in range(2)
        ]
        assert edge_fingerprint(np.vstack(blocks)) == manifests[0].union_digest
        np.testing.assert_array_equal(
            canonical_edges(np.vstack(blocks)),
            canonical_edges(store.load_run(manifests[0]).edges),
        )

    def test_resume_reads_only_its_own_family(self, factors, tmp_path):
        """A manifest of another factor pair with the same vertex count
        sits in the directory: the run at a new rank count generates its
        own product instead of resharding the stranger's edges."""
        _supervised(factors, 4, tmp_path)
        other = factors[::-1]  # C4 (x) K3: 12 vertices, another edge set
        tel = TelemetrySession()
        el, _ = _supervised(other, 2, tmp_path, telemetry=tel)
        np.testing.assert_array_equal(
            canonical_edges(el.edges),
            canonical_edges(kron_product(*other).edges),
        )
        assert "supervisor.elastic_reshard" not in {e.name for e in tel.events}

    def test_fresh_rank_count_without_manifest_regenerates(
        self, factors, tmp_path
    ):
        # No prior run at all: elastic hook is a no-op, generation runs.
        tel = TelemetrySession()
        el, _ = _supervised(factors, 3, tmp_path, telemetry=tel)
        counters = tel.aggregated_metrics().get("counters", {})
        assert counters.get("edges.generated", 0) == len(el.edges)


class TestCheckpointCorruption:
    def test_corruption_error_is_transient(self):
        assert issubclass(CheckpointCorruptionError, CheckpointError)
        assert is_transient(CheckpointCorruptionError("x"))

    def test_truncated_shard_discard_raises_transient(self, tmp_path):
        store = CheckpointStore(tmp_path)
        edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
        store.put("k.rank00000", edges, generated=2)
        path = store._path("k.rank00000")
        path.write_bytes(path.read_bytes()[:-20])  # torn write
        with pytest.raises(CheckpointCorruptionError):
            store.get("k.rank00000")
        assert not path.exists(), "damaged artifact must be discarded"
        assert store.get("k.rank00000") is None

    def test_bitflipped_shard_discard_raises_transient(self, tmp_path):
        store = CheckpointStore(tmp_path)
        edges = np.arange(20, dtype=np.int64).reshape(-1, 2)
        store.put("k.rank00000", edges)
        path = store._path("k.rank00000")
        blob = bytearray(path.read_bytes())
        # Flip a byte inside the edge payload itself (value 5 as LE i64),
        # not zip framing: the content changes but the file still parses.
        blob[blob.index((5).to_bytes(8, "little"))] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptionError):
            store.get("k.rank00000")
        assert not path.exists()

    def test_supervised_recovers_from_truncated_shard(
        self, factors, tmp_path
    ):
        a, b = factors
        el_ref, _ = _supervised(factors, 3, tmp_path)
        store = CheckpointStore(tmp_path)
        run_key = generation_run_key(PLAN, 3)
        path = store._path(f"{run_key}.rank00001")
        assert path.exists()
        path.write_bytes(path.read_bytes()[:-32])
        rep = SupervisorReport()
        el, _ = _supervised(factors, 3, tmp_path, report=rep)
        np.testing.assert_array_equal(
            canonical_edges(el.edges), canonical_edges(el_ref.edges)
        )
        assert rep.attempts == 2  # corruption surfaced, retry regenerated
        assert any("CheckpointCorruptionError" in f for f in rep.failures)

    def test_manifest_digest_mismatch_raises_and_discards(
        self, factors, tmp_path
    ):
        a, b = factors
        _supervised(factors, 3, tmp_path)
        store = CheckpointStore(tmp_path)
        run_key = generation_run_key(PLAN, 3)
        manifest = store.get_manifest(run_key)
        assert manifest is not None
        # Rewrite one shard after the manifest: digests no longer agree.
        store.put(
            f"{run_key}.rank00000",
            np.array([[7, 7]], dtype=np.int64),
        )
        with pytest.raises(CheckpointCorruptionError, match="manifest"):
            reshard_run(store, manifest, new_key="elastic", new_ranks=2)
        assert store.get_manifest(run_key) is None, "manifest discarded"

    def test_supervised_recovers_from_stale_manifest(self, factors, tmp_path):
        # Elastic resume meets a tampered source world: the pre-attempt
        # reshard raises the transient error, the retry finds no manifest
        # and regenerates from scratch -- still bit-identical.
        a, b = factors
        el_ref, _ = generate_distributed(a, b, 2, storage="source_block")
        _supervised(factors, 3, tmp_path)
        store = CheckpointStore(tmp_path)
        run_key = generation_run_key(PLAN, 3)
        store.put(
            f"{run_key}.rank00002", np.array([[9, 9]], dtype=np.int64)
        )
        rep = SupervisorReport()
        el, _ = _supervised(factors, 2, tmp_path, report=rep)
        np.testing.assert_array_equal(
            canonical_edges(el.edges), canonical_edges(el_ref.edges)
        )
        assert rep.attempts == 2
        assert any("elastic resume" in f for f in rep.failures)

    def test_tampered_union_digest_rejected(self, factors, tmp_path):
        a, b = factors
        _supervised(factors, 3, tmp_path)
        store = CheckpointStore(tmp_path)
        run_key = generation_run_key(PLAN, 3)
        manifest = store.get_manifest(run_key)
        forged = dataclasses.replace(
            manifest, union_digest=manifest.union_digest ^ 1
        )
        with pytest.raises(CheckpointCorruptionError, match="union digest"):
            reshard_run(store, forged, new_key="elastic", new_ranks=2)
