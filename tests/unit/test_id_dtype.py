"""Edge ids as wide as the product: one id dtype from kernel to shard.

Every block a rank builds is in ``id_dtype(n_C)`` -- ``int32`` while
every product id fits (``n_C <= 2**31``), ``int64`` past that -- and only
the reassembled ``EdgeList`` is ``int64``.  The boundary factors below
have ``n_C = 2**31`` and ``2**31 + 2**15`` vertices but a dozen product
edges, one of them on the last vertex ``n_C - 1``: every generation path
must store the first in ``int32`` and the second in ``int64`` (an ``int32``
block there would wrap that id), and reassemble both to the serial
product.  The checkpoint tests pin what the id width must not touch:
``int64`` shards, as earlier versions wrote them, resume and verify under
the same run key and digests, also when an elastic resume mixes them
with ``int32`` ones.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from repro.distributed.checkpoint import (
    CheckpointStore,
    generation_run_key,
    shard_key,
)
from repro.distributed.generator import (
    GenerationPlan,
    KronPair,
    generate_distributed,
    reassemble,
)
from repro.distributed.supervisor import canonical_edges, generate_to_directory
from repro.errors import GraphFormatError
from repro.graph import EdgeList, erdos_renyi
from repro.graph.generators import clique, cycle
from repro.kronecker import id_dtype, kron_product
from repro.util.hashing import edge_fingerprint, edges_digest


@pytest.mark.parametrize(
    "n_c, want",
    [
        (0, np.int32),
        (1, np.int32),
        ((1 << 31) - 1, np.int32),
        (1 << 31, np.int32),
        ((1 << 31) + 1, np.int64),
        (1 << 36, np.int64),
        (None, np.int64),
    ],
)
def test_id_dtype_is_int32_exactly_while_every_id_fits(n_c, want):
    assert id_dtype(n_c) == want


def _boundary_pair(n_a: int) -> tuple[EdgeList, EdgeList]:
    """``n_a x 2**15`` factors with a dozen product edges, among them one
    from and one to the last product vertex ``n_a * 2**15 - 1``."""
    n_b = 1 << 15
    a = EdgeList(
        np.array([[0, n_a - 1], [n_a - 1, 0], [n_a - 1, n_a - 1], [1, 0]]),
        n_a,
    )
    b = EdgeList(np.array([[0, n_b - 1], [n_b - 1, n_b - 1], [3, 0]]), n_b)
    return a, b


PAIRS = {
    "at_bound": _boundary_pair(1 << 16),  # n_C = 2**31: int32
    "past_bound": _boundary_pair((1 << 16) + 1),  # n_C = 2**31 + 2**15: int64
}
NRANKS = 4


@pytest.fixture(scope="module")
def references():
    out = {}
    for name, (a, b) in PAIRS.items():
        ref = kron_product(a, b)
        assert int(ref.edges.max()) == ref.n - 1
        out[name] = ref
    assert out["at_bound"].n == 1 << 31
    assert out["past_bound"].n > 1 << 31
    return out


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize(
    "scheme, storage, wire",
    list(
        itertools.product(
            ("1d", "1d-pipelined", "2d"),
            (None, "source_block", "edge_hash"),
            ("raw", "varint"),
        )
    ),
)
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_every_path_stores_the_id_dtype_and_the_serial_product(
    references, pair, scheme, storage, wire, backend
):
    a, b = PAIRS[pair]
    ref = references[pair]
    got, outputs = generate_distributed(
        a, b, NRANKS, scheme=scheme, storage=storage, wire=wire,
        backend=backend, chunk_size=4,
    )
    assert [o.edges.dtype for o in outputs] == [id_dtype(ref.n)] * NRANKS
    assert got.edges.dtype == np.int64
    assert edge_fingerprint(got.edges) == edge_fingerprint(ref.edges)
    np.testing.assert_array_equal(
        canonical_edges(got.edges), canonical_edges(ref.edges)
    )


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_a_rank_that_stores_nothing_still_stores_the_id_dtype(
    references, pair, backend
):
    # Sources are i * 2**15 + k with i in {0, 1, n_A - 1}: under the block
    # map ranks 1 and 2 of 4 own none of them.
    a, b = PAIRS[pair]
    _, outputs = generate_distributed(
        a, b, NRANKS, storage="source_block", backend=backend
    )
    assert [len(o.edges) for o in outputs][1:3] == [0, 0]
    assert {o.edges.dtype for o in outputs} == {id_dtype(references[pair].n)}


# --------------------------------------------------------------------- #
# checkpoints written in either width
# --------------------------------------------------------------------- #
def _rewrite_as_int64(store: CheckpointStore, key: str) -> None:
    """Rewrite one shard the way the writer before narrow ids did: the
    same members, ``edges`` widened to ``int64``."""
    shard = store.get(key)
    path = store._path(key)
    with open(path, "wb") as fh:
        np.savez(
            fh,
            edges=shard.edges.astype(np.int64),
            generated=np.int64(shard.generated),
            digest=np.uint64(shard.digest),
            resharded=np.int64(shard.resharded),
        )
    assert store.get(key).edges.dtype == np.int64


def _shards(store: CheckpointStore, manifest) -> list:
    keys = (shard_key(manifest.run_key, r) for r in range(manifest.nranks))
    return [store.get(key) for key in keys]


class TestCheckpointCompatibility:
    def test_int64_shards_resume_under_the_same_key_and_digests(
        self, tmp_path
    ):
        a, b = erdos_renyi(9, 0.5, seed=3), cycle(6)

        def generate():
            return generate_to_directory(
                KronPair(a, b), tmp_path, 3, storage="source_block"
            )

        def mtimes():
            return sorted(p.stat().st_mtime_ns for p in tmp_path.glob("*.npz"))

        first = generate()
        store = CheckpointStore(tmp_path)
        for rank in range(3):
            _rewrite_as_int64(store, shard_key(first.run_key, rank))
        before = mtimes()
        again = generate()
        assert again == first  # same run key, shard digests, union
        assert again.run_key == generation_run_key(
            GenerationPlan(storage="source_block", source=KronPair(a, b)), 3
        )
        # Resumed, not regenerated: no shard was rewritten.
        assert mtimes() == before
        widths = {s.edges.dtype for s in _shards(store, again)}
        assert widths == {np.dtype(np.int64)}
        assert store.load_run(again) == kron_product(a, b)

    def test_elastic_resume_over_mixed_widths_is_bit_identical(
        self, tmp_path
    ):
        a, b = clique(5), cycle(7)
        store = CheckpointStore(tmp_path / "mixed")
        fresh = CheckpointStore(tmp_path / "fresh")
        source = generate_to_directory(
            KronPair(a, b), store.directory, 4, storage="source_block"
        )
        for rank in (0, 2):
            _rewrite_as_int64(store, shard_key(source.run_key, rank))
        widths = {s.edges.dtype for s in _shards(store, source)}
        assert widths == {np.dtype(np.int32), np.dtype(np.int64)}
        resumed = generate_to_directory(
            KronPair(a, b), store.directory, 2, storage="source_block"
        )
        # The same 2-rank run written from scratch, shard for shard.
        direct = generate_to_directory(
            KronPair(a, b), fresh.directory, 2, storage="source_block"
        )
        assert (
            resumed.union_digest == direct.union_digest == source.union_digest
        )
        for old, new in zip(_shards(store, resumed), _shards(fresh, direct)):
            assert old.edges.dtype == new.edges.dtype == np.int32
            np.testing.assert_array_equal(
                canonical_edges(old.edges), canonical_edges(new.edges)
            )
        assert store.load_run(resumed) == fresh.load_run(direct)

    def test_ledger_sized_shards_are_int32_and_about_half_the_bytes(
        self, tmp_path
    ):
        # The shape of the ledger's 1-D workloads: 3.9e6 product edges.
        a, b = erdos_renyi(100, 0.2, seed=1), erdos_renyi(100, 0.2, seed=2)
        manifest = generate_to_directory(
            KronPair(a, b), tmp_path, 2, storage="source_block",
            backend="process",
        )
        store = CheckpointStore(tmp_path)
        narrow_bytes = wide_bytes = 0
        for rank, shard in enumerate(_shards(store, manifest)):
            assert shard.edges.dtype == np.int32
            key = shard_key(manifest.run_key, rank)
            narrow_bytes += store._path(key).stat().st_size
            _rewrite_as_int64(store, key)
            wide_bytes += store._path(key).stat().st_size
            assert edges_digest(store.get(key).edges) == shard.digest
        assert manifest.edges_total > 3_000_000
        assert narrow_bytes <= 0.55 * wide_bytes


# --------------------------------------------------------------------- #
# reassembly range-checks each block in its own width
# --------------------------------------------------------------------- #
class TestReassembleRangeCheck:
    """``reassemble`` checks ids block by block before widening and then
    wraps the ``int64`` copy unscanned: a forged id must still raise."""

    N = 12

    def _blocks(self, dtype, forged=None):
        good = np.array([[0, 1], [11, 3], [5, 5]], dtype=dtype)
        blocks = [good, np.empty((0, 2), dtype=dtype), good[::-1].copy()]
        if forged is not None:
            bad = good.copy()
            bad[1, 1] = forged
            blocks.insert(2, bad)
        return blocks

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_in_range_blocks_reassemble_to_int64(self, dtype):
        got = reassemble(self._blocks(dtype), self.N)
        assert got.edges.dtype == np.int64 and got.edges.flags.c_contiguous
        assert got.n == self.N
        assert got == EdgeList(np.vstack(self._blocks(np.int64)), self.N)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("forged", [-1, N, np.iinfo(np.int32).min])
    def test_forged_id_in_any_block_raises(self, dtype, forged):
        with pytest.raises(GraphFormatError):
            reassemble(self._blocks(dtype, forged), self.N)

    def test_forged_int64_id_past_int32(self):
        blocks = self._blocks(np.int64, 1 << 40)
        with pytest.raises(GraphFormatError, match=str(1 << 40)):
            reassemble(blocks, self.N)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_load_run_refuses_a_forged_shard_it_can_verify(self, tmp_path, dtype):
        # Shard and manifest digests rewritten to agree: only the range
        # check stands between the forged id and the reassembled union.
        a, b = clique(3), cycle(4)
        manifest = generate_to_directory(
            KronPair(a, b), tmp_path, 2, storage="source_block"
        )
        store = CheckpointStore(tmp_path)
        key = shard_key(manifest.run_key, 1)
        edges = store.get(key).edges.astype(dtype)
        edges[-1, 0] = manifest.n
        digests = list(manifest.shard_digests)
        digests[1] = store.put(key, edges)
        store.put_manifest(replace(manifest, shard_digests=tuple(digests)))
        with pytest.raises(GraphFormatError, match=f"n={manifest.n}"):
            store.load_run(store.get_manifest(manifest.run_key))
