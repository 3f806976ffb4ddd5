"""Unit tests for repro.distributed.checkpoint: digest + store semantics."""

import io
import tracemalloc
import zipfile

import numpy as np
import pytest

from repro.distributed.checkpoint import CheckpointStore, edges_digest
from repro.errors import CheckpointCorruptionError, CheckpointError


EDGES = np.array([[0, 1], [1, 2], [2, 0], [3, 3]], dtype=np.int64)


class TestDigest:
    def test_deterministic(self):
        assert edges_digest(EDGES) == edges_digest(EDGES.copy())

    def test_order_sensitive(self):
        assert edges_digest(EDGES) != edges_digest(EDGES[::-1])

    def test_value_sensitive(self):
        tweaked = EDGES.copy()
        tweaked[0, 0] += 1
        assert edges_digest(EDGES) != edges_digest(tweaked)

    def test_length_sensitive(self):
        assert edges_digest(EDGES) != edges_digest(EDGES[:-1])

    def test_empty_ok(self):
        empty = np.empty((0, 2), dtype=np.int64)
        assert edges_digest(empty) == edges_digest(empty)
        assert edges_digest(empty) != edges_digest(EDGES)

    def test_fits_uint64(self):
        assert 0 <= edges_digest(EDGES) < 1 << 64


class TestStore:
    def test_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        digest = store.put("shard", EDGES, generated=7)
        shard = store.get("shard")
        assert shard is not None
        np.testing.assert_array_equal(shard.edges, EDGES)
        assert shard.generated == 7
        assert shard.digest == digest == edges_digest(EDGES)

    def test_missing_is_none(self, tmp_path):
        assert CheckpointStore(tmp_path).get("nope") is None

    def test_has_and_discard(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.put("k", EDGES)
        assert store.has("k")
        store.discard("k")
        assert not store.has("k")
        store.discard("k")  # idempotent

    def test_keys_sanitized(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.put("gen/run:0 weird", EDGES)
        assert store.keys() == ["gen_run_0_weird"]
        assert store.get("gen/run:0 weird") is not None

    def test_overwrite(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.put("k", EDGES)
        other = EDGES[:2]
        store.put("k", other)
        np.testing.assert_array_equal(store.get("k").edges, other)

    def test_corruption_strict_raises(self, tmp_path):
        # The one corruption policy (the truncated-file case lives in
        # test_elastic_resume.py): typed error, file gone, then absent.
        store = CheckpointStore(tmp_path)
        store.put("k", EDGES)
        store._path("k").write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError, match="k"):
            store.get("k")
        assert store.get("k") is None

    def test_digest_mismatch_detected(self, tmp_path):
        # A well-formed npz whose recorded digest disagrees with its data
        # (e.g. a checkpoint restored from the wrong backup).
        store = CheckpointStore(tmp_path)
        store.put("k", EDGES)
        with open(store._path("k"), "wb") as fh:
            np.savez(
                fh,
                edges=EDGES,
                generated=np.int64(0),
                digest=np.uint64(edges_digest(EDGES) ^ 1),
            )
        with pytest.raises(CheckpointCorruptionError, match="digest"):
            store.get("k")
        assert not store.has("k")

    def test_shard_without_resharded_member_still_loads(self, tmp_path):
        # Shards written before the ``resharded`` member existed.
        store = CheckpointStore(tmp_path)
        with open(store._path("k"), "wb") as fh:
            np.savez(
                fh,
                edges=EDGES,
                generated=np.int64(3),
                digest=np.uint64(edges_digest(EDGES)),
            )
        shard = store.get("k")
        np.testing.assert_array_equal(shard.edges, EDGES)
        assert (shard.generated, shard.resharded) == (3, False)

    def test_no_tmp_litter(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for i in range(4):
            store.put(f"k{i}", EDGES)
        assert not list(tmp_path.glob("*.tmp"))


def _npy(array=None, *, header=None, payload=b""):
    """Bytes of one ``.npy`` member: a real array, or a forged header."""
    buf = io.BytesIO()
    if header is None:
        np.lib.format.write_array(buf, np.asarray(array))
    else:
        np.lib.format.write_array_header_1_0(buf, header)
        buf.write(payload)
    return buf.getvalue()


def _write_shard(path, *, compression=zipfile.ZIP_STORED, **members):
    good = {
        "edges": _npy(EDGES),
        "generated": _npy(np.int64(4)),
        "digest": _npy(np.uint64(edges_digest(EDGES))),
    }
    with zipfile.ZipFile(path, "w", compression) as zf:
        for name, blob in {**good, **members}.items():
            zf.writestr(f"{name}.npy", blob)


class TestHostileFiles:
    """Whatever the bytes, ``get`` raises the one typed, transient error,
    removes the file, and allocates no more than the file holds."""

    @pytest.mark.parametrize(
        "members",
        [
            {"generated": _npy(np.array([1, 2], dtype=np.int64))},
            {"generated": _npy(np.complex128(1 + 2j))},
            {"digest": _npy(np.float64(1.5))},
            {"resharded": _npy(np.array([1, 0], dtype=np.int64))},
            {"edges": _npy(np.array([["a", "b"]], dtype="U1"))},
            {"edges": _npy(np.arange(3, dtype=np.int64))},
            # The header promises 16 TiB; the member holds 32 bytes.
            {"edges": _npy(
                header={"descr": "<i8", "fortran_order": False,
                        "shape": (2**40, 2)},
                payload=EDGES[:2].tobytes(),
            )},
            {"edges": _npy(
                header={"descr": "<i8", "fortran_order": True,
                        "shape": (4, 2)},
                payload=EDGES.tobytes(),
            )},
            {"edges": _npy(
                header={"descr": "|O", "fortran_order": False,
                        "shape": (4, 2)},
                payload=EDGES.tobytes(),
            )},
            {"edges": b"\x93NUMPY\x03\x00" + _npy(EDGES)[8:]},
            {"edges": b""},
        ],
        ids=[
            "generated-vector", "generated-complex", "digest-float",
            "resharded-vector", "edges-strings", "edges-odd-count",
            "shape-lie-2**40", "fortran-order", "object-dtype",
            "npy-version-3", "empty-member",
        ],
    )
    def test_lying_member_raises_typed_and_discards(self, tmp_path, members):
        store = CheckpointStore(tmp_path)
        path = store._path("k")
        _write_shard(path, **members)
        with pytest.raises(CheckpointCorruptionError):
            store.get("k")
        assert not path.exists()

    def test_missing_member(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with zipfile.ZipFile(store._path("k"), "w") as zf:
            zf.writestr("edges.npy", _npy(EDGES))
        with pytest.raises(CheckpointCorruptionError):
            store.get("k")
        assert not store.has("k")

    def test_deflated_member_refused_before_inflating(self, tmp_path):
        # A zip bomb: 64 MiB of zero rows deflate to ~64 KiB.  The one
        # writer never compresses, so the reader refuses the member
        # instead of inflating it -- peak allocation stays below the
        # size of the file on disk plus zipfile's bookkeeping.
        store = CheckpointStore(tmp_path)
        path = store._path("k")
        rows = 1 << 22
        header = {"descr": "<i8", "fortran_order": False, "shape": (rows, 2)}
        _write_shard(
            path,
            compression=zipfile.ZIP_DEFLATED,
            edges=_npy(header=header, payload=bytes(16 * rows)),
        )
        on_disk = path.stat().st_size
        assert on_disk < 1 << 20
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointCorruptionError, match="compressed"):
                store.get("k")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < on_disk + (1 << 20)
        assert not path.exists()

    def test_member_declaring_more_than_the_file_holds(self, tmp_path):
        # Central directory and .npy header lie in tandem: a 2 GiB member
        # in a file of a few hundred bytes.
        store = CheckpointStore(tmp_path)
        path = store._path("k")
        declared = 1 << 31
        header = {"descr": "<i8", "fortran_order": False, "shape": (0, 2)}
        header["shape"] = ((declared - len(_npy(header=header))) // 16, 2)
        _write_shard(path, edges=_npy(header=header))
        blob = bytearray(path.read_bytes())
        entry = blob.index(b"PK\x01\x02")  # edges.npy is the first member
        blob[entry + 20:entry + 28] = declared.to_bytes(4, "little") * 2
        path.write_bytes(bytes(blob))
        with zipfile.ZipFile(path) as zf:
            assert zf.getinfo("edges.npy").file_size == declared
        with pytest.raises(CheckpointCorruptionError, match="declares"):
            store.get("k")
        assert not path.exists()

    def test_float_edges_are_cast_not_rejected(self, tmp_path):
        # Documented behaviour: another real dtype is cast to int64 and
        # the digest decides.
        store = CheckpointStore(tmp_path)
        _write_shard(store._path("k"), edges=_npy(EDGES.astype(np.float64)))
        np.testing.assert_array_equal(store.get("k").edges, EDGES)

    def test_any_single_byte_of_damage_is_typed_or_harmless(self, tmp_path):
        # Flip, one at a time, a spread of bytes across a valid shard
        # (zip framing, .npy headers, payload) and truncate at a spread of
        # lengths: every read either still verifies or raises the typed
        # error -- never a bare TypeError/MemoryError/struct.error.
        store = CheckpointStore(tmp_path)
        store.put("k", EDGES, generated=4)
        path = store._path("k")
        blob = path.read_bytes()
        variants = [
            blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1:]
            for i in range(0, len(blob), 3)
        ] + [blob[:n] for n in range(0, len(blob), 7)]
        for damaged in variants:
            path.write_bytes(damaged)
            try:
                shard = store.get("k")
            except CheckpointCorruptionError:
                assert not path.exists()
            else:
                np.testing.assert_array_equal(shard.edges, EDGES)
