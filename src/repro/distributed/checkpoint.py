"""The shard store: every generated shard file is written and read here.

Nonstochastic Kronecker generation is deterministic per shard (Section
III): rank ``r``'s stored edges are a pure function of the factors, the
partition, and the routing configuration.  That makes failed work ideal
for checkpoint/retry -- a shard computed once never needs recomputing, and
a recomputed shard can be *verified* bit-for-bit against the recorded
digest (cf. Sanders et al., arXiv:1803.09021 on validating generated
output at scale).  A checkpoint of a shard *is* the stored shard, and
every persisted run writes it through the one sink here
(:class:`CheckpointedRankFn`).

Each is one *uncompressed* ``.npz`` holding the edge array -- in the
dtype the rank stored it in, the product's id dtype (``int32`` up to
``2**31`` vertices, 8 bytes a row) -- its ``generated`` count, and an
order- and shape-sensitive 64-bit digest
(:func:`repro.util.hashing.edges_digest`), which reads values, so an
``int32`` and an ``int64`` shard of the same rows share it.  Reads
re-derive the digest under one policy: a file that does not parse, lies
about its sizes or fails its digest is *deleted* and the transient
:class:`~repro.errors.CheckpointCorruptionError` raised, so a retry
regenerates exactly that shard.  A completed run is described by a
:class:`RunManifest` persisted beside its shards, which is how anything
later finds them -- never by file-name pattern.  See DESIGN.md section 8.
"""

from __future__ import annotations

import json
import math
import os
import re
import tempfile
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.distributed.generator import GenerationPlan, reassemble
from repro.errors import CheckpointCorruptionError, CheckpointError
from repro.graph.edgelist import EdgeList
from repro.kronecker.product import id_dtype
from repro.telemetry.session import telemetry_of
from repro.util.hashing import (
    edge_fingerprint,
    edges_digest,
    merge_fingerprints,
)

__all__ = [
    "edges_digest",
    "shard_key",
    "generation_run_key",
    "generation_family_key",
    "CheckpointStore",
    "Shard",
    "RunManifest",
    "reshard_run",
    "CheckpointedRankFn",
    "elastic_pre_attempt",
]

_KEY_RE = re.compile(r"[^A-Za-z0-9._-]+")


def shard_key(run_key: str, rank: int) -> str:
    """Store key of rank ``rank``'s shard of the run ``run_key``."""
    return f"{run_key}.rank{rank:05d}"


def generation_run_key(
    el_a: EdgeList, el_b: EdgeList, nranks: int | str, plan: GenerationPlan
) -> str:
    """Content-addressed signature of one generation configuration.

    Folds the factor edge digests, the world size and
    :meth:`GenerationPlan.token` -- every field of the plan, the SKG spec
    as its digest -- so a resumed run can never consume checkpoints
    written under a different configuration.  ``wire`` matters because the
    varint codec re-sorts each exchanged block (shard row order changes);
    ``pipeline`` is in there even though sync and async are bit-identical:
    run keys identify configurations, not equivalence classes.
    """
    return (
        f"gen-{edges_digest(el_a.edges):016x}-{edges_digest(el_b.edges):016x}"
        f"-r{nranks}-{plan.token()}"
    )


def generation_family_key(
    el_a: EdgeList, el_b: EdgeList, plan: GenerationPlan
) -> str:
    """The rank-count-independent part of :func:`generation_run_key`.

    Two run keys with the same family describe the same edge set sharded
    at different world sizes -- the elastic-resume compatibility class.
    Everything that changes *contents* stays in -- including the SKG spec
    digest, since a stochastic run's edge set is a function of the spec;
    only the rank count (which changes *placement*) is wildcarded.
    """
    return generation_run_key(el_a, el_b, "*", plan)


@dataclass(frozen=True)
class Shard:
    """One recovered checkpoint entry.

    ``resharded`` marks shards written by :func:`reshard_run` rather than
    by generation: their contents are ownership-exact but their rows come
    in the order of the source shards, so a digest mismatch against a
    re-*generated* shard means "stale layout", not "nondeterminism".
    """

    edges: np.ndarray
    generated: int
    digest: int
    resharded: bool = False


@dataclass(frozen=True)
class RunManifest:
    """Self-describing summary of one completed run's shards.

    ``family`` is the rank-count-independent configuration signature, so
    manifests of one family describe the *same* edge set partitioned at
    different rank counts; ``n`` is the product's vertex count and
    ``storage`` the ownership map the shards were placed by (``None``:
    they stay where the partition generated them).  ``shard_digests[r]``
    is the order-sensitive digest of rank ``r``'s shard (``None``: it is
    on another host of a split world).  ``union_digest`` is the
    :func:`~repro.util.hashing.edge_fingerprint` of the listed shards'
    union and ``edges_total`` its row count -- per-shard values add up to
    both, so nobody holds, let alone sorts, the union to write or check
    the invariants any re-partition must preserve.
    """

    run_key: str
    family: str
    nranks: int
    n: int
    storage: str | None
    shard_digests: tuple[int | None, ...]
    union_digest: int
    edges_total: int

    @classmethod
    def from_shards(
        cls, run_key: str, family: str, n: int, storage: str | None,
        shards: list[tuple[int, ...] | None],
    ) -> RunManifest:
        """From per-rank ``(edges_digest, edge_fingerprint, rows, ...)``,
        each computed where that shard is (what :class:`CheckpointedRankFn`
        returns); ``None`` is a shard on another host.
        """
        held = [s for s in shards if s is not None]
        return cls(
            run_key, family, len(shards), n, storage,
            shard_digests=tuple(None if s is None else s[0] for s in shards),
            union_digest=merge_fingerprints(s[1] for s in held),
            edges_total=sum(s[2] for s in held),
        )


def _atomic_write(path: Path, mode: str, write) -> None:
    """``write(fh)`` to a temp file, then rename: never a torn ``path``."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


#: What parsing a damaged or hostile shard file can raise.
_UNREADABLE = (OSError, ValueError, KeyError, EOFError, RuntimeError,
               zipfile.BadZipFile)


def _read_member(
    zf: zipfile.ZipFile, name: str, limit: int, *, scalar: bool
) -> np.ndarray:
    """One ``.npy`` member of a shard file, read with bounded memory.

    Refuses what the one writer never produces: a member that is deflated
    or declares more bytes than the file has (``limit``), a header whose
    shape and dtype do not account for exactly the member's bytes (so the
    allocation is bounded by bytes on disk, whatever the header claims),
    and a scalar that is not a 0-d integer.
    """
    info = zf.getinfo(f"{name}.npy")
    if info.compress_type != zipfile.ZIP_STORED or info.file_size > limit:
        raise ValueError(
            f"member {name!r} is compressed or declares {info.file_size} "
            f"bytes in a {limit}-byte file"
        )
    with zf.open(info) as fh:
        if np.lib.format.read_magic(fh) != (1, 0):
            raise ValueError(f"member {name!r} is not a version-1.0 .npy")
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
        nbytes = math.prod(shape) * dtype.itemsize
        if (
            fortran
            or dtype.kind not in ("iu" if scalar else "iuf")
            or (scalar and shape != ())
            or fh.tell() + nbytes != info.file_size
        ):
            raise ValueError(
                f"member {name!r}: header (shape {shape}, dtype {dtype}) "
                f"does not describe its {info.file_size} bytes"
            )
        return np.frombuffer(fh.read(nbytes), dtype=dtype).reshape(shape)


class CheckpointStore:
    """Directory of digest-verified shard files and their run manifests.

    Keys are arbitrary strings (sanitized into filenames); generation keys
    shards by a run signature that folds in the factor digests and every
    generation parameter, so a resumed run can never consume shards from a
    differently-configured one.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{_KEY_RE.sub('_', key)}.npz"

    def has(self, key: str) -> bool:
        """Does a checkpoint file exist for ``key`` (without verifying)?"""
        return self._path(key).exists()

    def put(
        self,
        key: str,
        edges: np.ndarray,
        generated: int = 0,
        *,
        resharded: bool = False,
    ) -> int:
        """Persist a shard (atomically); returns its content digest.

        Integer edges are written in their own dtype (a rank's id dtype);
        anything else as ``int64``.
        """
        edges = np.ascontiguousarray(edges).reshape(-1, 2)
        if edges.dtype.kind not in "iu":
            edges = edges.astype(np.int64)
        digest = edges_digest(edges)
        _atomic_write(
            self._path(key),
            "wb",
            lambda fh: np.savez(
                fh,
                edges=edges,
                generated=np.int64(generated),
                digest=np.uint64(digest),
                resharded=np.int64(resharded),
            ),
        )
        return digest

    def get(self, key: str) -> Shard | None:
        """Load and verify a shard; ``None`` when absent.

        The file must parse under :func:`_read_member` and its edges must
        re-derive the recorded digest.  Integer ``edges`` come back in the
        dtype they were stored in -- ``int32`` shards and the ``int64``
        ones of earlier writers alike; a float member is cast to int64,
        not rejected: the digest then decides.
        Torn write, bit rot or hostile file, the outcome is one: the file
        is *deleted* and the transient :class:`CheckpointCorruptionError`
        raised, so the retry finds no checkpoint and regenerates the shard.
        """
        path = self._path(key)
        try:
            limit = path.stat().st_size
        except FileNotFoundError:
            return None
        try:
            with zipfile.ZipFile(path) as zf:
                edges = _read_member(zf, "edges", limit, scalar=False)
                if edges.dtype.kind == "f":
                    edges = edges.astype(np.int64)
                edges = edges.reshape(-1, 2)
                generated = int(_read_member(zf, "generated", limit, scalar=True))
                recorded = int(_read_member(zf, "digest", limit, scalar=True))
                resharded = "resharded.npy" in zf.namelist() and bool(
                    _read_member(zf, "resharded", limit, scalar=True)
                )
            actual = edges_digest(edges)
            if actual != recorded:
                raise ValueError(
                    f"content digest {actual:#018x} does not match recorded "
                    f"{recorded:#018x} (corrupt or torn write)"
                )
        except _UNREADABLE as exc:
            path.unlink(missing_ok=True)
            raise CheckpointCorruptionError(
                f"checkpoint {key!r} at {path}: {exc} -- damaged artifact "
                f"discarded; a retry regenerates the shard"
            ) from exc
        return Shard(edges, generated, recorded, resharded)

    def discard(self, key: str) -> None:
        """Remove one checkpoint (missing is fine)."""
        self._path(key).unlink(missing_ok=True)

    def keys(self) -> list[str]:
        """Stored keys (filename-sanitized form), sorted."""
        return sorted(p.stem for p in self.directory.glob("*.npz"))

    # ---- run manifests ---------------------------------------------------
    def _manifest_path(self, run_key: str) -> Path:
        return self.directory / f"{_KEY_RE.sub('_', run_key)}.manifest.json"

    def put_manifest(self, manifest: RunManifest) -> None:
        """Persist a manifest of a whole run (atomically, like shards)."""
        payload = json.dumps(asdict(manifest), indent=2, sort_keys=True)
        _atomic_write(
            self._manifest_path(manifest.run_key), "w",
            lambda fh: fh.write(payload),
        )

    def get_manifest(self, run_key: str) -> RunManifest | None:
        """Load one manifest; damaged files are deleted and yield ``None``.

        A manifest is pure derived metadata (the shards are the truth), so
        an unreadable one -- or one older than the ``n``/``storage``
        fields -- is silently dropped: that run is simply not seen.
        *Verification* against the shards is :meth:`load_run`'s.
        """
        return self._load_manifest(self._manifest_path(run_key))

    def _load_manifest(self, path: Path) -> RunManifest | None:
        if not path.exists():
            return None
        try:
            with open(path) as fh:
                doc = json.load(fh)
            return RunManifest(
                run_key=str(doc["run_key"]),
                family=str(doc["family"]),
                nranks=int(doc["nranks"]),
                n=int(doc["n"]),
                storage=None if doc["storage"] is None else str(doc["storage"]),
                shard_digests=tuple(int(d) for d in doc["shard_digests"]),
                union_digest=int(doc["union_digest"]),
                edges_total=int(doc["edges_total"]),
            )
        except (OSError, ValueError, KeyError, TypeError):
            path.unlink(missing_ok=True)
            return None

    def manifests(self) -> list[RunManifest]:
        """Every readable manifest in the store, sorted by run key."""
        paths = sorted(self.directory.glob("*.manifest.json"))
        return [m for m in map(self._load_manifest, paths) if m is not None]

    def load_run(self, manifest: RunManifest) -> EdgeList:
        """Reassemble the shards a manifest lists, every one verified.

        Each shard goes through :meth:`get` (a damaged file is deleted and
        raises) and must carry the digest the manifest recorded; their
        union must add up to its fingerprint and row count.  A manifest
        its shards contradict is discarded with the same transient
        :class:`CheckpointCorruptionError`.  Holds the whole union: for
        verification and re-partitioning, not for paper-scale runs.
        """
        blocks = []
        for rank, digest in enumerate(manifest.shard_digests):
            if digest is None:
                continue
            key = shard_key(manifest.run_key, rank)
            shard = self.get(key)
            if shard is None or shard.digest != digest:
                raise self._stale(
                    manifest,
                    f"shard {key!r} is missing or does not match the "
                    f"manifest's digest {digest:#018x} (rewritten after it)",
                )
            blocks.append(shard.edges)
        union = reassemble(blocks, manifest.n)
        if (edge_fingerprint(union.edges), union.m_directed) != (
            manifest.union_digest, manifest.edges_total
        ):
            raise self._stale(
                manifest,
                f"the shard union digest does not match the manifest's "
                f"consensus {manifest.union_digest:#018x} over "
                f"{manifest.edges_total} rows",
            )
        return union

    def _stale(
        self, manifest: RunManifest, why: str
    ) -> CheckpointCorruptionError:
        self._manifest_path(manifest.run_key).unlink(missing_ok=True)
        return CheckpointCorruptionError(
            f"manifest {manifest.run_key!r}: {why}; manifest discarded"
        )


def reshard_run(
    store: CheckpointStore,
    manifest: RunManifest,
    *,
    new_key: str,
    new_ranks: int,
) -> RunManifest:
    """Re-partition a completed run's shards onto a new rank count.

    The elastic-resume kernel: load the source run verified against its
    manifest (:meth:`CheckpointStore.load_run`), re-partition it through
    the *same* ownership map a fresh ``new_ranks``-rank run would use
    (:func:`repro.distributed.shuffle.edge_owners` under the manifest's
    ``storage`` and ``n``), persist the new shards and their manifest, and
    check that what was *written* still adds up to the source union -- so
    the resumed run's edge set is the original's regardless of R -> R'.

    Any damage found along the way raises the *transient*
    :class:`CheckpointCorruptionError` after discarding the damaged
    artifact, so a supervised retry falls back to fresh generation.
    """
    from repro.distributed.shuffle import edge_owners

    if manifest.storage is None:
        raise CheckpointError(
            f"run {manifest.run_key!r} was stored where it was generated "
            f"(no ownership map); it cannot be re-partitioned"
        )
    try:
        union = store.load_run(manifest).edges
    except CheckpointCorruptionError as exc:
        raise CheckpointCorruptionError(f"elastic resume: {exc}") from exc
    owners = edge_owners(union, new_ranks, scheme=manifest.storage, n=manifest.n)
    dtype = id_dtype(manifest.n)
    shards = []
    for rank in range(new_ranks):
        block = union[owners == rank].astype(dtype, copy=False)
        digest = store.put(shard_key(new_key, rank), block, resharded=True)
        shards.append((digest, edge_fingerprint(block), len(block)))
    new_manifest = RunManifest.from_shards(
        new_key, manifest.family, manifest.n, manifest.storage, shards
    )
    if (new_manifest.union_digest, new_manifest.edges_total) != (
        manifest.union_digest, manifest.edges_total
    ):
        raise CheckpointError(
            f"elastic resume: the {new_ranks} shards written for {new_key!r} "
            f"do not add up to the union of {manifest.run_key!r}"
        )
    store.put_manifest(new_manifest)
    return new_manifest


def elastic_pre_attempt(
    store: CheckpointStore, run_key, family, nranks, telemetry, attempt
) -> None:
    """Per-attempt hook: reshard a same-family manifest onto ``nranks``.

    When the target run key has no complete shard set but a manifest of
    the same family (checkpointed at a different rank count) does,
    re-partition it through :func:`reshard_run`.  Raises the transient
    :class:`CheckpointCorruptionError` when the source artifacts turn out
    damaged (the retry then generates from scratch).
    """
    if all(store.has(shard_key(run_key, r)) for r in range(nranks)):
        return
    for manifest in store.manifests():
        if manifest.family != family or manifest.nranks == nranks:
            continue
        reshard_run(store, manifest, new_key=run_key, new_ranks=nranks)
        if telemetry is not None:
            telemetry.record(
                "supervisor.elastic_reshard", attempt=attempt, nranks=nranks
            )
        return


class CheckpointedRankFn:
    """Wrap a ``RankOutput``-returning rank program with shard checkpoints.

    The one persist step.  Calling it leaves the rank's shard in the store
    and returns ``(edges_digest, edge_fingerprint, rows, generated)`` --
    the scalars a :class:`RunManifest` is folded from, hashed here where
    the shard is, never the edges: whoever wants them reads the store.

    ``shard_mode="independent"`` (comm-free rank programs): each rank
    skips straight to its persisted shard when one verifies, so a retry
    re-executes only the failed shards.

    ``shard_mode="collective"`` (rank programs that exchange edges): ranks
    agree via one allreduce whether *every* shard is already persisted --
    if so, all load and no generation happens; otherwise all ranks re-run
    so the exchange stays symmetric, and any rank holding a checkpoint
    verifies its re-executed output digest against the recorded one
    (deterministic generation makes a mismatch a hard
    :class:`CheckpointError`, never a retry).

    Module-level class (not a closure) so the process backend can ship it
    to forked children.
    """

    def __init__(
        self, fn, directory: str | os.PathLike, run_key: str, shard_mode: str
    ) -> None:
        if shard_mode not in ("independent", "collective"):
            raise CheckpointError(
                f"unknown shard_mode {shard_mode!r}; "
                f"use 'independent' or 'collective'"
            )
        self.fn = fn
        self.store = CheckpointStore(directory)
        self.run_key = run_key
        self.shard_mode = shard_mode

    def __call__(self, comm, *args) -> tuple[int, int, int, int]:
        shard = self._shard(comm, *args)
        fingerprint = edge_fingerprint(shard.edges)
        return shard.digest, fingerprint, len(shard.edges), shard.generated

    def _shard(self, comm, *args) -> Shard:
        tel = telemetry_of(comm)
        store, key = self.store, shard_key(self.run_key, comm.rank)
        with tel.span("checkpoint", cat="phase", op="load"):
            # A damaged shard is deleted and raises the transient
            # CheckpointCorruptionError here, so the supervised retry
            # regenerates it instead of running from a half-trusted store.
            cached = store.get(key)
        resume = cached is not None
        if self.shard_mode == "collective" and comm.size > 1:
            resume = comm.allreduce(resume, lambda a, b: a and b)
        if resume:
            tel.add("checkpoint.hits")
            tel.add("edges.restored", len(cached.edges))
            tel.add("edges.stored", len(cached.edges))
            return cached
        tel.add("checkpoint.misses")
        out = self.fn(comm, *args)
        if cached is not None:
            # Collective mode only: a peer lacked its shard, so this rank
            # re-ran to keep the exchange symmetric.
            with tel.span("checkpoint", cat="phase", op="verify"):
                fresh = edges_digest(out.edges)
            if fresh == cached.digest:
                return Shard(out.edges, out.generated, fresh)
            if not cached.resharded:
                raise CheckpointError(
                    f"rank {comm.rank}: re-executed shard digest "
                    f"{fresh:#018x} does not match checkpoint "
                    f"{cached.digest:#018x} for key {key!r} -- "
                    f"generation is expected to be deterministic"
                )
            # Elastic shards hold the right edges in the source shards'
            # order, not generation order; once the world re-generated
            # anyway, the fresh layout is the ground truth -- replace,
            # don't diagnose.
        with tel.span("checkpoint", cat="phase", op="store"):
            digest = store.put(key, out.edges, generated=out.generated)
        return Shard(out.edges, out.generated, digest)
