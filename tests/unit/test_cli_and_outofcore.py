"""Unit tests for the CLI and out-of-core generation."""

import multiprocessing
import os
import re
import socket
import threading

import numpy as np
import pytest

import repro.distributed.checkpoint as checkpoint
import repro.distributed.supervisor as supervisor
from repro.cli import build_parser, load_factor, main
from repro.distributed.checkpoint import CheckpointStore, shard_key
from repro.distributed.faults import default_fault_matrix
from repro.distributed.generator import KronPair
from repro.distributed.sockcomm import RendezvousServer
from repro.distributed.supervisor import (
    SupervisorReport,
    generate_to_directory,
)
from repro.errors import (
    CheckpointCorruptionError,
    GraphFormatError,
    PartitionError,
)
from repro.graph import EdgeList, clique, erdos_renyi
from repro.graph.io import write_npz, write_text
from repro.graph.mmio import write_matrix_market
from repro.kronecker import kron_product
from repro.util.hashing import merge_fingerprints


@pytest.fixture
def factor_files(tmp_path):
    a = erdos_renyi(9, 0.4, seed=601)
    b = erdos_renyi(7, 0.5, seed=602)
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    write_text(a, pa)
    write_text(b, pb)
    return a, b, str(pa), str(pb)


def _only_manifest(directory):
    """The one run manifest persisted in ``directory``."""
    (manifest,) = CheckpointStore(directory).manifests()
    return manifest


def _flip_a_byte(path):
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))


class TestOutOfCore:
    @pytest.mark.parametrize(
        "plan",
        [
            pytest.param(dict(scheme="1d"), id="1d"),
            pytest.param(dict(scheme="2d"), id="2d"),
            # The whole plan is reachable from the out-of-core driver: the
            # exchange the ledger measures, both ownership maps, and the
            # streamed async/varint program.
            pytest.param(dict(storage="source_block"), id="source_block"),
            pytest.param(dict(storage="edge_hash"), id="edge_hash"),
            pytest.param(
                dict(scheme="2d", storage="source_block"), id="2d-source_block"
            ),
            pytest.param(
                dict(scheme="1d-pipelined", pipeline="async", wire="varint",
                     chunk_size=64),
                id="1d-pipelined-async-varint",
            ),
        ],
    )
    def test_shards_reassemble_to_product(self, tmp_path, factor_files, plan):
        a, b, _, _ = factor_files
        pair = KronPair(a, b)
        manifest = generate_to_directory(pair, tmp_path / "shards", 3, **plan)
        store = CheckpointStore(tmp_path / "shards")
        assert store.load_run(manifest) == kron_product(a, b)
        assert manifest.edges_total == a.m_directed * b.m_directed
        # What was returned is what was persisted.
        assert store.get_manifest(manifest.run_key) == manifest

    def test_one_shard_per_rank(self, tmp_path, factor_files):
        pair = KronPair(*factor_files[:2])
        manifest = generate_to_directory(pair, tmp_path / "s", 5)
        store = CheckpointStore(tmp_path / "s")
        assert manifest.nranks == len(manifest.shard_digests) == 5
        assert all(
            store.has(shard_key(manifest.run_key, r)) for r in range(5)
        )
        assert len(store.keys()) == 5

    def test_process_backend(self, tmp_path, factor_files):
        a, b, _, _ = factor_files
        pair = KronPair(a, b)
        manifest = generate_to_directory(
            pair, tmp_path / "s", 2, backend="process"
        )
        assert CheckpointStore(tmp_path / "s").load_run(manifest) == (
            kron_product(a, b)
        )

    def test_small_chunks(self, tmp_path, factor_files):
        a, b, _, _ = factor_files
        pair = KronPair(a, b)
        manifest = generate_to_directory(
            pair, tmp_path / "s", 2, chunk_size=13
        )
        assert CheckpointStore(tmp_path / "s").load_run(manifest) == (
            kron_product(a, b)
        )

    def test_bad_scheme(self, tmp_path, factor_files):
        pair = KronPair(*factor_files[:2])
        with pytest.raises(PartitionError):
            generate_to_directory(pair, tmp_path / "s", 2, scheme="np")

    def test_directory_reused_at_another_rank_count(
        self, tmp_path, factor_files
    ):
        # Shards are found through their manifest, never by file-name
        # pattern: a 4-rank run's leftovers cannot leak into the 2-rank
        # run that follows it into the same directory.
        a, b, _, _ = factor_files
        pair = KronPair(a, b)
        four = generate_to_directory(pair, tmp_path, 4)
        two = generate_to_directory(pair, tmp_path, 2)
        store = CheckpointStore(tmp_path)
        assert len(store.keys()) == 6
        assert store.load_run(two) == kron_product(a, b)
        assert store.load_run(four) == kron_product(a, b)
        assert (two.union_digest, two.edges_total) == (
            four.union_digest, four.edges_total
        )

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_identical_second_run_generates_nothing(
        self, tmp_path, factor_files, monkeypatch, backend
    ):
        a, b, _, _ = factor_files
        pair = KronPair(a, b)
        first = generate_to_directory(pair, tmp_path, 3, backend=backend)
        store = CheckpointStore(tmp_path)
        paths = [store._path(shard_key(first.run_key, r)) for r in range(3)]
        written = [p.stat().st_mtime_ns for p in paths]

        def no_generation(*_args):
            raise AssertionError("generate_rank entered on a resumed run")

        monkeypatch.setattr(supervisor, "generate_rank", no_generation)
        assert generate_to_directory(pair, tmp_path, 3, backend=backend) == first
        assert [p.stat().st_mtime_ns for p in paths] == written

    def test_damaged_shard_regenerates_alone(self, tmp_path, factor_files):
        a, b, _, _ = factor_files
        pair = KronPair(a, b)
        manifest = generate_to_directory(pair, tmp_path, 3)
        store = CheckpointStore(tmp_path)
        paths = [store._path(shard_key(manifest.run_key, r)) for r in range(3)]
        _flip_a_byte(paths[1])
        # The verified reader refuses to hand the edges back ...
        with pytest.raises(CheckpointCorruptionError):
            store.load_run(manifest)
        assert not paths[1].exists(), "damaged shard must be discarded"
        # ... and running again rewrites that shard only.
        kept = [paths[r].stat().st_mtime_ns for r in (0, 2)]
        assert generate_to_directory(pair, tmp_path, 3) == manifest
        assert [paths[r].stat().st_mtime_ns for r in (0, 2)] == kept
        assert store.load_run(manifest) == kron_product(a, b)

    def test_damaged_shard_heals_in_one_call(self, tmp_path, factor_files):
        # The rank that finds the damage raises the transient corruption
        # error; the driver retries, and the retry regenerates that shard
        # alone -- no second invocation needed.
        a, b, _, _ = factor_files
        pair = KronPair(a, b)
        manifest = generate_to_directory(pair, tmp_path, 3)
        store = CheckpointStore(tmp_path)
        paths = [store._path(shard_key(manifest.run_key, r)) for r in range(3)]
        written = [p.stat().st_mtime_ns for p in paths]
        _flip_a_byte(paths[1])
        rep = SupervisorReport()
        assert generate_to_directory(pair, tmp_path, 3, report=rep) == manifest
        assert rep.attempts == 2
        assert any("CheckpointCorruptionError" in f for f in rep.failures)
        now = [p.stat().st_mtime_ns for p in paths]
        assert (now[0], now[2]) == (written[0], written[2])
        assert store.load_run(manifest) == kron_product(a, b)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_crash_on_first_attempt_recovers(
        self, tmp_path, factor_files, backend
    ):
        a, b, _, _ = factor_files
        pair = KronPair(a, b)
        plan = default_fault_matrix(seed=0, nranks=3)[1]
        assert plan.label() == "crash-r1-op3"
        rep = SupervisorReport()
        manifest = generate_to_directory(
            pair, tmp_path, 3, storage="source_block", backend=backend,
            fault_plan=plan, report=rep,
        )
        assert rep.attempts == 2  # the crash really fired
        store = CheckpointStore(tmp_path)
        assert store.load_run(manifest) == kron_product(a, b)
        assert multiprocessing.active_children() == []

    def test_elastic_round_trip_generates_nothing(
        self, tmp_path, factor_files, monkeypatch
    ):
        a, b, _, _ = factor_files
        pair = KronPair(a, b)
        four = generate_to_directory(pair, tmp_path, 4, storage="source_block")

        def no_generation(*_args):
            raise AssertionError("generate_rank entered on an elastic resume")

        monkeypatch.setattr(supervisor, "generate_rank", no_generation)
        two = generate_to_directory(pair, tmp_path, 2, storage="source_block")
        assert two.nranks == 2 and two.family == four.family
        assert (two.union_digest, two.edges_total) == (
            four.union_digest, four.edges_total
        )
        assert CheckpointStore(tmp_path).load_run(two) == kron_product(a, b)

    def test_socket_skg_run_resumes_then_heals(self, tmp_path, capsys):
        """The headline command twice into one directory: the second run
        verifies every shard and rewrites none.  After bit rot one more run
        heals it in one invocation.  Each time the manifest reassembles,
        digest-checked, to the edge count the command printed."""
        out = tmp_path / "shards"
        argv = [
            "generate", "--model", "skg", "--seed-matrix", "polblogs",
            "--skg-k", "6", "--skg-seed", "3", "--out", str(out),
            "--ranks", "4", "--backend", "socket",
        ]

        def generate():
            assert main(argv) == 0
            printed = re.search(
                r"^REPRO_SKG .* edges=(\d+) ", capsys.readouterr().out, re.M
            )
            store = CheckpointStore(out)
            (manifest,) = store.manifests()
            return int(printed.group(1)), store.load_run(manifest), manifest

        def listing():
            return [(p.name, p.stat().st_size, p.stat().st_mtime_ns)
                    for p in sorted(out.glob("*.npz"))]

        printed, _, _ = generate()
        first = listing()
        _, el, manifest = generate()
        assert listing() == first
        assert el.m_directed == manifest.edges_total == printed
        _flip_a_byte(out / first[0][0])
        printed, el, _ = generate()
        assert el.m_directed == printed

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parent_holds_no_edges_and_hashes_none(
        self, tmp_path, factor_files, monkeypatch, backend
    ):
        # Ranks hand the parent O(1) scalars, digests included; the only
        # arrays the parent ever hashes are the two factors (run key).
        a, b, _, _ = factor_files
        pair = KronPair(a, b)
        parent = (os.getpid(), threading.main_thread())
        factor_rows = max(a.m_directed, b.m_directed)
        launched = []

        def spy(*args, **kw):
            launched.append(launcher_spmd_run(*args, **kw))
            return launched[-1]

        def guarded(fn):
            def guard(edges, *args, **kw):
                here = (os.getpid(), threading.current_thread())
                if here == parent and len(edges) > factor_rows:
                    raise AssertionError(f"parent called {fn.__name__}")
                return fn(edges, *args, **kw)

            return guard

        launcher_spmd_run = supervisor.spmd_run
        monkeypatch.setattr(supervisor, "spmd_run", spy)
        for name in ("edges_digest", "edge_fingerprint"):
            monkeypatch.setattr(
                checkpoint, name, guarded(getattr(checkpoint, name))
            )
        manifest = generate_to_directory(
            pair, tmp_path, 3, storage="source_block", backend=backend
        )
        (results,) = launched
        assert all(
            type(value) is int for shard in results for value in shard
        ), results
        assert [s[0] for s in results] == list(manifest.shard_digests)
        assert sum(s[2] for s in results) == manifest.edges_total
        assert sum(s[3] for s in results) == a.m_directed * b.m_directed

    def test_manifest_digests_are_the_shard_files(
        self, tmp_path, factor_files
    ):
        pair = KronPair(*factor_files[:2])
        manifest = generate_to_directory(
            pair, tmp_path, 3, storage="edge_hash"
        )
        store = CheckpointStore(tmp_path)
        recorded = [
            int(np.load(store._path(shard_key(manifest.run_key, r)))["digest"])
            for r in range(3)
        ]
        assert list(manifest.shard_digests) == recorded

    def test_every_persisted_run_has_a_manifest(self, tmp_path, factor_files):
        # A supervised run that never exchanges used to leave shards and
        # no manifest; now it is the run `generate` makes.
        a, b, _, _ = factor_files
        pair = KronPair(a, b)
        manifest = generate_to_directory(pair, tmp_path, 3)
        assert _only_manifest(tmp_path) == manifest
        assert (manifest.storage, manifest.nranks) == (None, 3)
        el = CheckpointStore(tmp_path).load_run(manifest)
        assert manifest.edges_total == el.m_directed == (
            a.m_directed * b.m_directed
        )
        assert manifest == generate_to_directory(pair, tmp_path, 3)

    def test_local_ranks_cover_this_hosts_shards_only(
        self, tmp_path, factor_files
    ):
        # The two-host topology on one machine: each invocation owns half
        # the ranks and its own directory.  Each manifest lists only the
        # shards written there, nothing is persisted on a partial world's
        # behalf, and the two fingerprints add up to the whole run's.
        a, b, _, _ = factor_files
        pair = KronPair(a, b)
        whole = generate_to_directory(pair, tmp_path / "whole", 4, scheme="1d")
        hosts = {}

        def launch(ranks, addr):
            hosts[ranks] = generate_to_directory(
                pair, tmp_path / f"host{ranks[0]}", 4, scheme="1d",
                backend="socket", rendezvous=addr, local_ranks=ranks,
            )

        with RendezvousServer() as server:
            addr = "%s:%d" % server.address
            threads = [
                threading.Thread(target=launch, args=(ranks, addr))
                for ranks in ((0, 1), (2, 3))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        lo, hi = hosts[(0, 1)], hosts[(2, 3)]
        assert lo.shard_digests == whole.shard_digests[:2] + (None, None)
        assert hi.shard_digests == (None, None) + whole.shard_digests[2:]
        assert lo.edges_total + hi.edges_total == whole.edges_total
        assert merge_fingerprints(
            [lo.union_digest, hi.union_digest]
        ) == whole.union_digest
        parts = []
        for ranks, manifest in hosts.items():
            store = CheckpointStore(tmp_path / f"host{ranks[0]}")
            assert store.manifests() == []
            assert len(store.keys()) == 2
            parts.append(store.load_run(manifest).edges)
        assert EdgeList(np.vstack(parts), whole.n) == kron_product(a, b)


class TestLoadFactor:
    def test_text(self, factor_files):
        a, _, pa, _ = factor_files
        assert load_factor(pa) == a

    def test_npz(self, tmp_path):
        el = erdos_renyi(6, 0.5, seed=603)
        p = tmp_path / "g.npz"
        write_npz(el, p)
        assert load_factor(str(p)) == el

    def test_matrix_market(self, tmp_path):
        el = erdos_renyi(6, 0.5, seed=604)
        p = tmp_path / "g.mtx"
        write_matrix_market(el, p)
        assert load_factor(str(p)) == el

    def test_unknown_extension(self):
        with pytest.raises(GraphFormatError):
            load_factor("whatever.parquet")


class TestCli:
    def test_groundtruth_command(self, factor_files, capsys):
        _, _, pa, pb = factor_files
        assert main(["groundtruth", pa, pb]) == 0
        out = capsys.readouterr().out
        assert "global triangles" in out

    def test_validate_command_passes(self, factor_files, capsys):
        _, _, pa, pb = factor_files
        assert main(["validate", pa, pb, "--checks", "vertices,degrees"]) == 0
        assert "2/2 checks passed" in capsys.readouterr().out

    def test_validate_passes_every_row_on_two_connected_factors(
        self, tmp_path, capsys
    ):
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        write_text(clique(4), a)
        write_text(erdos_renyi(9, 0.5, seed=3), b)
        assert main(["validate", a, b]) == 0
        assert "-- 21/21 checks passed" in capsys.readouterr().out.splitlines()

    def test_scaling_table_command(self, factor_files, capsys):
        """The Section-I table is the PAPER_TABLE row selection."""
        from repro.validation import PAPER_TABLE

        _, _, pa, pb = factor_files
        assert main(["validate", pa, pb, "--checks", ",".join(PAPER_TABLE)]) == 0
        out = capsys.readouterr().out
        assert "[PASS] eccentricity: exact match" in out
        assert "12/12 checks passed" in out

    def test_validate_exits_1_on_a_wrong_product(self, factor_files, capsys):
        from unittest import mock

        from repro.kronecker import kron_with_full_loops
        from tests.conftest import drop_one_edge

        _, _, pa, pb = factor_files
        with mock.patch("repro.validation.kron_with_full_loops",
                        drop_one_edge(kron_with_full_loops)):
            assert main(["validate", pa, pb]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] sizes_full_loops" in out
        assert main(["validate", pa, pb]) == 0

    def test_validate_unknown_row_exits_2(self, factor_files, capsys):
        _, _, pa, pb = factor_files
        assert main(["validate", pa, pb, "--checks", "sizes"]) == 2
        assert "unknown rows: ['sizes']" in capsys.readouterr().err

    def test_generate_command(self, factor_files, tmp_path, capsys):
        a, b, pa, pb = factor_files
        out_dir = tmp_path / "out"
        code = main([
            "generate", pa, pb, "--out", str(out_dir), "--ranks", "2",
            "--scheme", "1d", "--backend", "thread",
        ])
        assert code == 0
        manifest = _only_manifest(out_dir)
        assert manifest.nranks == 2
        assert len(CheckpointStore(out_dir).keys()) == 2
        assert CheckpointStore(out_dir).load_run(manifest) == kron_product(a, b)

    def test_self_loops_flag(self, factor_files, tmp_path, capsys):
        a, b, pa, pb = factor_files
        out_dir = tmp_path / "out"
        main(["generate", pa, pb, "--out", str(out_dir), "--ranks", "1",
              "--backend", "thread", "--self-loops"])
        expect = kron_product(
            a.with_full_self_loops(), b.with_full_self_loops()
        )
        store = CheckpointStore(out_dir)
        assert store.load_run(_only_manifest(out_dir)) == expect

    def test_generate_plan_flags_are_the_plan_fields(self):
        """Every axis of a :class:`GenerationPlan` but its source is a
        ``generate`` flag, named after the field."""
        import argparse
        import dataclasses

        from repro.distributed.generator import GenerationPlan

        parser = build_parser()
        (sub,) = (
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        dests = {a.dest for a in sub.choices["generate"]._actions}
        axes = {f.name for f in dataclasses.fields(GenerationPlan)}
        assert dests & axes == axes - {"source"}

    def test_trace_is_not_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main("trace --ranks 2".split())
        assert exc.value.code == 2
        assert "invalid choice: 'trace'" in capsys.readouterr().err

    def test_default_generate_keeps_its_run_key(self, tmp_path, capsys):
        """A default ``generate`` (2-D, no storage map) of K4 (x) C5 writes
        the run key and shards it always has, with the factors given as
        files or taken built in."""
        from repro.graph.generators import clique, cycle

        key = (
            "gen-03da869d245c05c1-9869895316310cd8-r4-scheme=2d-"
            "storage=None-chunk_size=1048576-pipeline=sync-wire=raw"
        )
        digests = (
            5369133746391014404, 1415945281870883051,
            16213009466665081703, 7724741100771468258,
        )
        write_text(clique(4), tmp_path / "a.txt")
        write_text(cycle(5), tmp_path / "b.txt")
        files = [str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]
        for out, factors in (("files", files), ("builtin", [])):
            code = main(["generate", *factors, "--out", str(tmp_path / out)])
            assert code == 0
            (manifest,) = CheckpointStore(tmp_path / out).manifests()
            assert manifest.run_key == key
            assert manifest.shard_digests == digests

    @pytest.mark.parametrize("command", ["generate", "chaos"])
    def test_lone_factor_file_is_refused(
        self, factor_files, tmp_path, capsys, monkeypatch, command
    ):
        """One factor file is an error, not a silent K4 (x) C5 run."""
        _, _, pa, _ = factor_files
        monkeypatch.chdir(tmp_path)
        extra = ["--out", "s"] if command == "generate" else ["--ranks", "2"]
        assert main([command, pa, *extra]) == 2
        assert "pass two factor files, or none for the built-in K4 (x) C5" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "s").exists()

    def test_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "nope.mtx"
        bad.write_text("garbage\n")
        code = main(["groundtruth", str(bad), str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            pytest.param(["validate", "{missing}", "{missing}"], None,
                         id="validate-missing-factor"),
            pytest.param(["groundtruth", "{missing}", "{missing}"], None,
                         id="groundtruth-missing-factor"),
            pytest.param(["serve", "--port", "{port}"], None,
                         id="serve-busy-port"),
            pytest.param(["serve-rendezvous", "--host", "127.0.0.1",
                          "--port", "{port}"], None, id="rendezvous-busy-port"),
            pytest.param(["loadgen", "--target", "127.0.0.1:{port}",
                          "--requests", "1"], None, id="loadgen-refused-port"),
            pytest.param(["serve", "--cache-size", "0"], "--cache-size",
                         id="serve-cache-size-0"),
            pytest.param(["serve", "--port", "99999"], "--port",
                         id="serve-port-99999"),
            pytest.param(["serve-rendezvous", "--port", "-1"], "--port",
                         id="rendezvous-port-negative"),
            pytest.param(["serve-rendezvous", "--port", "99999"], "--port",
                         id="rendezvous-port-99999"),
            pytest.param(["loadgen", "--target", "127.0.0.1:abc"], "--target",
                         id="loadgen-port-not-a-number"),
            pytest.param(["loadgen", "--target", "127.0.0.1:"], "--target",
                         id="loadgen-empty-port"),
            pytest.param(["loadgen", "--target", ":1"], "--target",
                         id="loadgen-empty-host"),
            pytest.param(["chaos", "--backends", "thread,bogus", "--ranks",
                          "2"], "--backends", id="chaos-unknown-backend"),
        ],
    )
    def test_operator_errors_are_one_line_and_exit_2(
        self, argv, flag, tmp_path, capsys
    ):
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            # Listening makes the port busy for a server; a bound socket
            # that does not listen refuses a client's dial.
            if argv[0] != "loadgen":
                held.listen()
            fill = dict(missing=str(tmp_path / "missing.txt"),
                        port=held.getsockname()[1])
            try:
                code = main([a.format(**fill) for a in argv])
            except SystemExit as exc:  # argparse refusals
                code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        (line,) = [ln for ln in err.splitlines() if "error:" in ln]
        # A refused value names its flag.
        assert flag is None or flag in line

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestParseRankSet:
    def test_none_means_whole_world(self):
        from repro.cli import _parse_rank_set

        assert _parse_rank_set(None, 8) is None

    @pytest.mark.parametrize(
        "spec,expect",
        [
            ("0-3", (0, 1, 2, 3)),
            ("0,2,5", (0, 2, 5)),
            ("4-5,7", (4, 5, 7)),
            ("3", (3,)),
            ("1,1,0-1", (0, 1)),  # duplicates collapse, order sorts
        ],
    )
    def test_parses_ranks_and_ranges(self, spec, expect):
        from repro.cli import _parse_rank_set

        assert _parse_rank_set(spec, 8) == expect

    @pytest.mark.parametrize("bad", ["x", "1-", "", "8", "-1", "0-9"])
    def test_rejects_malformed_or_out_of_world(self, bad):
        from repro.cli import _parse_rank_set
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            _parse_rank_set(bad, 8)
