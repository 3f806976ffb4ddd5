"""Unit tests for the CLI and out-of-core generation."""

import numpy as np
import pytest

from repro.cli import build_parser, load_factor, main
from repro.distributed.outofcore import generate_to_directory
from repro.errors import GraphFormatError, PartitionError
from repro.graph import EdgeList, erdos_renyi
from repro.graph.io import write_npz, write_text
from repro.graph.mmio import write_matrix_market
from repro.kronecker import kron_product


@pytest.fixture
def factor_files(tmp_path):
    a = erdos_renyi(9, 0.4, seed=601)
    b = erdos_renyi(7, 0.5, seed=602)
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    write_text(a, pa)
    write_text(b, pb)
    return a, b, str(pa), str(pb)


class TestOutOfCore:
    @pytest.mark.parametrize("scheme", ["1d", "2d"])
    def test_shards_reassemble_to_product(self, tmp_path, factor_files, scheme):
        a, b, _, _ = factor_files
        manifest = generate_to_directory(
            a, b, tmp_path / "shards", 3, scheme=scheme
        )
        assert manifest.load() == kron_product(a, b)
        assert manifest.edges_total == a.m_directed * b.m_directed

    def test_one_shard_per_rank(self, tmp_path, factor_files):
        a, b, _, _ = factor_files
        manifest = generate_to_directory(a, b, tmp_path / "s", 5)
        assert len(manifest.shard_paths) == 5
        assert all(p.exists() for p in manifest.shard_paths)

    def test_process_backend(self, tmp_path, factor_files):
        a, b, _, _ = factor_files
        manifest = generate_to_directory(
            a, b, tmp_path / "s", 2, backend="process"
        )
        assert manifest.load() == kron_product(a, b)

    def test_small_chunks(self, tmp_path, factor_files):
        a, b, _, _ = factor_files
        manifest = generate_to_directory(
            a, b, tmp_path / "s", 2, chunk_size=13
        )
        assert manifest.load() == kron_product(a, b)

    def test_bad_scheme(self, tmp_path, factor_files):
        a, b, _, _ = factor_files
        with pytest.raises(PartitionError):
            generate_to_directory(a, b, tmp_path / "s", 2, scheme="np")


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
        assert main(["validate", pa, pb, "--checks", "sizes,degrees"]) == 0
        assert "2/2 checks passed" in capsys.readouterr().out

    def test_scaling_table_command(self, factor_files, capsys):
        _, _, pa, pb = factor_files
        assert main(["scaling-table", pa, pb]) == 0
        assert "Vertex eccentricity" in capsys.readouterr().out

    def test_generate_command(self, factor_files, tmp_path, capsys):
        a, b, pa, pb = factor_files
        out_dir = tmp_path / "out"
        code = main([
            "generate", pa, pb, "--out", str(out_dir), "--ranks", "2",
            "--scheme", "1d", "--backend", "thread",
        ])
        assert code == 0
        assert len(list(out_dir.glob("shard_*.npz"))) == 2

    def test_self_loops_flag(self, factor_files, tmp_path, capsys):
        a, b, pa, pb = factor_files
        out_dir = tmp_path / "out"
        main(["generate", pa, pb, "--out", str(out_dir), "--ranks", "1",
              "--backend", "thread", "--self-loops"])
        from repro.distributed.outofcore import ShardManifest
        from pathlib import Path

        shard = np.load(out_dir / "shard_00000.npz")["edges"]
        expect = kron_product(
            a.with_full_self_loops(), b.with_full_self_loops()
        )
        assert EdgeList(shard, expect.n) == expect

    def test_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "nope.mtx"
        bad.write_text("garbage\n")
        code = main(["groundtruth", str(bad), str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

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
