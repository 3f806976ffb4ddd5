"""Tests for the ``serve`` / ``loadgen`` CLI surface and its contracts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _loadgen_target, build_parser
from repro.cli import main as cli_main
from repro.errors import ReproError, ServiceError
from repro.service.loadgen import parse_serve_line

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestParseServeLine:
    def test_extracts_host_and_port(self):
        assert parse_serve_line("REPRO_SERVE host=127.0.0.1 port=8080\n") == (
            "127.0.0.1",
            8080,
        )

    def test_skips_surrounding_noise(self):
        text = "starting up\nREPRO_SERVE host=::1 port=9\ntrailing\n"
        assert parse_serve_line(text) == ("::1", 9)

    def test_missing_line_raises(self):
        with pytest.raises(ServiceError):
            parse_serve_line("nothing to see here\n")

    def test_incomplete_line_raises(self):
        with pytest.raises(ServiceError):
            parse_serve_line("REPRO_SERVE host=127.0.0.1\n")


class TestLoadgenTarget:
    def args(self, *argv):
        return build_parser().parse_args(["loadgen", *argv])

    def test_explicit_host_port(self):
        assert _loadgen_target(self.args("--target", "10.0.0.2:8123")) == (
            "10.0.0.2",
            8123,
        )

    def test_bad_target_raises(self):
        with pytest.raises(ReproError):
            _loadgen_target(self.args("--target", "no-port-here"))

    def test_auto_reads_serve_output_file(self, tmp_path):
        out = tmp_path / "serve.out"
        out.write_text("REPRO_SERVE host=127.0.0.1 port=4242\n")
        args = self.args("--serve-output", str(out))
        assert args.target == "auto"  # the default
        assert _loadgen_target(args) == ("127.0.0.1", 4242)

    def test_auto_times_out_without_line(self, tmp_path):
        out = tmp_path / "serve.out"
        out.write_text("no line yet\n")
        args = self.args("--serve-output", str(out), "--wait-s", "0.2")
        with pytest.raises(ReproError, match="REPRO_SERVE"):
            _loadgen_target(args)


class TestParserDefaults:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 0  # ephemeral by default
        assert args.host == "127.0.0.1"
        assert args.cache_size == 512
        assert not args.no_remote_shutdown

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.target == "auto"
        assert args.seed == 7
        assert args.concurrency == 8
        assert args.requests == 2000
        assert args.batch == 256
        assert args.analytics_fraction == 0.25
        assert not args.shutdown


class TestServeLoadgenEndToEnd:
    def test_two_process_contract(self, tmp_path, capsys):
        """Real ``serve`` subprocess driven by in-process ``loadgen``."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=REPO_ROOT,
        )
        try:
            line = proc.stdout.readline().decode("utf-8")
            host, port = parse_serve_line(line)
            out = tmp_path / "report.json"
            rc = cli_main(
                [
                    "loadgen",
                    "--target",
                    f"{host}:{port}",
                    "--requests",
                    "60",
                    "--concurrency",
                    "4",
                    "--batch",
                    "32",
                    "--seed",
                    "11",
                    "--out",
                    str(out),
                    "--shutdown",
                ]
            )
            assert rc == 0
            report = json.loads(out.read_text(encoding="utf-8"))
            assert report["errors"] == 0
            assert report["requests"] == 60
            assert report["edge_queries_per_s"] > 0
            # --shutdown stopped the server; the subprocess exits cleanly.
            assert proc.wait(timeout=10) == 0
            # Stdout carries the same report for pipe consumers.
            assert json.loads(capsys.readouterr().out)["requests"] == 60
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()
            proc.stderr.close()
