"""End-to-end: ``repro-kron generate --trace``, ``repro-kron chaos
--json``, and the ``python -m repro.telemetry.validate`` checker, all
through their real entry points.
"""

import dataclasses
import json
import multiprocessing
import threading
import tracemalloc

import pytest

from repro.cli import main
from repro.distributed.checkpoint import CheckpointStore
from repro.distributed.sockcomm import RendezvousServer
from repro.graph import erdos_renyi
from repro.graph.io import write_text
from repro.telemetry.export import validate_chrome_trace
from repro.telemetry.validate import main as validate_main


def run_trace(tmp_path, *extra):
    """A traced ``generate`` on the 1-D ``source_block`` plan, shards
    under ``tmp_path / "shards"``; ``extra`` flags come last and win."""
    out = tmp_path / "trace.json"
    rc = main([
        "generate", "--out", str(tmp_path / "shards"), "--trace", str(out),
        "--scheme", "1d", "--storage", "source_block", *extra,
    ])
    metrics = tmp_path / "trace-metrics.json"
    return rc, out, metrics


class TestTraceCommand:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_default_workload_produces_valid_trace(
        self, tmp_path, capsys, backend
    ):
        rc, out, metrics = run_trace(
            tmp_path, "--ranks", "4", "--backend", backend
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "exact" in stdout and "MISMATCH" not in stdout

        trace = json.loads(out.read_text())
        assert validate_chrome_trace(trace) == []
        lanes = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {f"rank {r}" for r in range(4)} <= lanes
        span_names = {
            e["name"] for e in trace["traceEvents"] if e["ph"] == "X"
        }
        assert {"generate", "route", "exchange", "checkpoint"} <= span_names

        summary = json.loads(metrics.read_text())
        # K4 (x) C5: 12 directed factor-A edges x 10 factor-B edges.
        assert summary["expected_edges"] == 120
        assert summary["edge_counts_exact"] is True
        counters = summary["aggregate"]["counters"]
        assert counters["edges.generated"] == 120
        assert counters["edges.stored"] == 120
        # One split-phase exchange per rank: issued once, waited once.
        assert counters["comm.alltoall_start.calls"] == 4
        assert counters["comm.wait.calls"] == 4
        assert summary["nranks"] == 4
        # Per-rank edge counts sum to the aggregate exactly.
        per_rank = sum(
            r["counters"].get("edges.generated", 0)
            for r in summary["per_rank"].values()
        )
        assert per_rank == 120

    def test_checkpoint_resume_records_hits(self, tmp_path, capsys):
        rc1, _, metrics = run_trace(tmp_path, "--ranks", "4")
        assert rc1 == 0
        fresh = json.loads(metrics.read_text())["aggregate"]["counters"]
        assert fresh["checkpoint.misses"] == 4
        assert "checkpoint.hits" not in fresh

        rc2, _, metrics = run_trace(tmp_path, "--ranks", "4")
        assert rc2 == 0
        resumed = json.loads(metrics.read_text())["aggregate"]["counters"]
        assert resumed["checkpoint.hits"] == 4
        assert resumed["edges.restored"] == 120

    def test_parent_never_holds_the_product(self, tmp_path, capsys):
        # A traced run is the run `generate` makes plus a session: the
        # shards stay on disk and only scalars reach the parent, so its peak
        # allocation is a fraction of the product it just accounted for.
        a = erdos_renyi(40, 0.3, seed=11)
        b = erdos_renyi(40, 0.3, seed=12)
        expected = a.m_directed * b.m_directed
        assert expected >= 200_000
        write_text(a, tmp_path / "a.txt")
        write_text(b, tmp_path / "b.txt")
        tracemalloc.start()
        try:
            rc, _, metrics = run_trace(
                tmp_path, str(tmp_path / "a.txt"), str(tmp_path / "b.txt"),
                "--ranks", "2", "--backend", "process",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert f"expected |E(A(x)B)| {expected} -- exact" in (
            capsys.readouterr().out
        )
        assert peak < expected * 16 // 2, (peak, expected * 16)
        (manifest,) = CheckpointStore(tmp_path / "shards").manifests()
        assert manifest.edges_total == expected
        assert json.loads(metrics.read_text())["expected_edges"] == expected
        assert multiprocessing.active_children() == []

    def test_skg_run_reconciles_with_its_manifest(self, tmp_path, capsys):
        """No factor pair, so no |E_A||E_B|: the counters of a traced SKG
        run are held to the edge total its manifest persisted."""
        rc, out, metrics = run_trace(
            tmp_path, "--model", "skg", "--seed-matrix", "polblogs",
            "--skg-k", "6", "--skg-seed", "3", "--ranks", "3",
            "--storage", "edge_hash",
        )
        assert rc == 0
        (manifest,) = CheckpointStore(tmp_path / "shards").manifests()
        assert manifest.edges_total > 0
        stdout = capsys.readouterr().out
        assert "REPRO_SKG name=polblogs" in stdout
        assert (
            f"stored {manifest.edges_total}, expected |E(A(x)B)| "
            f"{manifest.edges_total} -- exact"
        ) in stdout
        summary = json.loads(metrics.read_text())
        assert summary["expected_edges"] == manifest.edges_total
        assert summary["edge_counts_exact"] is True
        assert summary["workload"]["factor_a"] is None
        counters = summary["aggregate"]["counters"]
        assert counters["edges.generated"] == manifest.edges_total
        assert counters["edges.stored"] == manifest.edges_total
        assert validate_chrome_trace(json.loads(out.read_text())) == []

    def test_split_world_reconciles_each_host_with_its_manifest(
        self, tmp_path, capsys
    ):
        """Two ``--local-ranks`` halves of one hash-routed world, as two
        hosts would run it: each half stores edges the other generated,
        so each traced invocation holds what its ranks stored to its own
        manifest, and the halves add up to |E(A(x)B)|."""
        codes = {}

        def launch(ranks, addr):
            codes[ranks] = main([
                "generate", "--ranks", "4", "--backend", "socket",
                "--rendezvous", addr, "--local-ranks", ranks,
                "--scheme", "1d", "--storage", "edge_hash",
                "--out", str(tmp_path / ranks),
                "--trace", str(tmp_path / f"{ranks}.json"),
            ])

        with RendezvousServer() as server:
            addr = "%s:%d" % server.address
            threads = [
                threading.Thread(target=launch, args=(ranks, addr))
                for ranks in ("0-1", "2-3")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert codes == {"0-1": 0, "2-3": 0}
        counters = []
        for ranks in ("0-1", "2-3"):
            summary = json.loads(
                (tmp_path / f"{ranks}-metrics.json").read_text()
            )
            assert summary["edge_counts_exact"] is True
            counters.append(summary["aggregate"]["counters"])
        assert sum(c["edges.stored"] for c in counters) == 120
        assert sum(c["edges.generated"] for c in counters) == 120
        assert any(c["edges.generated"] != c["edges.stored"] for c in counters)

    def test_mismatch_exits_1(self, tmp_path, capsys, monkeypatch):
        """A manifest that disagrees with the counters fails the run."""
        import repro.distributed.supervisor as supervisor

        real = supervisor.generate_to_directory

        def short(*args, **kwargs):
            manifest = real(*args, **kwargs)
            return dataclasses.replace(
                manifest, edges_total=manifest.edges_total - 1
            )

        monkeypatch.setattr(supervisor, "generate_to_directory", short)
        rc, _, metrics = run_trace(tmp_path, "--ranks", "2")
        assert rc == 1
        assert "-- MISMATCH" in capsys.readouterr().out
        assert json.loads(metrics.read_text())["edge_counts_exact"] is False


class TestChaosJson:
    def test_json_report_shape(self, tmp_path, capsys):
        rc = main([
            "chaos", "--ranks", "2", "--backends", "thread", "--json",
            "--checkpoint-root", str(tmp_path / "chk"),
        ])
        report = json.loads(capsys.readouterr().out)
        assert rc == (0 if report["all_recovered"] else 1)
        assert report["cells_total"] == len(report["cells"]) > 0
        cell = report["cells"][0]
        assert {
            "plan", "backend", "recovered", "identical",
            "ok", "attempts", "elapsed_s", "error",
        } <= set(cell)
        assert "routing" not in cell
        assert cell["elapsed_s"] >= 0.0


class TestValidateModule:
    def test_passes_on_real_trace(self, tmp_path, capsys):
        rc, out, _ = run_trace(tmp_path, "--ranks", "2")
        assert rc == 0
        capsys.readouterr()
        rc = validate_main([
            str(out),
            "--require-lanes", "2",
            "--require-span", "generate",
            "--require-span", "exchange",
        ])
        assert rc == 0
        assert "valid" in capsys.readouterr().out

    def test_fails_on_missing_lane(self, tmp_path, capsys):
        rc, out, _ = run_trace(tmp_path, "--ranks", "2")
        assert rc == 0
        capsys.readouterr()
        assert validate_main([str(out), "--require-lanes", "16"]) == 1
        assert "lanes" in capsys.readouterr().err

    def test_fails_on_garbage_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"oops": 1}]}')
        assert validate_main([str(bad)]) == 1
        assert capsys.readouterr().err
