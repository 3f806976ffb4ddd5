"""CLI, baseline, and repo-cleanliness tests for repro.lint."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import analyze_paths, filter_baseline, load_baseline, write_baseline
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[2]

BAD_COMM = textwrap.dedent(
    """
    def f(comm, x):
        if comm.rank == 0:
            comm.barrier()
        data = comm.alltoall(x)
        data[0] = 99
    """
)


@pytest.fixture
def bad_tree(tmp_path):
    pkg = tmp_path / "distributed"
    pkg.mkdir()
    (pkg / "bad.py").write_text(BAD_COMM)
    return tmp_path


class TestExitCodes:
    def test_findings_exit_1(self, bad_tree, capsys):
        assert lint_main([str(bad_tree)]) == 1
        out = capsys.readouterr().out
        assert "collective-symmetry" in out
        assert "buffer-ownership" in out

    def test_clean_tree_exit_0(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("def f(comm):\n    comm.barrier()\n")
        assert lint_main([str(tmp_path)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_unknown_rule_exit_2(self, tmp_path):
        assert lint_main([str(tmp_path), "--select", "bogus"]) == 2

    def test_unknown_rule_message_lists_program_rules(self, tmp_path, capsys):
        assert lint_main([str(tmp_path), "--select", "protocol-typo"]) == 2
        err = capsys.readouterr().err
        assert "protocol-typo" in err
        assert "protocol-divergence" in err

    def test_select_program_rule_only(self, bad_tree, capsys):
        # The file-rule findings in bad_tree are excluded by the select;
        # the guarded barrier is intra-function, so no program finding
        # either -> clean.
        assert lint_main(
            [str(bad_tree), "--select", "protocol-divergence"]
        ) == 0

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "collective-symmetry",
            "buffer-ownership",
            "dtype-overflow",
            "determinism",
            "protocol-divergence",
            "protocol-leak",
            "protocol-inflight",
        ):
            assert rule in out


class TestUndecodableFile:
    def test_non_utf8_file_is_a_finding_not_an_abort(self, bad_tree, capsys):
        (bad_tree / "distributed" / "latin.py").write_bytes(b"x = '\xe9'\n")
        assert lint_main([str(bad_tree)]) == 1
        out = capsys.readouterr().out
        assert "latin.py:1:0: error[parse-error]" in out
        assert "UTF-8" in out
        # the sibling file's findings are still reported
        assert "collective-symmetry" in out
        assert "buffer-ownership" in out


class TestJsonOutput:
    def test_json_schema(self, bad_tree, capsys):
        assert lint_main([str(bad_tree), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and payload
        first = payload[0]
        assert {"rule", "severity", "path", "line", "col", "message"} <= set(first)


class TestBaseline:
    def test_roundtrip_suppresses_known_findings(self, bad_tree, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert lint_main([str(bad_tree), "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        # same findings now baselined -> clean
        assert lint_main([str(bad_tree), "--baseline", str(baseline)]) == 0

    def test_new_finding_not_masked(self, bad_tree, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        lint_main([str(bad_tree), "--write-baseline", str(baseline)])
        capsys.readouterr()
        extra = bad_tree / "distributed" / "new.py"
        extra.write_text("def g(comm):\n    comm.recv(0).sort()\n")
        findings = analyze_paths([bad_tree])
        fresh = filter_baseline(findings, load_baseline(baseline))
        assert {f.rule for f in fresh} == {"buffer-ownership"}
        assert all("new.py" in f.path for f in fresh)

    def test_line_drift_stays_baselined(self, bad_tree, tmp_path):
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, analyze_paths([bad_tree]))
        bad = bad_tree / "distributed" / "bad.py"
        bad.write_text("# a new leading comment\n\n" + bad.read_text())
        fresh = filter_baseline(
            analyze_paths([bad_tree]), load_baseline(baseline)
        )
        assert fresh == []

    def test_duplicate_findings_counted(self, tmp_path):
        pkg = tmp_path / "distributed"
        pkg.mkdir()
        one = "def f(comm):\n    if comm.rank == 0:\n        comm.barrier()\n"
        (pkg / "dup.py").write_text(one)
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, analyze_paths([tmp_path]))
        # a second identical violation in the same file is NOT baselined
        (pkg / "dup.py").write_text(
            one + "def g(comm):\n    if comm.rank == 0:\n        comm.barrier()\n"
        )
        fresh = filter_baseline(analyze_paths([tmp_path]), load_baseline(baseline))
        assert len(fresh) == 1

    def test_bad_baseline_exit_2(self, bad_tree, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert lint_main([str(bad_tree), "--baseline", str(broken)]) == 2


class TestSuppressionSpans:
    def test_pragma_on_any_line_of_statement(self, tmp_path):
        # The finding anchors to the statement's first line, but the
        # pragma sits on the closing-paren line: it must still apply.
        (tmp_path / "multi.py").write_text(
            "def f(comm, edges):\n"
            "    if comm.rank == 0:\n"
            "        comm.gather(\n"
            "            edges,\n"
            "            root=0,\n"
            "        )  # repro-lint: disable=collective-symmetry\n"
        )
        assert analyze_paths([tmp_path]) == []

    def test_pragma_in_body_does_not_cover_header(self, tmp_path):
        # A pragma on a statement *inside* the if must not silence the
        # finding reported on the guarded collective itself.
        (tmp_path / "multi.py").write_text(
            "def f(comm, edges):\n"
            "    if comm.rank == 0:\n"
            "        comm.barrier()\n"
            "        x = 1  # repro-lint: disable=collective-symmetry\n"
        )
        assert [f.rule for f in analyze_paths([tmp_path])] == [
            "collective-symmetry"
        ]


class TestOverlappingPaths:
    def test_nested_paths_do_not_duplicate(self, bad_tree):
        once = analyze_paths([bad_tree])
        twice = analyze_paths([bad_tree, bad_tree / "distributed"])
        assert [f.to_json() for f in twice] == [f.to_json() for f in once]


class TestBaselineMoveStability:
    def test_moved_file_stays_baselined(self, bad_tree, tmp_path):
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, analyze_paths([bad_tree]))
        pkg = bad_tree / "distributed"
        (pkg / "nested").mkdir()
        (pkg / "bad.py").rename(pkg / "nested" / "bad.py")
        fresh = filter_baseline(
            analyze_paths([bad_tree]), load_baseline(baseline)
        )
        assert fresh == []

    def test_editing_the_line_surfaces_it(self, bad_tree, tmp_path):
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, analyze_paths([bad_tree]))
        bad = bad_tree / "distributed" / "bad.py"
        bad.write_text(bad.read_text().replace("comm.barrier()", "comm.barrier()  ; pass"))
        fresh = filter_baseline(
            analyze_paths([bad_tree]), load_baseline(baseline)
        )
        assert any(f.rule == "collective-symmetry" for f in fresh)

    def test_old_version_rejected(self, tmp_path):
        stale = tmp_path / "v1.json"
        stale.write_text(json.dumps({"version": 1, "findings": []}))
        with pytest.raises(ValueError, match="regenerate"):
            load_baseline(stale)


class TestRepoIsClean:
    def test_src_lints_clean_with_checked_in_baseline(self):
        """The acceptance gate: `python -m repro.lint src` exits 0."""
        findings = analyze_paths([REPO_ROOT / "src"])
        baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
        fresh = filter_baseline(findings, baseline)
        assert fresh == [], "\n".join(f.format_human() for f in fresh)


class TestKronSubcommand:
    def test_repro_kron_lint(self, bad_tree, capsys):
        from repro.cli import main as kron_main

        assert kron_main(["lint", str(bad_tree)]) == 1
        assert "collective-symmetry" in capsys.readouterr().out
