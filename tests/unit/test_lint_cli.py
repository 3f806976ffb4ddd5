"""CLI, SARIF fingerprint, and repo-cleanliness tests for repro.lint."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import analyze_paths
from repro.lint.cli import main as lint_main
from repro.lint.sarif import to_sarif

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


def sarif_fingerprints(root):
    """``{(rule, fingerprint)}`` of the SARIF report of a tree."""
    (run,) = to_sarif(analyze_paths([root]))["runs"]
    return {
        (r["ruleId"], r["fingerprints"]["reproLint/v2"])
        for r in run["results"]
    }


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
        assert "protocol-leak" in err

    def test_select_program_rule_only(self, bad_tree, capsys):
        # bad_tree's guarded barrier and mutated receive are excluded by
        # the select, and it starts no request -> clean.
        assert lint_main(
            [str(bad_tree), "--select", "protocol-leak"]
        ) == 0

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "collective-symmetry",
            "buffer-ownership",
            "protocol-leak",
            "timeout-literal",
            "wall-clock",
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


class TestSarifFingerprints:
    def test_line_drift_keeps_fingerprints(self, bad_tree):
        before = sarif_fingerprints(bad_tree)
        bad = bad_tree / "distributed" / "bad.py"
        bad.write_text("# a new leading comment\n\n" + bad.read_text())
        assert sarif_fingerprints(bad_tree) == before

    def test_duplicate_findings_get_distinct_fingerprints(self, tmp_path):
        pkg = tmp_path / "distributed"
        pkg.mkdir()
        one = "def f(comm):\n    if comm.rank == 0:\n        comm.barrier()\n"
        (pkg / "dup.py").write_text(one)
        before = sarif_fingerprints(tmp_path)
        # a second identical violation gets a fingerprint of its own
        (pkg / "dup.py").write_text(
            one + "def g(comm):\n    if comm.rank == 0:\n        comm.barrier()\n"
        )
        after = sarif_fingerprints(tmp_path)
        assert len(after) == 2 and before < after

    def test_moved_file_keeps_fingerprints(self, bad_tree):
        before = sarif_fingerprints(bad_tree)
        pkg = bad_tree / "distributed"
        (pkg / "nested").mkdir()
        (pkg / "bad.py").rename(pkg / "nested" / "bad.py")
        assert sarif_fingerprints(bad_tree) == before

    def test_editing_the_line_changes_fingerprint(self, bad_tree):
        before = sarif_fingerprints(bad_tree)
        bad = bad_tree / "distributed" / "bad.py"
        bad.write_text(bad.read_text().replace("comm.barrier()", "comm.barrier()  ; pass"))
        changed = sarif_fingerprints(bad_tree) - before
        assert {rule for rule, _ in changed} == {"collective-symmetry"}

    def test_baseline_flags_are_gone(self, bad_tree, tmp_path):
        for flag in ("--baseline", "--write-baseline"):
            with pytest.raises(SystemExit) as exc_info:
                lint_main([str(bad_tree), flag, str(tmp_path / "b.json")])
            assert exc_info.value.code == 2


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


class TestRepoIsClean:
    def test_repo_lints_clean(self):
        """The acceptance gate: `repro-kron lint src benchmarks examples`
        finds nothing an inline pragma does not suppress."""
        findings = analyze_paths(
            [REPO_ROOT / d for d in ("src", "benchmarks", "examples")]
        )
        assert findings == [], "\n".join(f.format_human() for f in findings)


class TestKronSubcommand:
    def test_repro_kron_lint(self, bad_tree, capsys):
        from repro.cli import main as kron_main

        assert kron_main(["lint", str(bad_tree)]) == 1
        assert "collective-symmetry" in capsys.readouterr().out
