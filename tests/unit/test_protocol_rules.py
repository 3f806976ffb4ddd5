"""Fixture-driven tests for the whole-program protocol analyzer.

Every ``bad_*`` fixture under ``tests/fixtures/protocol`` encodes one
known SPMD protocol violation the interprocedural rules must detect;
every ``good_*`` fixture is a correct equivalent that must produce zero
findings (the false-positive budget of this analyzer is exactly zero --
it runs over the real distributed runtime in CI).
"""

import ast
from pathlib import Path

import pytest

from repro.lint.callgraph import Program
from repro.lint.core import LintContext, resolve_selection
from repro.lint.engine import analyze_paths
from repro.lint.ir import ModuleIR, extract_module, module_name_for

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "protocol"


@pytest.fixture(scope="module")
def fixture_findings():
    return analyze_paths(
        [FIXTURES],
        select=["collective-symmetry", "protocol-leak", "buffer-ownership"],
    )


def _rules_for(findings, name: str) -> list[str]:
    return sorted(f.rule for f in findings if f.path.endswith(name))


class TestBadFixtures:
    """Each seeded violation is detected, with the right rule."""

    @pytest.mark.parametrize(
        "fixture, expected",
        [
            ("bad_discarded_start.py", ["protocol-leak", "protocol-leak"]),
            ("bad_unfinished_path.py", ["protocol-leak"]),
            ("bad_rebound_request.py", ["protocol-leak"]),
            ("bad_attr_request.py", ["protocol-leak"]),
        ],
    )
    def test_detected(self, fixture_findings, fixture, expected):
        assert _rules_for(fixture_findings, fixture) == expected

    def test_all_errors(self, fixture_findings):
        assert all(f.severity == "error" for f in fixture_findings)


class TestGoodFixtures:
    """The correct equivalents produce zero findings."""

    def test_zero_false_positives(self, fixture_findings):
        good = [f for f in fixture_findings if "good_" in f.path]
        assert good == []

    def test_every_good_fixture_is_exercised(self):
        names = sorted(p.name for p in FIXTURES.glob("good_*.py"))
        # Guard against the suite silently shrinking.
        assert len(names) >= 8


class TestSuppression:
    """Program-rule findings honour the same pragmas as file rules."""

    def test_pragma_silences_program_finding(self, tmp_path):
        (tmp_path / "helper.py").write_text(
            "def begin(comm, x):\n    return comm.alltoall_start(x)\n"
        )
        (tmp_path / "caller.py").write_text(
            "from helper import begin\n\n"
            "def run(comm, x):\n"
            "    begin(comm, x)  # repro-lint: disable=protocol-leak\n"
        )
        findings = analyze_paths([tmp_path], select=["protocol-leak"])
        assert findings == []

    def test_without_pragma_it_fires(self, tmp_path):
        (tmp_path / "helper.py").write_text(
            "def begin(comm, x):\n    return comm.alltoall_start(x)\n"
        )
        (tmp_path / "caller.py").write_text(
            "from helper import begin\n\n"
            "def run(comm, x):\n"
            "    begin(comm, x)\n"
        )
        findings = analyze_paths([tmp_path], select=["protocol-leak"])
        assert [f.rule for f in findings] == ["protocol-leak"]


class TestSelection:
    """--select covers program rules: restrictable, and typo-fatal."""

    def test_select_single_program_rule(self, fixture_findings):
        findings = analyze_paths([FIXTURES], select=["protocol-leak"])
        assert {f.rule for f in findings} == {"protocol-leak"}
        expected = [f for f in fixture_findings if f.rule == "protocol-leak"]
        assert len(findings) == len(expected)

    def test_unknown_rule_raises_with_catalogue(self):
        with pytest.raises(ValueError) as err:
            resolve_selection(["protocol-typo"])
        message = str(err.value)
        assert "protocol-typo" in message
        assert "protocol-leak" in message
        assert "collective-symmetry" in message


class TestIrAndSummaries:
    """The IR and call-graph layers describe the real runtime correctly."""

    @staticmethod
    def _module(path: Path) -> ModuleIR:
        text = path.read_text(encoding="utf-8")
        return extract_module(ast.parse(text), LintContext(str(path), text))

    def test_module_name_for(self):
        assert (
            module_name_for("src/repro/distributed/shuffle.py")
            == "repro.distributed.shuffle"
        )
        assert module_name_for("src/repro/__init__.py") == "repro"
        assert module_name_for("benchmarks/bench_kernels.py") == "bench_kernels"

    def test_shuffle_split_phase_summaries(self):
        mod = self._module(
            REPO_ROOT / "src" / "repro" / "distributed" / "shuffle.py"
        )
        program = Program([mod])
        start = program.summaries[("repro.distributed.shuffle", "exchange_edges_start")]
        assert start.returns_request
        finish = program.summaries[
            ("repro.distributed.shuffle", "exchange_edges_finish")
        ]
        assert 1 in finish.finishes_params
        assert not finish.returns_request

    def test_pipelined_generator_is_clean(self):
        findings = analyze_paths(
            [REPO_ROOT / "src" / "repro" / "distributed"],
            select=["collective-symmetry", "protocol-leak", "buffer-ownership"],
        )
        assert findings == []
