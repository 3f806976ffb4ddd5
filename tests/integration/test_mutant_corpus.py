"""The seeded protocol-bug corpus, scored against the checkers that guard
the SPMD protocol.

Each ``tests/fixtures/mutants/<row>.toml`` is one bug in a real rank
program: an exact ``old`` -> ``new`` substitution in ``path`` (relative to
``src/``), applied to a copy of the tree and never to the working tree.
``old`` must occur exactly once, so a refactor that moves the code fails the
row loudly instead of scoring an unmutated copy.  ``lint`` is the set of
rules ``python -m repro.lint`` reports on the mutated tree, and ``guard``
the checker that caught the row first when the corpus was scored (empty:
none caught it); the row is that checker's regression test.  The
``control`` row mutates nothing: no checker may fire on it.

Tier-1 runs the lint column in-process.  The full scorer (``ci_only``, a
few seconds to minutes a row) runs every checker on every row, prints
the table that EXPERIMENTS.md L17 records, and fails if a row's guard
no longer catches it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
import tomllib
from pathlib import Path

import pytest

from repro.distributed.checked import CHECK_ENV
from repro.lint import analyze_paths

ROOT = Path(__file__).resolve().parents[2]
CORPUS = ROOT / "tests" / "fixtures" / "mutants"
#: Every corpus row targets a module of this package, and lint's
#: whole-program rules see all of it.
PACKAGE = Path("repro") / "distributed"


ROWS = {
    "control": {"bug": "none (unmutated tree)", "guard": "", "lint": []},
    **{p.stem: tomllib.loads(p.read_text()) for p in sorted(CORPUS.glob("*.toml"))},
}


def mutate(row: dict, src: Path) -> None:
    """Apply ``row``'s substitution to the copy of ``src/`` at ``src``."""
    if "path" not in row:
        return
    target = src / row["path"]
    text = target.read_text()
    assert text.count(row["old"]) == 1, (
        f"{row['path']}: the mutant's old text occurs {text.count(row['old'])} "
        f"times, not once -- update the corpus row"
    )
    target.write_text(text.replace(row["old"], row["new"]))


@pytest.mark.parametrize("name", list(ROWS))
def test_lint_verdict(name, tmp_path):
    row = ROWS[name]
    copy = tmp_path / "src"
    shutil.copytree(
        ROOT / "src" / PACKAGE, copy / PACKAGE,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    mutate(row, copy)
    found = {f.rule for f in analyze_paths([copy / PACKAGE])}
    assert found == set(row["lint"])


def test_every_row_names_its_bug_guard_and_lint_verdict():
    assert len(ROWS) >= 21
    for name, row in ROWS.items():
        assert row["guard"] in {"", *CHECKERS}, name
        if name != "control":
            assert set(row) == {"bug", "path", "guard", "lint", "old", "new"}, name
            assert row["path"].startswith(f"{PACKAGE}/"), name


#: Each checker's command and environment, run in a mutated copy of the
#: whole repository with ``PYTHONPATH=src``.  The sentinel and oracle
#: columns are the plan oracle with and without the collective-order
#: sentinel; tier-1 runs under it (``tests/conftest.py``) and leaves this
#: file out: its rows would re-apply each mutant to an already mutated
#: tree.
CHECKERS = {
    "lint": ([sys.executable, "-m", "repro.lint", "src", "benchmarks", "examples"], {}),
    "chaos": (
        [sys.executable, "-m", "repro.cli", "chaos", "--ranks", "4", "--seed", "0",
         "--timeout", "2"],
        {},
    ),
    "sentinel": (
        [sys.executable, "-m", "pytest", "-x", "-p", "no:cacheprovider",
         "tests/property/test_plan_oracle.py"],
        {CHECK_ENV: "1"},
    ),
    "oracle": (
        [sys.executable, "-m", "pytest", "-x", "-p", "no:cacheprovider",
         "tests/property/test_plan_oracle.py"],
        {CHECK_ENV: "0"},
    ),
    "tier-1": (
        [sys.executable, "-m", "pytest", "-x", "-p", "no:cacheprovider",
         "--ignore", "tests/integration/test_mutant_corpus.py"],
        {},
    ),
}
#: Seconds after which a checker that has not exited is stopped and
#: scored as a miss.
CAP_S = 900


def score(row: dict, work: Path) -> dict[str, tuple[bool, float]]:
    """``{checker: (caught, seconds to verdict)}`` for one corpus row."""
    tree = work / "tree"
    shutil.copytree(
        ROOT, tree,
        ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                      ".pytest_cache", "out"),
    )
    mutate(row, tree / "src")
    verdicts = {}
    for checker, (command, extra) in CHECKERS.items():
        env = {k: v for k, v in os.environ.items() if k != CHECK_ENV}
        env.update(PYTHONPATH="src", REPRO_RECV_TIMEOUT="5", **extra)
        start = time.monotonic()
        try:
            caught = subprocess.run(
                command, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=CAP_S,
            ).returncode != 0
        except subprocess.TimeoutExpired:
            caught = False
        verdicts[checker] = (caught, time.monotonic() - start)
    shutil.rmtree(tree)
    return verdicts


@pytest.mark.ci_only
def test_score_every_row_on_every_checker(tmp_path, capsys):
    """Print the corpus table; the control row trips no checker, the lint
    column agrees with each row's recorded verdict, and each row's guard
    still catches it."""
    table = {}
    for name, row in ROWS.items():
        table[name] = score(row, tmp_path)
        with capsys.disabled():
            cells = "  ".join(
                f"{c}={'caught' if hit else 'missed'} {s:.1f}s"
                for c, (hit, s) in table[name].items()
            )
            print(f"{name:34s} {cells}", flush=True)
    assert not any(hit for hit, _ in table["control"].values())
    for name, row in ROWS.items():
        assert table[name]["lint"][0] == bool(row["lint"]), name
        if row["guard"]:
            assert table[name][row["guard"]][0], name
