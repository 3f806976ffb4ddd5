"""CI runs commands and test ids: every assertion it makes lives in a test
that any checkout can run.

The workflow is read as text: PyYAML is not among CI's dependencies.
"""

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[2] / ".github" / "workflows" / "ci.yml"

#: ``python - <<EOF``, ``python -c ...``, or any heredoc fed to Python.
INLINE_PYTHON = re.compile(r"\bpython3?\s+(-\s|-c\b|.*<<)")


def test_no_step_runs_inline_python():
    inline = [
        f"ci.yml:{number}: {line.strip()}"
        for number, line in enumerate(WORKFLOW.read_text().splitlines(), 1)
        if INLINE_PYTHON.search(line)
    ]
    assert not inline, "move these checks into tests/:\n" + "\n".join(inline)


#: A job header: two spaces of indent under ``jobs:``.
JOB = re.compile(r"^  ([\w-]+):\s*$", re.MULTILINE)


def jobs(text: str) -> dict[str, str]:
    """Each job's name and the text of its block."""
    body = text[text.index("\njobs:\n"):]
    heads = list(JOB.finditer(body))
    return {
        head[1]: body[head.end():nxt.start() if nxt else len(body)]
        for head, nxt in zip(heads, heads[1:] + [None])
    }


def test_every_job_that_runs_pytest_installs_it():
    missing = [
        name for name, block in jobs(WORKFLOW.read_text()).items()
        if re.search(r"-m pytest\b", block)
        and not re.search(r"pip install\b.*\bpytest\b", block)
    ]
    assert not missing, f"these jobs run pytest without installing it: {missing}"


def test_jobs_are_split_at_their_headers():
    text = (
        "on:\n  push:\njobs:\n  a:\n    steps:\n      - run: x\n"
        "  b-c:\n    steps:\n      - run: y\n"
    )
    assert list(jobs(text)) == ["a", "b-c"]
    assert "x" in jobs(text)["a"] and "y" not in jobs(text)["a"]


def test_the_guard_sees_every_spelling():
    for line in (
        "python - <<'EOF'",
        'PYTHONPATH=src python - "$d" <<\'EOF\'',
        "python3 -c 'import repro'",
        "python <<EOF",
    ):
        assert INLINE_PYTHON.search(line), line
    for line in (
        "PYTHONPATH=src python -m pytest -x -q",
        "python3 benchmarks/ledger/run.py --smoke",
        "python -m pip install numpy scipy networkx",
    ):
        assert not INLINE_PYTHON.search(line), line
