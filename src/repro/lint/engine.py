"""The lint driver: file rules + whole-program rules over one module set.

``analyze_paths`` is the pipeline behind ``repro-kron lint``;
``lint_source`` is its single-module form.  Both run the same three
steps:

1. Every source is parsed once by :func:`_analyze_file`, which applies
   the selected file rules, expands the suppression pragmas, and
   extracts the communication IR (:mod:`repro.lint.ir`).  A file that
   is not UTF-8 or does not parse becomes one ``parse-error`` finding
   and the run carries on with the rest.
2. The per-file IRs are assembled into a
   :class:`repro.lint.callgraph.Program` and the selected program rules
   run over it.
3. Program findings are filtered through their file's suppression
   pragmas, merged with the file findings, and sorted.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator

from repro.lint.callgraph import Program
from repro.lint.core import (
    Finding,
    LintContext,
    Rule,
    _collect_suppressions,
    _suppressed,
    resolve_selection,
)
from repro.lint.ir import ModuleIR, extract_module

__all__ = ["analyze_paths", "lint_source"]

_Suppressions = tuple[dict[int, set[str]], set[str]]


def _unparsable(
    path: str, message: str, line: int = 1, col: int = 0, snippet: str = ""
) -> tuple[list[Finding], None, _Suppressions]:
    """The result of :func:`_analyze_file` for a file with no AST."""
    finding = Finding(
        rule="parse-error", severity="error", path=path, line=line, col=col,
        message=f"could not parse file: {message}", snippet=snippet,
    )
    return [finding], None, ({}, set())


def _analyze_file(
    source: str | bytes, path: str, file_rules: list[Rule]
) -> tuple[list[Finding], ModuleIR | None, _Suppressions]:
    """Parse one file; returns its unsuppressed file-rule findings, its
    communication IR (``None`` when unparsable), and its suppression maps."""
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            return _unparsable(path, f"not valid UTF-8 ({exc})")
    ctx = LintContext(path=path, source=source)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        line = exc.lineno or 1
        return _unparsable(
            path, exc.msg, line, exc.offset or 0, ctx.snippet(line)
        )
    suppressions = _collect_suppressions(ctx.lines, tree)
    findings = [
        f
        for rule in file_rules
        if rule.applies_to(path)
        for f in rule.check(tree, ctx)
        if not _suppressed(f, *suppressions)
    ]
    return findings, extract_module(tree, ctx), suppressions


def _analyze(
    sources: Iterable[tuple[str, str | bytes]],
    select: Iterable[str] | None,
) -> list[Finding]:
    """Run the selected rules over ``(path, source)`` pairs as one program."""
    file_rules, program_rules = resolve_selection(select)
    findings: list[Finding] = []
    modules: list[ModuleIR] = []
    suppressions: dict[str, _Suppressions] = {}
    for path, source in sources:
        found, module, suppressions[path] = _analyze_file(
            source, path, file_rules
        )
        findings.extend(found)
        if module is not None:
            modules.append(module)
    if program_rules and modules:
        program = Program(modules)
        for rule in program_rules:
            findings.extend(
                f
                for f in rule.check(program)
                if not _suppressed(f, *suppressions[f.path])
            )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Yield each ``.py`` file exactly once, even under overlapping paths.

    ``repro-kron lint src src/repro`` must not double-report findings,
    so files are deduplicated on their resolved absolute path (the first
    spelling encountered wins).
    """
    seen: set[Path] = set()
    for p in paths:
        if p.is_dir():
            candidates: Iterable[Path] = sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            candidates = [p]
        else:
            continue
        for candidate in candidates:
            key = candidate.resolve()
            if key in seen:
                continue
            seen.add(key)
            yield candidate


def _read_sources(paths: Iterable[str | Path]) -> Iterator[tuple[str, bytes]]:
    """``(path, bytes)`` per file, paths relative to the working directory."""
    for file_path in _iter_python_files(Path(p) for p in paths):
        try:
            rel = file_path.resolve().relative_to(Path.cwd()).as_posix()
        except ValueError:
            rel = file_path.as_posix()
        yield rel, file_path.read_bytes()


def analyze_paths(
    paths: Iterable[str | Path],
    select: Iterable[str] | None = None,
) -> list[Finding]:
    """Run the file and program rules over every ``.py`` file under
    ``paths``; returns findings sorted by position.

    Raises ``ValueError`` for unknown names in ``select``.
    """
    return _analyze(_read_sources(paths), select)


def lint_source(
    source: str,
    path: str = "<string>",
    select: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint one source string as a single-module program."""
    return _analyze([(path, source)], select)
