"""Rule framework for the SPMD correctness linter.

A *rule* is a small AST pass: it receives a parsed module plus a
:class:`LintContext` and yields :class:`Finding` objects.  Rules register
themselves in a module-level registry via the :func:`register` decorator so
the CLI and tests discover them uniformly.

Suppressions
------------
Findings can be silenced in source with trailing comments::

    comm.barrier()          # repro-lint: disable=collective-symmetry
    buf[0] = 1              # repro-lint: disable=all

and file-wide (anywhere in the file, conventionally near the top)::

    # repro-lint: disable-file=wall-clock

Multiple rule names are comma-separated.  Suppression is applied centrally
by :mod:`repro.lint.engine` after the rules run, so rules never need to
know about it.

Scoping
-------
A rule may declare ``scope_dirs``: it then only fires on files whose path
contains one of those directory components (the timeout and clock rules
only apply to the distributed and serving code, per the invariants they
encode).
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "ProgramRule",
    "register",
    "register_program",
    "all_rules",
    "all_program_rules",
    "known_rule_names",
    "resolve_selection",
]

#: Marker prefix for suppression comments.
_PRAGMA = "repro-lint:"

#: Severities in increasing order of badness.
SEVERITIES = ("warning", "error")


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a rule.

    ``snippet`` is the stripped source line the finding anchors to and
    ``context`` its nearest non-blank neighbour lines; SARIF fingerprints
    findings by ``(rule, snippet, context, occurrence)`` so they survive
    unrelated line drift *and* file moves (:mod:`repro.lint.sarif`).
    """

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""
    context: str = ""

    def format_human(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity}[{self.rule}] {self.message}"
        )

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "context": self.context,
        }


@dataclass
class LintContext:
    """Per-file state handed to every rule."""

    path: str
    source: str
    lines: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def context_of(self, line: int) -> str:
        """Nearest non-blank neighbour lines of ``line``.

        This is the *content context* SARIF fingerprints mix in: it
        pins a finding to its surroundings rather than its file path, so
        fingerprints survive file moves but not edits to the code around
        the finding.
        """

        def nearest(start: int, step: int) -> str:
            i = start
            while 1 <= i <= len(self.lines):
                text = self.lines[i - 1].strip()
                if text:
                    return text
                i += step
            return ""

        return nearest(line - 1, -1) + "␞" + nearest(line + 1, 1)

    def finding(
        self, rule: "Rule", node: ast.AST, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule.name,
            severity=rule.severity,
            path=self.path,
            line=line,
            col=col,
            message=message,
            snippet=self.snippet(line),
            context=self.context_of(line),
        )


class Rule(ABC):
    """Base class for lint rules.

    Subclasses set ``name`` (the suppression/selection identifier),
    ``severity`` (``"error"`` or ``"warning"``), a one-line
    ``description``, and optionally ``scope_dirs`` restricting which
    directories the rule applies to.
    """

    name: str = ""
    severity: str = "warning"
    description: str = ""
    #: Directory components the rule is limited to; empty = everywhere.
    scope_dirs: tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        if not self.scope_dirs:
            return True
        parts = Path(path).parts
        return any(d in parts for d in self.scope_dirs)

    @abstractmethod
    def check(self, tree: ast.Module, ctx: LintContext) -> Iterable[Finding]:
        """Yield findings for one parsed module."""


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.name:
        raise ValueError(f"rule {cls.__name__} has no name")
    if cls.severity not in SEVERITIES:
        raise ValueError(f"rule {cls.name} has invalid severity {cls.severity!r}")
    _REGISTRY[cls.name] = cls
    return cls


def all_rules() -> list[Rule]:
    """Instantiate every registered file rule."""
    # Import for side effect: rule modules self-register on first use.
    import repro.lint.rules  # noqa: F401

    return [_REGISTRY[n]() for n in sorted(_REGISTRY)]


class ProgramRule(ABC):
    """Base class for whole-program rules.

    Unlike :class:`Rule`, a program rule sees *every* analyzed module at
    once: its :meth:`check` receives a
    :class:`repro.lint.callgraph.Program` built from the per-file
    communication IR (:mod:`repro.lint.ir`), so it can follow collective
    sequences and request lifetimes across function and module
    boundaries.  Program rules share the suppression and ``--select``
    machinery with file rules.
    """

    name: str = ""
    severity: str = "warning"
    description: str = ""

    def finding(self, path: str, node, message: str) -> Finding:
        """A finding of this rule anchored at one IR node of ``path``."""
        return Finding(
            rule=self.name,
            severity=self.severity,
            path=path,
            line=node.line,
            col=node.col,
            message=message,
            snippet=node.snippet,
            context=node.context,
        )

    @abstractmethod
    def check(self, program) -> Iterable[Finding]:
        """Yield findings for one whole program."""


_PROGRAM_REGISTRY: dict[str, type[ProgramRule]] = {}


def register_program(cls: type[ProgramRule]) -> type[ProgramRule]:
    """Class decorator adding a program rule to the global registry."""
    if not cls.name:
        raise ValueError(f"program rule {cls.__name__} has no name")
    if cls.severity not in SEVERITIES:
        raise ValueError(f"rule {cls.name} has invalid severity {cls.severity!r}")
    if cls.name in _REGISTRY:
        raise ValueError(f"rule name {cls.name} already taken by a file rule")
    _PROGRAM_REGISTRY[cls.name] = cls
    return cls


def all_program_rules() -> list[ProgramRule]:
    """Instantiate every registered program rule."""
    import repro.lint.rules  # noqa: F401

    return [_PROGRAM_REGISTRY[n]() for n in sorted(_PROGRAM_REGISTRY)]


def known_rule_names() -> list[str]:
    """Every selectable rule name, file-level and program-level."""
    import repro.lint.rules  # noqa: F401

    return sorted(set(_REGISTRY) | set(_PROGRAM_REGISTRY))


def resolve_selection(
    select: Iterable[str] | None = None,
) -> tuple[list[Rule], list[ProgramRule]]:
    """Split a ``--select`` list into (file rules, program rules).

    Raises ``ValueError`` naming the unknown entries *and* the full valid
    rule list when any selected name matches neither registry -- a
    misspelled ``--select`` must fail loudly, not run zero rules.
    """
    import repro.lint.rules  # noqa: F401

    if select is None:
        return all_rules(), all_program_rules()
    names = list(select)
    unknown = [
        n for n in names if n not in _REGISTRY and n not in _PROGRAM_REGISTRY
    ]
    if unknown:
        raise ValueError(
            f"unknown rule(s) {', '.join(sorted(set(unknown)))}; "
            f"known: {', '.join(known_rule_names())}"
        )
    file_rules = [_REGISTRY[n]() for n in names if n in _REGISTRY]
    program_rules = [
        _PROGRAM_REGISTRY[n]() for n in names if n in _PROGRAM_REGISTRY
    ]
    return file_rules, program_rules


# --------------------------------------------------------------------- #
# suppression comments
# --------------------------------------------------------------------- #
def _parse_pragma(comment: str) -> tuple[str, set[str]] | None:
    """Parse one ``repro-lint:`` pragma; returns (kind, rule names)."""
    text = comment.split(_PRAGMA, 1)[1].strip()
    for kind in ("disable-file", "disable"):
        if text.startswith(kind + "="):
            names = {
                n.strip() for n in text[len(kind) + 1 :].split(",") if n.strip()
            }
            return kind, names
    return None


def _stmt_spans(tree: ast.Module) -> list[tuple[int, int]]:
    """Physical line spans of multi-line statements.

    For simple statements the span is ``lineno..end_lineno``; for
    compound statements it covers only the *header* (everything before
    the first statement of the first nested block), so a pragma inside
    an ``if`` body never suppresses findings on the ``if`` line itself.
    """
    spans: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.stmt, ast.excepthandler)):
            continue
        start = node.lineno
        end = getattr(node, "end_lineno", None) or start
        for block in ("body", "orelse", "finalbody", "handlers"):
            children = getattr(node, block, None)
            if isinstance(children, list) and children:
                end = min(end, children[0].lineno - 1)
        if end > start:
            spans.append((start, end))
    return spans


def _collect_suppressions(
    lines: list[str],
    tree: ast.Module,
) -> tuple[dict[int, set[str]], set[str]]:
    """Per-line and file-wide suppressed rule names from pragma comments.

    A pragma on *any* physical line of a multi-line statement suppresses
    findings reported anywhere in that statement (rules anchor findings
    to the statement's first line, so a trailing pragma on the closing
    paren must still apply).
    """
    by_line: dict[int, set[str]] = {}
    whole_file: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        if _PRAGMA not in line:
            continue
        hash_pos = line.find("#")
        if hash_pos < 0 or _PRAGMA not in line[hash_pos:]:
            continue
        parsed = _parse_pragma(line[hash_pos:])
        if parsed is None:
            continue
        kind, names = parsed
        if kind == "disable-file":
            whole_file |= names
        else:
            by_line.setdefault(lineno, set()).update(names)
    if by_line:
        for start, end in _stmt_spans(tree):
            collected: set[str] = set()
            for lineno in range(start, end + 1):
                collected |= by_line.get(lineno, set())
            if collected:
                for lineno in range(start, end + 1):
                    by_line.setdefault(lineno, set()).update(collected)
    return by_line, whole_file


def _suppressed(
    finding: Finding,
    by_line: dict[int, set[str]],
    whole_file: set[str],
) -> bool:
    for names in (whole_file, by_line.get(finding.line, ())):
        if finding.rule in names or "all" in names:
            return True
    return False
