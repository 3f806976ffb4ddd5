"""Command-line driver: ``python -m repro.lint [paths...]``.

Exit codes: ``0`` clean (after suppressions), ``1`` findings
reported, ``2`` usage or internal error -- the semantics CI keys off.
The same arguments are mounted as the ``repro-kron lint`` subcommand by
:mod:`repro.cli`.

Runs :func:`repro.lint.engine.analyze_paths`: the file rules plus the
program rules over the communication IR of every file given.
``--sarif FILE`` additionally writes a SARIF 2.1.0 report of the
findings for CI code-scanning upload.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.lint.core import Finding, all_program_rules, all_rules
from repro.lint.engine import analyze_paths

__all__ = ["add_lint_arguments", "run_lint", "main"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Mount the lint options on an (sub)parser."""
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        dest="output_format", help="report format",
    )
    parser.add_argument(
        "--sarif", default=None, metavar="FILE",
        help="also write findings as SARIF 2.1.0",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )


def _print_rules() -> None:
    for rule in all_rules():
        scope = (
            f" [scope: {', '.join(rule.scope_dirs)}/]" if rule.scope_dirs else ""
        )
        print(f"{rule.name:<22} {rule.severity:<8} {rule.description}{scope}")
    for rule in all_program_rules():
        print(
            f"{rule.name:<22} {rule.severity:<8} "
            f"[whole-program] {rule.description}"
        )


def _report(findings: list[Finding], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([f.to_json() for f in findings], indent=2))
        return
    for f in findings:
        print(f.format_human())
    errors = sum(1 for f in findings if f.severity == "error")
    warnings = len(findings) - errors
    if findings:
        print(f"\n{len(findings)} finding(s): {errors} error(s), "
              f"{warnings} warning(s)")
    else:
        print("no findings")


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    if args.list_rules:
        _print_rules()
        return 0
    select = (
        [s.strip() for s in args.select.split(",") if s.strip()]
        if args.select
        else None
    )
    try:
        findings = analyze_paths(args.paths, select=select)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "sarif", None):
        from repro.lint.sarif import write_sarif

        write_sarif(args.sarif, findings)
    _report(findings, args.output_format)
    return 1 if findings else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="SPMD correctness static analysis for the repro codebase",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))
