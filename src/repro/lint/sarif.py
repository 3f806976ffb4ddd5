"""Minimal SARIF 2.1.0 writer for CI code-scanning upload.

Emits one run with the full rule catalogue (file and program rules) in
``tool.driver.rules`` and one result per finding, carrying a
content-addressed fingerprint under ``fingerprints`` --
``sha1(rule :: stripped source line :: content context :: occurrence
index)`` -- so SARIF consumers track a finding across unrelated line
drift *and* file moves (``src/x.py`` -> ``src/pkg/x.py``), while editing
the finding line or its immediate surroundings (or adding another
identical violation) makes it new.  The path is deliberately not part of
the fingerprint.  Output is fully deterministic -- findings are already
sorted by the engine and the JSON is dumped with sorted keys.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from pathlib import Path
from typing import Iterable

from repro.lint.core import Finding, all_program_rules, all_rules

__all__ = ["fingerprints", "to_sarif", "write_sarif"]

_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_LEVELS = {"warning": "warning", "error": "error"}


def fingerprints(findings: Iterable[Finding]) -> list[tuple[Finding, str]]:
    """Pair each finding with its stable fingerprint, in position order.

    Findings sharing ``(rule, snippet, context)`` are disambiguated by
    their occurrence index in ``(path, line, col)`` order, so N identical
    violations get N distinct fingerprints.
    """
    by_key: dict[tuple[str, str, str], list[Finding]] = defaultdict(list)
    for f in findings:
        by_key[(f.rule, f.snippet, f.context)].append(f)
    out: list[tuple[Finding, str]] = []
    for key, group in by_key.items():
        group.sort(key=lambda f: (f.path, f.line, f.col))
        for occurrence, f in enumerate(group):
            raw = "::".join((*key, str(occurrence)))
            out.append((f, hashlib.sha1(raw.encode("utf-8")).hexdigest()))
    out.sort(key=lambda pair: (pair[0].path, pair[0].line, pair[0].col))
    return out


def _rule_catalogue() -> list[dict]:
    rules = []
    for rule in [*all_rules(), *all_program_rules()]:
        rules.append(
            {
                "id": rule.name,
                "defaultConfiguration": {
                    "level": _LEVELS.get(rule.severity, "warning")
                },
                "shortDescription": {"text": rule.description or rule.name},
            }
        )
    rules.sort(key=lambda r: r["id"])
    return rules


def to_sarif(findings: Iterable[Finding]) -> dict:
    """Build the SARIF log object for a list of findings."""
    results = []
    for finding, fingerprint in fingerprints(findings):
        results.append(
            {
                "ruleId": finding.rule,
                "level": _LEVELS.get(finding.severity, "warning"),
                "message": {"text": finding.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": finding.path,
                                "uriBaseId": "SRCROOT",
                            },
                            "region": {
                                "startLine": finding.line,
                                "startColumn": finding.col + 1,
                                "snippet": {"text": finding.snippet},
                            },
                        }
                    }
                ],
                "fingerprints": {"reproLint/v2": fingerprint},
            }
        )
    return {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://example.invalid/repro-kron/lint"
                        ),
                        "rules": _rule_catalogue(),
                    }
                },
                "originalUriBaseIds": {
                    "SRCROOT": {"uri": "file:///./"}
                },
                "results": results,
                "columnKind": "utf16CodeUnits",
            }
        ],
    }


def write_sarif(path: str | Path, findings: Iterable[Finding]) -> None:
    """Write the SARIF report; bytes are deterministic for a given
    finding list."""
    payload = json.dumps(to_sarif(findings), indent=2, sort_keys=True)
    Path(path).write_text(payload + "\n", encoding="utf-8")
