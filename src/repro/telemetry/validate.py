"""Trace schema validator CLI: ``python -m repro.telemetry.validate``.

Exit status 0 when every given trace file parses as JSON and passes
:func:`repro.telemetry.export.validate_chrome_trace`; 1 otherwise, with
one problem per line on stderr.  The CI smoke job runs this against the
traces produced by ``repro-kron generate --trace`` on every backend.

Flags:

``--require-lanes N``
    additionally require at least ``N`` named rank lanes (metadata
    ``thread_name`` events), catching exports that validate structurally
    but lost ranks.
``--require-span NAME`` (repeatable)
    require at least one complete span with this name anywhere in the
    trace (e.g. ``--require-span generate --require-span exchange``).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.telemetry.export import validate_chrome_trace

__all__ = ["main"]


def _check_file(path: str, require_lanes: int, spans: list[str]) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable: {exc}"]

    problems = [f"{path}: {p}" for p in validate_chrome_trace(obj)]
    events = obj.get("traceEvents", []) if isinstance(obj, dict) else []

    if require_lanes:
        lanes = {
            (e.get("pid"), e.get("tid"))
            for e in events
            if isinstance(e, dict)
            and e.get("ph") == "M"
            and e.get("name") == "thread_name"
            and str(e.get("args", {}).get("name", "")).startswith("rank ")
        }
        if len(lanes) < require_lanes:
            problems.append(
                f"{path}: expected >= {require_lanes} rank lanes, "
                f"found {len(lanes)}"
            )

    if spans:
        present = {
            e.get("name")
            for e in events
            if isinstance(e, dict) and e.get("ph") == "X"
        }
        for name in spans:
            if name not in present:
                problems.append(f"{path}: required span {name!r} not found")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.validate",
        description="Validate Chrome trace-event JSON produced by "
        "repro-kron generate --trace.",
    )
    parser.add_argument("traces", nargs="+", help="trace JSON file(s)")
    parser.add_argument(
        "--require-lanes",
        type=int,
        default=0,
        metavar="N",
        help="require at least N named rank lanes",
    )
    parser.add_argument(
        "--require-span",
        action="append",
        default=[],
        metavar="NAME",
        help="require a complete span with this name (repeatable)",
    )
    opts = parser.parse_args(argv)

    problems: list[str] = []
    for path in opts.traces:
        problems.extend(
            _check_file(path, opts.require_lanes, opts.require_span)
        )
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1
    print(f"{len(opts.traces)} trace(s) valid")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
