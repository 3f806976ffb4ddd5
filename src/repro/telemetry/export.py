"""Chrome trace-event / Perfetto JSON export and schema validation.

The export target is the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
consumed by ``chrome://tracing``, Perfetto's legacy loader, and
``speedscope``.  Layout decisions:

* one **lane per rank**: all events share ``pid=1`` ("repro-kron") and
  use ``tid = rank``, with ``thread_name`` metadata events labelling
  each lane ``rank 0`` .. ``rank N-1`` and ``thread_sort_index``
  pinning lane order to rank order;
* **parent/supervisor events** (retries, give-ups, recoveries, elastic
  reshards) get their own lane after the ranks, labelled ``supervisor``;
* timestamps are normalized to **microseconds since the earliest event**
  across all ranks -- ranks share a clock origin (CLOCK_MONOTONIC
  survives fork), so cross-rank alignment in the viewer is real, not
  cosmetic.

:func:`validate_chrome_trace` is the schema check the CI smoke job runs
(via ``python -m repro.telemetry.validate``): it returns a list of
problems, empty when the object is loadable by the viewers above.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.telemetry.trace import TraceEvent

__all__ = ["chrome_trace", "write_chrome_trace", "validate_chrome_trace"]

#: The single Chrome "process" all rank lanes live under.
_PID = 1

_US = 1_000_000  # seconds -> microseconds


def _lane_meta(tid: int, name: str) -> list[dict[str, Any]]:
    return [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": _PID,
            "tid": tid,
            "args": {"name": name},
        },
        {
            "name": "thread_sort_index",
            "ph": "M",
            "pid": _PID,
            "tid": tid,
            "args": {"sort_index": tid},
        },
    ]


def _emit(event: TraceEvent, tid: int, origin: float) -> dict[str, Any]:
    out: dict[str, Any] = {
        "name": event.name,
        "ph": event.ph,
        "cat": event.cat,
        "pid": _PID,
        "tid": tid,
        "ts": (event.ts - origin) * _US,
    }
    if event.ph == "X":
        out["dur"] = event.dur * _US
    elif event.ph == "i":
        out["s"] = "t"  # instant scope: thread
    if event.args:
        out["args"] = dict(event.args)
    return out


def chrome_trace(
    rank_traces: Iterable[Any],
    parent_events: Iterable[TraceEvent] = (),
) -> dict[str, Any]:
    """Build the Chrome trace-event JSON object.

    ``rank_traces`` is an iterable of
    :class:`~repro.telemetry.session.RankTrace`; ``parent_events`` are
    supervisor-side instants rendered on their own lane.
    """
    snaps = list(rank_traces)
    parents = list(parent_events)

    all_ts = [e.ts for snap in snaps for e in snap.events]
    all_ts += [e.ts for e in parents]
    origin = min(all_ts) if all_ts else 0.0

    events: list[dict[str, Any]] = []
    max_rank = -1
    for snap in snaps:
        max_rank = max(max_rank, snap.rank)
        events.extend(_lane_meta(snap.rank, f"rank {snap.rank}"))
        events.extend(_emit(e, snap.rank, origin) for e in snap.events)
    if parents:
        sup_tid = max_rank + 1
        events.extend(_lane_meta(sup_tid, "supervisor"))
        events.extend(_emit(e, sup_tid, origin) for e in parents)

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "tool": "repro.telemetry",
            "nranks": len(snaps),
            "dropped": {
                str(snap.rank): snap.dropped for snap in snaps if snap.dropped
            },
        },
    }


def write_chrome_trace(
    path,
    rank_traces: Iterable[Any],
    parent_events: Iterable[TraceEvent] = (),
) -> None:
    """Serialize :func:`chrome_trace` output to ``path`` as JSON."""
    obj = chrome_trace(rank_traces, parent_events)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))
        fh.write("\n")


# --------------------------------------------------------------------- #
# schema validation (used by CI and tests; no third-party validator)
# --------------------------------------------------------------------- #
_REQUIRED = ("name", "ph", "pid", "tid", "ts")
_KNOWN_PHASES = frozenset({"X", "i", "I", "M", "B", "E", "C"})


def validate_chrome_trace(obj: Any) -> list[str]:
    """Check that ``obj`` is a loadable Chrome trace; return problems.

    Validates the subset of the trace-event format this package emits --
    enough that an empty return means ``chrome://tracing`` / Perfetto
    will load the file and show one labelled lane per rank.
    """
    problems: list[str] = []
    if not isinstance(obj, dict):
        return [f"top level must be an object, got {type(obj).__name__}"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array 'traceEvents'"]

    named_lanes: set[tuple[int, int]] = set()
    event_lanes: set[tuple[int, int]] = set()
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"traceEvents[{i}]: not an object")
            continue
        for key in _REQUIRED:
            if key == "ts" and event.get("ph") == "M":
                continue  # metadata events carry no timestamp
            if key not in event:
                problems.append(f"traceEvents[{i}]: missing '{key}'")
        ph = event.get("ph")
        if ph not in _KNOWN_PHASES:
            problems.append(f"traceEvents[{i}]: unknown phase {ph!r}")
        lane = (event.get("pid"), event.get("tid"))
        if ph == "M":
            if event.get("name") == "thread_name":
                named_lanes.add(lane)
            continue
        event_lanes.add(lane)
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"traceEvents[{i}]: non-numeric ts {ts!r}")
        elif ts < 0:
            problems.append(f"traceEvents[{i}]: negative ts {ts}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)):
                problems.append(f"traceEvents[{i}]: span missing 'dur'")
            elif dur < 0:
                problems.append(f"traceEvents[{i}]: negative dur {dur}")

    for lane in sorted(event_lanes - named_lanes, key=str):
        problems.append(f"lane {lane}: events but no thread_name metadata")
    return problems
