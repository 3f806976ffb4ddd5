"""In-memory span tracer of the ledger's traced run.

The traced run wraps every call into a layer's public functions in a
span (name, start, end, parent span, arguments).  Spans stay in memory
until the run ends and are then written once as Chrome trace-event JSON,
so recording costs two clock reads and one list append per span and no
I/O inside a measured region.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover; the per-layer metrics are sums of self
time, so nested spans (a workload span around its layer spans) are never
counted twice.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

from repro.telemetry.clock import perf_clock

__all__ = ["Tracer"]


class Tracer:
    """Collects spans; reports self time per layer; exports a Chrome trace."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **args):
        """Time the enclosed block as one span, child of the open span."""
        parent = self._stack[-1] if self._stack else None
        record = {
            "name": name, "start": perf_clock(), "end": None,
            "parent": parent, "args": args,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_clock()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, **args) -> None:
        """Record a span timed elsewhere (inside a rank) on the shared clock.

        ``perf_clock`` reads CLOCK_MONOTONIC, whose origin survives fork,
        so a rank's timestamps line up with the parent's.
        """
        parent = self._stack[-1] if self._stack else None
        self.spans.append({
            "name": name, "start": start, "end": end,
            "parent": parent, "args": args,
        })

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus what its child spans cover.

        A span still open (the run's root, while metrics are derived
        inside it) counts up to now.
        """
        now = perf_clock()
        ends = [now if s["end"] is None else s["end"] for s in self.spans]
        own = [end - s["start"] for s, end in zip(self.spans, ends)]
        for child, end in zip(self.spans, ends):
            if child["parent"] is not None:
                parent = self.spans[child["parent"]]
                own[child["parent"]] -= (
                    min(end, ends[child["parent"]])
                    - max(child["start"], parent["start"])
                )
        return own

    def layer_seconds(self, name: str) -> dict[int, float]:
        """Per-rank seconds of layer ``name``.

        Spans carry ``rank`` and ``rep`` arguments: self time is summed
        within each ``(rank, rep)`` (a streamed layer records one span per
        chunk or round) and the median over repeats is kept per rank.
        """
        sums: dict[tuple[int, int], float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_seconds()):
            if span["name"] == name:
                key = (span["args"].get("rank", 0), span["args"].get("rep", 0))
                sums[key] += own
        per_rank: dict[int, list[float]] = defaultdict(list)
        for (rank, _rep), seconds in sums.items():
            per_rank[rank].append(seconds)
        return {rank: median(values) for rank, values in per_rank.items()}

    def write_chrome_trace(self, path) -> None:
        """Write every span as a complete ("X") Chrome trace event."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        events = [
            {
                "name": s["name"], "ph": "X", "cat": "ledger", "pid": 1,
                "tid": s["args"].get("rank", 0),
                "ts": (s["start"] - origin) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "args": {**s["args"], "parent": s["parent"]},
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
            fh.write("\n")
