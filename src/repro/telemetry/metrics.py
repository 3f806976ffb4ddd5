"""Per-rank metrics: counters, histograms, and their merge.

A :class:`MetricsRegistry` lives on each rank and is dictionary-cheap to
update: ``add`` (monotonic counter), ``observe`` (log2-bucketed
histogram).  At finalize the registry is snapshotted into plain dicts --
picklable, so snapshots ride the process backend's result queue -- and
merged across ranks parent-side (:func:`merge_snapshots`).

Merge semantics: counters sum, histograms sum bucket-wise (identical
fixed bucket layout everywhere).

The histogram buckets are powers of two over the float's binary
exponent, spanning ~1ns to ~100s for durations and 1B to ~8TB for
sizes without configuration: ``bucket = clamp(exponent + 31, 0, 63)``
where ``value = mantissa * 2**exponent``.
"""

from __future__ import annotations

import math
from typing import Any

__all__ = [
    "MetricsRegistry",
    "merge_snapshots",
    "HIST_BUCKETS",
]

#: Number of histogram buckets (fixed layout so merges are elementwise).
HIST_BUCKETS = 64

#: Offset added to the binary exponent (``frexp``'s, so ``value`` is in
#: ``[2**(exp-1), 2**exp)``): bucket 32 holds values in [1, 2).
_EXP_OFFSET = 31


def _bucket(value: float) -> int:
    """Fixed log2 bucket index of a positive value (0 for <= 0)."""
    if value <= 0.0:
        return 0
    _, exp = math.frexp(value)
    return min(HIST_BUCKETS - 1, max(0, exp + _EXP_OFFSET))


class _Histogram:
    """Log2-bucketed histogram with sum/count/min/max."""

    __slots__ = ("counts", "total", "count", "vmin", "vmax")

    def __init__(self) -> None:
        self.counts = [0] * HIST_BUCKETS
        self.total = 0.0
        self.count = 0
        self.vmin = math.inf
        self.vmax = -math.inf

    def observe(self, value: float) -> None:
        self.counts[_bucket(value)] += 1
        self.total += value
        self.count += 1
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    def snapshot(self) -> dict[str, Any]:
        return {
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
            "min": self.vmin if self.count else 0.0,
            "max": self.vmax if self.count else 0.0,
        }


class MetricsRegistry:
    """One rank's named counters and histograms."""

    __slots__ = ("_counters", "_hists")

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._hists: dict[str, _Histogram] = {}

    # ---- updates (hot path: one dict op each) ---------------------------
    def add(self, name: str, value: float = 1) -> None:
        """Increment counter ``name`` by ``value``."""
        self._counters[name] = self._counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name``."""
        hist = self._hists.get(name)
        if hist is None:
            hist = self._hists[name] = _Histogram()
        hist.observe(value)

    # ---- reads ----------------------------------------------------------
    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 when never incremented)."""
        return self._counters.get(name, 0)

    def snapshot(self) -> dict[str, Any]:
        """Picklable plain-dict snapshot of everything recorded."""
        return {
            "counters": dict(self._counters),
            "histograms": {k: h.snapshot() for k, h in self._hists.items()},
        }


def _merge_hist(into: dict[str, Any], snap: dict[str, Any]) -> None:
    into["counts"] = [
        a + b for a, b in zip(into["counts"], snap["counts"])
    ]
    into["sum"] += snap["sum"]
    if snap["count"]:
        if into["count"]:
            into["min"] = min(into["min"], snap["min"])
            into["max"] = max(into["max"], snap["max"])
        else:
            into["min"], into["max"] = snap["min"], snap["max"]
    into["count"] += snap["count"]


def merge_snapshots(snapshots: list[dict[str, Any]]) -> dict[str, Any]:
    """World-aggregate view of per-rank snapshots.

    Counters sum; histograms merge bucket-wise.
    """
    counters: dict[str, float] = {}
    hists: dict[str, dict[str, Any]] = {}
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, h in snap.get("histograms", {}).items():
            if name in hists:
                _merge_hist(hists[name], h)
            else:
                hists[name] = {
                    "counts": list(h["counts"]),
                    "sum": h["sum"],
                    "count": h["count"],
                    "min": h["min"],
                    "max": h["max"],
                }
    return {"counters": counters, "histograms": hists}
