"""Shared by the generation and service halves of the ledger.

Importing this module puts the library under test on ``sys.path``, so
every other module of the ledger imports it first.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median

import numpy as np

__all__ = ["LEDGER", "REPO", "SRC", "HostProbe", "metric", "random_graph"]

LEDGER = Path(__file__).resolve().parent
REPO = LEDGER.parents[1]
#: The library is measured from source, wherever the checkout lives; the
#: server subprocess gets the same directory as ``PYTHONPATH``.
SRC = REPO / "src"
if not (SRC / "repro").is_dir():
    raise SystemExit(f"ledger: nothing to measure, {SRC / 'repro'} is missing")
sys.path.insert(0, str(SRC))

from repro.graph.edgelist import EdgeList  # noqa: E402
from repro.telemetry.clock import perf_clock  # noqa: E402


class HostProbe:
    """How much slower than the quiet reference host this host is right now.

    The reference box is a shared 2-vCPU VM whose speed swings with its
    neighbours: over tens of seconds a fixed Python loop reads 0.8-1.5 ms
    and a fixed numpy loop 3.3-5.4 ms, together (correlation 0.9 over 8 s
    windows), with no steal time reported.  A raw rate taken in a slow
    minute and one taken in a quick minute differ by more than any bound
    the ledger could fix, so every timed slice is bracketed by two probe
    samples and divided by their mean slowdown before the run's median is
    taken.  The raw medians are kept beside the corrected ones.

    The probe is two fixed loops, one of each kind of work the workloads
    do: numpy passes over 16 MB arrays with fresh temporaries (the product
    kernel), and a JSON round trip of 2000 pairs (the server).  A sample
    is the geometric mean of their slowdowns against ``NOMINAL_MS``, the
    quiet-host times; on another host the constant only rescales every
    number by the same factor.
    """

    #: Quiet-host milliseconds of one numpy pass and one JSON round trip.
    NOMINAL_MS = (3.7, 0.83)

    def __init__(self) -> None:
        self._array = np.arange(2_000_000, dtype=np.int64)
        self._doc = json.dumps({"pairs": [[i, 7 * i] for i in range(2000)]})
        self.samples: list[float] = []

    def _numpy_pass(self) -> None:
        int(((self._array * 3 + 1) >> 1).sum())

    def _json_round_trip(self) -> None:
        json.dumps(json.loads(self._doc))

    def sample(self) -> float:
        """Take one sample (about 40 ms) and return the slowdown factor."""
        slowdown = 1.0
        for loop, count, nominal_ms in (
            (self._numpy_pass, 5, self.NOMINAL_MS[0]),
            (self._json_round_trip, 20, self.NOMINAL_MS[1]),
        ):
            times = []
            for _ in range(count):
                t0 = perf_clock()
                loop()
                times.append(perf_clock() - t0)
            slowdown *= 1e3 * median(times) / nominal_ms
        self.samples.append(slowdown ** 0.5)
        return self.samples[-1]

    def bracket(self, fn):
        """``fn()`` between two samples: ``(result, mean slowdown)``.

        The sample that closes one slice opens the next, so back-to-back
        slices cost one sample each.
        """
        before = self.samples[-1] if self.samples else self.sample()
        result = fn()
        return result, (before + self.sample()) / 2


def metric(
    unit: str,
    samples: list[float],
    slowdowns: list[float] | None = None,
    rate: bool = False,
    pick=median,
) -> dict:
    """One reported number: ``pick`` (the median) of ``samples``, and every one.

    With ``slowdowns`` (one per sample, from :class:`HostProbe`) each
    sample is first brought to quiet-host speed -- a time divided by its
    slowdown, a ``rate`` multiplied -- and the uncorrected samples and
    their median are kept as ``raw_samples`` and ``raw``.
    """
    samples = [float(s) for s in samples]
    out = {"unit": unit, "samples": samples}
    if slowdowns is not None:
        out["raw"] = pick(samples)
        out["raw_samples"] = samples
        out["samples"] = [
            s * f if rate else s / f for s, f in zip(samples, slowdowns)
        ]
    out["value"] = pick(out["samples"])
    return out


def random_graph(n: int, m: int, seed: int):
    """Uniform undirected graph on ``n`` vertices with exactly ``m`` edges.

    ``erdos_renyi(n, p, seed)`` draws its edge count too: across seeds the
    product of two such factors varies by 4% (one standard deviation), and
    that would be charged to every timing as run-to-run noise.  Fixing the
    count makes every seed the same amount of work on a different graph.
    """
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    pick = rng.choice(len(iu), size=m, replace=False)
    return EdgeList(np.column_stack([iu[pick], ju[pick]]), n).symmetrized()
