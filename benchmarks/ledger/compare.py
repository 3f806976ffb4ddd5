"""Compare two ledger result files: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric): both reported values with the
quartiles of the repeats each file records, the change from A to B in
the worse direction as a share of A, the metric's bound from
``BENCHMARK.json``, and a verdict:

``ok``          B is not worse than A by more than the bound;
``worse``       it is, and the repeats are steadier than the bound;
``unresolved``  the spread of the repeats (interquartile distance over
                median, the wider of the two files) exceeds the bound, so
                the files cannot tell -- unless every repeat of B reads
                better than every repeat of A.

Refuses (exit 2) to compare files whose ``nproc``, python or numpy
version, seed, measured seconds or workload definitions differ: such a
difference is not a property of the code.  Exits 1 if any row is
``worse`` or any output was wrong, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SAME = ("nproc", "python", "numpy", "seed", "seconds", "workload_definitions")


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def verdict(run_a: dict, run_b: dict, better: str, bound: float):
    """``(change in the worse direction, spread, verdict)`` of one row."""
    a, b = run_a["samples"], run_b["samples"]
    (a1, _, a3), (b1, _, b3) = quartiles(a), quartiles(b)
    sign = -1.0 if better == "higher" else 1.0
    change = sign * (run_b["value"] - run_a["value"]) / run_a["value"]
    spread = max((a3 - a1) / run_a["value"], (b3 - b1) / run_b["value"])
    if better == "higher":
        all_better = min(b) > max(a)
    else:
        all_better = max(b) < min(a)
    if spread > bound and not all_better:
        return change, spread, "unresolved"
    return change, spread, "worse" if change > bound else "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        a = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        b = json.load(fh)
    differ = [key for key in SAME if a.get(key) != b.get(key)]
    if differ:
        print(f"refusing to compare: {', '.join(differ)} differ")
        return 2
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    print(f"A: {argv[0]} commit {a['commit']}")
    print(f"B: {argv[1]} commit {b['commit']}")
    print(f"nproc {a['nproc']}, python {a['python']}, numpy {a['numpy']}, "
          f"seed {a['seed']}, {a['seconds']} s per workload")
    print(f"{'workload':<18} {'metric':<13} {'unit':<4} "
          f"{'A value [q1, q3]':>34} {'B value [q1, q3]':>34} "
          f"{'change':>7} {'bound':>5}  verdict")
    bad = 0
    for name, run_a in a["workloads"].items():
        run_b = b["workloads"][name]
        for m in spec["end_to_end"]:
            ma = run_a["metrics"][m["name"]]
            mb = run_b["metrics"][m["name"]]
            change, _spread, word = verdict(ma, mb, m["better"], m["bound"])
            bad += word == "worse"
            cells = []
            for run in (ma, mb):
                q1, _, q3 = quartiles(run["samples"])
                cells.append(f"{run['value']:.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"{name:<18} {m['name']:<13} {m['unit']:<4} "
                  f"{cells[0]:>34} {cells[1]:>34} "
                  f"{change:>+7.1%} {m['bound']:>5.2f}  {word}")
        for label, run in (("A", run_a), ("B", run_b)):
            if run["failed"]:
                bad += 1
                print(f"{name:<18} failed_frac {label}: "
                      f"{run['failed']} of {run['attempted']}  worse")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
