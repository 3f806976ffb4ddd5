"""Run-to-run spread of every end-to-end metric, as the driver measures it.

Runs the ``BENCHMARK.json`` command ``--runs`` times on each workload,
each time with another seed, and prints for every (workload, metric) the
median and the distance between the first and third quartile as a share
of the median, next to the metric's bound.  With ``--baseline`` (the
``--out`` file of an earlier set) it also prints how far each median
moved in the worse direction.  A benchmark is steady when every spread is
below a third of its bound and no median moved by more than the bound.

    python3 benchmarks/ledger/steadiness.py --runs 10 --out out/set1.json
    python3 benchmarks/ledger/steadiness.py --runs 10 --baseline out/set1.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--workload", action="append", default=None,
                        help="only these workloads (repeatable)")
    parser.add_argument("--out", default=None, help="write the raw values here")
    parser.add_argument("--baseline", default=None,
                        help="an earlier --out file to compare medians with")
    args = parser.parse_args(argv)

    with open(REPO / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    values: dict[str, dict[str, list[float]]] = {}
    for name in names:
        per_metric: dict[str, list[float]] = {}
        for run in range(args.runs):
            done = subprocess.run(
                [*spec["command"], "--workload", name,
                 "--seed", str(args.seed_base + run),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=REPO, capture_output=True, text=True, check=True,
            )
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {args.seed_base + run}: wrong output")
                return 1
            for metric, m in result["metrics"].items():
                per_metric.setdefault(metric, []).append(m["value"])
        values[name] = per_metric
        print(f"{name}: {args.runs} runs done", file=sys.stderr)

    baseline = None
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
    unsteady = 0
    print(f"{'workload':<18} {'metric':<14} {'median':>12} {'spread':>8} "
          f"{'bound':>6} {'moved':>8}")
    for name, per_metric in values.items():
        for metric, vals in per_metric.items():
            bound = bounds.get(metric, {}).get("bound", float("nan"))
            med = statistics.median(vals)
            sp = spread(vals)
            moved = ""
            if baseline is not None:
                base = statistics.median(baseline[name][metric])
                sign = -1 if bounds[metric]["better"] == "higher" else 1
                worse = sign * (med - base) / base
                moved = f"{worse:+8.1%}"
                unsteady += worse > bound
            if metric != "setup_s":
                unsteady += sp > bound
            print(f"{name:<18} {metric:<14} {med:>12.5g} {sp:>8.1%} "
                  f"{bound:>6.2f} {moved:>8}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(values, fh, indent=1)
            fh.write("\n")
    return 1 if unsteady else 0


if __name__ == "__main__":
    raise SystemExit(main())
