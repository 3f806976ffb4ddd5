"""CI perf gate: rerun the serving benchmark against its committed baseline.

Re-measure (median of ``--repeat`` runs, the stat least sensitive to a
noisy CI neighbor), compare the headline number against the committed
JSON, fail past ``--threshold`` (default 10%).

``--suite service`` (the only suite)
    the query-server saturation sweep vs ``BENCH_service.json``;
    headline is the worst-cell ``edge_queries_per_s`` (every
    concurrency x batch cell must stay within threshold of the
    baseline's worst cell), plus the benchmark's own hard floors --
    >= 10k edge-queries/s, > 90% warm cache hit rate, zero errors --
    which fail the gate regardless of the committed baseline.

Generation performance (exact and stochastic) is measured, and its output
verified, by the ledger: ``python3 benchmarks/ledger/run.py``.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py --suite service
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def check_service(args: argparse.Namespace) -> int:
    import bench_service

    baseline_path = args.baseline or str(REPO_ROOT / "BENCH_service.json")
    with open(baseline_path, encoding="utf-8") as fh:
        baseline = json.load(fh)

    out = Path(tempfile.mkdtemp()) / "bench_service_current.json"
    rc = bench_service.main(
        ["--out", str(out), "--repeat", str(args.repeat)]
    )
    if rc:
        return rc  # the benchmark's own floors already failed
    with open(out, encoding="utf-8") as fh:
        current = json.load(fh)

    base_worst = baseline["edge_queries_per_s_worst"]
    cur_worst = current["edge_queries_per_s_worst"]
    change = cur_worst / base_worst - 1.0
    print()
    print(f"worst-cell edge-queries/s: baseline {base_worst / 1e3:.0f}k, "
          f"current {cur_worst / 1e3:.0f}k ({change:+.1%})")
    print(f"warm cache hit rate: {current['cache_hit_rate_best']:.1%}, "
          f"errors: {current['errors_total']}")
    if change < -args.threshold:
        print(f"FAIL: serving throughput regressed {-change:.1%} "
              f"(> {args.threshold:.0%} threshold)")
        return 1
    print("perf gate OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", default="service", choices=("service",),
                        help="which benchmark/baseline pair to gate")
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed baseline JSON (default: BENCH_service.json)",
    )
    parser.add_argument("--repeat", type=int, default=5,
                        help="repetitions; the median run is compared")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max headline regression (fraction)")
    return check_service(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
