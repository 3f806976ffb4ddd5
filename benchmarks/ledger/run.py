"""The performance ledger: one command, eight workloads, every metric.

Contract form (what ``BENCHMARK.json`` names; one workload per process)::

    python3 benchmarks/ledger/run.py --workload W --seed S --seconds T --trace 0|1

measures workload ``W`` for ``T`` seconds on inputs made from seed ``S``
and prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` (a separate,
traced run; layers a workload never enters read 0).

Without ``--workload`` every workload runs in turn, each metric is printed
by name and unit, and a result file holding every raw repeat is written
for ``compare.py``.  ``--smoke`` exercises everything on tiny inputs and
checks ``BENCHMARK.json`` against the names this driver emits.

Any wrong output -- a product whose row count or digest differs from the
serial one, a reply that differs from a direct ``KroneckerGraph`` call --
is counted in ``failed`` and makes the command exit non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np

from common import LEDGER, REPO  # first: puts the library on sys.path

import gen
import svc
from repro.telemetry.clock import perf_clock, wall_clock
from tracer import Tracer

WORKLOADS = {**gen.WORKLOADS, **svc.WORKLOADS}
LAYER_UNITS = {**gen.LAYER_UNITS, **svc.LAYER_UNITS}
OUT_DIR = LEDGER / "out"


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> dict:
    """One run of one workload: untraced end-to-end, or traced per-layer."""
    family = gen if name in gen.WORKLOADS else svc
    workload = WORKLOADS[name]
    if not trace:
        return family.measure_end_to_end(workload, seed, seconds, smoke)
    tracer = Tracer()
    with tracer.span(name, seed=seed):
        result = family.measure_layers(workload, seed, seconds, smoke, tracer)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_chrome_trace(OUT_DIR / f"trace-{name}-seed{seed}.json")
    # Every per-layer metric is reported by every workload; a layer the
    # workload never enters did no work and took no time.
    for layer, unit in LAYER_UNITS.items():
        result["metrics"].setdefault(layer, {"value": 0.0, "unit": unit, "samples": [0.0]})
    return result


def contract_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items()
        },
    })


def _print_metrics(name: str, result: dict) -> None:
    for metric, m in result["metrics"].items():
        raw = f" (uncorrected {m['raw']:.6g})" if "raw" in m else ""
        print(f"{name:<18} {metric:<34} {m['value']:>16.6g} {m['unit']}{raw}")
    if "host_slowdown" in result:
        print(f"{name:<18} {'host_slowdown':<34} "
              f"{result['host_slowdown']:>16.6g} ratio")
    print(
        f"{name:<18} {'failed_frac':<34} "
        f"{result['failed'] / result['attempted']:>16.6g} fraction "
        f"({result['failed']} of {result['attempted']})"
    )


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def describe_workloads() -> dict:
    """What defines each workload; ``compare.py`` refuses to mix these."""
    out = {}
    for name, w in gen.WORKLOADS.items():
        out[name] = {
            "inputs": w.inputs.__name__, "options": w.options, "wan": w.wan,
            "nranks": gen.NRANKS,
        }
    for name, w in svc.WORKLOADS.items():
        out[name] = {
            "pattern": [list(p) for p in w.pattern], "pool": w.pool,
            "connections": svc.CONNECTIONS,
        }
    return out


def run_all(seed: int, seconds: float, trace: bool, out: str | None) -> int:
    """Every workload in turn; print every metric; write the result file."""
    record = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "seconds": seconds,
        "commit": _commit(),
        "timestamp_unix": wall_clock(),
        "workload_definitions": describe_workloads(),
        "workloads": {},
    }
    failed = 0
    for name in WORKLOADS:
        t0 = perf_clock()
        result = run_workload(name, seed, seconds, trace=False)
        _print_metrics(name, result)
        if trace:
            layers = run_workload(name, seed, seconds, trace=True)
            _print_metrics(name, layers)
            result["layers"] = layers["metrics"]
            failed += layers["failed"]
        failed += result["failed"]
        record["workloads"][name] = result
        print(f"{name:<18} took {perf_clock() - t0:.1f} s", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    path = out or OUT_DIR / f"ledger-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"result file: {path}")
    return 1 if failed else 0


def smoke(seed: int) -> int:
    """Tiny inputs through all eight workloads, traced and untraced, and
    ``BENCHMARK.json`` checked against the names actually emitted."""
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    problems = []

    def check(what: str, declared_names: dict, emitted: dict) -> None:
        if declared_names != emitted:
            odd = set(declared_names.items()) ^ set(emitted.items())
            problems.append(f"{what}: BENCHMARK.json and driver disagree on {sorted(odd)}")

    check(
        "workloads",
        dict.fromkeys(w["name"] for w in declared["workloads"]),
        dict.fromkeys(WORKLOADS),
    )
    failed = 0
    for name in WORKLOADS:
        # One repeat of each generation workload, one-second service windows.
        seconds = 1.0 if name in svc.WORKLOADS else 0.0
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(name, seed, seconds, trace, smoke=True)
            failed += result["failed"]
            check(
                f"{name} {key}",
                {m["name"]: m["unit"] for m in declared[key]},
                {m: v["unit"] for m, v in result["metrics"].items()},
            )
        print(f"smoke {name}: ok")
    for problem in problems:
        print(f"FAIL {problem}")
    if failed:
        print(f"FAIL {failed} wrong outputs")
    return 1 if problems or failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="run this workload only and end with the "
                             "contract's JSON line (default: all eight)")
    parser.add_argument("--seed", type=int, default=1,
                        help="every input is made from this seed")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, all workloads, name check")
    parser.add_argument("--out", default=None,
                        help="result file (default: out/ledger-seed<S>.json)")
    args = parser.parse_args(argv)

    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace), args.out)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_metrics(args.workload, result)
    print(contract_line(result))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
