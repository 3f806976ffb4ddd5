#!/usr/bin/env bash
# Run the kernel microbenchmarks and save a machine-readable baseline.
#
# Usage:
#   benchmarks/run_benchmarks.sh [output.json]
#
# The JSON written by pytest-benchmark is the artifact the hot-path
# acceptance bars are read from:
#   - test_bench_bucketing[source_block-scatter] must be >= 2x faster than
#     test_bench_bucketing[source_block-argsort] on the 1M-edge block;
#   - test_bench_routed_expansion[routed] must beat [legacy], the
#     kernel-level expand-then-argsort-bucket reference (no generator
#     path of that name exists any more).
# test_bench_hop_matrix has one variant (batched multi-source BFS); compare
# it, like the rest, against the committed baseline in benchmarks/baselines/.
# End-to-end generation and serving performance is the ledger's job:
# see benchmarks/ledger/README.md.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
OUT="${1:-${REPO_ROOT}/benchmarks/baselines/bench_kernels.json}"

mkdir -p "$(dirname "${OUT}")"

cd "${REPO_ROOT}"
PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py \
    --benchmark-only \
    --benchmark-sort=name \
    --benchmark-json="${OUT}" \
    "${@:2}"

echo "benchmark baseline written to ${OUT}"
