#!/usr/bin/env bash
# Kernel-layer bench runner: builds bench_bench_gemm_json and writes
# BENCH_gemm.json at the repo root. The binary's file comment lists its
# sections; scripts/check_bench.py gates the result.
#
# Usage: scripts/bench_gemm.sh [--smoke] [m k n workers [out.json]]
# Defaults: 512 4096 4096, one worker per hardware thread,
# BENCH_gemm.json; --smoke runs the reduced CI sizes. TENDER_CMAKE_ARGS
# adds configure flags (CI passes the ccache launcher).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
# shellcheck disable=SC2086  # word splitting of the extra args is intended
cmake -B build -S . ${TENDER_CMAKE_ARGS:-} >/dev/null
cmake --build build -j"$JOBS" --target bench_bench_gemm_json >/dev/null
./build/bench_bench_gemm_json "$@"
