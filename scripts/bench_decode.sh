#!/usr/bin/env bash
# Decode-runtime bench runner: builds bench_bench_decode_json and writes
# BENCH_decode.json at the repo root. The binary's file comment lists its
# sections; scripts/check_bench.py gates the result.
#
# Usage: scripts/bench_decode.sh [--smoke] [prompt new_tokens workers [out.json]]
# Defaults: 16 32 <hardware threads> BENCH_decode.json; --smoke runs the
# reduced CI sizes. TENDER_CMAKE_ARGS adds configure flags (CI passes the
# ccache launcher).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
# shellcheck disable=SC2086  # word splitting of the extra args is intended
cmake -B build -S . ${TENDER_CMAKE_ARGS:-} >/dev/null
cmake --build build -j"$JOBS" --target bench_bench_decode_json >/dev/null
./build/bench_bench_decode_json "$@"
