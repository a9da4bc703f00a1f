#!/usr/bin/env bash
# ASan+UBSan check: configures a dedicated build tree with PISCES_SANITIZE=ON
# and runs the full test suite under both sanitizers -- including the chaos
# drill, the multiprocess crash-restart drill (ctest -L mp_drill), whose
# pisces_hostd children are themselves sanitized binaries, the serving
# lane (ctest -L serving: tests/scenario --profile serving, the open-loop
# load drill, plus the wall-clock bench smoke), the combined resharding
# drill (ctest -L reshare_drill: tests/scenario --profile reshare, live
# migrations + churn + Byzantine contributor under open-loop load) and the
# Byzantine seed sweep (ctest -L byz_sweep: tests/scenario --profile byz), so
# host-process, serving-plane, and shape-change code paths get the same
# memory-safety scrutiny as in-process ones. Any report is fatal
# (-fno-sanitize-recover=all + halt_on_error).
#
# Usage: scripts/check_sanitize.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPISCES_SANITIZE=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"

export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
# Longer structured-fuzz soak under the sanitizers: the message-deserializer
# fuzzer honors PISCES_FUZZ_ITERS (default 2000 in a plain test run).
export PISCES_FUZZ_ITERS="${PISCES_FUZZ_ITERS:-20000}"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
