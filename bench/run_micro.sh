#!/usr/bin/env bash
# Run the hot-kernel microbenchmarks (Booth counting, term planes,
# PRA/Diffy pallet walk, per-ISA kernel tables) and
# capture machine-readable results for perf-regression tracking.
#
# Usage: bench/run_micro.sh [BUILD_DIR] [OUT_JSON]
#   BUILD_DIR defaults to "build", OUT_JSON to "BENCH_kernels.json".
#   BENCH_MIN_TIME (seconds, default 0.05) bounds per-benchmark time.
#
# Two passes are recorded: the natively dispatched ISA to OUT_JSON and
# a DIFFY_ISA=scalar pass to ${OUT_JSON%.json}.scalar.json, so the
# vector-vs-oracle speedup is always in the artifacts. Each JSON's
# context carries diffy_isa / diffy_isa_env / diffy_native /
# diffy_build (see bench/micro_kernels.cc); a debug build of either
# the benchmark library or the kernels fails the run — debug numbers
# must never enter the perf trajectory.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_kernels.json}"
MIN_TIME="${BENCH_MIN_TIME:-0.05}"
BIN="$BUILD_DIR/bench/micro_kernels"
FILTER='BM_BoothTerms|BM_BoothTermsPlane|BM_PalletWalk|BM_Isa'

if [ ! -x "$BIN" ]; then
    echo "error: $BIN not built (cmake --build $BUILD_DIR --target micro_kernels)" >&2
    exit 1
fi

# google-benchmark >= 1.7 wants a "0.05s" suffix; older releases only
# accept a bare double. Probe which spelling this binary understands.
MT="${MIN_TIME}s"
if ! "$BIN" --benchmark_list_tests --benchmark_min_time="$MT" \
        >/dev/null 2>&1; then
    MT="$MIN_TIME"
fi

# check_json FILE: fail on debug builds, print the dispatched ISA.
#
# diffy_build reflects how the timed kernel code itself was compiled
# and is always a hard failure when it is not "release". The
# google-benchmark State loop is header-inlined into that same TU, so
# library_build_type only covers the .so's setup/reporting code —
# still rejected by default, but BENCH_ALLOW_DEBUG_LIB=1 accepts it on
# distros (e.g. Debian's libbenchmark 1.7.1-1) that only ship a
# debug-built library.
check_json() {
    python3 - "$1" <<'EOF'
import json, os, sys

path = sys.argv[1]
with open(path) as f:
    ctx = json.load(f)["context"]
lib = ctx.get("library_build_type", "")
build = ctx.get("diffy_build", "")
if build != "release":
    print(f"error: {path} timed debug kernels "
          f"(diffy_build={build!r}); configure with "
          "-DCMAKE_BUILD_TYPE=Release", file=sys.stderr)
    sys.exit(1)
if lib == "debug" and os.environ.get("BENCH_ALLOW_DEBUG_LIB") != "1":
    print(f"error: {path} used a debug google-benchmark library "
          "(library_build_type='debug'); use a release libbenchmark "
          "or set BENCH_ALLOW_DEBUG_LIB=1 if only the distro's "
          "debug-built .so exists", file=sys.stderr)
    sys.exit(1)
print(f"{path}: dispatched isa={ctx.get('diffy_isa', '?')} "
      f"(DIFFY_ISA={ctx.get('diffy_isa_env', '')!r}, "
      f"native_build={ctx.get('diffy_native', '?')})")
EOF
}

run_pass() {
    local out="$1"
    "$BIN" --benchmark_filter="$FILTER" \
           --benchmark_min_time="$MT" \
           --benchmark_out="$out" \
           --benchmark_out_format=json
    check_json "$out"
}

run_pass "$OUT"

SCALAR_OUT="${OUT%.json}.scalar.json"
DIFFY_ISA=scalar run_pass "$SCALAR_OUT"

echo "wrote $OUT and $SCALAR_OUT"
