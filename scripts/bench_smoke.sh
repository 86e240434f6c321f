#!/usr/bin/env bash
# Compile-and-tiny-run smoke coverage for every bench target.
#
# Each target in crates/bench/benches/ is built and executed once with
# NCAP_BENCH_SMOKE=1, which shrinks every simulated window to a tiny
# sanity run (see ncap_bench::smoke_mode). A target passes when it exits
# zero; the numbers it prints are meaningless under smoke mode.
#
# Usage: scripts/bench_smoke.sh [--quiet]
set -euo pipefail
cd "$(dirname "$0")/.."

# Run every target with event tracing enabled so the smoke pass also
# exercises the simtrace instrumentation in every subsystem (tracing is
# observer-effect-free; see tests/observability.rs).
export NCAP_TRACE=1

# Smoke numbers are meaningless, so skip the release profile's fat LTO:
# with it each of the 25 bench binaries pays a whole-program link. A real
# `cargo bench` keeps the profile of .cargo/config.toml.
export CARGO_PROFILE_BENCH_LTO=false
export CARGO_PROFILE_BENCH_CODEGEN_UNITS=16

quiet=0
[ "${1:-}" = "--quiet" ] && quiet=1

# Enumerate targets from the filesystem so a new bench file cannot be
# silently skipped (Cargo.toml [[bench]] entries are checked by the build
# itself: a file without an entry fails `cargo bench`).
targets=$(ls crates/bench/benches/*.rs | xargs -n1 basename | sed 's/\.rs$//' | sort)

echo "Building all bench targets..."
cargo bench -p ncap-bench --no-run --benches

fail=0
for t in $targets; do
    printf '%-28s' "$t"
    start=$(date +%s)
    if [ "$quiet" = 1 ]; then
        out=$(NCAP_BENCH_SMOKE=1 cargo bench -p ncap-bench --bench "$t" 2>&1) ||
            { echo "FAIL"; echo "$out" | tail -20; fail=1; continue; }
    else
        NCAP_BENCH_SMOKE=1 cargo bench -p ncap-bench --bench "$t" ||
            { echo "$t FAIL"; fail=1; continue; }
    fi
    echo "ok ($(($(date +%s) - start))s)"
done

if [ "$fail" != 0 ]; then
    echo "bench smoke: FAILURES" >&2
    exit 1
fi
echo "bench smoke: all $(echo "$targets" | wc -w) targets ran"
