#!/usr/bin/env bash
# The full local verification gate. Offline-safe: the workspace has zero
# external dependencies, so nothing here touches a registry or network.
#
# Usage: scripts/verify.sh [--quick]
#   --quick   skip the release build (debug build + tests + lints only)
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[ "${1:-}" = "--quick" ] && quick=1

run() {
    echo "==> $*"
    "$@"
}

if [ "$quick" = 0 ]; then
    run cargo build --release --workspace
fi
run cargo test --workspace -q
# The environment-forced trace path: `NCAP_TRACE=1` traces every config
# `ExperimentConfig::new` builds, and the determinism tests' untraced
# reference runs must still be untraced.
NCAP_TRACE=1 run cargo test -q --test cluster_integration --test observability
run cargo fmt --all --check
run cargo clippy --workspace --all-targets -- -D warnings

# Observability smoke: a traced experiment must export loadable
# Perfetto JSON and a well-formed metrics CSV.
trace_dir=target/trace-smoke
rm -rf "$trace_dir"
run cargo run --release -p ncap-cli -- trace \
    --app memcached --policy ncap.cons --load 30000 \
    --warmup-ms 5 --measure-ms 15 --out "$trace_dir"
if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$trace_dir/trace.json" >/dev/null ||
        { echo "verify: trace.json is not valid JSON" >&2; exit 1; }
else
    grep -q '"traceEvents"' "$trace_dir/trace.json" ||
        { echo "verify: trace.json missing traceEvents" >&2; exit 1; }
fi
header=$(head -1 "$trace_dir/trace.csv")
case "$header" in
time_ns,*) ;;
*) echo "verify: trace.csv has no time_ns column" >&2; exit 1 ;;
esac
# Every figure series the cluster mirrors onto the tracer must be a column.
for col in busy_ns bw_rx bw_tx c1_ns c3_ns c6_ns freq_ghz goodput throughput; do
    case ",$header," in
    *",cluster.$col,"*) ;;
    *) echo "verify: trace.csv missing column cluster.$col" >&2; exit 1 ;;
    esac
done
echo "==> trace smoke ok ($trace_dir)"

# Config-rejection smoke: a flag combination that fails
# ExperimentConfig::validate() must exit 2 with a typed error at parse
# time, never reach the simulator and panic (exit 101).
expect_exit_2() {
    local status=0
    "$@" >/dev/null 2>&1 || status=$?
    [ "$status" = 2 ] ||
        { echo "verify: '$*' exited $status, not 2" >&2; exit 1; }
}
expect_exit_2 cargo run --release -q -p ncap-cli -- trace --out target/config-smoke \
    --servers 2 --health-eject 0
expect_exit_2 cargo run --release -q -p ncap-cli -- sla
expect_exit_2 cargo run --release -q --example policy_explorer -- memcached 0
# A load whose burst period rounds to 0 ns, and a fleet past
# MAX_BACKENDS, are typed errors, not a queue or a fleet that grows until
# the allocator aborts.
expect_exit_2 timeout 60 cargo run --release -q -p ncap-cli -- run \
    --load 1e308 --measure-ms 1 --warmup-ms 0
expect_exit_2 timeout 60 cargo run --release -q -p ncap-cli -- run \
    --servers 10000000 --measure-ms 1
# A chaos scenario file reaches the same gate: a flash crowd to a zero
# rate and a horizon past the clock are typed errors, not a panic in the
# arrival sampler or a run that never ends; so are the overload and the
# oversized fleet above.
mkdir -p target/config-smoke
scenario="seed=1
policy=perf
backends=2
load_rps=10000
warmup_ns=2000000
measure_ns=60000000
drain_ns=25000000"
printf '%s\npoisson=1\nflash=1000,0\n' "$scenario" >target/config-smoke/flash-zero.scenario
printf '%s\nwarmup_ns=18446744073709551615\n' "$scenario" >target/config-smoke/endless.scenario
printf '%s\nload_rps=1e308\n' "$scenario" >target/config-smoke/overload.scenario
printf '%s\nbackends=10000000\n' "$scenario" >target/config-smoke/huge-fleet.scenario
for file in flash-zero endless overload huge-fleet; do
    expect_exit_2 timeout 60 cargo run --release -q -p ncap-cli -- chaos \
        --scenario "target/config-smoke/$file.scenario"
done
# A replayed file fixes its own seed, and --out only holds --shrink's
# repros: flags that would be ignored are rejected instead.
expect_exit_2 timeout 60 cargo run --release -q -p ncap-cli -- chaos \
    --scenario target/config-smoke/flash-zero.scenario --seeds 4
expect_exit_2 timeout 60 cargo run --release -q -p ncap-cli -- chaos --out target/config-smoke
echo "==> config-rejection smoke ok"

# Attribution smoke: `ncap report` must render the per-stage table,
# the tail verdict, and the waterfall for a short sparse-load run (the
# configuration EXPERIMENTS.md "tail_breakdown" documents). The output
# is kept on disk so CI can publish it as an artifact.
report_out=target/report-smoke
rm -rf "$report_out" && mkdir -p "$report_out"
run cargo run --release -p ncap-cli -- report \
    --app memcached --policy ond.idle --load 3000 --poisson --queues 4 \
    --warmup-ms 5 --measure-ms 15 | tee "$report_out/report.txt"
for want in 'tail verdict' 'waterfall' 'wake'; do
    grep -q "$want" "$report_out/report.txt" ||
        { echo "verify: report output missing '$want'" >&2; exit 1; }
done
echo "==> report smoke ok ($report_out)"

# Waterfall smoke: the request_waterfall example must print the
# breakdown's per-stage rows and population means for both policies. Its
# runs fail on any watchdog violation, including a completed request
# whose stages do not tile its latency.
waterfall_out=$(run cargo run --release -q --example request_waterfall)
echo "$waterfall_out"
for policy in ond.idle ncap.cons; do
    echo "$waterfall_out" |
        grep -Eq "^--- $policy: [1-9][0-9]* completed requests, tail" ||
        { echo "verify: request_waterfall printed no $policy waterfall" >&2; exit 1; }
done
[ "$(echo "$waterfall_out" | grep -c '^means: wake')" = 2 ] ||
    { echo "verify: request_waterfall printed no population means" >&2; exit 1; }
echo "==> waterfall smoke ok"

# Faultless smoke: a clean run's request ledger is audited by the
# watchdog like any other run's, and with no fault or recovery activity
# the run prints no fault line.
clean_out=$(run cargo run --release -p ncap-cli -- run \
    --app memcached --policy ncap.cons --load 30000 \
    --warmup-ms 5 --measure-ms 15)
echo "$clean_out"
echo "$clean_out" | grep -q 'watchdog [1-9][0-9]* checks, 0 violations' ||
    { echo "verify: faultless watchdog missing or reported violations" >&2; exit 1; }
if echo "$clean_out" | grep -q '^  faults '; then
    echo "verify: faultless run printed a fault line" >&2
    exit 1
fi
echo "==> faultless smoke ok"

# Fault-scenario smoke: a short lossy run with tracing enabled must
# complete, recover every request, and report its fault counters.
fault_out=$(NCAP_TRACE=1 run cargo run --release -p ncap-cli -- run \
    --app memcached --policy ncap.cons --load 30000 \
    --warmup-ms 5 --measure-ms 15 --loss 0.01 --fault-seed 7)
echo "$fault_out"
echo "$fault_out" | grep -q 'faults' ||
    { echo "verify: lossy run reported no fault counters" >&2; exit 1; }
echo "$fault_out" | grep -q '0 requests lost' ||
    { echo "verify: lossy run lost requests" >&2; exit 1; }
echo "==> fault smoke ok"

# Overload smoke: a run at 2x capacity with admission control armed must
# shed some requests, stay within the queue bound, and pass the invariant
# watchdog with zero violations.
overload_out=$(run cargo run --release -p ncap-cli -- run \
    --app memcached --policy perf --load 240000 \
    --warmup-ms 5 --measure-ms 20 \
    --queue-cap 512 --shed-policy drop-tail)
echo "$overload_out"
echo "$overload_out" | grep -q 'overload [1-9][0-9]* requests rejected' ||
    { echo "verify: overloaded run rejected nothing" >&2; exit 1; }
echo "$overload_out" | grep -q 'watchdog [1-9][0-9]* checks, 0 violations' ||
    { echo "verify: watchdog missing or reported violations" >&2; exit 1; }
echo "==> overload smoke ok"

# Fleet smoke: a small coordinated fleet must serve through the LB,
# park surplus backends, and pass the watchdog's ledger audit.
fleet_out=$(run cargo run --release -p ncap-cli -- run \
    --app memcached --policy ond.idle --load 72000 --poisson \
    --warmup-ms 10 --measure-ms 20 \
    --servers 4 --dispatch pack --coordinator)
echo "$fleet_out"
echo "$fleet_out" | grep -q 'fleet *4 backends (pack)' ||
    { echo "verify: fleet run reported no fleet summary" >&2; exit 1; }
echo "$fleet_out" | grep -q '[1-9][0-9]* parks' ||
    { echo "verify: coordinated fleet parked nothing" >&2; exit 1; }
echo "$fleet_out" | grep -q 'watchdog [1-9][0-9]* checks, 0 violations' ||
    { echo "verify: fleet watchdog missing or reported violations" >&2; exit 1; }
echo "==> fleet smoke ok"

# Bypass smoke: the poll-mode datapath must serve a short run end to
# end — busy-poll cores picking frames out of the userspace ring with
# zero interrupts, the poll cores' spend attributed separately — and
# keep the conservation ledgers clean.
bypass_out=$(run cargo run --release -p ncap-cli -- run \
    --app memcached --policy ond.idle --load 30000 --poisson \
    --warmup-ms 5 --measure-ms 15 --datapath bypass --poll-cores 1)
echo "$bypass_out"
echo "$bypass_out" | grep -q 'bypass datapath' ||
    { echo "verify: bypass run did not report its datapath" >&2; exit 1; }
echo "$bypass_out" | grep -Eq 'polling +[0-9.]+ J burned' ||
    { echo "verify: bypass run attributed no poll-core energy" >&2; exit 1; }
echo "$bypass_out" | grep -q '0 NCAP interrupts, 0 drops' ||
    { echo "verify: bypass run took interrupts or dropped frames" >&2; exit 1; }
echo "$bypass_out" | grep -q 'watchdog [1-9][0-9]* checks, 0 violations' ||
    { echo "verify: bypass watchdog missing or reported violations" >&2; exit 1; }
echo "==> bypass smoke ok"

# Failover smoke: crash one backend mid-run (with a later restart) and
# demand end-to-end recovery inside a seconds-scale run — the prober
# ejects it, orphaned requests fail over via retransmission, nothing is
# silently lost, and the watchdog's extended ledger audit stays clean.
# Output is kept on disk so CI can publish it as an artifact.
failover_dir=target/failover-smoke
rm -rf "$failover_dir" && mkdir -p "$failover_dir"
run cargo run --release -p ncap-cli -- run \
    --app memcached --policy ond.idle --load 60000 --poisson \
    --warmup-ms 5 --measure-ms 25 \
    --servers 4 --dispatch jsq --fail-backend 1@10:15 \
    | tee "$failover_dir/run.txt"
grep -q 'fleet *4 backends (jsq)' "$failover_dir/run.txt" ||
    { echo "verify: failover run reported no fleet summary" >&2; exit 1; }
grep -Eq 'health .*[1-9][0-9]* ejection' "$failover_dir/run.txt" ||
    { echo "verify: crashed backend was never ejected" >&2; exit 1; }
grep -q '0 requests lost' "$failover_dir/run.txt" ||
    { echo "verify: failover run lost requests" >&2; exit 1; }
grep -q 'watchdog [1-9][0-9]* checks, 0 violations' "$failover_dir/run.txt" ||
    { echo "verify: failover watchdog missing or reported violations" >&2; exit 1; }
echo "==> failover smoke ok ($failover_dir)"

# Lossy-fleet smoke: loss and reordering behind an LB exercise both ways
# a request's LB and kernel state can end: forgotten at once when the
# client resolves it from its only copy, or lingering in TIME_WAIT after
# a resend. A copy arriving after its state went is a late_copies
# violation, so the watchdog must stay silent and nothing may be lost.
lossy_fleet_out=$(run cargo run --release -p ncap-cli -- run \
    --app memcached --policy ond.idle --load 60000 --poisson \
    --warmup-ms 5 --measure-ms 25 \
    --servers 4 --dispatch jsq --loss 0.01 --reorder 0.05 --fault-seed 7)
echo "$lossy_fleet_out"
echo "$lossy_fleet_out" | grep -q '[1-9][0-9]* retransmits, 0 requests lost' ||
    { echo "verify: lossy fleet run lost requests or resent none" >&2; exit 1; }
echo "$lossy_fleet_out" | grep -q 'watchdog [1-9][0-9]* checks, 0 violations' ||
    { echo "verify: lossy fleet watchdog missing or reported violations" >&2; exit 1; }
echo "==> lossy fleet smoke ok"

# Chaos smoke: a short seeded campaign composing correlated failure
# domains, crash/slow/hang events, and flash crowds must pass the
# silence oracle (no violations, balanced ledgers, quiescence at the
# horizon) in a few seconds. The nightly workflow runs the full
# 200-seed campaign; this keeps the harness itself from rotting.
chaos_dir=target/chaos-smoke
rm -rf "$chaos_dir" && mkdir -p "$chaos_dir"
run cargo run --release -p ncap-cli -- chaos --seeds 8 \
    | tee "$chaos_dir/campaign.txt"
grep -q ' 0 failed' "$chaos_dir/campaign.txt" ||
    { echo "verify: chaos smoke campaign failed" >&2; exit 1; }
echo "==> chaos smoke ok ($chaos_dir)"

# Observer smoke: the overhead bench's observer checks (the breakdown
# leaves the event stream identical, the armed prober only adds probe
# events) must hold on a tiny run. Its <=5% budgets are enforced only
# by a full `cargo bench -p ncap-bench --bench overhead`.
NCAP_BENCH_SMOKE=1 run cargo bench -p ncap-bench --bench overhead

# Benchmark smoke: every workload of the simulator benchmark
# (BENCHMARK.json) must build, run its short configuration and pass its
# correctness checks. The verdict is the JSON object on the last line.
bench_out=$(run cargo run --release --example benchmark -- --smoke)
echo "$bench_out" | tail -1
echo "$bench_out" | tail -1 | grep -q '"correct": true' ||
    { echo "verify: benchmark smoke failed its correctness checks" >&2; exit 1; }
echo "==> benchmark smoke ok"

# Hermeticity: no external crates may creep back into any manifest.
if grep -rn '^\(rand\|bytes\|proptest\|criterion\|serde\|crossbeam\|parking_lot\)' \
    Cargo.toml crates/*/Cargo.toml; then
    echo "verify: external dependency found in a manifest" >&2
    exit 1
fi

echo "verify: all gates passed"
