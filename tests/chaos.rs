//! Chaos-harness validation: deterministic campaigns, the quiescence
//! oracle, Collect-mode violation accounting, the auto-shrinker, and the
//! scenario-file reader.
//!
//! The chaos layer composes every fault surface the simulator has —
//! correlated failure domains (rack partitions, brownouts), per-backend
//! crash/slow/hang schedules, flash-crowd load steps, coordinator churn —
//! into seeded scenarios judged by the watchdog: zero invariant
//! violations, balanced conservation ledgers at every layer, and
//! end-of-run quiescence after a drain window. These tests pin the
//! harness's own guarantees:
//!
//! * every seeded scenario validates and its campaign passes the oracle;
//! * verdicts are byte-identical whether scenarios run serially or
//!   fanned out across threads;
//! * a deliberately planted conservation bug is caught by the watchdog
//!   in Collect mode (violations accumulate with sim-time stamps, the
//!   run is never aborted), shrunk to a minimal repro, and the repro
//!   replays from its scenario-file form;
//! * a whole-fleet partition reports its stranded requests and dead
//!   dispatches, and no ledger break;
//! * no scenario file panics the reader, and every file it accepts
//!   validates, round-trips, and builds and runs without a panic;
//! * the campaign's results match their pinned field-digest table.

use cluster::chaos;
use cluster::{try_run_experiment, ExperimentConfig, FailureMode, InvariantKind};

mod common;

/// A 16-seed campaign composes partitions, brownouts, crashes, and flash
/// crowds — and the oracle stays silent on all of them.
#[test]
fn seeded_campaign_passes_the_silence_oracle() {
    let seeds: Vec<u64> = (1..=16).collect();
    let verdicts = chaos::run_campaign(&seeds, 4);
    assert_eq!(verdicts.len(), 16);
    for v in &verdicts {
        let seed = chaos::scenario_seed(&v.config);
        assert!(v.passed(), "seed {seed} failed: {:?}", v.failures);
        assert!(v.completed > 0, "seed {seed} completed nothing");
    }
    // The generator actually exercises the fault surfaces: across the
    // campaign there are crashes, correlated domains, and flash crowds.
    let fleets = || verdicts.iter().filter_map(|v| v.config.fleet.as_ref());
    assert!(fleets().any(|f| !f.faults.specs.is_empty()));
    assert!(fleets().any(|f| !f.domains.domains.is_empty()));
    assert!(verdicts.iter().any(|v| v.config.load_step.is_some()));
    assert!(
        verdicts.iter().any(|v| v.failovers > 0),
        "no scenario exercised retransmission failover"
    );
}

/// Scenario generation and judging are deterministic: the same seeds
/// yield byte-identical verdicts serially and under parallel fan-out.
#[test]
fn verdicts_are_byte_identical_serial_vs_parallel() {
    let seeds: Vec<u64> = (21..=28).collect();
    let serial = chaos::run_campaign(&seeds, 1);
    let parallel = chaos::run_campaign(&seeds, 4);
    assert_eq!(
        format!("{serial:?}"),
        format!("{parallel:?}"),
        "thread count changed a verdict"
    );
}

/// The first generated scenario that schedules a fail-stop crash (so
/// failover traffic exists for the planted bug to miscount), with the
/// planted `failed_over` mis-count armed.
fn planted_scenario() -> ExperimentConfig {
    let mut cfg = (1..200)
        .map(chaos::generate)
        .find(|c| {
            c.fleet
                .as_ref()
                .is_some_and(|f| f.faults.specs.iter().any(|s| s.mode == FailureMode::Stop))
        })
        .expect("some seed below 200 schedules a fail-stop crash");
    cfg.fleet = cfg
        .fleet
        .map(cluster::FleetConfig::with_ledger_skew_for_test);
    cfg
}

/// The planted `failed_over` mis-count is caught by the watchdog in
/// Collect mode: conservation violations accumulate with sim-time
/// stamps, the run completes instead of aborting, and the quiescence
/// oracle still renders its verdict at the horizon.
#[test]
fn planted_ledger_bug_is_collected_not_fatal() {
    let planted = planted_scenario();
    let result = try_run_experiment(&planted).expect("scenario config is valid");
    // Never aborted: the run served traffic to the horizon.
    assert!(result.completed > 0, "collect mode must not halt the run");
    let conservation: Vec<_> = result
        .invariant_violations
        .iter()
        .filter(|v| v.kind == InvariantKind::Conservation)
        .collect();
    assert!(
        conservation.len() >= 2,
        "periodic checks should accumulate repeated violations, got {:?}",
        result.invariant_violations
    );
    // Stamps carry simulated time and arrive in order.
    for w in conservation.windows(2) {
        assert!(w[0].at <= w[1].at, "violation stamps out of order");
    }
    assert!(
        conservation[0].at.as_nanos() > 0,
        "violations carry sim-time stamps"
    );
    // The campaign-level verdict agrees.
    let verdict = &chaos::run_scenarios(std::slice::from_ref(&planted), 1)[0];
    assert!(!verdict.passed(), "the oracle must flag the planted bug");
}

/// The shrinker minimizes the planted-bug scenario to a tiny repro (at
/// most 3 fault events) that still fails, and the repro survives the
/// scenario-file round trip — replaying the written file reproduces the
/// failure exactly.
#[test]
fn planted_bug_shrinks_to_a_replayable_repro() {
    let planted = planted_scenario();
    let (shrunk, runs) = chaos::shrink(&planted);
    assert!(runs > 0);
    let events = chaos::fault_events(&shrunk);
    assert!(
        events <= 3,
        "expected a minimal repro, got {events} fault events"
    );
    assert!(events <= chaos::fault_events(&planted));
    // Still failing after minimization...
    let verdict = &chaos::run_scenarios(std::slice::from_ref(&shrunk), 1)[0];
    assert!(!verdict.passed(), "shrunk scenario no longer fails");
    // ...and replayable from its file form with an identical verdict.
    let replay = chaos::from_file_str(&chaos::to_file_string(&shrunk)).expect("file round-trips");
    assert_eq!(format!("{replay:?}"), format!("{shrunk:?}"));
    let replayed = &chaos::run_scenarios(std::slice::from_ref(&replay), 1)[0];
    assert_eq!(
        format!("{:?}", replayed.failures),
        format!("{:?}", verdict.failures),
        "replay from file must reproduce the same failures"
    );
}

/// A partition of the whole fleet that outlasts the run strands its
/// requests in the failed-over limbo, and the LB, with no healthy
/// backend left, dispatches to ejected ones (DESIGN.md §14). The
/// watchdog reports both. Both ledgers still close: the LB's counts
/// the limbo, so there is no Conservation violation.
#[test]
fn whole_fleet_partition_breaks_no_ledger() {
    let text = "seed=1\npolicy=perf\nbackends=2\nload_rps=10000\n\
                warmup_ns=1000000\nmeasure_ns=5000000\n\
                domain=1000,10000000,partition,0+1\n";
    let cfg = chaos::from_file_str(text).expect("the scenario validates");
    let result = try_run_experiment(&cfg).expect("valid");
    let kinds: Vec<InvariantKind> = result.invariant_violations.iter().map(|v| v.kind).collect();
    assert!(
        !kinds.contains(&InvariantKind::Conservation),
        "{:?}",
        result.invariant_violations
    );
    assert!(kinds.contains(&InvariantKind::Quiescence), "{kinds:?}");
    assert!(kinds.contains(&InvariantKind::Routing), "{kinds:?}");
    let verdict = &chaos::run_scenarios(std::slice::from_ref(&cfg), 1)[0];
    assert!(!verdict.passed());
    assert!(
        verdict.failures.iter().any(|f| f.contains("limbo")),
        "{:?}",
        verdict.failures
    );
    assert!(
        !verdict.failures.iter().any(|f| f.contains("LB ledger")),
        "{:?}",
        verdict.failures
    );
}

/// The sixteen scenario-file keys.
const KEYS: [&str; 16] = [
    "seed",
    "policy",
    "backends",
    "dispatch",
    "datapath",
    "poll_cores",
    "coordinator",
    "load_rps",
    "poisson",
    "warmup_ns",
    "measure_ns",
    "drain_ns",
    "flash",
    "crash",
    "domain",
    "ledger_skew",
];

/// Values at the edges of every field type, plus malformed ones.
const BOUNDARY: &[&str] = &[
    "0",
    "1",
    "-1",
    "NaN",
    "inf",
    "-inf",
    "1e308",
    "-0",
    "18446744073709551615",
    "18446744073709551616",
    "",
    ",",
    "1,",
    ",1",
    "never",
    "partition",
    "brownout",
    "0+1",
    "+",
    "stop",
    "hang",
    "bypass",
    "ncap.cons",
];

/// A generated scenario file with up to four edits: a key set to a
/// boundary or random value, one field of a line replaced by one, a line
/// duplicated or dropped, or a stray comma appended.
fn mutated_scenario_file(rng: &mut check::Rng, size: usize) -> String {
    let pick = |rng: &mut check::Rng, from: &[&'static str]| -> &'static str {
        from[rng.next_below(from.len() as u64) as usize]
    };
    let value = |rng: &mut check::Rng, size: usize| match rng.next_below(3) {
        0 => check::gen::u64_scaled(rng, size, 0, u64::MAX).to_string(),
        1 => (rng.next_f64() * 20_000.0).to_string(),
        _ => pick(rng, BOUNDARY).to_owned(),
    };
    let text = chaos::to_file_string(&chaos::generate(rng.next_below(64)));
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    for _ in 0..check::gen::len_in(rng, size, 1, 4) {
        let at = rng.next_below(lines.len() as u64) as usize;
        match rng.next_below(5) {
            0 => {
                let line = format!("{}={}", pick(rng, &KEYS), value(rng, size));
                lines.push(line);
            }
            1 => {
                let (key, values) = lines[at].split_once('=').unwrap_or(("seed", ""));
                let mut fields: Vec<String> = values.split(',').map(str::to_owned).collect();
                let f = rng.next_below(fields.len() as u64) as usize;
                fields[f] = value(rng, size);
                lines[at] = format!("{key}={}", fields.join(","));
            }
            2 => lines.push(lines[at].clone()),
            3 if lines.len() > 1 => {
                lines.remove(at);
            }
            _ => lines[at].push(','),
        }
    }
    lines.join("\n")
}

/// Nothing a scenario file holds panics the reader, and every file it
/// accepts validates and survives a write/read round trip unchanged. No
/// simulation runs.
#[test]
fn prop_no_scenario_file_panics() {
    check::Check::new("scenario_file_never_panics")
        .cases(8192)
        .run(mutated_scenario_file, |text| {
            let Ok(cfg) = chaos::from_file_str(text) else {
                return Ok(());
            };
            cfg.validate()
                .map_err(|e| format!("accepted an invalid scenario: {e}"))?;
            let again = chaos::to_file_string(&cfg);
            let back = chaos::from_file_str(&again)
                .map_err(|e| format!("rewritten file rejected: {e}\n{again}"))?;
            check::ensure!(
                format!("{back:?}") == format!("{cfg:?}"),
                "round trip changed the config:\n{again}"
            );
            Ok(())
        });
}

/// Events each accepted file may simulate: enough to boot the fleet and
/// carry the first bursts through the LB, the NICs and the kernels.
const SCENARIO_EVENT_BUDGET: u64 = 2_000;

/// Every file the reader accepts builds a cluster and simulates under an
/// event budget without a panic.
#[test]
fn prop_accepted_scenario_files_build_and_run() {
    check::Check::new("accepted_scenario_files_run")
        .cases(1024)
        .run(mutated_scenario_file, |text| {
            let Ok(cfg) = chaos::from_file_str(text) else {
                return Ok(());
            };
            let (cluster, initial) = cluster::build_cluster(&cfg)
                .map_err(|e| format!("accepted file does not build: {e}"))?;
            let mut sim = desim::Simulation::new(cluster);
            sim.set_event_budget(SCENARIO_EVENT_BUDGET);
            for (t, e) in initial {
                sim.queue_mut().push(t, e);
            }
            sim.run_until(desim::SimTime::ZERO + cfg.horizon());
            check::ensure!(
                sim.events_processed() <= SCENARIO_EVENT_BUDGET,
                "the budget was overrun"
            );
            Ok(())
        });
}

/// The field-digest table of the 16-seed campaign, folded over the
/// results in seed order with the host-side trace and profile cleared.
/// It pins what the campaign simulates under loss, reordering,
/// brownouts, crashes and hangs.
const CAMPAIGN_FIELDS: &[(&str, u64)] = &[
    ("policy", 0xc07c8e76bd77dcbb),
    ("app", 0x059ae44181cf3985),
    ("load_rps", 0xef9cad6e384a4eef),
    ("latency", 0xe8de439e6a93b126),
    ("energy", 0x528084c5192d25b8),
    ("energy_j", 0x15566139d2516c17),
    ("poll_energy_j", 0xa249b7910edcaf03),
    ("offered", 0x8c19a13a86a9c1bd),
    ("completed", 0x9e784f629ce7bac5),
    ("wake_markers", 0x50704d428ba2be8b),
    ("rx_drops", 0xe3e7a96eb78724f5),
    ("measure", 0x2d58c7eea20e6b45),
    ("traces", 0x5c04345bf25981a5),
    ("sim_trace", 0xa588ad518f01f875),
    ("kernel_stats", 0xc10893d0b72385de),
    ("faults", 0x824d46c581034e2b),
    ("rejected", 0xd8d3441b1a147b25),
    ("max_queue_depth", 0x88be97f4f7beeb75),
    ("watchdog_checks", 0x15c10f38a913b365),
    ("invariant_violations", 0x112ae2f4b5468845),
    ("fleet", 0xf3b16cc7bc7993e5),
    ("events_processed", 0x3bfc25fd8da42590),
    ("breakdown", 0x8e53967bdb804549),
    ("self_profile", 0x95fca0ba9fb02925),
];

#[test]
fn seeded_campaign_results_match_the_pinned_digests() {
    let configs: Vec<_> = (1..=16).map(chaos::generate).collect();
    let mut results = cluster::run_experiments_on(&configs, 4);
    for r in &mut results {
        (r.sim_trace, r.self_profile) = (None, None);
    }
    common::assert_pinned(&common::field_table(&results), CAMPAIGN_FIELDS);
}
