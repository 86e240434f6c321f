//! Chaos-harness validation: deterministic campaigns, the quiescence
//! oracle, Collect-mode violation accounting, and the auto-shrinker.
//!
//! The chaos layer composes every fault surface the simulator has —
//! correlated failure domains (rack partitions, brownouts), per-backend
//! crash/slow/hang schedules, flash-crowd load steps, coordinator churn —
//! into seeded scenarios judged by a silence oracle: zero invariant
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
//! * the campaign's results match their pinned field-digest table.

use cluster::chaos::{self, ChaosScenario};
use cluster::{try_run_experiment, FailureMode, InvariantKind};

mod common;

/// A 16-seed campaign composes partitions, brownouts, crashes, and flash
/// crowds — and the oracle stays silent on all of them.
#[test]
fn seeded_campaign_passes_the_silence_oracle() {
    let seeds: Vec<u64> = (1..=16).collect();
    let verdicts = chaos::run_campaign(&seeds, 4);
    assert_eq!(verdicts.len(), 16);
    for v in &verdicts {
        assert!(
            v.passed(),
            "seed {} failed: {:?}",
            v.scenario.seed,
            v.failures
        );
        assert!(
            v.completed > 0,
            "seed {} completed nothing",
            v.scenario.seed
        );
    }
    // The generator actually exercises the fault surfaces: across the
    // campaign there are crashes, correlated domains, and flash crowds.
    assert!(verdicts.iter().any(|v| !v.scenario.crashes.is_empty()));
    assert!(verdicts.iter().any(|v| !v.scenario.domains.is_empty()));
    assert!(verdicts.iter().any(|v| v.scenario.flash_crowd.is_some()));
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

/// Returns a generated scenario that schedules at least one fail-stop
/// crash (so failover traffic exists for the planted bug to miscount).
fn scenario_with_a_stop_crash() -> ChaosScenario {
    (1..200)
        .map(ChaosScenario::generate)
        .find(|s| s.crashes.iter().any(|c| c.mode == FailureMode::Stop))
        .expect("some seed below 200 schedules a fail-stop crash")
}

/// The planted `failed_over` mis-count is caught by the watchdog in
/// Collect mode: conservation violations accumulate with sim-time
/// stamps, the run completes instead of aborting, and the quiescence
/// oracle still renders its verdict at the horizon.
#[test]
fn planted_ledger_bug_is_collected_not_fatal() {
    let mut planted = scenario_with_a_stop_crash();
    planted.ledger_skew = true;
    let result = try_run_experiment(&planted.to_config()).expect("scenario config is valid");
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
    // The campaign-level judge reaches the same verdict.
    let verdict = &chaos::run_scenarios(std::slice::from_ref(&planted), 1)[0];
    assert!(!verdict.passed(), "the oracle must flag the planted bug");
}

/// The shrinker minimizes the planted-bug scenario to a tiny repro (at
/// most 3 fault events) that still fails, and the repro survives the
/// scenario-file round trip — replaying the written file reproduces the
/// failure exactly.
#[test]
fn planted_bug_shrinks_to_a_replayable_repro() {
    let mut planted = scenario_with_a_stop_crash();
    planted.ledger_skew = true;
    let (shrunk, runs) = chaos::shrink(&planted);
    assert!(runs > 0);
    assert!(
        shrunk.fault_events() <= 3,
        "expected a minimal repro, got {} fault events",
        shrunk.fault_events()
    );
    assert!(shrunk.fault_events() <= planted.fault_events());
    // Still failing after minimization...
    let verdict = &chaos::run_scenarios(std::slice::from_ref(&shrunk), 1)[0];
    assert!(!verdict.passed(), "shrunk scenario no longer fails");
    // ...and replayable from its file form with an identical verdict.
    let replay = ChaosScenario::from_file_str(&shrunk.to_file_string()).expect("file round-trips");
    assert_eq!(replay, shrunk);
    let replayed = &chaos::run_scenarios(std::slice::from_ref(&replay), 1)[0];
    assert_eq!(
        format!("{:?}", replayed.failures),
        format!("{:?}", verdict.failures),
        "replay from file must reproduce the same failures"
    );
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
    let configs: Vec<_> = (1..=16)
        .map(|seed| ChaosScenario::generate(seed).to_config())
        .collect();
    let mut results = cluster::run_experiments_on(&configs, 4);
    for r in &mut results {
        (r.sim_trace, r.self_profile) = (None, None);
    }
    common::assert_pinned(&common::field_table(&results), CAMPAIGN_FIELDS);
}
