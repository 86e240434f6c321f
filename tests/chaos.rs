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
//!   replays from its scenario-file form.

use cluster::chaos::{self, ChaosScenario};
use cluster::{try_run_experiment, FailureMode, InvariantKind};

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

/// FNV-1a over a string, as in the 64-backend golden-digest test.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Result digests of the 16-seed campaign, seed 1 first: FNV-1a of each
/// result's `Debug` render with the host-side trace and profile cleared.
/// They pin what the campaign simulates under loss, reordering,
/// brownouts, crashes and hangs, so a change meant to be exact (such as
/// retiring request-keyed state) must leave every one unchanged.
///
/// Re-pinned when the breakdown's tail view became bucketed. With the
/// `tail_threshold_ns`, `tail_count`, `tail_mean` and `tail_share` values
/// masked, all 16 renders were byte-identical before and after.
const CAMPAIGN_DIGESTS: [u64; 16] = [
    0xD886_254D_FE6A_EF54,
    0x0D39_AF62_D95D_B4ED,
    0xB603_BC63_52AC_3AF9,
    0x6DCC_A6C7_6337_9AC2,
    0x99C2_E41C_1A8E_C052,
    0xF0A5_A15D_2281_156E,
    0x19E0_2B8A_9D93_C025,
    0x9E7E_8A5C_D248_4040,
    0xF740_0113_19CE_0450,
    0xA255_8C7D_1DE0_46FC,
    0xAB5E_6CF3_3D7B_2DAD,
    0x528F_D363_620C_E2EF,
    0x1DEF_9F00_1E35_243D,
    0x4D6A_DB9A_DA5F_617E,
    0xC44A_FCEE_4929_8810,
    0x56E8_266F_9B76_7522,
];

#[test]
fn seeded_campaign_results_match_the_pinned_digests() {
    let configs: Vec<_> = (1..=16)
        .map(|seed| ChaosScenario::generate(seed).to_config())
        .collect();
    let digests: Vec<u64> = cluster::run_experiments_on(&configs, 4)
        .into_iter()
        .map(|mut r| {
            r.sim_trace = None;
            r.self_profile = None;
            fnv1a(&format!("{r:?}"))
        })
        .collect();
    let render: Vec<String> = digests.iter().map(|d| format!("{d:#018x}")).collect();
    assert_eq!(
        digests,
        CAMPAIGN_DIGESTS,
        "campaign digests changed: [{}]",
        render.join(", ")
    );
}
