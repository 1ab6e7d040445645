//! Golden-seed determinism: the perf overhaul (snapshot cache, shared
//! `TraceIndex`) must be a pure optimization — traces, anomaly counts,
//! divergence windows and the aggregated `study.json` must stay
//! byte-identical to the pre-change tree.
//!
//! The literals below were captured on the tree *before* the
//! optimizations landed. If a change legitimately alters simulation or
//! analysis semantics, re-capture from the `got` line a failing case
//! prints and say so in the commit; if these fail on a perf-only change,
//! the change is wrong.

use conprobe::bench::{
    golden_fingerprint, golden_fingerprint_observed, study_fingerprint, GoldenFingerprint,
    GOLDEN_CASES,
};
use conprobe_harness::proto::TestKind;
use conprobe_json::frame::fnv64;
use conprobe_services::ServiceKind;

fn expect_case(
    service: ServiceKind,
    kind: TestKind,
    seed: u64,
    trace_hash: u64,
    counts: [usize; 6],
    content_windows: usize,
    order_windows: usize,
) {
    let got = golden_fingerprint(service, kind, seed);
    let want = GoldenFingerprint {
        trace_hash,
        anomaly_counts: ["RYW", "MW", "MR", "WFR", "CD", "OD"]
            .iter()
            .zip(counts)
            .map(|(k, n)| (*k, n))
            .collect(),
        content_windows,
        order_windows,
    };
    assert_eq!(
        got,
        want,
        "{service} {kind} seed {seed} diverged from the pre-optimization golden:\n\
         got  {}\nwant {}",
        got.render(),
        want.render()
    );
}

#[test]
fn blogger_test1_matches_pre_optimization_golden() {
    expect_case(
        ServiceKind::Blogger,
        TestKind::Test1,
        1,
        0x79922a5b44b077b5,
        [0, 0, 0, 0, 0, 0],
        0,
        0,
    );
}

#[test]
fn gplus_test2_matches_pre_optimization_golden() {
    expect_case(
        ServiceKind::GooglePlus,
        TestKind::Test2,
        2,
        0x22448d294ea4353d,
        [0, 0, 1, 0, 2, 2],
        2,
        2,
    );
}

#[test]
fn fbgroup_test1_matches_pre_optimization_golden() {
    expect_case(
        ServiceKind::FacebookGroup,
        TestKind::Test1,
        7,
        0xc0a82985ad1b74e9,
        [0, 24, 0, 0, 0, 0],
        0,
        0,
    );
}

#[test]
fn fbfeed_test2_matches_pre_optimization_golden() {
    expect_case(
        ServiceKind::FacebookFeed,
        TestKind::Test2,
        3,
        0x0589a1a0f28f1c58,
        [4, 0, 5, 0, 3, 3],
        3,
        29,
    );
}

/// The strong arms, two seeds each: these pin the consensus and quorum
/// protocols' message schedules, so a change to either arm's internals
/// must leave every byte of its Test 2 runs where it was.
#[test]
fn pbft_test2_matches_golden() {
    expect_case(ServiceKind::Pbft, TestKind::Test2, 1, 0xf7c7170b1d5fd305, [0; 6], 0, 0);
    expect_case(ServiceKind::Pbft, TestKind::Test2, 9, 0xdd991a52333ffb07, [0; 6], 0, 0);
}

#[test]
fn quorum_test2_matches_golden() {
    expect_case(ServiceKind::Quorum, TestKind::Test2, 1, 0x7fd49ab7c7ef8b56, [0; 6], 0, 0);
    expect_case(
        ServiceKind::Quorum,
        TestKind::Test2,
        9,
        0xf6f9f0b4628712b3,
        [0, 0, 0, 0, 1, 0],
        1,
        0,
    );
}

#[test]
fn study_json_matches_pre_optimization_golden() {
    assert_eq!(
        study_fingerprint(),
        0x2b224f0e595d0842,
        "aggregated study.json bytes diverged from the pre-optimization golden"
    );
}

#[test]
fn observability_leaves_every_golden_fingerprint_unchanged() {
    // The observability layer's core guarantee: metrics and the event log
    // may *count* the simulation but never alter it. Running every golden
    // case with a full sink (registry + Debug-level log) must reproduce
    // the uninstrumented fingerprints bit for bit.
    for (service, kind, seed) in GOLDEN_CASES {
        let plain = golden_fingerprint(service, kind, seed);
        let observed = golden_fingerprint_observed(service, kind, seed);
        assert_eq!(
            plain,
            observed,
            "{service} {kind} seed {seed}: observability perturbed the run:\n\
             off {}\non  {}",
            plain.render(),
            observed.render()
        );
    }
}

#[test]
fn adding_the_sixth_catalog_entry_left_the_paper_matrix_untouched() {
    // Catalog invariance: growing the service catalog (the Pbft arm is
    // the sixth entry) must be purely additive. The first five catalog
    // positions are pinned — journals, CI greps and docs all reference
    // them by name — the paper matrix keeps exactly its four services,
    // and (per the golden tests above, which run on the same tree) every
    // golden fingerprint stays byte-identical.
    assert_eq!(ServiceKind::CATALOG.len(), 6);
    assert_eq!(
        &ServiceKind::CATALOG[..5],
        &[
            ServiceKind::GooglePlus,
            ServiceKind::Blogger,
            ServiceKind::FacebookFeed,
            ServiceKind::FacebookGroup,
            ServiceKind::Quorum,
        ],
        "existing catalog positions are pinned; new arms append only"
    );
    assert_eq!(ServiceKind::CATALOG[5], ServiceKind::Pbft);
    assert_eq!(
        ServiceKind::ALL,
        [
            ServiceKind::GooglePlus,
            ServiceKind::Blogger,
            ServiceKind::FacebookFeed,
            ServiceKind::FacebookGroup,
        ],
        "the paper matrix must not gain a control arm"
    );
    assert!(!GOLDEN_CASES
        .iter()
        .any(|(s, _, _)| *s == ServiceKind::Pbft || *s == ServiceKind::Quorum));
}

#[test]
fn fingerprint_hash_is_platform_stable() {
    // FNV-1a, not RandomState: the goldens must mean the same thing on
    // every machine.
    assert_eq!(fnv64(b"conprobe"), {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in b"conprobe" {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    });
}
