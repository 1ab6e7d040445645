//! The methodology extensions beyond the paper's evaluation: agent-role
//! rotation (§V's validation side-experiment), white-box replica probing
//! (§VI future work) and the client-side session guard (§V discussion).

use conprobe::bench::fingerprint;
use conprobe::core::{AnomalyKind, WindowAnalysis};
use conprobe::harness::proto::TestKind;
use conprobe::harness::runner::{run_one_test, TestConfig};
use conprobe::harness::whitebox::PERIOD;
use conprobe::json::ToJson;
use conprobe::services::ServiceKind;
use conprobe::sim::net::Region;
use conprobe::sim::{FaultEvent, ServiceActionKind, SimDuration, SimTime};

/// §V, monotonic writes: "in test 1 Ireland is the last client to issue its
/// sequence of two write operations, terminating the test as soon as these
/// become visible. Thus, it has a smaller opportunity window … This
/// observation is supported by … additional experiments … where we rotated
/// the location of each agent."
///
/// With rotation, the *role* (last writer) keeps the small opportunity
/// window regardless of which location holds it.
#[test]
fn rotation_shows_last_writer_effect_is_role_not_location() {
    let runs = 8u64;
    for rotation in 0..3 {
        let mut config = TestConfig::paper(ServiceKind::FacebookGroup, TestKind::Test1);
        config.agent_regions.rotate_left(rotation);
        // MW observations *witnessing* a given writer's reversed pair:
        // the last writer's pair exists only in the test's final moments
        // ("it has a smaller opportunity window for detecting this
        // anomaly"), the first writer's pair is exposed for the whole test.
        let mut first_pair = 0usize;
        let mut last_pair = 0usize;
        for seed in 0..runs {
            let r = run_one_test(&config, seed);
            assert_eq!(
                r.agent_regions[0],
                Region::AGENTS[rotation],
                "rotation must relocate agent 0"
            );
            for obs in r.analysis.of_kind(AnomalyKind::MonotonicWrites) {
                match obs.witnesses.first().map(|w| w.author.0) {
                    Some(0) => first_pair += 1,
                    Some(2) => last_pair += 1,
                    _ => {}
                }
            }
        }
        assert!(
            last_pair < first_pair,
            "rotation {rotation}: the last writer's pair ({last_pair}) must \
             be observed less than the first writer's ({first_pair}), \
             regardless of which location holds the role"
        );
    }
}

/// White-box ground truth vs black-box perception:
///
/// * Facebook Feed replicas order by exact timestamps and converge fast —
///   its overwhelming black-box *order* divergence is a read-path artifact
///   ("explained by the semantics of the service", §V).
/// * Google+ replicas genuinely hold different orders until anti-entropy —
///   its order divergence is real.
#[test]
fn whitebox_separates_true_divergence_from_read_path_artifacts() {
    // Facebook Feed: black-box OD ~100 %, white-box OD = none.
    let mut config = TestConfig::paper(ServiceKind::FacebookFeed, TestKind::Test2);
    config.whitebox = true;
    let mut blackbox_od = 0;
    let mut whitebox_od = 0;
    for seed in 0..4 {
        let r = run_one_test(&config, seed);
        let report = r.whitebox.as_ref().expect("probe enabled");
        assert!(!report.samples.is_empty());
        if r.has(AnomalyKind::OrderDivergence) {
            blackbox_od += 1;
        }
        if report.order_presence {
            whitebox_od += 1;
        }
    }
    assert_eq!(blackbox_od, 4, "agents perceive order divergence in every test");
    assert_eq!(whitebox_od, 0, "replicas never truly order-diverge on FB Feed — it's the ranking");

    // Google+: when agents see order divergence, the replicas really did
    // hold different orders at some point.
    let mut config = TestConfig::paper(ServiceKind::GooglePlus, TestKind::Test2);
    config.whitebox = true;
    let mut confirmed = 0;
    let mut seen = 0;
    for seed in 0..12 {
        let r = run_one_test(&config, seed);
        if r.has(AnomalyKind::OrderDivergence) {
            seen += 1;
            if r.whitebox.as_ref().unwrap().order_presence {
                confirmed += 1;
            }
        }
    }
    assert!(seen > 0, "some Google+ tests show order divergence");
    assert_eq!(
        confirmed, seen,
        "every black-box order divergence on Google+ is true replica divergence"
    );
}

/// Content divergence on Google+ is true replica divergence (slow
/// propagation), and the white-box windows bound the black-box ones from
/// above: clients cannot perceive divergence longer than it truly existed
/// (plus one read period of detection slack).
#[test]
fn whitebox_content_windows_bound_blackbox_windows() {
    let mut config = TestConfig::paper(ServiceKind::GooglePlus, TestKind::Test2);
    config.whitebox = true;
    let r = run_one_test(&config, 17);
    let report = r.whitebox.as_ref().unwrap();
    if r.has(AnomalyKind::ContentDivergence) {
        assert!(
            report.content_presence,
            "perceived content divergence must be backed by replica state"
        );
    }
    // Aggregate durations: black-box total ≤ white-box total + slack for
    // read-period quantization on both ends of each window.
    let blackbox_total: i64 = r.analysis.content_windows.iter().map(|w| w.total_nanos()).sum();
    let whitebox_total: i64 = report.content_windows.iter().map(|w| w.total_nanos()).sum();
    let windows: i64 = r.analysis.content_windows.iter().map(|w| w.windows.len() as i64).sum();
    let slack = (windows + 1) * 2 * 1_300_000_000; // 2×(300ms..1s) per window end
    assert!(
        blackbox_total <= whitebox_total + slack,
        "black-box {blackbox_total}ns vs white-box {whitebox_total}ns (+{slack})"
    );
}

/// White-box probing reads replica state in place, between world steps:
/// it sends nothing and draws nothing, so the black-box half of a probed
/// run — trace, analysis, event count and fault ledger — is the un-probed
/// run, on every arm.
#[test]
fn whitebox_probing_leaves_the_black_box_run_byte_identical() {
    for service in ServiceKind::CATALOG {
        for kind in [TestKind::Test1, TestKind::Test2] {
            for seed in [1, 3, 5] {
                let mut config = TestConfig::paper(service, kind);
                let off = run_one_test(&config, seed);
                config.whitebox = true;
                let on = run_one_test(&config, seed);
                let case = format!("{service} {kind:?} seed {seed}");
                assert!(off.whitebox.is_none() && on.whitebox.is_some(), "{case}");
                assert_eq!(on.trace.to_compact(), off.trace.to_compact(), "{case}");
                assert_eq!(format!("{:?}", on.analysis), format!("{:?}", off.analysis), "{case}");
                assert_eq!(on.sim_events, off.sim_events, "{case}");
                assert_eq!(
                    format!("{:?}", on.fault_ledger),
                    format!("{:?}", off.fault_ledger),
                    "{case}"
                );
            }
        }
    }
}

/// Samples are taken at the instants 0, P, 2P, …, one per running replica
/// each; a crashed replica contributes none while it is down. The crash
/// and the recovery reach the replica over the WAN, so its gap starts
/// after the ledger's crash and ends after the ledger's recovery.
#[test]
fn whitebox_samples_every_running_replica_at_each_period_instant() {
    let mut config = TestConfig::paper(ServiceKind::Quorum, TestKind::Test2);
    config.whitebox = true;
    config.fault_plan.push(FaultEvent::CrashCycle {
        target: 1,
        at: SimTime::from_secs(7),
        down_for: SimDuration::from_secs(4),
        up_for: SimDuration::ZERO,
        cycles: 1,
    });
    let r = run_one_test(&config, 2);
    assert!(r.completed);
    let fired = |action: ServiceActionKind| {
        let a = r.fault_ledger.actions.iter().find(|a| a.action == action).expect("fired");
        assert_eq!(a.target, 1);
        a.at.as_nanos()
    };
    let (crash, recover) = (fired(ServiceActionKind::Crash), fired(ServiceActionKind::Recover));
    let report = r.whitebox.as_ref().expect("probe enabled");
    let period = PERIOD.as_nanos();
    let last = report.samples.last().expect("samples").at_nanos;
    assert!(last > recover + 1_000_000_000, "the run outlasts the recovery");
    let mut samples = report.samples.iter().peekable();
    let mut down = Vec::new();
    for instant in (0..=last).step_by(period as usize) {
        let mut held = Vec::new();
        while let Some(s) = samples.next_if(|s| s.at_nanos == instant) {
            held.push(s.replica);
        }
        if held == [0, 2] {
            down.push(instant);
        } else {
            assert_eq!(held, [0, 1, 2], "instant {instant}ns");
        }
    }
    assert!(samples.next().is_none(), "every sample sits at a period instant");
    let (first, gap_end) = (down[0], down[down.len() - 1] + period);
    assert_eq!(down.len() as u64, (gap_end - first) / period, "one gap: {down:?}");
    let wan = 500_000_000;
    assert!((crash..crash + wan).contains(&first), "gap {first}ns, crash {crash}ns");
    assert!((recover..recover + wan).contains(&gap_end), "gap end {gap_end}ns, {recover}ns");
}

/// The white-box report of Test 2 runs, pinned: sample count, both
/// presence flags, and per replica pair the number of closed content and
/// order windows, their total length and whether one is still open.
#[test]
fn whitebox_report_matches_the_pinned_values() {
    let pinned: [(ServiceKind, u64, &str); 4] = [
        (
            ServiceKind::FacebookFeed,
            1,
            "samples=909 cd=true od=false \
             | content agent0-agent1:1/100000000ns agent0-agent2:1/300000000ns \
             agent1-agent2:1/200000000ns \
             | order agent0-agent1:0/0ns agent0-agent2:0/0ns agent1-agent2:0/0ns",
        ),
        (
            ServiceKind::FacebookFeed,
            2,
            "samples=906 cd=true od=false \
             | content agent0-agent1:1/100000000ns agent0-agent2:1/200000000ns \
             agent1-agent2:1/200000000ns \
             | order agent0-agent1:0/0ns agent0-agent2:0/0ns agent1-agent2:0/0ns",
        ),
        (
            ServiceKind::GooglePlus,
            3,
            "samples=1096 cd=true od=false \
             | content agent0-agent1:1/1500000000ns | order agent0-agent1:0/0ns",
        ),
        (
            ServiceKind::GooglePlus,
            4,
            "samples=1090 cd=true od=true \
             | content agent0-agent1:1/1900000000ns | order agent0-agent1:0/0ns",
        ),
    ];
    let windows = |ws: &[WindowAnalysis]| {
        ws.iter()
            .map(|w| {
                let open = if w.converged() { "" } else { "+open" };
                format!("{}-{}:{}/{}ns{open}", w.pair.0, w.pair.1, w.windows.len(), w.total_nanos())
            })
            .collect::<Vec<_>>()
            .join(" ")
    };
    for (service, seed, want) in pinned {
        let mut config = TestConfig::paper(service, TestKind::Test2);
        config.whitebox = true;
        let r = run_one_test(&config, seed);
        let report = r.whitebox.as_ref().expect("probe enabled");
        let got = format!(
            "samples={} cd={} od={} | content {} | order {}",
            report.samples.len(),
            report.content_presence,
            report.order_presence,
            windows(&report.content_windows),
            windows(&report.order_windows)
        );
        assert_eq!(got, want, "{service} seed {seed}");
    }
}

/// Guarded Test 1 runs, fingerprinted as `tests/determinism_golden.rs`
/// does: the trace hash pins every corrected view the agents logged. The
/// literals were captured from the generic session-guard library the
/// harness's `PostId` guard replaced.
#[test]
fn guarded_test1_matches_the_pinned_fingerprints() {
    let pinned: [(ServiceKind, [u64; 3]); 3] = [
        (ServiceKind::GooglePlus, [0xccb52f6399af6e02, 0xfa9360a24ad12d90, 0x9dbe457e283f2fbd]),
        (ServiceKind::FacebookFeed, [0x4595daf6be33f611, 0x521716a5a97c21f3, 0xea6f3fff1ec48b4e]),
        (ServiceKind::FacebookGroup, [0x1d0489ac7f6cc27d, 0xdf69ff1f79086a6e, 0xc0e9480abf1078bb]),
    ];
    for (service, hashes) in pinned {
        let mut config = TestConfig::paper(service, TestKind::Test1);
        config.use_guard = true;
        for (seed, hash) in (1u64..).zip(hashes) {
            let got = fingerprint(&config, seed);
            assert_eq!(
                got.render(),
                format!("trace_hash=0x{hash:016x} RYW=0 MW=0 MR=0 WFR=0 CD=0 OD=0 cw=0 ow=0"),
                "{service} seed {seed}"
            );
        }
    }
}
