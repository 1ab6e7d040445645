//! Cross-crate integration tests: the paper's qualitative findings, as
//! assertions over full measurement runs.

use conprobe::core::{AgentId, AnomalyKind};
use conprobe::harness::proto::TestKind;
use conprobe::harness::runner::{run_one_test, TestConfig};
use conprobe::harness::stats;
use conprobe::services::ServiceKind;

fn run_many(service: ServiceKind, kind: TestKind, n: u64) -> Vec<conprobe::harness::TestResult> {
    let config = TestConfig::paper(service, kind);
    (0..n).map(|seed| run_one_test(&config, seed)).collect()
}

/// §V: "In Blogger we did not detect any anomalies of any type."
#[test]
fn blogger_shows_no_anomalies_in_either_test() {
    for kind in [TestKind::Test1, TestKind::Test2] {
        for r in run_many(ServiceKind::Blogger, kind, 5) {
            assert!(r.completed);
            assert!(
                r.analysis.is_clean(),
                "Blogger must be clean, found {:?}",
                r.analysis.observations.first()
            );
        }
    }
}

/// §V: Facebook Feed exhibits every anomaly; read-your-writes is nearly
/// universal because of the ranked read path's indexing lag.
#[test]
fn facebook_feed_exhibits_all_anomaly_kinds() {
    let t1 = run_many(ServiceKind::FacebookFeed, TestKind::Test1, 8);
    for kind in
        [AnomalyKind::ReadYourWrites, AnomalyKind::MonotonicWrites, AnomalyKind::MonotonicReads]
    {
        let p = stats::prevalence(&t1, kind);
        assert!(p > 40.0, "{kind} prevalence too low on FB Feed: {p}%");
    }
    assert!(
        stats::prevalence(&t1, AnomalyKind::ReadYourWrites) > 90.0,
        "RYW should be near-universal on FB Feed"
    );
    let t2 = run_many(ServiceKind::FacebookFeed, TestKind::Test2, 6);
    assert!(
        stats::prevalence(&t2, AnomalyKind::OrderDivergence) > 90.0,
        "order divergence should be near-universal on FB Feed"
    );
    assert!(stats::prevalence(&t2, AnomalyKind::ContentDivergence) > 50.0);
}

/// §V: Facebook Group shows monotonic-writes violations (the same-second
/// reversal) but neither read-your-writes nor order divergence.
#[test]
fn facebook_group_shows_only_the_reversal_quirk() {
    let t1 = run_many(ServiceKind::FacebookGroup, TestKind::Test1, 8);
    assert!(
        stats::prevalence(&t1, AnomalyKind::MonotonicWrites) > 80.0,
        "the same-second reversal should dominate"
    );
    assert_eq!(stats::prevalence(&t1, AnomalyKind::ReadYourWrites), 0.0);
    let t2 = run_many(ServiceKind::FacebookGroup, TestKind::Test2, 6);
    assert_eq!(stats::prevalence(&t2, AnomalyKind::OrderDivergence), 0.0);
    assert_eq!(
        stats::prevalence(&t2, AnomalyKind::ContentDivergence),
        0.0,
        "without a fault episode, the single store never diverges"
    );
}

/// §V: the FB Group reversal is *deterministic*: every agent observes the
/// same reversed order.
#[test]
fn fbgroup_reversal_is_observed_consistently_by_all_agents() {
    let results = run_many(ServiceKind::FacebookGroup, TestKind::Test1, 6);
    let affected: Vec<_> =
        results.iter().filter(|r| r.analysis.has(AnomalyKind::MonotonicWrites)).collect();
    assert!(!affected.is_empty());
    for r in &affected {
        let observers = r.analysis.agents_observing(AnomalyKind::MonotonicWrites);
        assert_eq!(
            observers.len(),
            3,
            "the deterministic ordering scheme is visible to everyone: {observers:?}"
        );
    }
}

/// §V: Google+ divergence is asymmetric — Oregon and Tokyo "are connecting
/// to the same data center", so their pair diverges far less than the
/// cross-DC pairs.
#[test]
fn gplus_oregon_tokyo_pair_is_special() {
    let t2 = run_many(ServiceKind::GooglePlus, TestKind::Test2, 10);
    let per_pair = stats::pair_prevalence(&t2, AnomalyKind::ContentDivergence);
    let or_jp = per_pair[&(0, 1)];
    let or_ir = per_pair[&(0, 2)];
    let jp_ir = per_pair[&(1, 2)];
    assert!(
        or_jp < or_ir && or_jp < jp_ir,
        "OR-JP ({or_jp}%) must diverge less than OR-IR ({or_ir}%) / JP-IR ({jp_ir}%)"
    );
    assert!(or_ir > 50.0 && jp_ir > 50.0, "cross-DC pairs diverge frequently");
}

/// §IV completion conditions: Test 1 ends once M6 is globally visible;
/// Test 2 ends at the read quota.
#[test]
fn completion_conditions_hold() {
    let config1 = TestConfig::paper(ServiceKind::GooglePlus, TestKind::Test1);
    let r1 = run_one_test(&config1, 3);
    assert!(r1.completed);
    assert_eq!(r1.writes_total, 6, "Test 1 writes exactly M1..M6");
    // Every agent's final read contains M6.
    let m6 = conprobe::store::PostId::new(conprobe::store::AuthorId(2), 2);
    for agent in 0..3 {
        let reads = r1.trace.reads_by(AgentId(agent));
        let last = reads.last().expect("agent read at least once");
        let any_m6 = reads.iter().any(|r| r.read_seq().unwrap().contains(&m6));
        assert!(any_m6, "agent {agent} never saw M6 yet test completed");
        let _ = last;
    }

    let config2 = TestConfig::paper(ServiceKind::GooglePlus, TestKind::Test2);
    let r2 = run_one_test(&config2, 3);
    assert!(r2.completed);
    assert_eq!(r2.writes_total, 3, "Test 2 writes one message per agent");
    for n in &r2.reads_per_agent {
        assert_eq!(*n, config2.cadence.reads_target);
    }
}

/// Test 2's writes are near-simultaneous in true time thanks to the
/// coordinator's delta-corrected start instants.
#[test]
fn test2_writes_are_synchronized() {
    let config = TestConfig::paper(ServiceKind::Blogger, TestKind::Test2);
    let r = run_one_test(&config, 9);
    let writes = r.trace.writes();
    assert_eq!(writes.len(), 3);
    let invokes: Vec<i64> = writes.iter().map(|(op, _)| op.invoke.as_nanos()).collect();
    let spread = invokes.iter().max().unwrap() - invokes.iter().min().unwrap();
    // Corrected-timeline spread should be well under the read period; the
    // residual is clock-sync error (≤ half RTT ≈ 109 ms) twice over.
    assert!(
        spread < 250_000_000,
        "write spread {}ms too large for 'simultaneous' writes",
        spread / 1_000_000
    );
}

/// The adaptive Test 2 read schedule: `fast_reads` at 300 ms, then 1 s.
#[test]
fn test2_read_schedule_is_adaptive() {
    let config = TestConfig::paper(ServiceKind::FacebookFeed, TestKind::Test2);
    let r = run_one_test(&config, 5);
    let reads = r.trace.reads_by(AgentId(0));
    assert_eq!(reads.len() as u32, config.cadence.reads_target);
    let gaps: Vec<i64> =
        reads.windows(2).map(|w| w[1].invoke.as_nanos() - w[0].invoke.as_nanos()).collect();
    let fast = &gaps[..(config.cadence.fast_reads as usize - 1)];
    let slow = &gaps[config.cadence.fast_reads as usize..];
    let fast_mean = fast.iter().sum::<i64>() as f64 / fast.len() as f64;
    let slow_mean = slow.iter().sum::<i64>() as f64 / slow.len() as f64;
    assert!(
        (fast_mean - 300e6).abs() < 50e6,
        "fast phase should tick at ~300ms, got {}ms",
        fast_mean / 1e6
    );
    assert!(
        (slow_mean - 1e9).abs() < 100e6,
        "slow phase should tick at ~1s, got {}ms",
        slow_mean / 1e6
    );
}

/// `conprobe repro` — the README's "regenerate every table and figure"
/// entry point — runs the campaign grid and renders Table I.
#[test]
fn repro_binary_renders_table1() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_conprobe"))
        .args(["repro", "--tests", "1", "table1"])
        .output()
        .expect("spawn conprobe repro");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("== Table I: configuration parameters for Test 1 =="), "{table}");
    for service in ServiceKind::ALL {
        assert!(table.contains(service.name()), "{table}");
    }
    assert!(!table.contains("Table II"), "only the requested artifact is rendered: {table}");
}

/// The usage follows a command line that did not parse, and only that: a
/// command that parsed and then failed prints its error alone, and a
/// schema error names no byte (it used to say "at byte 0" for every one).
#[test]
fn the_usage_follows_a_parse_error_and_not_a_refused_trace() {
    use conprobe::core::{TestTraceBuilder, Timestamp};
    use conprobe::harness::proto::test1_post;
    use conprobe::json::ToJson;

    let t = Timestamp::from_nanos;
    let mut b = TestTraceBuilder::new();
    b.write(AgentId(0), t(0), t(5), test1_post(0, 1));
    b.read(AgentId(1), t(i64::MAX - 10), t(i64::MAX - 5), vec![test1_post(0, 1)]);
    let path = std::env::temp_dir()
        .join(format!("conprobe-e2e-refused-{}.json", std::process::id()))
        .to_string_lossy()
        .to_string();
    std::fs::write(&path, b.build().to_pretty()).unwrap();
    let conprobe = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_conprobe"))
            .args(args)
            .output()
            .expect("spawn conprobe");
        assert!(!out.status.success(), "{args:?} must fail");
        String::from_utf8(out.stderr).unwrap()
    };

    let refused = conprobe(&["analyze", &path]);
    assert_eq!(
        refused,
        format!(
            "error: parse {path}: JSON error: operation timestamp {} ns is outside ±2^62 ns\n",
            i64::MAX - 10
        )
    );
    let unknown = conprobe(&["analyze", &path, "--bogus"]);
    assert!(unknown.starts_with("error: "), "{unknown}");
    assert!(unknown.contains(conprobe::cli::USAGE), "{unknown}");
    std::fs::remove_file(&path).ok();
}
