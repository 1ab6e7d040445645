//! Golden-seed fingerprints: the determinism anchor.
//!
//! A fingerprint condenses one seeded test instance — its trace bytes, the
//! per-kind anomaly counts and the window totals — into a value that
//! `tests/determinism_golden.rs` pins as literals and the `benchmarks/`
//! harness re-checks in set-up before it times anything. A change that
//! moves one has changed simulation or analysis semantics, not just speed.
//!
//! Performance measurement itself lives in `benchmarks/` (see
//! `benchmarks/README.md`); nothing here reads the wall clock.

use conprobe_core::AnomalyKind;
use conprobe_harness::campaign::{run_campaign, CampaignConfig};
use conprobe_harness::proto::TestKind;
use conprobe_harness::report::StudyReport;
use conprobe_harness::runner::{run_one_test, TestConfig};
use conprobe_json::frame::fnv64;
use conprobe_json::ToJson;
use conprobe_services::ServiceKind;

/// A golden fingerprint of one test instance: the FNV-1a hash of the
/// compact trace JSON plus the per-kind anomaly counts and window totals.
/// Byte-identical traces and analyses produce identical fingerprints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenFingerprint {
    /// FNV-1a of the compact JSON serialization of the trace.
    pub trace_hash: u64,
    /// `(AnomalyKind::short(), observation count)` for all six kinds.
    pub anomaly_counts: Vec<(&'static str, usize)>,
    /// Content-divergence windows across all pairs.
    pub content_windows: usize,
    /// Order-divergence windows across all pairs.
    pub order_windows: usize,
}

impl GoldenFingerprint {
    /// One line per fingerprint — what a golden mismatch prints, and the
    /// form `benchmarks/expected.json` commits.
    pub fn render(&self) -> String {
        let counts: Vec<String> =
            self.anomaly_counts.iter().map(|(k, n)| format!("{k}={n}")).collect();
        format!(
            "trace_hash=0x{:016x} {} cw={} ow={}",
            self.trace_hash,
            counts.join(" "),
            self.content_windows,
            self.order_windows
        )
    }
}

/// Runs `config` once at `seed` and fingerprints the outcome.
pub fn fingerprint(config: &TestConfig, seed: u64) -> GoldenFingerprint {
    let result = run_one_test(config, seed);
    GoldenFingerprint {
        trace_hash: fnv64(result.trace.to_compact().as_bytes()),
        anomaly_counts: AnomalyKind::ALL
            .iter()
            .map(|k| (k.short(), result.analysis.count(*k)))
            .collect(),
        content_windows: result.analysis.content_windows.iter().map(|w| w.windows.len()).sum(),
        order_windows: result.analysis.order_windows.iter().map(|w| w.windows.len()).sum(),
    }
}

/// Runs `(service, kind, seed)` once and fingerprints the outcome.
pub fn golden_fingerprint(service: ServiceKind, kind: TestKind, seed: u64) -> GoldenFingerprint {
    fingerprint(&TestConfig::paper(service, kind), seed)
}

/// Like [`golden_fingerprint`], but with the full observability layer
/// switched on (metrics registry + a Debug-level event log). The
/// determinism guarantee says this must equal the uninstrumented
/// fingerprint for every golden case — observability may count events but
/// never reorder, drop, or add them.
pub fn golden_fingerprint_observed(
    service: ServiceKind,
    kind: TestKind,
    seed: u64,
) -> GoldenFingerprint {
    let mut config = TestConfig::paper(service, kind);
    config.obs = Some(conprobe_sim::ObsSink::with_log(
        conprobe_obs::EventLog::new(8192).with_min_severity(conprobe_obs::Severity::Debug),
    ));
    fingerprint(&config, seed)
}

/// The fixed golden cases: one per service, covering both tests.
pub const GOLDEN_CASES: [(ServiceKind, TestKind, u64); 4] = [
    (ServiceKind::Blogger, TestKind::Test1, 1),
    (ServiceKind::GooglePlus, TestKind::Test2, 2),
    (ServiceKind::FacebookGroup, TestKind::Test1, 7),
    (ServiceKind::FacebookFeed, TestKind::Test2, 3),
];

/// FNV-1a hash of a small `study.json` (Blogger, both tests, 2 instances,
/// seed 42) — the report-level half of the golden determinism check.
pub fn study_fingerprint() -> u64 {
    let t1 = run_campaign(
        &CampaignConfig::paper(ServiceKind::Blogger, TestKind::Test1, 2).with_seed(42),
    );
    let t2 = run_campaign(
        &CampaignConfig::paper(ServiceKind::Blogger, TestKind::Test2, 2).with_seed(42),
    );
    let report = StudyReport::new(42, &[("Blogger", &t1, &t2)]);
    fnv64(report.to_json().as_bytes())
}
