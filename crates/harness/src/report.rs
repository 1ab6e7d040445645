//! Machine-readable study reports.
//!
//! The text renderers in [`crate::figures`] reproduce the paper's artifacts
//! for humans; [`StudyReport`] aggregates the same quantities into a
//! serializable structure for downstream tooling (plotting, regression
//! tracking of the calibration, EXPERIMENTS.md generation).

use crate::campaign::CampaignResult;
use crate::figures::CDF_QS;
use crate::stats::{
    self, largest_windows_secs, nonconvergence_fraction, pair_label, pair_prevalence, prevalence,
    quantiles, PAIRS,
};
use conprobe_core::window::WindowKind;
use conprobe_core::AnomalyKind;
use conprobe_json::{JsonWriter, ToJson};
use std::collections::BTreeMap;

/// Rounds to microsecond-ish precision so emitted floats have short,
/// stable decimal representations (JSON round-trip fixpoint).
fn round6(v: f64) -> f64 {
    (v * 1e6).round() / 1e6
}

/// Per-pair window statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Quantiles of the largest converged window per test, in seconds, at
    /// [`CDF_QS`] (None where no data).
    pub quantiles_secs: Vec<Option<f64>>,
    /// Percentage of divergent tests that never re-converged.
    pub nonconvergence_pct: f64,
    /// Number of converged windows behind the quantiles.
    pub samples: usize,
}

/// One campaign cell's aggregated numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Instances executed.
    pub tests: usize,
    /// Instances that reached their completion condition.
    pub completed: usize,
    /// Total reads across instances and agents.
    pub total_reads: u64,
    /// Total writes across instances.
    pub total_writes: u64,
    /// Mean reads per agent per test (Table I/II row).
    pub mean_reads_per_agent: f64,
    /// Anomaly prevalence (% of tests), keyed by short label (Fig 3).
    pub prevalence_pct: BTreeMap<String, f64>,
    /// Content divergence per pair (% of tests), keyed by pair label (Fig 8).
    pub content_divergence_per_pair_pct: BTreeMap<String, f64>,
    /// Content-window stats per pair (Fig 9).
    pub content_windows: BTreeMap<String, WindowStats>,
    /// Order-window stats per pair (Fig 10).
    pub order_windows: BTreeMap<String, WindowStats>,
    /// Mean |clock-sync error| per agent, milliseconds (ablation A2).
    pub clock_error_ms: [f64; 3],
}

impl CellReport {
    /// Builds the report for one campaign cell.
    pub fn from_campaign(cell: &CampaignResult) -> Self {
        let results = &cell.results;
        let windows = |kind: WindowKind| -> BTreeMap<String, WindowStats> {
            PAIRS
                .iter()
                .map(|pair| {
                    let w = largest_windows_secs(results, kind, *pair);
                    (
                        pair_label(*pair),
                        WindowStats {
                            quantiles_secs: quantiles(&w, &CDF_QS)
                                .into_iter()
                                .map(|q| q.map(round6))
                                .collect(),
                            nonconvergence_pct: round6(nonconvergence_fraction(
                                results, kind, *pair,
                            )),
                            samples: w.len(),
                        },
                    )
                })
                .collect()
        };
        CellReport {
            tests: results.len(),
            completed: cell.completed(),
            total_reads: cell.total_reads(),
            total_writes: cell.total_writes(),
            mean_reads_per_agent: round6(cell.mean_reads_per_agent()),
            prevalence_pct: AnomalyKind::ALL
                .iter()
                .map(|k| (k.short().to_string(), round6(prevalence(results, *k))))
                .collect(),
            content_divergence_per_pair_pct: pair_prevalence(
                results,
                AnomalyKind::ContentDivergence,
            )
            .into_iter()
            .map(|(p, v)| (pair_label(p), round6(v)))
            .collect(),
            content_windows: windows(WindowKind::Content),
            order_windows: windows(WindowKind::Order),
            clock_error_ms: stats::clock_error_ms(results).map(round6),
        }
    }
}

/// The whole study: one [`CellReport`] per (service, test kind).
#[derive(Debug, Clone, PartialEq)]
pub struct StudyReport {
    /// Generator version (crate version).
    pub generator: String,
    /// Master seed.
    pub seed: u64,
    /// Per-service reports: service name → (test1, test2).
    pub services: BTreeMap<String, (CellReport, CellReport)>,
}

impl StudyReport {
    /// Assembles a report from `(service name, test1 cell, test2 cell)`
    /// triples.
    pub fn new(seed: u64, cells: &[(&str, &CampaignResult, &CampaignResult)]) -> Self {
        StudyReport {
            generator: format!("conprobe-harness {}", env!("CARGO_PKG_VERSION")),
            seed,
            services: cells
                .iter()
                .map(|(name, t1, t2)| {
                    (
                        name.to_string(),
                        (CellReport::from_campaign(t1), CellReport::from_campaign(t2)),
                    )
                })
                .collect(),
        }
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        self.to_pretty()
    }
}

impl ToJson for WindowStats {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.member("quantiles_secs", &self.quantiles_secs);
        w.member("nonconvergence_pct", &self.nonconvergence_pct);
        w.member("samples", &self.samples);
        w.end_object();
    }
}

impl ToJson for CellReport {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.member("tests", &self.tests);
        w.member("completed", &self.completed);
        w.member("total_reads", &self.total_reads);
        w.member("total_writes", &self.total_writes);
        w.member("mean_reads_per_agent", &self.mean_reads_per_agent);
        w.member("prevalence_pct", &self.prevalence_pct);
        w.member("content_divergence_per_pair_pct", &self.content_divergence_per_pair_pct);
        w.member("content_windows", &self.content_windows);
        w.member("order_windows", &self.order_windows);
        w.member("clock_error_ms", self.clock_error_ms.as_slice());
        w.end_object();
    }
}

impl ToJson for StudyReport {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.member("generator", &self.generator);
        w.member("seed", &self.seed);
        w.member("services", &self.services);
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};
    use crate::proto::TestKind;
    use conprobe_services::ServiceKind;

    fn cell(service: ServiceKind, kind: TestKind) -> CampaignResult {
        let mut c = CampaignConfig::paper(service, kind, 2);
        c.threads = 2;
        run_campaign(&c)
    }

    #[test]
    fn report_round_trips_through_json() {
        let t1 = cell(ServiceKind::Blogger, TestKind::Test1);
        let t2 = cell(ServiceKind::Blogger, TestKind::Test2);
        let report = StudyReport::new(42, &[("Blogger", &t1, &t2)]);
        let json = report.to_json();
        // Rounded floats print as their shortest decimal, so the parsed
        // document prints back byte for byte.
        assert_eq!(conprobe_json::parse(&json).unwrap().to_pretty(), json);
        assert!(json.contains("\"RYW\""));
        assert!(json.contains("OR-JP"));
    }

    #[test]
    fn blogger_cell_report_is_clean_and_complete() {
        let t1 = cell(ServiceKind::Blogger, TestKind::Test1);
        let report = CellReport::from_campaign(&t1);
        assert_eq!(report.tests, 2);
        assert_eq!(report.completed, 2);
        assert_eq!(report.total_writes, 12);
        for (k, v) in &report.prevalence_pct {
            assert_eq!(*v, 0.0, "{k} must be 0 for Blogger");
        }
        assert_eq!(report.prevalence_pct.len(), 6);
        for w in report.content_windows.values() {
            assert_eq!(w.samples, 0);
        }
    }

    #[test]
    fn anomalous_cell_report_carries_prevalence() {
        let t1 = cell(ServiceKind::FacebookGroup, TestKind::Test1);
        let report = CellReport::from_campaign(&t1);
        assert_eq!(report.prevalence_pct["MW"], 100.0);
        assert_eq!(report.prevalence_pct["RYW"], 0.0);
    }
}
