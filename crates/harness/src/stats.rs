//! Campaign statistics — the quantities behind Figures 3–10.

use crate::runner::TestResult;
use conprobe_core::window::WindowKind;
use conprobe_core::{AgentId, AnomalyKind};
use std::collections::BTreeMap;

/// The paper's agent locations, in agent-index order.
pub const LOCATIONS: [&str; 3] = ["Oregon", "Tokyo", "Ireland"];

/// Short location labels ("OR", "JP", "IR").
pub const LOCATIONS_SHORT: [&str; 3] = ["OR", "JP", "IR"];

/// The three unordered agent pairs, in the paper's presentation order.
pub const PAIRS: [(u32, u32); 3] = [(0, 1), (0, 2), (1, 2)];

/// Human label for an agent pair ("OR-JP" for the paper's agents, "a3-a4"
/// beyond them).
pub fn pair_label(pair: (u32, u32)) -> String {
    let name = |i: u32| {
        LOCATIONS_SHORT.get(i as usize).map(|s| s.to_string()).unwrap_or_else(|| format!("a{i}"))
    };
    format!("{}-{}", name(pair.0), name(pair.1))
}

/// All unordered agent pairs for an `n`-agent test.
pub fn pairs(n: u32) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for a in 0..n {
        for b in a + 1..n {
            out.push((a, b));
        }
    }
    out
}

/// The number of agents appearing in a result set (max agent index + 1).
pub fn agent_count(results: &[TestResult]) -> u32 {
    results.iter().map(|r| r.reads_per_agent.len() as u32).max().unwrap_or(0)
}

/// Percentage (0–100) of tests in which `kind` was observed at least once —
/// the bars of Figure 3.
pub fn prevalence(results: &[TestResult], kind: AnomalyKind) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    let hits = results.iter().filter(|r| r.analysis.has(kind)).count();
    100.0 * hits as f64 / results.len() as f64
}

/// Histogram buckets used in Figures 4–7: observations per test per agent.
pub const BUCKET_LABELS: [&str; 5] = ["1", "2", "3-5", "6-10", ">10"];

fn bucket_of(count: usize) -> Option<usize> {
    match count {
        0 => None,
        1 => Some(0),
        2 => Some(1),
        3..=5 => Some(2),
        6..=10 => Some(3),
        _ => Some(4),
    }
}

/// Per-location histogram of per-test observation counts (Figures 4–7
/// panels a/b): `histogram[location][bucket]` = number of tests where that
/// location's agent logged a count in that bucket.
pub fn observation_histogram(results: &[TestResult], kind: AnomalyKind) -> [[u32; 5]; 3] {
    let mut h = [[0u32; 5]; 3];
    for r in results {
        for loc in 0..3u32 {
            let count = r.analysis.count_by_agent(kind, AgentId(loc));
            if let Some(b) = bucket_of(count) {
                h[loc as usize][b] += 1;
            }
        }
    }
    h
}

/// Location-correlation breakdown (Figures 4–7 panels c/d): among tests
/// where `kind` was observed at all, the percentage observed by each exact
/// subset of locations ("OR", "JP", "IR", "OR+JP", …, "OR+JP+IR").
pub fn location_correlation(results: &[TestResult], kind: AnomalyKind) -> BTreeMap<String, f64> {
    let mut counts: BTreeMap<String, u32> = BTreeMap::new();
    let mut affected = 0u32;
    for r in results {
        let set = r.analysis.agents_observing(kind);
        if set.is_empty() {
            continue;
        }
        affected += 1;
        let label = set
            .iter()
            .map(|a| {
                LOCATIONS_SHORT
                    .get(a.0 as usize)
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| format!("a{}", a.0))
            })
            .collect::<Vec<_>>()
            .join("+");
        *counts.entry(label).or_default() += 1;
    }
    counts.into_iter().map(|(k, v)| (k, 100.0 * v as f64 / affected.max(1) as f64)).collect()
}

/// Per-pair prevalence of a divergence anomaly (Figure 8): percentage of
/// tests where the given pair diverged.
pub fn pair_prevalence(results: &[TestResult], kind: AnomalyKind) -> BTreeMap<(u32, u32), f64> {
    let mut out = BTreeMap::new();
    for pair in PAIRS {
        let hits = results
            .iter()
            .filter(|r| r.analysis.pair_has(kind, AgentId(pair.0), AgentId(pair.1)))
            .count();
        out.insert(pair, 100.0 * hits as f64 / results.len().max(1) as f64);
    }
    out
}

/// The largest divergence window (seconds) per test for one pair —
/// considering only tests where the pair diverged and re-converged, as in
/// Figures 9/10 ("only considering the largest divergence window for each
/// pair of agents in each test"; unconverged runs are excluded and counted
/// by [`nonconvergence_fraction`]).
pub fn largest_windows_secs(
    results: &[TestResult],
    kind: WindowKind,
    pair: (u32, u32),
) -> Vec<f64> {
    let mut v: Vec<f64> = results
        .iter()
        .filter_map(|r| {
            let w = r.analysis.pair_windows(kind, AgentId(pair.0), AgentId(pair.1))?;
            if !w.converged() {
                return None;
            }
            w.largest_nanos().map(|ns| ns as f64 / 1e9)
        })
        .collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v
}

/// Fraction (0–100) of *divergent* tests in which the pair never
/// re-converged before the test ended (Figure 10's exclusion percentages).
pub fn nonconvergence_fraction(results: &[TestResult], kind: WindowKind, pair: (u32, u32)) -> f64 {
    let mut divergent = 0u32;
    let mut open = 0u32;
    for r in results {
        if let Some(w) = r.analysis.pair_windows(kind, AgentId(pair.0), AgentId(pair.1)) {
            if w.any_divergence() {
                divergent += 1;
                if !w.converged() {
                    open += 1;
                }
            }
        }
    }
    100.0 * open as f64 / divergent.max(1) as f64
}

/// Evaluates an empirical CDF at the given quantiles (0–1).
pub fn quantiles(sorted: &[f64], qs: &[f64]) -> Vec<Option<f64>> {
    qs.iter()
        .map(|q| {
            if sorted.is_empty() {
                None
            } else {
                let idx = ((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
                Some(sorted[idx])
            }
        })
        .collect()
}

/// Mean of a slice (0 if empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Visibility-latency summary per (writer-region, reader-region) class:
/// `local` = reader is the writer, `same_entry` = reader shares the
/// writer's service front door, `remote` = different front doors.
/// Returns `(local, same_entry, remote)` summaries.
pub fn visibility_by_locality(
    results: &[TestResult],
) -> (
    conprobe_core::VisibilitySummary,
    conprobe_core::VisibilitySummary,
    conprobe_core::VisibilitySummary,
) {
    use conprobe_core::visibility::visibility;
    let mut local = Vec::new();
    let mut same = Vec::new();
    let mut remote = Vec::new();
    for r in results {
        for rec in visibility(&r.trace) {
            if rec.reader == rec.writer {
                local.push(rec);
            } else if same_entry(r, rec.writer, rec.reader) {
                same.push(rec);
            } else {
                remote.push(rec);
            }
        }
    }
    (
        conprobe_core::visibility::summarize(&local),
        conprobe_core::visibility::summarize(&same),
        conprobe_core::visibility::summarize(&remote),
    )
}

/// Whether two agents of a test share a service front door, from the
/// per-test entry assignment the runner recorded (the affinity actually in
/// force, including rotations and the Tokyo-partition reroute).
/// Conservative default is "not shared" when an agent index is unknown.
fn same_entry(result: &TestResult, a: AgentId, b: AgentId) -> bool {
    match (result.agent_entries.get(a.0 as usize), result.agent_entries.get(b.0 as usize)) {
        (Some(ea), Some(eb)) => ea == eb,
        _ => false,
    }
}

/// Mean absolute clock-sync error per agent, in milliseconds (ablation A2).
pub fn clock_error_ms(results: &[TestResult]) -> [f64; 3] {
    let mut out = [0.0; 3];
    if results.is_empty() {
        return out;
    }
    for (i, slot) in out.iter_mut().enumerate() {
        let v: Vec<f64> = results
            .iter()
            .filter_map(|r| r.clock_error_nanos.get(i).map(|ns| *ns as f64 / 1e6))
            .collect();
        *slot = mean(&v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::TestKind;
    use crate::runner::{run_one_test, TestConfig};
    use conprobe_services::ServiceKind;

    fn blogger_results(n: u64) -> Vec<TestResult> {
        let config = TestConfig::paper(ServiceKind::Blogger, TestKind::Test1);
        (0..n).map(|s| run_one_test(&config, s)).collect()
    }

    #[test]
    fn clean_campaign_has_zero_prevalence() {
        let results = blogger_results(3);
        for kind in AnomalyKind::ALL {
            assert_eq!(prevalence(&results, kind), 0.0, "{kind}");
        }
        let h = observation_histogram(&results, AnomalyKind::ReadYourWrites);
        assert_eq!(h, [[0; 5]; 3]);
        assert!(location_correlation(&results, AnomalyKind::MonotonicReads).is_empty());
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), None);
        assert_eq!(bucket_of(1), Some(0));
        assert_eq!(bucket_of(2), Some(1));
        assert_eq!(bucket_of(3), Some(2));
        assert_eq!(bucket_of(5), Some(2));
        assert_eq!(bucket_of(6), Some(3));
        assert_eq!(bucket_of(10), Some(3));
        assert_eq!(bucket_of(11), Some(4));
    }

    #[test]
    fn quantiles_of_known_data() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        let q = quantiles(&data, &[0.0, 0.5, 1.0]);
        assert_eq!(q, vec![Some(1.0), Some(3.0), Some(5.0)]);
        assert_eq!(quantiles(&[], &[0.5]), vec![None]);
    }

    #[test]
    fn pair_labels() {
        assert_eq!(pair_label((0, 1)), "OR-JP");
        assert_eq!(pair_label((1, 2)), "JP-IR");
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn pairs_enumeration() {
        assert!(pairs(0).is_empty());
        assert!(pairs(1).is_empty());
        assert_eq!(pairs(3), PAIRS.to_vec());
        assert_eq!(pairs(5).len(), 10);
    }

    #[test]
    fn visibility_by_locality_on_blogger() {
        // A strongly consistent service: everything becomes visible within
        // roughly one read period. Blogger has a single replica, so every
        // agent shares the one front door — nothing classifies as remote.
        let results = blogger_results(2);
        let (local, same, remote) = visibility_by_locality(&results);
        assert!(local.total > 0 && same.total > 0);
        assert_eq!(remote.total, 0, "one front door: no remote pairs");
        for v in [&local, &same] {
            assert_eq!(v.total, v.observed, "Blogger leaves nothing unobserved");
            assert!(v.p95_secs.expect("observed > 0") < 2.0, "within ~a read period: {v:?}");
        }
    }

    /// Front-door classification per service, from the recorded entry
    /// assignment (regression for the hardcoded (0,1) pairing that
    /// misclassified every non-Google+ service).
    #[test]
    fn same_entry_follows_each_services_front_doors() {
        use conprobe_core::AgentId;
        let run = |service| {
            let config = TestConfig::paper(service, TestKind::Test1);
            run_one_test(&config, 11)
        };

        // Blogger: one replica, all three agents share it.
        let r = run(ServiceKind::Blogger);
        for (a, b) in [(0, 1), (0, 2), (1, 2)] {
            assert!(same_entry(&r, AgentId(a), AgentId(b)), "Blogger shares its only door");
        }

        // Google+: Oregon and Tokyo enter via DC-West; Ireland is its own.
        let r = run(ServiceKind::GooglePlus);
        assert!(same_entry(&r, AgentId(0), AgentId(1)), "OR+JP share DC-West");
        assert!(!same_entry(&r, AgentId(0), AgentId(2)));
        assert!(!same_entry(&r, AgentId(1), AgentId(2)));

        // FB Feed: one replica per agent region — nobody shares.
        let r = run(ServiceKind::FacebookFeed);
        for (a, b) in [(0, 1), (0, 2), (1, 2)] {
            assert!(!same_entry(&r, AgentId(a), AgentId(b)), "FB Feed: distinct doors");
        }

        // FB Group: everyone enters through the main (Virginia) replica...
        let r = run(ServiceKind::FacebookGroup);
        for (a, b) in [(0, 1), (0, 2), (1, 2)] {
            assert!(same_entry(&r, AgentId(a), AgentId(b)), "FB Group: one main door");
        }
        // ...except when the Tokyo partition reroutes the Tokyo agent.
        let config =
            TestConfig::paper(ServiceKind::FacebookGroup, TestKind::Test2).with_tokyo_partition();
        let r = run_one_test(&config, 3);
        assert!(!same_entry(&r, AgentId(0), AgentId(1)), "rerouted Tokyo agent");
        assert!(same_entry(&r, AgentId(0), AgentId(2)));

        // Unknown agent indices classify conservatively as not shared.
        assert!(!same_entry(&r, AgentId(0), AgentId(9)));
    }

    #[test]
    fn agent_count_reads_result_shape() {
        let results = blogger_results(1);
        assert_eq!(agent_count(&results), 3);
        assert_eq!(agent_count(&[]), 0);
    }

    #[test]
    fn clock_error_is_finite_and_small() {
        let results = blogger_results(2);
        let errs = clock_error_ms(&results);
        for e in errs {
            assert!(e.is_finite());
            // Half the worst RTT is ~110 ms; drift adds a little.
            assert!(e < 200.0, "clock error {e} ms too large");
        }
    }
}
