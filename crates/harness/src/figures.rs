//! Text renderers for every table and figure of the paper's evaluation.
//!
//! Each `render_*` function takes campaign results and prints the same
//! rows/series the paper reports, as an aligned text table (and, where
//! useful, CSV via the `*_csv` variants). `conprobe repro`
//! (`src/cli/repro.rs`) calls these to regenerate the full evaluation
//! section.

use crate::campaign::CampaignResult;
use crate::stats::{
    self, largest_windows_secs, location_correlation, nonconvergence_fraction,
    observation_histogram, pair_label, pair_prevalence, prevalence, quantiles, BUCKET_LABELS,
    LOCATIONS, PAIRS,
};
use conprobe_core::window::WindowKind;
use conprobe_core::AnomalyKind;
use std::fmt::Write as _;

/// Quantiles at which CDFs are tabulated.
pub const CDF_QS: [f64; 7] = [0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 1.0];

fn header(title: &str) -> String {
    format!("\n== {title} ==\n")
}

/// Table I — configuration parameters for Test 1 (config + the measured
/// average reads per agent per test).
pub fn render_table1(cells: &[&CampaignResult]) -> String {
    let mut s = header("Table I: configuration parameters for Test 1");
    let _ = writeln!(
        s,
        "{:<34}{}",
        "",
        cells.iter().map(|c| format!("{:>10}", c.config.test.service.name())).collect::<String>()
    );
    let row = |label: &str, vals: Vec<String>| {
        format!("{:<34}{}\n", label, vals.iter().map(|v| format!("{v:>10}")).collect::<String>())
    };
    s += &row(
        "Period between reads",
        cells
            .iter()
            .map(|c| format!("{}ms", c.config.test.cadence.read_period.as_millis()))
            .collect(),
    );
    s += &row(
        "Reads per agent per test (avg)",
        cells.iter().map(|c| format!("{:.1}", c.mean_reads_per_agent())).collect(),
    );
    s += &row(
        "Time between successive tests",
        cells
            .iter()
            .map(|c| format!("{}min", c.config.between_tests.as_millis() / 60_000))
            .collect(),
    );
    s += &row(
        "Number of tests executed",
        cells.iter().map(|c| c.results.len().to_string()).collect(),
    );
    s
}

/// Table II — configuration parameters for Test 2.
pub fn render_table2(cells: &[&CampaignResult]) -> String {
    let mut s = header("Table II: configuration parameters for Test 2");
    let _ = writeln!(
        s,
        "{:<34}{}",
        "",
        cells.iter().map(|c| format!("{:>12}", c.config.test.service.name())).collect::<String>()
    );
    let row = |label: &str, vals: Vec<String>| {
        format!("{:<34}{}\n", label, vals.iter().map(|v| format!("{v:>12}")).collect::<String>())
    };
    s += &row(
        "Period between reads",
        cells
            .iter()
            .map(|c| {
                format!(
                    "{}ms({}X)+{}s",
                    c.config.test.cadence.read_period.as_millis(),
                    c.config.test.cadence.fast_reads,
                    c.config.test.cadence.slow_period.as_millis() / 1000
                )
            })
            .collect(),
    );
    s += &row(
        "Reads per agent per test",
        cells.iter().map(|c| c.config.test.cadence.reads_target.to_string()).collect(),
    );
    s += &row(
        "Time between successive tests",
        cells
            .iter()
            .map(|c| format!("{}min", c.config.between_tests.as_millis() / 60_000))
            .collect(),
    );
    s += &row(
        "Number of executed tests",
        cells.iter().map(|c| c.results.len().to_string()).collect(),
    );
    s
}

/// Figure 3 — percentage of tests with observations of each anomaly, per
/// service. Session guarantees come from the Test 1 campaign, divergence
/// anomalies from the Test 2 campaign (each anomaly from the test designed
/// to expose it).
pub fn render_fig3(cells: &[(&CampaignResult, &CampaignResult)]) -> String {
    let mut s = header("Figure 3: % of tests with observations of each anomaly");
    let _ = writeln!(
        s,
        "{:<24}{}",
        "anomaly",
        cells
            .iter()
            .map(|(t1, _)| format!("{:>10}", t1.config.test.service.name()))
            .collect::<String>()
    );
    for kind in AnomalyKind::ALL {
        let vals: String = cells
            .iter()
            .map(|(t1, t2)| {
                let results =
                    if AnomalyKind::SESSION.contains(&kind) { &t1.results } else { &t2.results };
                format!("{:>9.1}%", prevalence(results, kind))
            })
            .collect();
        let _ = writeln!(s, "{:<24}{}", kind.to_string(), vals);
    }
    s
}

/// Figures 4–7 — distribution of per-test observation counts of a session
/// anomaly (panels a/b: histogram per location) and the location
/// correlation (panel c/d), for each service where the anomaly occurs.
pub fn render_observation_figure(
    figure_no: u8,
    kind: AnomalyKind,
    cells: &[&CampaignResult],
) -> String {
    let mut s = header(&format!("Figure {figure_no}: distribution of {kind} anomalies per test"));
    for cell in cells {
        let p = prevalence(&cell.results, kind);
        if p == 0.0 {
            let _ = writeln!(s, "[{}] no {} anomalies observed", cell.config.test.service, kind);
            continue;
        }
        let _ = writeln!(
            s,
            "[{}] prevalence {:.1}% — observations per test per agent:",
            cell.config.test.service, p
        );
        let h = observation_histogram(&cell.results, kind);
        let _ = writeln!(
            s,
            "  {:<10}{}",
            "location",
            BUCKET_LABELS.iter().map(|b| format!("{b:>8}")).collect::<String>()
        );
        for (loc, row) in LOCATIONS.iter().zip(h.iter()) {
            let _ = writeln!(
                s,
                "  {:<10}{}",
                loc,
                row.iter().map(|v| format!("{v:>8}")).collect::<String>()
            );
        }
        let _ = writeln!(s, "  correlation across locations (% of affected tests):");
        for (subset, pct) in location_correlation(&cell.results, kind) {
            let _ = writeln!(s, "    {subset:<10}{pct:>6.1}%");
        }
    }
    s
}

/// Figure 8 — percentage of tests with content divergence per agent pair.
pub fn render_fig8(cells: &[&CampaignResult]) -> String {
    let mut s = header("Figure 8: % of tests with content divergence per agent pair");
    let _ = writeln!(
        s,
        "{:<12}{}",
        "pair",
        cells.iter().map(|c| format!("{:>10}", c.config.test.service.name())).collect::<String>()
    );
    for pair in PAIRS {
        let vals: String = cells
            .iter()
            .map(|c| {
                let p = pair_prevalence(&c.results, AnomalyKind::ContentDivergence)[&pair];
                format!("{p:>9.1}%")
            })
            .collect();
        let _ = writeln!(s, "{:<12}{}", pair_label(pair), vals);
    }
    s
}

/// Figures 9/10 — cumulative distribution of divergence windows per pair,
/// for each service where the divergence occurs. Unconverged runs are
/// excluded from the CDF and reported separately, as in the paper.
pub fn render_window_cdf(figure_no: u8, kind: WindowKind, cells: &[&CampaignResult]) -> String {
    let what = match kind {
        WindowKind::Content => "content",
        WindowKind::Order => "order",
    };
    let mut s = header(&format!(
        "Figure {figure_no}: cumulative distribution of {what}-divergence windows (seconds)"
    ));
    for cell in cells {
        let _ = writeln!(s, "[{}]", cell.config.test.service);
        let _ = writeln!(
            s,
            "  {:<8}{}{:>14}{:>10}",
            "pair",
            CDF_QS
                .iter()
                .map(|q| format!("{:>8}", format!("p{:.0}", q * 100.0)))
                .collect::<String>(),
            "unconverged",
            "n"
        );
        for pair in PAIRS {
            let windows = largest_windows_secs(&cell.results, kind, pair);
            let qs = quantiles(&windows, &CDF_QS);
            let cols: String = qs
                .iter()
                .map(|q| match q {
                    Some(v) => format!("{v:>8.2}"),
                    None => format!("{:>8}", "-"),
                })
                .collect();
            let nc = nonconvergence_fraction(&cell.results, kind, pair);
            let _ =
                writeln!(s, "  {:<8}{}{:>13.1}%{:>10}", pair_label(pair), cols, nc, windows.len());
        }
    }
    s
}

/// CSV export of a window CDF (one row per converged test, columns
/// service, pair, largest window seconds) for external plotting.
pub fn window_cdf_csv(kind: WindowKind, cells: &[&CampaignResult]) -> String {
    let mut s = String::from("service,pair,largest_window_secs\n");
    for cell in cells {
        for pair in PAIRS {
            for w in largest_windows_secs(&cell.results, kind, pair) {
                let _ =
                    writeln!(s, "{},{},{w:.6}", cell.config.test.service.name(), pair_label(pair));
            }
        }
    }
    s
}

/// CSV export of Figure 3.
pub fn fig3_csv(cells: &[(&CampaignResult, &CampaignResult)]) -> String {
    let mut s = String::from("service,anomaly,prevalence_pct\n");
    for (t1, t2) in cells {
        for kind in AnomalyKind::ALL {
            let results =
                if AnomalyKind::SESSION.contains(&kind) { &t1.results } else { &t2.results };
            let _ = writeln!(
                s,
                "{},{},{:.2}",
                t1.config.test.service.name(),
                kind.short(),
                prevalence(results, kind)
            );
        }
    }
    s
}

/// The totals paragraph of §V ("In total, we ran N tests comprising R reads
/// and W writes…").
pub fn render_totals(cells: &[(&CampaignResult, &CampaignResult)]) -> String {
    let mut s = header("Totals (paper §V, penultimate configuration paragraph)");
    for (t1, t2) in cells {
        let tests = t1.results.len() + t2.results.len();
        let reads = t1.total_reads() + t2.total_reads();
        let writes = t1.total_writes() + t2.total_writes();
        let _ = writeln!(
            s,
            "{}: {} tests comprising {} reads and {} writes",
            t1.config.test.service.name(),
            tests,
            reads,
            writes
        );
    }
    s
}

/// Extension E3 — write-visibility latency (the staleness quantification
/// the paper's related work discusses): median/p95/never-observed per
/// locality class.
pub fn render_visibility(cells: &[&CampaignResult]) -> String {
    let mut s = header("Extension E3: write-visibility latency (seconds)");
    let _ = writeln!(
        s,
        "{:<12}{:>12}{:>22}{:>12}{:>10}{:>12}",
        "service", "class", "(writer→reader)", "median", "p95", "unobserved"
    );
    // A class nobody observed has no percentiles (distinct from genuine
    // zero-latency visibility): render "—".
    let fmt_secs = |v: Option<f64>| match v {
        Some(secs) => format!("{secs:.3}"),
        None => "—".to_string(),
    };
    for cell in cells {
        let (local, same, remote) = stats::visibility_by_locality(&cell.results);
        for (class, pairing, v) in [
            ("local", "self", &local),
            ("same-entry", "shared door", &same),
            ("remote", "cross-door", &remote),
        ] {
            let unobserved = 100.0 * (v.total - v.observed) as f64 / v.total.max(1) as f64;
            let _ = writeln!(
                s,
                "{:<12}{:>12}{:>22}{:>12}{:>10}{:>11.1}%",
                cell.config.test.service.name(),
                class,
                pairing,
                fmt_secs(v.median_secs),
                fmt_secs(v.p95_secs),
                unobserved
            );
        }
    }
    s
}

/// Clock-sync ablation table (A2): estimator error vs claimed uncertainty.
pub fn render_clock_ablation(cells: &[&CampaignResult]) -> String {
    let mut s = header("Ablation A2: clock-sync estimate error (mean |error|, ms)");
    let _ = writeln!(s, "{:<12}{:>10}{:>10}{:>10}", "campaign", "Oregon", "Tokyo", "Ireland");
    for cell in cells {
        let e = stats::clock_error_ms(&cell.results);
        let _ = writeln!(
            s,
            "{:<12}{:>10.2}{:>10.2}{:>10.2}",
            cell.config.test.service.name(),
            e[0],
            e[1],
            e[2]
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};
    use crate::proto::TestKind;
    use conprobe_services::ServiceKind;

    fn tiny(service: ServiceKind, kind: TestKind) -> CampaignResult {
        let mut c = CampaignConfig::paper(service, kind, 2);
        c.threads = 2;
        run_campaign(&c)
    }

    #[test]
    fn renderers_produce_expected_rows() {
        let t1 = tiny(ServiceKind::Blogger, TestKind::Test1);
        let t2 = tiny(ServiceKind::Blogger, TestKind::Test2);

        let table1 = render_table1(&[&t1]);
        assert!(table1.contains("300ms"), "{table1}");
        assert!(table1.contains("Number of tests executed"), "{table1}");
        assert!(table1.contains('2'));

        let table2 = render_table2(&[&t2]);
        assert!(table2.contains("300ms(13X)+1s"), "{table2}");
        assert!(table2.contains("20"), "{table2}");

        let fig3 = render_fig3(&[(&t1, &t2)]);
        assert!(fig3.contains("read your writes"), "{fig3}");
        assert!(fig3.contains("0.0%"), "Blogger is clean: {fig3}");

        let fig4 = render_observation_figure(4, AnomalyKind::ReadYourWrites, &[&t1]);
        assert!(fig4.contains("no read your writes anomalies"), "{fig4}");

        let fig8 = render_fig8(&[&t2]);
        assert!(fig8.contains("OR-JP"), "{fig8}");

        let fig9 = render_window_cdf(9, WindowKind::Content, &[&t2]);
        assert!(fig9.contains("p50"), "{fig9}");
        assert!(fig9.contains("unconverged"), "{fig9}");

        let totals = render_totals(&[(&t1, &t2)]);
        assert!(totals.contains("4 tests"), "{totals}");

        let ablation = render_clock_ablation(&[&t1]);
        assert!(ablation.contains("Oregon"), "{ablation}");

        let vis = render_visibility(&[&t2]);
        assert!(vis.contains("write-visibility"), "{vis}");
        assert!(vis.contains("cross-door"), "{vis}");
        assert!(vis.contains("0.0%"), "Blogger leaves nothing unobserved: {vis}");
        // Blogger has one front door: the remote class is empty and its
        // percentiles render as "—", never as a fake 0.000.
        assert!(vis.contains("—"), "empty class renders dashes: {vis}");

        let csv = fig3_csv(&[(&t1, &t2)]);
        assert!(csv.lines().count() == 1 + 6, "{csv}");
        let wcsv = window_cdf_csv(WindowKind::Content, &[&t2]);
        assert!(wcsv.starts_with("service,pair"), "{wcsv}");
    }
}
