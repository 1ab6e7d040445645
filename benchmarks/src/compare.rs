//! `compare A B`: two sets of runs, metric by metric.
//!
//! Each file holds one JSON record per line, as `run --out FILE` appends
//! them. For every workload × metric in both files this prints both
//! medians, the ratio with its base, and — for a gated metric — a verdict
//! against its bound:
//!
//! * `regressed` — B's median is worse than A's by more than the bound,
//!   and the runs are steady enough (or disjoint enough) to say so;
//! * `unresolved` — the run-to-run spread of either side (inter-quartile
//!   distance over median) is wider than the bound, so the medians cannot
//!   show a change of that size either way — unless every run of B reads
//!   better than every run of A;
//! * `ok` — otherwise.

use crate::metrics::{def, Better, WORKLOADS};
use crate::stats::{median, spread};
use conprobe::json::JsonValue;
use std::collections::BTreeMap;

/// The verdict on one gated metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// Too noisy to tell at the bound's resolution.
    Unresolved,
}

/// One compared row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median of A's runs, and how many.
    pub a: (f64, usize),
    /// Median of B's runs, and how many.
    pub b: (f64, usize),
    /// The wider of the two sides' spreads; `None` with a single run each.
    pub spread: Option<f64>,
    /// `None` for an ungated (per-layer) metric.
    pub verdict: Option<Verdict>,
}

/// `(workload, metric) → values`, from a result file's text.
pub type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Parses a result file: one run record per non-empty line. Runs marked
/// incorrect are refused — their numbers measure a wrong answer.
pub fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let doc = conprobe::json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = doc
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or(format!("line {}: no workload", n + 1))?;
        if doc.get("correct").and_then(JsonValue::as_bool) != Some(true) {
            return Err(format!("line {}: a {workload} run is not marked correct", n + 1));
        }
        let metrics = doc
            .get("metrics")
            .and_then(JsonValue::as_object)
            .ok_or(format!("line {}: no metrics", n + 1))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(JsonValue::as_f64)
                .ok_or(format!("line {}: metric {name} has no value", n + 1))?;
            runs.entry((workload.to_string(), name.clone())).or_default().push(value);
        }
    }
    Ok(runs)
}

fn judge(a: &[f64], b: &[f64], better: Better, bound: f64, noise: Option<f64>) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = sign * (mb - ma) / ma.abs();
    // "Every run of B is better (worse) than every run of A."
    let all = |want_worse: bool| {
        let flip = if want_worse { sign } else { -sign };
        b.iter().all(|y| a.iter().all(|x| flip * (y - x) > 0.0))
    };
    let noisy = noise.is_some_and(|s| s > bound);
    if worse_by > bound && (!noisy || all(true)) {
        Verdict::Regressed
    } else if noisy && !all(false) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Compares two sets of runs, in workload then catalogue-free name order.
pub fn compare(a: &Runs, b: &Runs) -> Vec<Row> {
    let order = |w: &str| WORKLOADS.iter().position(|x| *x == w).unwrap_or(WORKLOADS.len());
    let mut keys: Vec<&(String, String)> = a.keys().filter(|k| b.contains_key(*k)).collect();
    keys.sort_by_key(|(w, m)| (order(w), def(m).is_none_or(|d| d.bound.is_none()), m.clone()));
    keys.into_iter()
        .map(|key| {
            let (va, vb) = (&a[key], &b[key]);
            let noise = (va.len() >= 2 && vb.len() >= 2).then(|| spread(va).max(spread(vb)));
            let gate = def(&key.1).and_then(|d| d.bound.map(|bound| (d.better, bound)));
            Row {
                workload: key.0.clone(),
                metric: key.1.clone(),
                a: (median(va), va.len()),
                b: (median(vb), vb.len()),
                spread: noise,
                verdict: gate.map(|(better, bound)| judge(va, vb, better, bound, noise)),
            }
        })
        .collect()
}

/// Renders the comparison; the second value is whether anything regressed.
pub fn render(rows: &[Row]) -> (String, bool) {
    let mut out = format!(
        "{:<16} {:<34} {:>14} {:>14} {:>22} {:>8}  {}\n",
        "workload", "metric", "A median", "B median", "B/A (base A)", "spread", "verdict"
    );
    let mut regressed = false;
    for row in rows {
        let unit = def(&row.metric).map_or("", |d| d.unit);
        let verdict = match row.verdict {
            Some(Verdict::Ok) => "ok",
            Some(Verdict::Regressed) => "regressed",
            Some(Verdict::Unresolved) => "unresolved",
            None => "-",
        };
        regressed |= row.verdict == Some(Verdict::Regressed);
        out.push_str(&format!(
            "{:<16} {:<34} {:>14.4} {:>14.4} {:>22} {:>8}  {verdict}\n",
            row.workload,
            row.metric,
            row.a.0,
            row.b.0,
            format!("{:.3} of {:.4} {unit}", row.b.0 / row.a.0, row.a.0),
            row.spread.map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0)),
        ));
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(workload: &str, metric: &str, values: &[f64]) -> String {
        values
            .iter()
            .map(|v| {
                format!(
                    "{{\"workload\":\"{workload}\",\"seed\":1,\"trace\":0,\"correct\":true,\
                     \"attempted\":1,\"failed\":0,\"metrics\":{{\"{metric}\":{{\"value\":{v},\"unit\":\"x\"}}}}}}\n"
                )
            })
            .collect()
    }

    fn verdict(metric: &str, a: &[f64], b: &[f64]) -> Option<Verdict> {
        let a = parse_runs(&file("study", metric, a)).unwrap();
        let b = parse_runs(&file("study", metric, b)).unwrap();
        let rows = compare(&a, &b);
        assert_eq!(rows.len(), 1);
        rows[0].verdict
    }

    #[test]
    fn steady_runs_within_the_bound_are_ok() {
        // throughput: higher is better, bound 25 %.
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict("throughput", &a, &[87.0, 86.0, 88.0, 87.5, 86.5]), Some(Verdict::Ok));
        assert_eq!(
            verdict("throughput", &a, &[140.0, 141.0, 139.0, 140.0, 142.0]),
            Some(Verdict::Ok)
        );
    }

    #[test]
    fn a_steady_shift_past_the_bound_is_regressed_in_the_metrics_direction() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [70.0, 71.0, 69.0, 70.5, 69.5];
        assert_eq!(verdict("throughput", &a, &slower), Some(Verdict::Regressed));
        // lat_p50_us: lower is better, bound 25 %: 20 % up is ok, 30 % up is not.
        assert_eq!(
            verdict("lat_p50_us", &a, &[120.0, 121.0, 119.0, 120.0, 120.5]),
            Some(Verdict::Ok)
        );
        assert_eq!(
            verdict("lat_p50_us", &a, &[130.0, 131.0, 129.0, 130.0, 132.0]),
            Some(Verdict::Regressed)
        );
        // The same numbers falling are an improvement.
        assert_eq!(verdict("lat_p50_us", &a, &slower), Some(Verdict::Ok));
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy_a = [100.0, 130.0, 80.0, 115.0, 90.0];
        let noisy_b = [102.0, 128.0, 82.0, 112.0, 91.0];
        assert_eq!(verdict("throughput", &noisy_a, &noisy_b), Some(Verdict::Unresolved));
        // Noisy, but every run of B beats every run of A: resolved, ok.
        let better = [140.0, 170.0, 135.0, 150.0, 160.0];
        assert_eq!(verdict("throughput", &noisy_a, &better), Some(Verdict::Ok));
        // Noisy, and every run of B is below every run of A, by far more
        // than the bound: no amount of noise explains that.
        let worse = [40.0, 60.0, 35.0, 50.0, 45.0];
        assert_eq!(verdict("throughput", &noisy_a, &worse), Some(Verdict::Regressed));
        // Noisy and worse at the median only: cannot tell.
        let overlapping = [70.0, 110.0, 60.0, 95.0, 85.0];
        assert_eq!(verdict("throughput", &noisy_a, &overlapping), Some(Verdict::Unresolved));
    }

    #[test]
    fn per_layer_metrics_are_listed_but_not_judged_and_single_runs_have_no_spread() {
        assert_eq!(verdict("wire.frame.dec_req_ns", &[60.0, 61.0], &[90.0, 95.0]), None);
        let a = parse_runs(&file("analyze", "throughput", &[100.0])).unwrap();
        let b = parse_runs(&file("analyze", "throughput", &[70.0])).unwrap();
        let rows = compare(&a, &b);
        assert_eq!(rows[0].spread, None);
        assert_eq!(rows[0].verdict, Some(Verdict::Regressed));
        let (text, regressed) = render(&rows);
        assert!(
            regressed && text.contains("regressed") && text.contains("0.700 of 100.0000 1/s"),
            "{text}"
        );
    }

    #[test]
    fn files_are_checked_and_rows_follow_workload_order() {
        assert!(parse_runs("not json\n").is_err());
        let wrong =
            file("study", "throughput", &[1.0]).replace("\"correct\":true", "\"correct\":false");
        assert!(parse_runs(&wrong).unwrap_err().contains("not marked correct"));
        let text = file("analyze", "throughput", &[1.0, 1.0])
            + &file("wire-read", "wire.frame.dec_req_ns", &[1.0, 1.0])
            + &file("wire-read", "throughput", &[1.0, 1.0]);
        let runs = parse_runs(&text).unwrap();
        let order: Vec<(String, String)> =
            compare(&runs, &runs).into_iter().map(|r| (r.workload, r.metric)).collect();
        assert_eq!(order[0], ("wire-read".into(), "throughput".into()));
        assert_eq!(order[2].0, "analyze");
    }
}
