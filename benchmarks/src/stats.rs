//! Order statistics the workloads and `compare` share.
//!
//! Every reported number is a quantile of raw samples — never a histogram
//! bucket ceiling — so a small shift in the distribution moves the number
//! by the same small amount.
//!
//! **Why the quiet quartile and not the median.** The machine the
//! benchmark was sized on is a shared 2-core box: for 5–20 s at a time,
//! about half the time, everything on it runs 1.4–1.7× slower (no steal
//! time is reported; it looks like a neighbour on the sibling threads).
//! Within one 20 s run the rounds are therefore bimodal, and the *median*
//! round lands in whichever mode happens to hold the majority — identical
//! runs then differ by 40 %. Interference only ever slows a round, so the
//! level the system sustains when the machine is its own is the quartile
//! on the good side: the 25th percentile of round times and of per-slice
//! latency medians, the 75th of per-slice rates. It needs a quarter of the
//! run to be undisturbed, not a half, and unlike a minimum it is not one
//! lucky sample.

use crate::metrics::Better;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` (in `0..=1`) of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ascending(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    sorted
}

/// Median of `values` (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = ascending(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The quartile of `values` on the good side (see the module docs): with
/// a quarter of the samples at least as good as it.
pub fn quiet_quartile(values: &[f64], better: Better) -> f64 {
    let sorted = ascending(values);
    match better {
        Better::Lower => percentile(&sorted, 0.25),
        // The mirror image: the (n + 1 − rank)-th smallest.
        Better::Higher => {
            sorted[sorted.len() - ((0.25 * sorted.len() as f64).ceil() as usize).max(1)]
        }
    }
}

/// `work / quiet quartile(wall)` over rounds of identical work.
pub fn rate_over_rounds(work_per_round: f64, round_secs: &[f64]) -> f64 {
    work_per_round / quiet_quartile(round_secs, Better::Lower)
}

/// For samples that repeat the same few units of work (the same test
/// instance, the same trace) across the run: the quiet quartile of each
/// unit's repeats, then the median across units — the typical unit, when
/// the machine is its own.
pub fn quiet_typical(units: &[Vec<f64>]) -> f64 {
    let per_unit: Vec<f64> =
        units.iter().filter(|u| !u.is_empty()).map(|u| quiet_quartile(u, Better::Lower)).collect();
    median(&per_unit)
}

/// The `p`-th percentile of each non-empty slice.
pub fn per_slice(slices: &[Vec<u32>], p: f64) -> Vec<f64> {
    slices
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| {
            let mut s = s.clone();
            s.sort_unstable();
            f64::from(percentile(&s, p))
        })
        .collect()
}

/// A series on one line, for the run log: a disturbed run can then be
/// told from its rounds afterwards.
pub fn series(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    format!("[{}]", items.join(" "))
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method) — the acceptance rule for a benchmark's run-to-run spread is
/// stated in those terms, so `compare` must agree with it digit for digit.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let data = ascending(values);
    let (n, len) = (4usize, data.len());
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * (len + 1) / n).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 0.999), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&[7u32], 0.5), 7);
        assert_eq!(percentile(&[1u32, 9], 0.5), 1);
        assert_eq!(percentile(&[1u32, 9], 0.51), 9);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quiet_quartile_is_the_good_side_and_mirrors() {
        let v: Vec<f64> = (1..=13).map(f64::from).collect();
        assert_eq!(quiet_quartile(&v, Better::Lower), 4.0); // 4th smallest
        assert_eq!(quiet_quartile(&v, Better::Higher), 10.0); // 4th largest
        assert_eq!(quiet_quartile(&[5.0], Better::Lower), 5.0);
        assert_eq!(quiet_quartile(&[5.0], Better::Higher), 5.0);
        assert_eq!(quiet_quartile(&[2.0, 1.0, 4.0, 3.0], Better::Lower), 1.0);
        assert_eq!(quiet_quartile(&[2.0, 1.0, 4.0, 3.0], Better::Higher), 4.0);
    }

    #[test]
    fn a_disturbed_half_of_the_run_does_not_move_the_rate() {
        // Rounds of 1 s; six of ten hit by a 1.5x slowdown. The median
        // round is a disturbed one; the quiet quartile is not.
        let rounds = [1.0, 1.5, 1.5, 1.0, 1.5, 1.5, 1.5, 1.0, 1.5, 1.0];
        assert_eq!(median(&rounds), 1.5);
        assert_eq!(rate_over_rounds(100.0, &rounds), 100.0);
        // A real 20 % regression moves it by 20 %.
        let slower: Vec<f64> = rounds.iter().map(|r| r * 1.2).collect();
        assert!((rate_over_rounds(100.0, &slower) - 100.0 / 1.2).abs() < 1e-9);
    }

    #[test]
    fn quiet_typical_takes_each_units_quiet_level_then_the_middle_unit() {
        let units = vec![
            vec![10.0, 15.0, 10.0, 15.0], // a cheap instance, disturbed half the time
            vec![30.0, 45.0, 30.0, 31.0], // a dear one
            vec![20.0, 20.0, 29.0, 30.0],
            Vec::new(), // never sampled
        ];
        assert_eq!(quiet_typical(&units), 20.0);
    }

    #[test]
    fn per_slice_percentiles_skip_empty_slices() {
        let calm: Vec<u32> = (1..=100).collect();
        let stalled: Vec<u32> = (1..=100).map(|v| v * 1000).collect();
        let slices = vec![calm.clone(), stalled, Vec::new(), calm];
        assert_eq!(per_slice(&slices, 0.99), vec![99.0, 99_000.0, 99.0]);
        // One stalled slice moves a whole-window p99 by three orders of
        // magnitude and the median across slices by nothing.
        assert_eq!(median(&per_slice(&slices, 0.99)), 99.0);
        assert!(per_slice(&[Vec::new()], 0.5).is_empty());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([3,1,4,1,5,9,2,6], n=4) == [1.25, 3.5, 5.75]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]), [1.25, 3.5, 5.75]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
