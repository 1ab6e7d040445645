//! The machine-speed reference: a fixed computation timed throughout a
//! run, so a run can say how fast the machine was while it measured.
//!
//! The sizing machine is a shared box whose speed has at least three
//! levels (a pure-CPU loop runs at 0.7×, 1× or 1.2× its usual rate) and
//! stays on one for seconds to minutes — no steal time is reported, the
//! whole machine just slows. A run that falls into a slow minute reads 30 %
//! worse on every metric, and no statistic *within* the run can tell,
//! because every round of it is slow. What can tell is a computation whose
//! cost never changes: the benchmark's own. Between rounds (and between
//! the windows of a live phase), on both cores at once and with the
//! workload paused, each run times a fixed sort-and-hash kernel; the quiet
//! quartile of those samples against the workload's nominal reading is the
//! run's *machine speed*, and every time-based end-to-end metric is
//! reported at nominal speed: times × speed, rates ÷ speed. The values as
//! measured and the speed are printed beside them.
//!
//! This corrects for the machine, not for the program: the kernel is the
//! benchmark's own code and touches nothing of the product, so a change to
//! the product cannot move it. It assumes interference slows the product's
//! code about as much as the kernel's. On the sizing machine that held well
//! enough to halve the run-to-run spread of the CPU-bound workloads (ten
//! seeds, inter-quartile over median: `study` throughput 12 % → 6 %, its
//! latency 9 % → 4 %, `analyze` 12 % → 6 %, live read latency 24 % → 9–15 %)
//! and did nothing for `study-journaled`, which waits on the disk. A machine
//! that is simply faster reads the same as one that is undisturbed, which is
//! what a regression gate wants.

use crate::gen::{fnv64, Rng};
use crate::metrics::{Better, Values};
use crate::stats::quiet_quartile;
use std::time::Instant;

/// What one reference sample reads on the sizing machine in its usual
/// state while `workload` runs, nanoseconds. It differs by workload because
/// the kernel's neighbours do (an idle second core for `analyze`, a
/// server's yielding threads for the live workloads, cold caches after a
/// campaign round). Only ratios of results matter to a comparison; these
/// constants keep the reported numbers close to the measured ones.
fn nominal_ns(workload: &str) -> f64 {
    match workload {
        "analyze" => 925_000.0,
        "study" | "study-journaled" => 1_075_000.0,
        _ => 1_000_000.0,
    }
}

/// Threads the kernel runs on at once: the cores the workloads load.
const THREADS: usize = 2;

/// Set-ups timed before the measurement; the last one is measured on.
pub const SET_UPS_BEFORE: usize = 4;
/// Set-ups timed after it. One set-up is a single sample of a sub-second
/// quantity, and seven in a row would all sit in the same few hundred
/// milliseconds of a shared machine: two groups a run apart give the
/// quiet quartile something to choose from.
pub const SET_UPS_AFTER: usize = 3;

/// The reference kernel's fixed input, the samples taken so far, and the
/// set-up times of the run (each set-up is preceded by a sample).
pub struct Reference {
    workload: &'static str,
    data: Vec<u32>,
    nanos: Vec<f64>,
    set_up_secs: Vec<f64>,
}

fn kernel(data: &[u32]) -> f64 {
    let began = Instant::now();
    let mut scratch = vec![0u32; data.len()];
    let mut sink = 0u64;
    for _ in 0..4 {
        scratch.copy_from_slice(data);
        scratch.sort_unstable();
        let bytes: Vec<u8> = scratch.iter().step_by(16).flat_map(|v| v.to_le_bytes()).collect();
        sink ^= fnv64(&bytes);
    }
    std::hint::black_box(sink);
    began.elapsed().as_nanos() as f64
}

impl Reference {
    /// The reference for a run of `workload`.
    pub fn new(workload: &'static str) -> Reference {
        let mut rng = Rng::new(0xCA11B, "reference");
        let data: Vec<u32> = (0..16_384).map(|_| rng.next_u64() as u32).collect();
        Reference { workload, data, nanos: Vec::with_capacity(256), set_up_secs: Vec::new() }
    }

    /// Runs the kernel once on every thread at the same time and records
    /// the mean of their wall times.
    pub fn sample(&mut self) {
        let data = &self.data;
        let times: Vec<f64> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..THREADS).map(|_| scope.spawn(|| kernel(data))).collect();
            threads.into_iter().map(|t| t.join().expect("reference kernel panicked")).collect()
        });
        self.nanos.push(times.iter().sum::<f64>() / times.len() as f64);
    }

    /// Samples the kernel, then runs one set-up and records how long it
    /// took (a failed set-up is not recorded).
    pub fn set_up<T>(&mut self, set_up: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        self.sample();
        let began = Instant::now();
        let bed = set_up()?;
        self.set_up_secs.push(began.elapsed().as_secs_f64());
        Ok(bed)
    }

    /// The machine's speed over the samples taken, as a share of nominal:
    /// below 1 the machine was slower than the sizing machine usually is.
    ///
    /// # Panics
    ///
    /// Panics when no sample was taken.
    pub fn speed(&self) -> f64 {
        nominal_ns(self.workload) / quiet_quartile(&self.nanos, Better::Lower)
    }

    /// Sets the three time-based end-to-end metrics at nominal machine
    /// speed — times × speed, the rate ÷ speed — and logs the values as
    /// measured beside the speed they were measured at. `setup_s` is the
    /// quiet quartile of the set-ups timed.
    pub fn report(&self, throughput: f64, lat_p50_us: f64, values: &mut Values) {
        let speed = self.speed();
        let setup_s = quiet_quartile(&self.set_up_secs, Better::Lower);
        println!(
            "{}: machine speed {speed:.3} of nominal (reference kernel {:.0} us, quiet quartile of {} \
             samples); as measured: setup_s {setup_s:.4}, throughput {throughput:.4}, lat_p50_us \
             {lat_p50_us:.4}",
            self.workload,
            quiet_quartile(&self.nanos, Better::Lower) / 1e3,
            self.nanos.len(),
        );
        values.set("setup_s", setup_s * speed);
        values.set("throughput", throughput / speed);
        values.set("lat_p50_us", lat_p50_us * speed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_nominal_over_the_quiet_quartile() {
        let mut reference = Reference::new("wire-read");
        reference.nanos = vec![2e6, 1e6, 2e6, 2e6, 1e6, 2e6, 2e6, 2e6];
        // A quarter of the samples ran at nominal: that is the machine.
        assert_eq!(reference.speed(), 1.0);
        reference.nanos = vec![2e6; 8];
        assert_eq!(reference.speed(), 0.5);
        // Half speed: the times were twice nominal, the rate half of it.
        let mut values = Values::default();
        reference.set_up_secs = vec![3.0, 2.0, 2.5, 4.0, 2.1];
        reference.report(50.0, 30.0, &mut values);
        assert_eq!(values.get("setup_s"), Some(1.05));
        assert_eq!(values.get("throughput"), Some(100.0));
        assert_eq!(values.get("lat_p50_us"), Some(15.0));
    }

    #[test]
    fn the_kernel_is_sampled_before_every_set_up_and_errors_are_not_timed() {
        let mut reference = Reference::new("analyze");
        for _ in 0..4 {
            reference.sample();
        }
        assert_eq!(reference.set_up(|| Ok(7)), Ok(7));
        assert_eq!(reference.set_up(|| Err::<(), _>("no".to_string())), Err("no".to_string()));
        assert_eq!((reference.nanos.len(), reference.set_up_secs.len()), (6, 1));
        assert!(reference.nanos.iter().all(|ns| *ns > 10_000.0), "{:?}", reference.nanos);
        assert!(reference.speed() > 0.0);
    }
}
