//! The `analyze` workload: post-processing only. A pool of anomaly-dense
//! synthetic traces goes through the three consumers of a finished
//! trace — the batch checkers (`analyze`), the visibility-latency pass,
//! and an event-by-event replay through the streaming engine that
//! `probe --live` and the batch facades share.
//!
//! In a study run the checkers are a small share of the time, so a
//! checker or index change needs a workload of its own to show.

use crate::calib::{Reference, SET_UPS_AFTER, SET_UPS_BEFORE};
use crate::gen::{fnv64, fnv64_fold, Rng};
use crate::metrics::Outcome;
use crate::span::{close, open, spanned, Tracing};
use crate::stats::{quiet_typical, rate_over_rounds, series};
use crate::util::{expected_hash, record_peak_rss};
use conprobe::core::visibility::visibility;
use conprobe::core::{
    analyze, AgentId, CheckerConfig, Observation, StreamingAnalyzer, TestTrace, TestTraceBuilder,
    Timestamp,
};
use conprobe::store::{AuthorId, PostId};
use std::time::Instant;

/// Traces in the pool.
pub const POOL: usize = 8;
/// Reads per agent: 3 agents × 120 reads + 24 writes = 384 ops a trace.
const READS_PER_AGENT: usize = 120;
/// Trace passes per round.
const PASSES: usize = 32;
const MIN_ROUNDS: usize = 5;

/// A deterministic synthetic trace exercising every checker: three
/// agents write interleaved posts and read with staleness (a visible
/// post goes missing) and order perturbations (adjacent swaps).
///
/// The shape is `conprobe::bench::synthetic_trace`'s, copied here — with
/// the benchmark's own random stream — so that consolidating the
/// product's bench harness later cannot change this workload.
pub fn synthetic_trace(seed: u64, index: usize) -> TestTrace<PostId> {
    let mut rng = Rng::new(seed.wrapping_add(index as u64), "synthetic-trace");
    let (agents, writes_per_agent) = (3u32, 8u32);
    let mut b = TestTraceBuilder::new();
    let mut writes: Vec<(i64, PostId)> = Vec::new();
    for a in 0..agents {
        for s in 1..=writes_per_agent {
            let invoke = ((i64::from(s) - 1) * 1200 + i64::from(a) * 137) * 1_000_000;
            let response = invoke + 40_000_000;
            let id = PostId::new(AuthorId(a), s);
            b.write(AgentId(a), Timestamp::from_nanos(invoke), Timestamp::from_nanos(response), id);
            writes.push((response, id));
        }
    }
    writes.sort_unstable();
    let horizon = i64::from(writes_per_agent) * 1200 * 1_000_000;
    for a in 0..agents {
        for r in 0..READS_PER_AGENT {
            let invoke = r as i64 * horizon / READS_PER_AGENT as i64 + i64::from(a) * 97_000 + 1;
            let response = invoke + 30_000_000;
            let mut seq: Vec<PostId> =
                writes.iter().filter(|(w, _)| *w <= invoke).map(|(_, id)| *id).collect();
            if !seq.is_empty() && rng.chance(0.25) {
                seq.remove(rng.below(seq.len() as u32) as usize);
            }
            if seq.len() >= 2 && rng.chance(0.5) {
                let i = rng.below(seq.len() as u32 - 1) as usize;
                seq.swap(i, i + 1);
            }
            b.read(AgentId(a), Timestamp::from_nanos(invoke), Timestamp::from_nanos(response), seq);
        }
    }
    b.build()
}

/// The pool for `seed`.
pub fn pool(seed: u64) -> Vec<TestTrace<PostId>> {
    (0..POOL).map(|i| synthetic_trace(seed, i)).collect()
}

/// Folds a trace's observations into `hash`.
fn fold_observations(hash: u64, observations: &[Observation<PostId>]) -> u64 {
    observations.iter().fold(hash, |h, o| {
        let h = fnv64_fold(h, o.kind.short().as_bytes());
        let h = fnv64_fold(h, &o.agent.0.to_le_bytes());
        let h = fnv64_fold(h, &o.at.as_nanos().to_le_bytes());
        o.witnesses.iter().fold(h, |h, w| fnv64_fold(h, &w.as_u64().to_le_bytes()))
    })
}

/// What one trace must produce, recorded at set-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Golden {
    /// Observations the batch pass reports.
    pub observations: usize,
    /// Visibility records.
    pub records: usize,
}

/// Names of the spans a pass records.
pub const SPAN_ANALYZE: &str = "core.analysis.analyze";
/// `visibility::visibility`.
pub const SPAN_VISIBILITY: &str = "core.visibility.visibility";
/// All `push_event` calls of one replay.
pub const SPAN_PUSH: &str = "core.stream.push_events";
/// `StreamingAnalyzer::finish`.
pub const SPAN_FINISH: &str = "core.stream.finish";

/// What one pass saw.
pub struct PassOut {
    /// Streaming observations equal the batch ones, and the counts are
    /// the golden ones.
    pub correct: bool,
    /// What the pass produced.
    pub counts: Golden,
    /// Peak working state the streaming engine retained, bytes.
    pub retained_peak: usize,
    /// Hash of the batch observations.
    pub hash: u64,
}

/// One trace through all three passes, with or without spans.
pub fn pass(
    trace: &TestTrace<PostId>,
    config: &CheckerConfig<PostId>,
    golden: Option<Golden>,
    op: u32,
    rec: &mut Tracing<'_>,
) -> PassOut {
    open(rec, "analyze.pass", op);
    let batch = spanned(rec, SPAN_ANALYZE, op, || analyze(trace, config));
    let records = spanned(rec, SPAN_VISIBILITY, op, || visibility(trace));
    let mut engine = StreamingAnalyzer::new(config);
    let retained_peak = spanned(rec, SPAN_PUSH, op, || {
        let mut peak = 0;
        for (i, event) in trace.ops().iter().enumerate() {
            engine.push_event(event);
            // Sampling every 16th event keeps the probe out of the
            // measurement; the peak of a monotone-ish curve survives it.
            if i % 16 == 15 {
                peak = peak.max(engine.retained_bytes());
            }
        }
        peak.max(engine.retained_bytes())
    });
    let streamed = spanned(rec, SPAN_FINISH, op, || engine.finish());
    close(rec);
    let counts = Golden { observations: batch.observations.len(), records: records.len() };
    PassOut {
        correct: streamed.observations == batch.observations
            && golden.is_none_or(|g| g == counts)
            && !batch.observations.is_empty(),
        counts,
        retained_peak,
        hash: fold_observations(fnv64(b"observations"), &batch.observations),
    }
}

/// What set-up makes: the traces, what each must produce, and the pool's
/// observation checksum.
pub type Bed = (Vec<TestTrace<PostId>>, Vec<Golden>, u64);

/// Set-up: build the pool, run every trace once for its golden counts
/// and the pool's observation checksum.
pub fn set_up(seed: u64) -> Result<Bed, String> {
    let traces = pool(seed);
    let config = CheckerConfig::default();
    let mut goldens = Vec::with_capacity(POOL);
    let mut checksum = fnv64(b"pool");
    for (i, trace) in traces.iter().enumerate() {
        let out = pass(trace, &config, None, i as u32, &mut None);
        if !out.correct {
            return Err(format!("pool trace {i}: streaming and batch observations differ"));
        }
        checksum = fnv64_fold(checksum, &out.hash.to_le_bytes());
        goldens.push(out.counts);
    }
    match expected_hash("analyze", seed) {
        Some(want) if want != checksum => Err(format!(
            "observation checksum {checksum:#018x}, expected.json commits {want:#018x} for seed {seed}"
        )),
        _ => Ok((traces, goldens, checksum)),
    }
}

/// The `analyze` workload.
pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut reference = Reference::new("analyze");
    let mut bed = None;
    for _ in 0..SET_UPS_BEFORE {
        match reference.set_up(|| set_up(seed)) {
            Ok(fresh) => bed = Some(fresh),
            Err(e) => {
                out.errors.push(e);
                return out;
            }
        }
    }
    let (traces, goldens, checksum) = bed.expect("at least one set-up ran");
    let config = CheckerConfig::default();
    let ops_per_round: usize = (0..PASSES).map(|p| traces[p % POOL].len()).sum();
    let began = Instant::now();
    let mut round_secs = Vec::new();
    // Per pool trace, microseconds of each of its passes.
    let mut pass_us = vec![Vec::new(); POOL];
    while round_secs.len() < MIN_ROUNDS || began.elapsed().as_secs() < seconds {
        reference.sample();
        let round = Instant::now();
        for p in 0..PASSES {
            let t0 = Instant::now();
            let result =
                pass(&traces[p % POOL], &config, Some(goldens[p % POOL]), p as u32, &mut None);
            pass_us[p % POOL].push(t0.elapsed().as_nanos() as f64 / 1e3);
            out.failed += u64::from(!std::hint::black_box(result).correct);
        }
        round_secs.push(round.elapsed().as_secs_f64());
        out.attempted += PASSES as u64;
    }
    if out.failed > 0 {
        out.errors.push(format!("{} trace pass(es) produced wrong observations", out.failed));
    }
    record_peak_rss(&mut out);
    for _ in 0..SET_UPS_AFTER {
        out.errors.extend(reference.set_up(|| set_up(seed)).err());
    }
    let throughput = rate_over_rounds(ops_per_round as f64, &round_secs);
    reference.report(throughput, quiet_typical(&pass_us), &mut out.values);
    println!(
        "analyze: {} rounds of {PASSES} passes ({ops_per_round} trace ops), pool checksum {checksum:#018x}, \
         round wall s {}",
        round_secs.len(),
        series(&round_secs)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_traces_are_deterministic_dense_and_sized() {
        let (a, b) = (synthetic_trace(0xC0DE, 0), synthetic_trace(0xC0DE, 0));
        assert_eq!(a, b);
        assert_ne!(a, synthetic_trace(0xC0DE, 1));
        assert_eq!((a.write_count(), a.read_count(), a.len()), (24, 360, 384));
        let analysis = analyze(&a, &CheckerConfig::default());
        assert!(analysis.observations.len() > 20, "the trace must keep the checkers busy");
    }

    #[test]
    fn a_pass_checks_streaming_against_batch_and_the_golden_counts() {
        let (traces, goldens, checksum) = set_up(3).expect("set-up");
        assert_eq!(set_up(3).unwrap().2, checksum, "the checksum is a function of the seed");
        assert_ne!(set_up(4).unwrap().2, checksum);
        let config = CheckerConfig::default();
        assert!(pass(&traces[0], &config, Some(goldens[0]), 0, &mut None).correct);
        let wrong = Golden { observations: goldens[0].observations + 1, ..goldens[0] };
        assert!(!pass(&traces[0], &config, Some(wrong), 0, &mut None).correct);
    }

    #[test]
    fn a_traced_pass_records_one_span_per_call() {
        let mut rec = crate::span::Recorder::new(64);
        let trace = synthetic_trace(1, 0);
        let out = pass(&trace, &CheckerConfig::default(), None, 9, &mut Some(&mut rec));
        assert!(out.correct && out.retained_peak > 0);
        for name in ["analyze.pass", SPAN_ANALYZE, SPAN_VISIBILITY, SPAN_PUSH, SPAN_FINISH] {
            assert_eq!(rec.totals(name).count, 1, "{name}");
        }
        assert!(rec.spans().iter().all(|s| s.op == 9));
    }
}
