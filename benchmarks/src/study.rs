//! The study-plane workloads: `study` (what reproducing the paper's
//! table costs) and `study-journaled` (the same instrument with every
//! result made durable, then recovered).
//!
//! A round is identical work every time — the same cells, instances and
//! seeds — so `throughput` is `instances / median(round wall)`. The
//! outputs are checked every round: no instance crashed or timed out, the
//! per-cell anomaly table hashes the same in every round (and to the
//! committed value, on a seed `expected.json` covers), the arms that are
//! consistent by construction report no anomaly, and a recovered journal holds
//! every record with the anomaly counts the in-memory results had.

use crate::calib::{Reference, SET_UPS_AFTER, SET_UPS_BEFORE};
use crate::gen::{fnv64, fnv64_fold};
use crate::metrics::{Outcome, CELLS};
use crate::span::{close, open, spanned, Tracing};
use crate::stats::{quiet_typical, rate_over_rounds, series};
use crate::util::{expected_golden, expected_hash, out_dir, record_peak_rss};
use conprobe::bench::{golden_fingerprint, GOLDEN_CASES};
use conprobe::core::{analyze, AnomalyKind};
use conprobe::harness::campaign::{instance_config, run_campaign_journaled};
use conprobe::harness::journal::{completed_record_json, result_from_json};
use conprobe::harness::runner::checker_config_for;
use conprobe::harness::{
    run_campaign, run_one_test, CampaignConfig, CampaignResult, Journal, TestKind, TestResult,
};
use conprobe::services::ServiceKind;
use conprobe::sim::SimRng;
use std::path::PathBuf;
use std::time::Instant;

/// Instances per cell per round.
pub const INSTANCES: u32 = 200;
/// Campaign worker threads (`nproc` on the sizing machine).
pub const THREADS: usize = 2;
/// Rounds measured whatever the time budget says.
const MIN_ROUNDS: usize = 5;
/// Single instances timed alone before every round, for `lat_p50_us`.
const ALONE_PER_ROUND: usize = 4;
/// The alone samples cycle over this many instances of the cell, so
/// each is timed a dozen times in a run.
const ALONE_INSTANCES: usize = 8;
/// The journaled cell: Google+ Test 2, also cell 1 of the study.
const JOURNALED_CELL: usize = 1;

/// The study's cells, in [`CELLS`] order.
pub const MATRIX: [(ServiceKind, TestKind); 10] = [
    (ServiceKind::GooglePlus, TestKind::Test1),
    (ServiceKind::GooglePlus, TestKind::Test2),
    (ServiceKind::Blogger, TestKind::Test1),
    (ServiceKind::Blogger, TestKind::Test2),
    (ServiceKind::FacebookFeed, TestKind::Test1),
    (ServiceKind::FacebookFeed, TestKind::Test2),
    (ServiceKind::FacebookGroup, TestKind::Test1),
    (ServiceKind::FacebookGroup, TestKind::Test2),
    (ServiceKind::Quorum, TestKind::Test2),
    (ServiceKind::Pbft, TestKind::Test2),
];

/// Cell `i`'s campaign, `tests` instances, seeded from the benchmark seed.
pub fn cell_config(i: usize, seed: u64, tests: u32) -> CampaignConfig {
    let (service, kind) = MATRIX[i];
    let mut config =
        CampaignConfig::paper(service, kind, tests).with_seed(seed ^ ((i as u64) << 32));
    config.threads = THREADS;
    config
}

/// The seed `run_campaign` derives for instance `i` of `config`.
pub fn instance_seed(config: &CampaignConfig, i: usize) -> u64 {
    SimRng::new(config.seed).split_indexed("test", i as u64).seed()
}

/// Runs instance `i` of `config` alone, exactly as a campaign worker would.
pub fn run_instance(config: &CampaignConfig, i: usize) -> TestResult {
    run_one_test(&instance_config(config, i), instance_seed(config, i))
}

/// Per anomaly kind: instances showing it, and observations in total.
pub type AnomalyRow = [(u32, u32); 6];

/// The anomaly row of a set of results.
pub fn anomaly_row<'a>(results: impl IntoIterator<Item = &'a TestResult>) -> AnomalyRow {
    let mut row = [(0, 0); 6];
    for result in results {
        for (slot, kind) in row.iter_mut().zip(AnomalyKind::ALL) {
            let n = result.analysis.count(kind) as u32;
            slot.0 += u32::from(n > 0);
            slot.1 += n;
        }
    }
    row
}

/// FNV of an anomaly table, cell names included.
pub fn table_hash(rows: &[(&str, AnomalyRow)]) -> u64 {
    rows.iter().fold(fnv64(b"anomaly-table"), |h, (cell, row)| {
        row.iter().fold(fnv64_fold(h, cell.as_bytes()), |h, (instances, observations)| {
            fnv64_fold(fnv64_fold(h, &instances.to_le_bytes()), &observations.to_le_bytes())
        })
    })
}

/// Checks one finished cell and returns `(failed instances, problems)`.
fn check_cell(cell: &str, result: &CampaignResult, row: &AnomalyRow) -> (u64, Vec<String>) {
    let mut problems = Vec::new();
    let timed_out = result.results.iter().filter(|r| !r.completed).count();
    let missing = result.config.tests as usize - result.results.len();
    if timed_out + missing > 0 || !result.crashed.is_empty() {
        problems.push(format!(
            "{cell}: {timed_out} instance(s) not completed, {} crashed, {missing} missing",
            result.crashed.len()
        ));
    }
    // Single-replica Blogger and the ordered-log arm are anomaly-free by
    // construction, on every seed; the quorum arm never breaks a session
    // guarantee (its simultaneous Test 2 writes can be read in flight by
    // two majorities, which the divergence checkers do report).
    let must_be_zero = match cell.split('-').next() {
        Some("blogger" | "pbft") => 6,
        Some("quorum") => AnomalyKind::SESSION.len(),
        _ => 0,
    };
    if row[..must_be_zero].iter().any(|(instances, _)| *instances > 0) {
        problems.push(format!("{cell}: a consistent arm reported anomalies {row:?}"));
    }
    ((timed_out + missing) as u64, problems)
}

/// Set-up: the four golden fingerprints must still be what the product's
/// own determinism suite pins (the instrument measures what it always
/// measured), then a small round of every cell — through a journal and
/// back, for the journaled workload — so first-use costs are not timed.
fn set_up(seed: u64, cells: &[usize], warm: u32, journaled: bool) -> Result<(), String> {
    let got: Vec<String> = GOLDEN_CASES
        .iter()
        .map(|(service, kind, seed)| golden_fingerprint(*service, *kind, *seed).render())
        .collect();
    let want = expected_golden();
    if got != want {
        return Err(format!(
            "golden fingerprints moved: {got:#?}, expected.json commits {want:#?}"
        ));
    }
    for &i in cells {
        let config = cell_config(i, seed, warm);
        if journaled {
            let mut out = Outcome::default();
            journaled_round(&config, CELLS[i], &mut out)?;
            if let Some(e) = out.errors.into_iter().next() {
                return Err(e);
            }
        } else {
            run_campaign(&config);
        }
    }
    Ok(())
}

/// One Google+ Test 2 instance at a time, alone on one thread, as
/// `conprobe run` would run it — and, journaled, made durable before it
/// counts as done. A few are timed before every round, cycling over the
/// same few instances, so each instance is sampled across the whole run:
/// on a shared machine a burst of samples measures the neighbours.
struct Alone {
    config: CampaignConfig,
    journal: Option<(Journal, PathBuf)>,
    next: usize,
    /// Per instance, microseconds of each repeat.
    micros: Vec<Vec<f64>>,
}

impl Alone {
    fn new(seed: u64, journaled: bool) -> Result<Alone, String> {
        let path = journal_path("alone");
        let journal = journaled
            .then(|| Journal::create(&path).map(|j| (j, path.clone())))
            .transpose()
            .map_err(|e| format!("create {}: {e}", path.display()))?;
        let config = cell_config(JOURNALED_CELL, seed, ALONE_INSTANCES as u32);
        Ok(Alone { config, journal, next: 0, micros: vec![Vec::new(); ALONE_INSTANCES] })
    }

    fn sample(&mut self) {
        for _ in 0..ALONE_PER_ROUND {
            let i = self.next % ALONE_INSTANCES;
            self.next += 1;
            let began = Instant::now();
            let result = std::hint::black_box(run_instance(&self.config, i));
            if let Some((journal, _)) = &self.journal {
                journal
                    .append_completed(CELLS[JOURNALED_CELL], i as u32, result.seed, &result)
                    .expect("journal append");
            }
            self.micros[i].push(began.elapsed().as_nanos() as f64 / 1e3);
        }
    }

    /// `lat_p50_us`: the typical instance, when the machine is its own.
    fn finish(mut self) -> f64 {
        if let Some((journal, path)) = self.journal.take() {
            drop(journal);
            std::fs::remove_file(path).ok();
        }
        quiet_typical(&self.micros)
    }
}

/// What both study workloads share: timed set-ups before and after,
/// rounds of identical work until the time is up with single instances
/// sampled in between, and the three metrics that come out of that.
/// `round` runs one round and checks its outputs.
fn measure(
    seed: u64,
    seconds: u64,
    journaled: bool,
    set_up: impl Fn() -> Result<(), String>,
    instances_per_round: u64,
    mut round: impl FnMut(&mut Outcome) -> Result<(), String>,
) -> (Outcome, Vec<f64>) {
    let name = if journaled { "study-journaled" } else { "study" };
    let mut out = Outcome::default();
    let mut round_secs = Vec::new();
    let mut run = || -> Result<(), String> {
        let mut reference = Reference::new(name);
        for _ in 0..SET_UPS_BEFORE {
            reference.set_up(&set_up)?;
        }
        let mut alone = Alone::new(seed, journaled)?;
        let began = Instant::now();
        while round_secs.len() < MIN_ROUNDS || began.elapsed().as_secs() < seconds {
            reference.sample();
            alone.sample();
            let started = Instant::now();
            round(&mut out)?;
            round_secs.push(started.elapsed().as_secs_f64());
            out.attempted += instances_per_round;
        }
        record_peak_rss(&mut out);
        for _ in 0..SET_UPS_AFTER {
            reference.set_up(&set_up)?;
        }
        let throughput = rate_over_rounds(instances_per_round as f64, &round_secs);
        reference.report(throughput, alone.finish(), &mut out.values);
        Ok(())
    };
    if let Err(e) = run() {
        out.errors.push(e);
    }
    (out, round_secs)
}

/// The `study` workload.
pub fn run_study(seed: u64, seconds: u64) -> Outcome {
    let cells: Vec<usize> = (0..MATRIX.len()).collect();
    let per_round = u64::from(INSTANCES) * CELLS.len() as u64;
    let mut hashes = Vec::new();
    let round = |out: &mut Outcome| {
        let mut rows = Vec::with_capacity(CELLS.len());
        for (i, cell) in CELLS.iter().enumerate() {
            let result = run_campaign(&cell_config(i, seed, INSTANCES));
            let row = anomaly_row(&result.results);
            let (failed, problems) = check_cell(cell, &result, &row);
            out.failed += failed + result.crashed.len() as u64;
            out.errors.extend(problems);
            rows.push((*cell, row));
        }
        hashes.push(table_hash(&rows));
        Ok(())
    };
    let (mut out, round_secs) =
        measure(seed, seconds, false, || set_up(seed, &cells, 8, false), per_round, round);
    let Some(first) = hashes.first() else { return out };
    if hashes.iter().any(|h| h != first) {
        out.errors.push(format!("the anomaly table changed between rounds: {hashes:x?}"));
    }
    match expected_hash("study", seed) {
        Some(want) if want != *first => out.errors.push(format!(
            "anomaly table hashes to {first:#018x}, expected.json commits {want:#018x} for seed {seed}"
        )),
        _ => {}
    }
    println!(
        "study: {} rounds of {per_round} tests, table hash {first:#018x}, round wall s {}",
        round_secs.len(),
        series(&round_secs)
    );
    out
}

fn journal_path(tag: &str) -> PathBuf {
    out_dir().join(format!("journal-{tag}-{}.jsonl", std::process::id()))
}

/// One journaled round: a fresh journal on real disk, the cell run
/// through it (the program's own fsync-per-append policy), the journal
/// recovered and every record rebuilt. Returns `(produce s, recover s)`.
fn journaled_round(
    config: &CampaignConfig,
    cell: &str,
    out: &mut Outcome,
) -> Result<(f64, f64), String> {
    let path = journal_path("round");
    let began = Instant::now();
    let journal = Journal::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let result = run_campaign_journaled(config, None, cell, Some(&journal), None);
    drop(journal);
    let produced = began.elapsed().as_secs_f64();

    let began = Instant::now();
    let recovery = Journal::recover(&path).map_err(|e| format!("recover: {e}"))?;
    let records = recovery.completed_for(cell);
    let mut recovered = Vec::with_capacity(records.len());
    for (i, (_, payload)) in &records {
        let test = instance_config(config, *i as usize);
        recovered.push(result_from_json(&test, payload).map_err(|e| format!("record {i}: {e}"))?);
    }
    let recovering = began.elapsed().as_secs_f64();
    std::fs::remove_file(&path).ok();

    let row = anomaly_row(&result.results);
    let (failed, problems) = check_cell(cell, &result, &row);
    out.errors.extend(problems);
    let lost = (config.tests as usize).saturating_sub(recovery.records.len());
    out.failed += failed + result.crashed.len() as u64 + lost as u64;
    if lost > 0 || recovery.records.len() != config.tests as usize || recovery.tail.is_some() {
        out.errors.push(format!(
            "recovery holds {} of {} records, tail {:?}",
            recovery.records.len(),
            config.tests,
            recovery.tail
        ));
    }
    if anomaly_row(&recovered) != row {
        out.errors.push("recovered anomaly counts differ from the in-memory counts".into());
    }
    Ok((produced, recovering))
}

/// The `study-journaled` workload.
pub fn run_journaled(seed: u64, seconds: u64) -> Outcome {
    let cell = CELLS[JOURNALED_CELL];
    let config = cell_config(JOURNALED_CELL, seed, INSTANCES);
    let (mut produce, mut recover) = (Vec::new(), Vec::new());
    let round = |out: &mut Outcome| {
        let (p, r) = journaled_round(&config, cell, out)?;
        produce.push(p);
        recover.push(r);
        Ok(())
    };
    let warm_up = || set_up(seed, &[JOURNALED_CELL], 32, true);
    let (out, round_secs) = measure(seed, seconds, true, warm_up, u64::from(INSTANCES), round);
    if !produce.is_empty() {
        println!(
            "study-journaled: {} rounds of {INSTANCES} tests: produce {:.0} tests/s, recover {:.0} \
             records/s, round wall s {}",
            round_secs.len(),
            rate_over_rounds(f64::from(INSTANCES), &produce),
            rate_over_rounds(f64::from(INSTANCES), &recover),
            series(&round_secs)
        );
    }
    out
}

/// Names of the spans the study replays record.
pub const SPAN_TEST: &str = "harness.runner.run_one_test";
/// Re-analysis of a finished test's trace (what recovery does).
pub const SPAN_ANALYZE: &str = "core.analysis.analyze";
/// `completed_record_json`.
pub const SPAN_ENCODE: &str = "harness.journal.encode";
/// `Journal::append_payload`, fsync included.
pub const SPAN_APPEND: &str = "harness.journal.append";
/// `Journal::recover` plus `result_from_json` per record.
pub const SPAN_RECOVER: &str = "harness.journal.recover";

/// What a study replay measured besides its spans.
pub struct Replayed {
    /// Per cell: wall nanoseconds of each timed `run_one_test`.
    pub test_ns: Vec<Vec<u64>>,
    /// Per cell: simulator events over its tests.
    pub events: Vec<u64>,
    /// Per cell: wall nanoseconds over its tests.
    pub wall_ns: Vec<u64>,
    /// Trace operations re-analyzed, over all cells.
    pub ops: u64,
    /// Journal bytes appended.
    pub journal_bytes: u64,
    /// Records appended and recovered.
    pub records: u64,
}

/// Replays the study plane one test at a time on one thread, around the
/// public calls the harness makes: `run_one_test`, then `analyze` on its
/// trace, and — with `journal` — `completed_record_json`,
/// `Journal::append_payload` and finally `Journal::recover`. The first
/// `per_cell` instances of each listed cell, same seeds as the campaign.
pub fn replay(
    seed: u64,
    cells: &[usize],
    per_cell: usize,
    journal: bool,
    mut rec: Tracing<'_>,
) -> Result<Replayed, String> {
    let mut out = Replayed {
        test_ns: vec![Vec::new(); MATRIX.len()],
        events: vec![0; MATRIX.len()],
        wall_ns: vec![0; MATRIX.len()],
        ops: 0,
        journal_bytes: 0,
        records: 0,
    };
    let path = journal_path("replay");
    let log =
        journal.then(|| Journal::create(&path)).transpose().map_err(|e| format!("journal: {e}"))?;
    let mut op = 0u32;
    for &cell in cells {
        let config = cell_config(cell, seed, INSTANCES);
        let cell_id = CELLS[cell];
        for i in 0..per_cell {
            open(&mut rec, "study.test", op);
            let began = Instant::now();
            let result = spanned(&mut rec, SPAN_TEST, op, || run_instance(&config, i));
            let took = began.elapsed().as_nanos() as u64;
            out.test_ns[cell].push(took);
            out.wall_ns[cell] += took;
            out.events[cell] += result.sim_events;
            out.ops += result.trace.len() as u64;

            let checker = checker_config_for(&instance_config(&config, i));
            let again = spanned(&mut rec, SPAN_ANALYZE, op, || analyze(&result.trace, &checker));
            if again.observations != result.analysis.observations {
                return Err(format!(
                    "{cell_id} instance {i}: re-analysis differs from the result's"
                ));
            }
            if let Some(log) = &log {
                let instance_seed = instance_seed(&config, i);
                let payload = spanned(&mut rec, SPAN_ENCODE, op, || {
                    completed_record_json(cell_id, i as u32, instance_seed, &result)
                });
                out.journal_bytes += payload.len() as u64;
                out.records += 1;
                spanned(&mut rec, SPAN_APPEND, op, || log.append_payload(&payload))
                    .map_err(|e| format!("append: {e}"))?;
            }
            close(&mut rec);
            op += 1;
        }
    }
    if let Some(log) = log {
        drop(log);
        let rebuilt = spanned(&mut rec, SPAN_RECOVER, op, || -> Result<u64, String> {
            let recovery = Journal::recover(&path).map_err(|e| format!("recover: {e}"))?;
            let mut rebuilt = 0;
            for &cell in cells {
                let config = cell_config(cell, seed, INSTANCES);
                for (i, (_, payload)) in recovery.completed_for(CELLS[cell]) {
                    result_from_json(&instance_config(&config, i as usize), payload)
                        .map_err(|e| format!("record {i}: {e}"))?;
                    rebuilt += 1;
                }
            }
            Ok(rebuilt)
        })?;
        std::fs::remove_file(&path).ok();
        if rebuilt != out.records {
            return Err(format!("recovered {rebuilt} of {} journaled records", out.records));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_and_cell_names_line_up() {
        use conprobe::harness::journal::cell_id;
        for (name, (service, kind)) in CELLS.iter().zip(MATRIX) {
            // "gplus/test2" ↔ "gplus-t2"
            assert_eq!(cell_id(service, kind).replace("/test", "-t"), *name);
        }
        assert_eq!(CELLS[JOURNALED_CELL], "gplus-t2");
    }

    #[test]
    fn instance_seeds_are_the_campaigns_own() {
        let config = cell_config(3, 77, 4);
        let campaign = run_campaign(&config);
        for (i, result) in campaign.results.iter().enumerate() {
            assert_eq!(result.seed, instance_seed(&config, i));
            assert_eq!(run_instance(&config, i).trace, result.trace);
        }
    }

    #[test]
    fn table_hash_sees_every_field() {
        let row: AnomalyRow = [(1, 2), (0, 0), (3, 9), (0, 0), (0, 0), (4, 4)];
        let base = table_hash(&[("a", row), ("b", row)]);
        assert_eq!(base, table_hash(&[("a", row), ("b", row)]));
        let mut other = row;
        other[5].1 += 1;
        assert_ne!(base, table_hash(&[("a", row), ("b", other)]));
        assert_ne!(base, table_hash(&[("a", row), ("c", row)]));
        assert_ne!(base, table_hash(&[("b", row), ("a", row)]));
    }

    #[test]
    fn anomaly_rows_count_instances_and_observations() {
        let config = cell_config(5, 3, 6); // FB Feed Test 2: anomalous by design
        let campaign = run_campaign(&config);
        let row = anomaly_row(&campaign.results);
        assert!(row.iter().any(|(instances, _)| *instances > 0), "{row:?}");
        assert!(row.iter().all(|(instances, observations)| observations >= instances));
        let (failed, problems) = check_cell("fbfeed-t2", &campaign, &row);
        assert_eq!((failed, problems), (0, Vec::new()));
        // The same row on an arm that must be clean is a wrong answer.
        assert!(!check_cell("pbft-t2", &campaign, &row).1.is_empty());
    }

    #[test]
    fn journaled_replay_round_trips_and_names_its_spans() {
        let mut rec = crate::span::Recorder::new(1024);
        let out = replay(5, &[JOURNALED_CELL], 3, true, Some(&mut rec)).expect("replay");
        assert_eq!(out.records, 3);
        assert_eq!(out.test_ns[JOURNALED_CELL].len(), 3);
        assert!(out.journal_bytes > 3 * 1000 && out.events[JOURNALED_CELL] > 0);
        for name in [SPAN_TEST, SPAN_ANALYZE, SPAN_ENCODE, SPAN_APPEND] {
            assert_eq!(rec.totals(name).count, 3, "{name}");
        }
        assert_eq!(rec.totals(SPAN_RECOVER).count, 1);
        // The per-test root holds its four calls: its self time is small.
        let root = rec.totals("study.test");
        assert!(root.self_ns < root.total_ns / 2);
    }
}
