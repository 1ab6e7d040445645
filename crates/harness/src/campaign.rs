//! Measurement campaigns: many tests, fresh worlds, Tables I/II parameters.
//!
//! The paper ran each service for ~30 days, alternating four-day blocks of
//! Test 1 and Test 2, re-synchronizing clocks before every test, waiting a
//! rate-limit-imposed pause between tests, totalling ~1,000 instances per
//! (service, test) cell. A [`CampaignConfig`] captures one such cell; the
//! runner executes its instances in parallel across OS threads (each test
//! is an independent world with its own derived seed).

use crate::journal::{self, completed_record_json, crashed_record_json, Journal, Recovery};
use crate::proto::TestKind;
use crate::runner::{run_one_test, TestConfig, TestResult};
use conprobe_obs::Severity;
use conprobe_services::ServiceKind;
use conprobe_sim::{SimDuration, SimRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// One (service, test-kind) campaign cell.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The per-test configuration.
    pub test: TestConfig,
    /// Number of test instances.
    pub tests: u32,
    /// Master seed; each instance derives its own.
    pub seed: u64,
    /// Pause between successive tests (Tables I/II; recorded for the
    /// config tables — instances are isolated worlds, so the pause has no
    /// further effect here).
    pub between_tests: SimDuration,
    /// Instance indices run with the Tokyo-side replica partitioned (the FB
    /// Group transient-fault episodes).
    pub partition_tests: Vec<u32>,
    /// Worker threads (0 ⇒ all available parallelism).
    pub threads: usize,
    /// Instance indices whose worker deliberately panics (test hook for
    /// panic isolation and kill-and-resume drills; empty in real
    /// campaigns). A panicking instance is quarantined, not re-run.
    pub inject_panic: Vec<u32>,
}

impl CampaignConfig {
    /// The paper's campaign cell for `service` × `kind`, scaled to `tests`
    /// instances (the paper ran ~1,000 per cell; smaller counts keep the
    /// same statistics with wider error bars).
    ///
    /// `between_tests` reproduces Tables I/II: Test 1 — Google+ 34 min,
    /// Blogger 20 min, FB Feed/Group 5 min; Test 2 — 17/10/5/5 min.
    /// For FB Group Test 2, a contiguous run of partitioned instances plus
    /// a few isolated ones reproduces the paper's 15 content-divergence
    /// occurrences, "9 of which happened across a sequence of tests".
    pub fn paper(service: ServiceKind, kind: TestKind, tests: u32) -> Self {
        let between_min = match (service, kind) {
            (ServiceKind::GooglePlus, TestKind::Test1) => 34,
            (ServiceKind::Blogger, TestKind::Test1) => 20,
            (_, TestKind::Test1) => 5,
            (ServiceKind::GooglePlus, TestKind::Test2) => 17,
            (ServiceKind::Blogger, TestKind::Test2) => 10,
            (_, TestKind::Test2) => 5,
        };
        let partition_tests = if service == ServiceKind::FacebookGroup && tests >= 20 {
            // A contiguous partition episode (~0.6 % of instances, ≥ 5
            // tests) plus two isolated glitches.
            let episode_len = ((tests as f64 * 0.006).round() as u32).max(5).min(tests / 2);
            let start = tests * 2 / 5;
            let mut v: Vec<u32> = (start..start + episode_len).collect();
            v.push(tests / 10);
            v.push(tests * 4 / 5);
            v.sort_unstable();
            v.dedup();
            v
        } else {
            Vec::new()
        };
        CampaignConfig {
            test: TestConfig::paper(service, kind),
            tests,
            seed: 0xC0FFEE ^ ((service as u64) << 8) ^ (kind as u64),
            between_tests: SimDuration::from_secs(between_min * 60),
            partition_tests,
            threads: 0,
            inject_panic: Vec::new(),
        }
    }

    /// Overrides the master seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A quarantined test instance: its worker panicked and the panic was
/// caught, journaled (when a journal is attached), and excluded from the
/// cell's results instead of aborting the campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashedInstance {
    /// The instance index within the cell.
    pub index: u32,
    /// The seed the instance ran with.
    pub seed: u64,
    /// The captured panic message.
    pub panic: String,
}

/// The outcome of a campaign cell.
#[derive(Debug)]
pub struct CampaignResult {
    /// The configuration that produced this result.
    pub config: CampaignConfig,
    /// Per-instance results, in instance order. Quarantined crashes are
    /// excluded (see [`CampaignResult::crashed`]), so every downstream
    /// aggregation sees only tests that actually produced a trace.
    pub results: Vec<TestResult>,
    /// Instances whose worker panicked and was quarantined.
    pub crashed: Vec<CrashedInstance>,
    /// Instances spliced in from a recovered journal rather than re-run.
    pub resumed: usize,
}

impl CampaignResult {
    /// Number of completed (non-timed-out) tests.
    pub fn completed(&self) -> usize {
        self.results.iter().filter(|r| r.completed).count()
    }

    /// Total reads across all instances and agents.
    pub fn total_reads(&self) -> u64 {
        self.results.iter().map(|r| r.reads_per_agent.iter().map(|n| *n as u64).sum::<u64>()).sum()
    }

    /// Total writes across all instances.
    pub fn total_writes(&self) -> u64 {
        self.results.iter().map(|r| r.writes_total as u64).sum()
    }

    /// Mean reads per agent per test (Table I's "number of reads per agent
    /// per test (average)").
    pub fn mean_reads_per_agent(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        let per_agent: f64 = self
            .results
            .iter()
            .map(|r| {
                r.reads_per_agent.iter().map(|n| *n as f64).sum::<f64>()
                    / r.reads_per_agent.len().max(1) as f64
            })
            .sum();
        per_agent / self.results.len() as f64
    }
}

/// Runs every instance of a campaign cell, in parallel.
pub fn run_campaign(config: &CampaignConfig) -> CampaignResult {
    run_campaign_with_progress(config, None)
}

/// Like [`run_campaign`], invoking `progress(done, total)` from the worker
/// that finishes each instance — callers surface completed/total and
/// tests/sec so long cells aren't silent. The callback runs concurrently
/// from multiple worker threads.
pub fn run_campaign_with_progress(
    config: &CampaignConfig,
    progress: Option<&(dyn Fn(usize, usize) + Sync)>,
) -> CampaignResult {
    run_campaign_journaled(config, progress, "", None, None)
}

/// The per-instance test configuration: the shared cell config, plus the
/// Tokyo partition ([`TestConfig::with_tokyo_partition`]) for an instance
/// in `partition_tests`. Public because distributed-campaign workers must
/// derive the exact same per-instance config from their own copy of the
/// cell parameters.
pub fn instance_config(config: &CampaignConfig, i: usize) -> TestConfig {
    let test = config.test.clone();
    if config.partition_tests.contains(&(i as u32)) {
        test.with_tokyo_partition()
    } else {
        test
    }
}

/// Splices journal-recovered results into `slots` under the one rule
/// of [`journal::splice`] and returns how many instances were recovered.
fn splice_recovered(
    config: &CampaignConfig,
    cell: &str,
    recovery: &Recovery,
    root: &SimRng,
    slots: &mut [Option<TestResult>],
) -> usize {
    let mut resumed = 0;
    for (i, recorded) in recovery.completed_for(cell) {
        let Some(slot) = slots.get_mut(i as usize) else { continue };
        let derived = root.split_indexed("test", u64::from(i)).seed();
        *slot = journal::splice(
            cell,
            "instance",
            i,
            recorded,
            derived,
            &instance_config(config, i as usize),
        );
        resumed += usize::from(slot.is_some());
    }
    resumed
}

/// Throughput and ETA gauges for a (possibly resumed) campaign.
///
/// `finished` counts every filled slot *including* the `resumed` instances
/// spliced from a journal, but only the `finished - resumed` fresh tests
/// took wall-clock time in this process — dividing the total by this
/// process's elapsed time would report an inflated `campaign.tests_per_sec`
/// and a collapsed `campaign.eta_secs` right after a resume. The rate is
/// therefore computed over fresh completions only.
pub fn progress_rates(
    finished: usize,
    resumed: usize,
    total: usize,
    elapsed_secs: f64,
) -> (f64, f64) {
    let fresh = finished.saturating_sub(resumed) as f64;
    let rate = fresh / elapsed_secs.max(1e-9);
    let remaining = total.saturating_sub(finished) as f64;
    (rate, remaining / rate.max(1e-9))
}

/// Like [`run_campaign_with_progress`], with crash-safe durability: every
/// finished instance is appended to `journal` (when given) under the
/// `cell` identifier, and instances already present in `recovery` are
/// spliced in instead of re-run. Workers are panic-isolated: a panicking
/// instance becomes a quarantined [`CrashedInstance`] (journaled as a
/// `crashed` record) rather than aborting the campaign.
///
/// Workers do not wait for the disk: each writes its record and goes on
/// to the next test, while the calling thread fsyncs whenever anything is
/// unsynced, so batches form exactly when tests outpace the disk. The
/// function returns only once every record it wrote is durable or the
/// journal's (sticky) I/O error has been reported, once, on stderr. A
/// process killed mid-campaign loses at most the journal's unsynced
/// window of finished instances; a resume re-runs them byte-identically.
pub fn run_campaign_journaled(
    config: &CampaignConfig,
    progress: Option<&(dyn Fn(usize, usize) + Sync)>,
    cell: &str,
    journal: Option<&Journal>,
    recovery: Option<&Recovery>,
) -> CampaignResult {
    let n = config.tests as usize;
    let root = SimRng::new(config.seed);
    let mut slots: Vec<Option<TestResult>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let resumed = match recovery {
        Some(r) => splice_recovered(config, cell, r, &root, &mut slots),
        None => 0,
    };
    // Only the instances the journal doesn't already cover are run.
    let pending: Vec<usize> = (0..n).filter(|&i| slots[i].is_none()).collect();
    let slots = Mutex::new(slots);
    let crashed: Mutex<Vec<CrashedInstance>> = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(resumed);

    // Campaign-level telemetry rides on the same sink the per-test worlds
    // use. Wall-clock only — it never feeds back into any simulation.
    let obs = config.test.obs.clone();
    let cell_span = obs.as_ref().map(|s| s.metrics.span("campaign.cell"));
    let started = std::time::Instant::now();
    let campaign_progress = |finished: usize| {
        if let Some(sink) = &obs {
            sink.metrics.counter("campaign.tests.completed").inc();
            let elapsed = started.elapsed().as_secs_f64();
            let (rate, eta) = progress_rates(finished, resumed, n, elapsed);
            sink.metrics.gauge("campaign.tests_per_sec").set(rate);
            sink.metrics.gauge("campaign.eta_secs").set(eta);
        }
    };

    let workers = if config.threads == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4)
    } else {
        config.threads
    }
    .min(pending.len().max(1));

    // The journal's I/O errors are sticky, so the first one says it all.
    let reported = AtomicBool::new(false);
    let report_once = |e: std::io::Error| {
        if !reported.swap(true, Ordering::Relaxed) {
            eprintln!("journal: append failed for {cell}; the campaign goes on unjournaled: {e}");
        }
    };
    let counted = obs.as_ref().zip(journal).map(|(sink, j)| (sink, j, j.counts()));

    // One worker. With a journal it writes each record, hands the
    // record's sequence number to the syncer and moves on — it never
    // waits for its own fsync.
    let work = |log: Option<(&Journal, mpsc::Sender<u64>)>| {
        let journal_record = |payload: &dyn Fn() -> String| {
            let Some((journal, written)) = &log else { return };
            match journal.write(&payload()) {
                Ok(seq) => written.send(seq).expect("the syncer receives until every worker ends"),
                Err(e) => report_once(e),
            }
        };
        loop {
            let p = next.fetch_add(1, Ordering::Relaxed);
            let Some(&i) = pending.get(p) else { return };
            let seed = root.split_indexed("test", i as u64).seed();
            // The slot mutex is taken only *after* the test (and only for
            // the assignment), so a panicking instance cannot poison it.
            let run = run_instance(config, i as u32, seed);
            journal_record(&|| run.record(cell));
            match run.outcome {
                Ok(result) => slots.lock().unwrap_or_else(|p| p.into_inner())[i] = Some(result),
                Err(msg) => {
                    if let Some(sink) = &obs {
                        sink.metrics.counter("campaign.tests.crashed").inc();
                        sink.log.record(
                            0,
                            Severity::Error,
                            "campaign",
                            format!("instance {i} panicked: {msg}"),
                        );
                    }
                    crashed.lock().unwrap_or_else(|p| p.into_inner()).push(CrashedInstance {
                        index: i as u32,
                        seed,
                        panic: msg,
                    });
                }
            }
            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
            campaign_progress(finished);
            if let Some(cb) = progress {
                cb(finished, n);
            }
        }
    };

    std::thread::scope(|scope| {
        let (written, to_sync) = mpsc::channel::<u64>();
        for _ in 0..workers {
            let log = journal.map(|journal| (journal, written.clone()));
            scope.spawn(|| work(log));
        }
        drop(written);
        let Some(journal) = journal else { return };
        // The syncer, on the calling thread, which would otherwise idle
        // until the workers are joined: one fsync covers whatever was
        // written while the last one ran, so batches form only when tests
        // outpace the disk. It ends — the campaign's durability barrier —
        // once every worker has dropped its sender and every record sent
        // has been waited for.
        while let Ok(seq) = to_sync.recv() {
            let seq = to_sync.try_iter().fold(seq, u64::max);
            if let Err(e) = journal.wait_durable(seq) {
                report_once(e);
            }
        }
    });
    drop(cell_span);
    if let Some((sink, journal, (records, syncs))) = counted {
        let (records_now, syncs_now) = journal.counts();
        sink.metrics.counter("campaign.journal.records").add(records_now - records);
        sink.metrics.counter("campaign.journal.syncs").add(syncs_now - syncs);
    }

    let results: Vec<TestResult> =
        slots.into_inner().unwrap_or_else(|p| p.into_inner()).into_iter().flatten().collect();
    let mut crashed = crashed.into_inner().unwrap_or_else(|p| p.into_inner());
    crashed.sort_unstable_by_key(|c| c.index);
    CampaignResult { config: config.clone(), results, crashed, resumed }
}

/// One finished instance of a cell: its result, or the panic its worker
/// was quarantined with.
pub struct InstanceRun {
    index: u32,
    seed: u64,
    /// The result, or the captured panic message.
    pub outcome: Result<TestResult, String>,
}

impl InstanceRun {
    /// The instance's journal record payload — the same bytes whichever
    /// process ran it.
    pub fn record(&self, cell: &str) -> String {
        match &self.outcome {
            Ok(result) => completed_record_json(cell, self.index, self.seed, result),
            Err(panic) => crashed_record_json(cell, self.index, self.seed, panic),
        }
    }
}

/// Runs instance `index` of a cell under its derived `seed` the way every
/// campaign worker does, local or distributed: the `inject_panic` hook,
/// then the test, with a panic caught and kept as the quarantine message
/// instead of tearing down the caller.
pub fn run_instance(config: &CampaignConfig, index: u32, seed: u64) -> InstanceRun {
    let test = instance_config(config, index as usize);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if config.inject_panic.contains(&index) {
            panic!("injected panic (instance {index})");
        }
        run_one_test(&test, seed)
    }));
    InstanceRun { index, seed, outcome: outcome.map_err(|payload| panic_message(payload.as_ref())) }
}

/// Best-effort rendering of a caught panic payload (`&str` and `String`
/// cover everything `panic!` produces in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conprobe_core::AnomalyKind;

    #[test]
    fn paper_config_reproduces_table_pauses() {
        let c = CampaignConfig::paper(ServiceKind::GooglePlus, TestKind::Test1, 10);
        assert_eq!(c.between_tests, SimDuration::from_secs(34 * 60));
        let c = CampaignConfig::paper(ServiceKind::Blogger, TestKind::Test2, 10);
        assert_eq!(c.between_tests, SimDuration::from_secs(10 * 60));
        let c = CampaignConfig::paper(ServiceKind::FacebookFeed, TestKind::Test1, 10);
        assert_eq!(c.between_tests, SimDuration::from_secs(5 * 60));
    }

    #[test]
    fn all_eight_cells_derive_distinct_master_seeds() {
        let services = [
            ServiceKind::GooglePlus,
            ServiceKind::Blogger,
            ServiceKind::FacebookFeed,
            ServiceKind::FacebookGroup,
        ];
        let mut seeds = std::collections::HashSet::new();
        for service in services {
            for kind in [TestKind::Test1, TestKind::Test2] {
                seeds.insert(CampaignConfig::paper(service, kind, 1).seed);
            }
        }
        assert_eq!(seeds.len(), 8, "every (service, kind) cell needs its own seed: {seeds:?}");
    }

    #[test]
    fn fbgroup_partition_plan_has_contiguous_episode() {
        let c = CampaignConfig::paper(ServiceKind::FacebookGroup, TestKind::Test2, 100);
        assert!(c.partition_tests.len() >= 5);
        // At least one run of 5 consecutive indices.
        let longest = c
            .partition_tests
            .windows(2)
            .fold((1usize, 1usize), |(best, cur), w| {
                let cur = if w[1] == w[0] + 1 { cur + 1 } else { 1 };
                (best.max(cur), cur)
            })
            .0;
        assert!(longest >= 5, "episode must be contiguous: {:?}", c.partition_tests);
        // Other services get no partitions.
        let c = CampaignConfig::paper(ServiceKind::Blogger, TestKind::Test2, 100);
        assert!(c.partition_tests.is_empty());
    }

    #[test]
    fn small_blogger_campaign_is_clean_and_ordered() {
        let mut c = CampaignConfig::paper(ServiceKind::Blogger, TestKind::Test1, 4);
        c.threads = 2;
        let out = run_campaign(&c);
        assert_eq!(out.results.len(), 4);
        assert_eq!(out.completed(), 4);
        assert_eq!(out.total_writes(), 24, "6 writes per test");
        assert!(out.results.iter().all(|r| r.analysis.is_clean()));
        assert!(out.mean_reads_per_agent() > 1.0);
        // Per-instance seeds differ.
        let seeds: std::collections::HashSet<_> = out.results.iter().map(|r| r.seed).collect();
        assert_eq!(seeds.len(), 4);
    }

    #[test]
    fn campaign_results_are_reproducible() {
        let mut c = CampaignConfig::paper(ServiceKind::Blogger, TestKind::Test2, 3);
        c.threads = 3;
        let a = run_campaign(&c);
        let b = run_campaign(&c);
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.trace, y.trace);
        }
    }

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("conprobe-campaign-{tag}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn panicking_instance_is_quarantined_not_fatal() {
        let mut c = CampaignConfig::paper(ServiceKind::Blogger, TestKind::Test2, 4);
        c.threads = 2;
        c.inject_panic = vec![1];
        let out = run_campaign(&c);
        assert_eq!(out.results.len(), 3, "three instances survive");
        assert_eq!(out.crashed.len(), 1);
        assert_eq!(out.crashed[0].index, 1);
        assert!(out.crashed[0].panic.contains("injected panic"), "{}", out.crashed[0].panic);
        // The surviving instances are the non-panicking ones, untouched.
        let mut clean = c.clone();
        clean.inject_panic.clear();
        let full = run_campaign(&clean);
        let survivors: Vec<_> =
            full.results.iter().enumerate().filter(|(i, _)| *i != 1).map(|(_, r)| r).collect();
        for (got, want) in out.results.iter().zip(survivors) {
            assert_eq!(got.trace, want.trace);
        }
    }

    #[test]
    fn journaled_campaign_replays_entirely_from_its_own_journal() {
        let path = temp_journal("replay");
        let mut c = CampaignConfig::paper(ServiceKind::Blogger, TestKind::Test2, 3);
        c.threads = 3;
        let journal = Journal::create(&path).unwrap();
        let live = run_campaign_journaled(&c, None, "blogger/test2", Some(&journal), None);
        drop(journal);
        assert_eq!(live.resumed, 0);
        let recovery = Journal::recover(&path).unwrap();
        assert_eq!(recovery.records.len(), 3);
        assert!(recovery.tail.is_none());
        // Resume with a complete journal: nothing re-runs, results match.
        let replay = run_campaign_journaled(&c, None, "blogger/test2", None, Some(&recovery));
        assert_eq!(replay.resumed, 3);
        assert_eq!(replay.results.len(), 3);
        for (a, b) in live.results.iter().zip(&replay.results) {
            assert_eq!(a.trace, b.trace);
            assert_eq!(a.analysis.observations, b.analysis.observations);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn campaign_returns_only_after_its_last_record_is_durable() {
        let path = temp_journal("barrier");
        let mut c = CampaignConfig::paper(ServiceKind::Blogger, TestKind::Test2, 8);
        c.threads = 2;
        let sink = conprobe_obs::ObsSink::new();
        c.test.obs = Some(sink.clone());
        let journal = Journal::create(&path).unwrap();
        run_campaign_journaled(&c, None, "blogger/test2", Some(&journal), None);
        // The journal is still open: nothing here relies on a drop.
        let recovery = Journal::recover(&path).unwrap();
        assert_eq!(recovery.completed_for("blogger/test2").len(), 8);
        assert!(recovery.tail.is_none());
        // Nothing is left to sync: a wait for the last record issues no fsync.
        let (written, syncs) = journal.counts();
        assert_eq!(written, 8);
        journal.wait_durable(written).unwrap();
        assert_eq!(journal.counts(), (written, syncs));
        assert!((1..=8).contains(&syncs), "{syncs} fsyncs for 8 records");
        assert_eq!(sink.metrics.counter("campaign.journal.records").get(), written);
        assert_eq!(sink.metrics.counter("campaign.journal.syncs").get(), syncs);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn campaign_outlives_a_journal_that_cannot_be_written() {
        let full = std::path::Path::new("/dev/full");
        if !full.exists() {
            return; // platform without /dev/full; covered on CI (Linux)
        }
        let mut c = CampaignConfig::paper(ServiceKind::Blogger, TestKind::Test2, 8);
        c.threads = 2;
        let journal = Journal::create(full).unwrap();
        let out = run_campaign_journaled(&c, None, "blogger/test2", Some(&journal), None);
        assert_eq!(out.results.len(), 8, "a dead journal must not cost or hang a test");
        assert_eq!(journal.counts(), (0, 0));
    }

    #[test]
    fn interrupted_campaign_resumes_to_identical_results() {
        let path = temp_journal("resume");
        let mut c = CampaignConfig::paper(ServiceKind::Blogger, TestKind::Test2, 4);
        c.threads = 1;
        // First attempt: instance 2's worker panics (stand-in for a crash
        // mid-campaign); its siblings complete and are journaled.
        let mut wounded = c.clone();
        wounded.inject_panic = vec![2];
        let journal = Journal::create(&path).unwrap();
        let first = run_campaign_journaled(&wounded, None, "blogger/test2", Some(&journal), None);
        drop(journal);
        assert_eq!(first.crashed.len(), 1);
        assert_eq!(first.results.len(), 3);
        // Resume without the injected fault: the crashed record is
        // retried, the three completed records are spliced.
        let (journal, recovery) = Journal::resume(&path).unwrap();
        let resumed =
            run_campaign_journaled(&c, None, "blogger/test2", Some(&journal), Some(&recovery));
        drop(journal);
        assert_eq!(resumed.resumed, 3);
        assert!(resumed.crashed.is_empty());
        // Byte-identical to the same campaign run uninterrupted.
        let uninterrupted = run_campaign(&c);
        assert_eq!(resumed.results.len(), uninterrupted.results.len());
        for (a, b) in resumed.results.iter().zip(&uninterrupted.results) {
            assert_eq!(a.trace, b.trace);
            assert_eq!(a.analysis.observations, b.analysis.observations);
            assert_eq!(a.duration_secs, b.duration_secs);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn progress_rates_count_only_fresh_completions() {
        // Unresumed campaign: plain throughput.
        let (rate, eta) = progress_rates(5, 0, 10, 2.0);
        assert_eq!(rate, 2.5);
        assert_eq!(eta, 2.0);
        // Resumed campaign: 8 spliced instances took no wall-clock time
        // here, so only the 9th (fresh) completion counts toward rate.
        let (rate, eta) = progress_rates(9, 8, 10, 2.0);
        assert_eq!(rate, 0.5);
        assert_eq!(eta, 2.0);
        // Right after a resume, before any fresh completion, the rate is
        // zero rather than `resumed / epsilon`.
        let (rate, _) = progress_rates(8, 8, 10, 1e-3);
        assert_eq!(rate, 0.0);
    }

    #[test]
    fn resumed_campaign_rate_gauge_is_not_inflated() {
        let path = temp_journal("rategauge");
        let mut c = CampaignConfig::paper(ServiceKind::Blogger, TestKind::Test2, 6);
        c.threads = 1;
        // First attempt: the last two instances panic, leaving a journal
        // with 4 of 6 completed.
        let mut wounded = c.clone();
        wounded.inject_panic = vec![4, 5];
        let journal = Journal::create(&path).unwrap();
        run_campaign_journaled(&wounded, None, "blogger/test2", Some(&journal), None);
        drop(journal);
        // Resume with a metrics sink; stall ~2 s after the first fresh
        // completion so the final gauge reading divides by a non-trivial
        // elapsed time.
        let sink = conprobe_obs::ObsSink::new();
        c.test.obs = Some(sink.clone());
        let (journal, recovery) = Journal::resume(&path).unwrap();
        let resumed_at = recovery.completed_for("blogger/test2").len();
        let slow_first_fresh = move |finished: usize, _total: usize| {
            if finished == resumed_at + 1 {
                std::thread::sleep(std::time::Duration::from_secs(2));
            }
        };
        let out = run_campaign_journaled(
            &c,
            Some(&slow_first_fresh),
            "blogger/test2",
            Some(&journal),
            Some(&recovery),
        );
        drop(journal);
        assert_eq!(out.resumed, 4);
        assert_eq!(out.results.len(), 6);
        // Two fresh tests over ≥2 s of wall clock: the honest rate is
        // ≤1 test/sec. The old computation divided all six (4 recovered
        // + 2 fresh) by the same elapsed time, reporting ~3/sec.
        let rate = sink.metrics.gauge("campaign.tests_per_sec").get();
        assert!(rate > 0.0, "rate gauge never set");
        assert!(rate < 1.5, "resumed instances inflated the rate gauge: {rate}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recovered_seed_mismatch_forces_rerun() {
        let path = temp_journal("seedmismatch");
        let mut c = CampaignConfig::paper(ServiceKind::Blogger, TestKind::Test2, 2);
        c.threads = 2;
        let journal = Journal::create(&path).unwrap();
        run_campaign_journaled(&c, None, "blogger/test2", Some(&journal), None);
        drop(journal);
        let recovery = Journal::recover(&path).unwrap();
        // A different master seed derives different instance seeds, so
        // nothing from the old journal may be spliced.
        let other = c.clone().with_seed(0xD15EA5E);
        let out = run_campaign_journaled(&other, None, "blogger/test2", None, Some(&recovery));
        assert_eq!(out.resumed, 0, "stale-seed records must be re-run");
        assert_eq!(out.results.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn partitioned_instances_follow_the_plan() {
        let mut c = CampaignConfig::paper(ServiceKind::FacebookGroup, TestKind::Test2, 25);
        c.partition_tests = vec![1, 3];
        c.threads = 2;
        c.tests = 5;
        let out = run_campaign(&c);
        let flags: Vec<bool> = out.results.iter().map(|r| r.partitioned).collect();
        assert_eq!(flags, vec![false, true, false, true, false]);
        // Partitioned instances diverge; unpartitioned mostly don't.
        assert!(out.results[1].has(AnomalyKind::ContentDivergence));
        assert!(out.results[3].has(AnomalyKind::ContentDivergence));
    }
}
