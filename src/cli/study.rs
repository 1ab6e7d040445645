//! The simulated-study commands — `run`, `analyze`, `campaign`, `trace`,
//! `journal inspect`, `services` — plus the argument groups and the
//! journal/report plumbing every command family shares (`repro` has its
//! own module).

use super::args::{parse_level, parse_test, Args};
use super::{write_file, write_metrics, CliError};
use conprobe_core::checkers::WfrMode;
use conprobe_core::{analyze, timeline, AnomalyKind, CheckerConfig, TestTrace, Verdict};
use conprobe_harness::campaign::{run_campaign_journaled, CampaignResult, CrashedInstance};
use conprobe_harness::journal::{self, DecodedResult, Journal, Recovery};
use conprobe_harness::proto::{test1_trigger_pairs, TestKind};
use conprobe_harness::runner::{run_one_test, TestConfig, TestResult};
use conprobe_harness::{stats, CampaignConfig};
use conprobe_json::{FromJson, ToJson};
use conprobe_obs::{EventLog, Severity};
use conprobe_services::ServiceKind;
use conprobe_sim::ObsSink;
use conprobe_store::PostId;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a test-running command measures: `--service`, `--test`, `--seed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestSpec {
    /// Service under test.
    pub service: ServiceKind,
    /// Test design.
    pub kind: TestKind,
    /// Seed.
    pub seed: u64,
}

impl TestSpec {
    pub(super) fn parse(a: &Args) -> Result<Self, CliError> {
        Ok(TestSpec {
            service: a.service()?,
            kind: a.get("--test", parse_test)?.unwrap_or(TestKind::Test1),
            seed: a.seed()?,
        })
    }

    /// The campaign cell `campaign`, `dispatch`, `worker` and `repro`'s
    /// grid must agree on, with the `CONPROBE_INJECT_PANIC` drill hook
    /// applied.
    pub(super) fn campaign_config(&self, tests: u32) -> CampaignConfig {
        let mut config = CampaignConfig::paper(self.service, self.kind, tests).with_seed(self.seed);
        config.inject_panic = injected_panics();
        config
    }
}

/// `--tests` for the campaign-shaped commands (default 20).
pub(super) fn campaign_tests(a: &Args) -> Result<u32, CliError> {
    a.tests(20)
}

/// `--journal FILE | --resume FILE`.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalArgs {
    /// Journal every finished unit to this path (fresh journal).
    pub journal_out: Option<String>,
    /// Resume from (and keep appending to) this journal.
    pub resume: Option<String>,
}

impl JournalArgs {
    pub(super) fn parse(a: &Args) -> Result<Self, CliError> {
        let parsed = JournalArgs { journal_out: a.text("--journal"), resume: a.text("--resume") };
        if parsed.journal_out.is_some() && parsed.resume.is_some() {
            return Err(CliError(
                "--journal starts a fresh journal and --resume continues one; pass exactly one"
                    .into(),
            ));
        }
        Ok(parsed)
    }

    /// Opens the journal implied by `--journal` (fresh) or `--resume`
    /// (recover + continue). Recovery diagnostics go to stderr so stdout
    /// stays byte-comparable between resumed and uninterrupted runs.
    pub(super) fn open(&self) -> Result<OpenJournal, CliError> {
        match (&self.journal_out, &self.resume) {
            (None, None) => Ok(OpenJournal { journal: None, recovery: None }),
            (Some(path), None) => {
                // `Journal::create` truncates, and a mistyped flag must not
                // cost a prior campaign its durable records.
                if std::fs::metadata(path).is_ok_and(|m| m.is_file() && m.len() > 0) {
                    return Err(CliError(format!(
                        "journal {path}: already holds records; pass --resume {path} to continue \
                         it, or remove the file to start over"
                    )));
                }
                let j =
                    Journal::create(path).map_err(|e| CliError(format!("journal {path}: {e}")))?;
                Ok(OpenJournal { journal: Some(j), recovery: None })
            }
            (_, Some(path)) => {
                let (j, r) =
                    Journal::resume(path).map_err(|e| CliError(format!("resume {path}: {e}")))?;
                if let Some(tail) = &r.tail {
                    eprintln!("journal {path}: {tail}");
                }
                if r.duplicates > 0 {
                    eprintln!("journal {path}: {} superseded duplicate record(s)", r.duplicates);
                }
                eprintln!("journal {path}: recovered {} record(s); continuing", r.records.len());
                Ok(OpenJournal { journal: Some(j), recovery: Some(r) })
            }
        }
    }
}

/// What [`JournalArgs::open`] yields: the journal to append to and what
/// a `--resume` recovered from it (both `None` when not journaling).
pub(super) struct OpenJournal {
    pub journal: Option<Journal>,
    pub recovery: Option<Recovery>,
}

impl OpenJournal {
    /// One cell whose units (sweep levels, probe instances) the CLI runs
    /// itself, one at a time; `noun` names a unit in the narration.
    pub(super) fn units<'a>(&'a self, cell: &'a str, noun: &'static str) -> JournaledUnits<'a> {
        let recovered = self.recovery.as_ref().map(|r| r.completed_for(cell)).unwrap_or_default();
        JournaledUnits { journal: self.journal.as_ref(), recovered, cell, noun }
    }
}

pub(super) struct JournaledUnits<'a> {
    journal: Option<&'a Journal>,
    recovered: BTreeMap<u32, (u64, &'a DecodedResult)>,
    cell: &'a str,
    noun: &'static str,
}

impl JournaledUnits<'_> {
    /// Splices unit `index` when its recovered record passes
    /// [`journal::splice`] — the rule `campaign` applies — and otherwise
    /// runs it and appends the result. `config` is what a spliced trace
    /// is re-analyzed under.
    pub(super) fn splice_or_run(
        &self,
        index: u32,
        seed: u64,
        config: &TestConfig,
        run: impl FnOnce() -> Result<TestResult, CliError>,
    ) -> Result<TestResult, CliError> {
        let (cell, noun) = (self.cell, self.noun);
        let recorded = self.recovered.get(&index).copied();
        if let Some(r) =
            recorded.and_then(|rec| journal::splice(cell, noun, index, rec, seed, config))
        {
            eprintln!("  {noun} {index} spliced from the journal");
            return Ok(r);
        }
        let r = run()?;
        if let Some(j) = self.journal {
            if let Err(e) = j.append_completed(cell, index, seed, &r) {
                eprintln!("journal: append failed for {cell} {noun} {index}: {e}");
            }
        }
        Ok(r)
    }
}

/// Test hook shared with CI's kill-and-resume drill:
/// `CONPROBE_INJECT_PANIC=i,j,…` makes the campaign workers for those
/// instance indices panic (each is quarantined, not fatal).
fn injected_panics() -> Vec<u32> {
    std::env::var("CONPROBE_INJECT_PANIC")
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .unwrap_or_default()
}

/// Appends quarantine lines for crashed instances (stdout — a campaign
/// with quarantined tests must say so in its report).
pub(super) fn report_crashed(out: &mut String, crashed: &[CrashedInstance]) {
    for c in crashed {
        let _ = writeln!(
            out,
            "  QUARANTINED instance {} (seed {:#x}): worker panicked: {}",
            c.index, c.seed, c.panic
        );
    }
}

/// The stderr progress gauge of `campaign` and `dispatch` (stdout carries
/// the report): completed count and throughput, overwritten in place.
pub(super) fn progress_gauge() -> impl Fn(usize, usize) + Sync {
    let started = std::time::Instant::now();
    move |done, total| {
        let rate = done as f64 / started.elapsed().as_secs_f64().max(1e-9);
        eprint!("\r  {done}/{total} tests ({rate:.1} tests/sec)");
        if done == total {
            eprintln!();
        }
    }
}

/// The report of one campaign cell. `dispatch` promises stdout
/// byte-identical to `campaign`, so both render through here.
pub(super) fn render_campaign_report(
    out: &mut String,
    spec: &TestSpec,
    tests: u32,
    result: &CampaignResult,
) {
    if result.resumed > 0 {
        eprintln!("  {} instance(s) spliced from the journal", result.resumed);
    }
    let _ = writeln!(
        out,
        "{} {} × {tests}: {}/{tests} completed, {} reads, {} writes",
        spec.service,
        spec.kind,
        result.completed(),
        result.total_reads(),
        result.total_writes()
    );
    report_crashed(out, &result.crashed);
    for kind in AnomalyKind::ALL {
        let p = stats::prevalence(&result.results, kind);
        if p > 0.0 {
            let _ = writeln!(out, "  {kind:<22} {p:>5.1}% of tests");
        }
    }
}

pub(super) fn report_analysis(
    out: &mut String,
    analysis: &conprobe_core::TestAnalysis<PostId>,
    trace: &TestTrace<PostId>,
    whole_state_reads: bool,
    show_timeline: bool,
) {
    let _ =
        writeln!(out, "operations: {} writes, {} reads", trace.write_count(), trace.read_count());
    for kind in AnomalyKind::ALL {
        let n = analysis.count(kind);
        if n > 0 {
            let _ = writeln!(out, "  {kind}: {n} observation(s)");
        }
    }
    if analysis.is_clean() {
        let _ = writeln!(out, "  no anomalies");
    }
    let _ = writeln!(out, "{}", Verdict::from_analysis(analysis, whole_state_reads));
    if show_timeline {
        let _ = writeln!(out, "\n{}", timeline::render(trace, &analysis.observations, 72));
    }
}

/// `conprobe run`: one test instance and its report.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// What to run.
    pub spec: TestSpec,
    /// Wrap agents in a session guard.
    pub guard: bool,
    /// Enable the white-box replica probe.
    pub whitebox: bool,
    /// Print the ASCII timeline.
    pub show_timeline: bool,
    /// Dump the trace as JSON to this path.
    pub json_out: Option<String>,
    /// Dump the metrics registry as JSON to this path.
    pub metrics_out: Option<String>,
}

impl RunArgs {
    pub(super) fn parse(a: &Args) -> Result<Self, CliError> {
        Ok(RunArgs {
            spec: TestSpec::parse(a)?,
            guard: a.on("--guard"),
            whitebox: a.on("--whitebox"),
            show_timeline: a.on("--timeline"),
            json_out: a.text("--json"),
            metrics_out: a.text("--metrics"),
        })
    }

    pub(super) fn execute(&self, out: &mut String) -> Result<(), CliError> {
        let TestSpec { service, kind, seed } = self.spec;
        let mut config = TestConfig::paper(service, kind);
        config.use_guard = self.guard;
        config.whitebox = self.whitebox;
        // No event log: the registry is the product of a `--metrics` run.
        let sink = ObsSink::default();
        config.obs = self.metrics_out.as_ref().map(|_| sink.clone());
        let r = run_one_test(&config, seed);
        let _ = writeln!(
            out,
            "{service} {kind} (seed {seed}): {} in {:.1}s",
            if r.completed { "completed" } else { "TIMED OUT" },
            r.duration_secs
        );
        report_analysis(
            out,
            &r.analysis,
            &r.trace,
            service.reads_whole_state(),
            self.show_timeline,
        );
        if let Some(report) = &r.whitebox {
            let _ = writeln!(
                out,
                "white-box: {} samples over {} replicas; true content divergence: {}, \
                 true order divergence: {}",
                report.samples.len(),
                report.replicas,
                report.content_presence,
                report.order_presence
            );
        }
        if let Some(path) = &self.json_out {
            write_file(path, r.trace.to_pretty())?;
            let _ = writeln!(out, "trace written to {path}");
        }
        write_metrics(out, &self.metrics_out, || sink.metrics.to_json().to_pretty())
    }
}

/// `conprobe analyze`: re-check a previously exported trace JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeArgs {
    /// Path to the trace JSON.
    pub path: String,
    /// Interpret as a Test 1 trace (enables the trigger-pair WFR mode).
    pub test1: bool,
}

impl AnalyzeArgs {
    pub(super) fn parse(a: &Args) -> Result<Self, CliError> {
        let path = a.positional.first().ok_or(CliError("analyze requires a trace path".into()))?;
        Ok(AnalyzeArgs { path: path.to_string(), test1: a.on("--test1") })
    }

    pub(super) fn execute(&self, out: &mut String) -> Result<(), CliError> {
        let path = &self.path;
        let json =
            std::fs::read_to_string(path).map_err(|e| CliError(format!("read {path}: {e}")))?;
        let trace: TestTrace<PostId> =
            FromJson::from_json_str(&json).map_err(|e| CliError(format!("parse {path}: {e}")))?;
        let config = if self.test1 {
            // Test 1's trigger pairs chain each agent to the next, up to the
            // highest agent id the trace holds. Every Test 1 agent writes,
            // so an id past the operation count is no Test 1 trace, and it
            // would size that chain.
            let agents = trace.agents().last().map_or(0, |a| a.0 as usize + 1);
            if agents > trace.ops().len() {
                return Err(CliError(format!(
                    "analyze {path} --test1: agent ids run past the trace's {} operation(s)",
                    trace.ops().len()
                )));
            }
            CheckerConfig { wfr_mode: WfrMode::TriggerPairs(test1_trigger_pairs(agents as u32)) }
        } else {
            CheckerConfig::default()
        };
        let analysis = analyze(&trace, &config);
        let _ = writeln!(out, "analyzed {path}:");
        // A trace file does not name the arm that wrote it, so its reads
        // may be a ranked selection: a divergence refutes only "strong".
        report_analysis(out, &analysis, &trace, false, true);
        Ok(())
    }
}

/// `conprobe campaign`: a small campaign cell, summarized.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignArgs {
    /// What to run.
    pub spec: TestSpec,
    /// Number of instances.
    pub tests: u32,
    /// Dump the metrics registry as JSON to this path.
    pub metrics_out: Option<String>,
    /// Where finished instances are journaled.
    pub journal: JournalArgs,
}

impl CampaignArgs {
    pub(super) fn parse(a: &Args) -> Result<Self, CliError> {
        Ok(CampaignArgs {
            spec: TestSpec::parse(a)?,
            tests: campaign_tests(a)?,
            metrics_out: a.text("--metrics"),
            journal: JournalArgs::parse(a)?,
        })
    }

    pub(super) fn execute(&self, out: &mut String) -> Result<(), CliError> {
        let mut config = self.spec.campaign_config(self.tests);
        let sink = ObsSink::default();
        config.test.obs = self.metrics_out.as_ref().map(|_| sink.clone());
        let journaled = self.journal.open()?;
        let result = run_campaign_journaled(
            &config,
            Some(&progress_gauge()),
            &journal::cell_id(self.spec.service, self.spec.kind),
            journaled.journal.as_ref(),
            journaled.recovery.as_ref(),
        );
        render_campaign_report(out, &self.spec, self.tests, &result);
        write_metrics(out, &self.metrics_out, || sink.metrics.to_json().to_pretty())
    }
}

/// `conprobe trace`: replay one test with the structured event log on,
/// printing the sim-time-stamped events to stderr and a summary to stdout.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArgs {
    /// What to run.
    pub spec: TestSpec,
    /// Minimum severity to record.
    pub level: Severity,
    /// Only record events whose target starts with this prefix.
    pub target: Option<String>,
    /// Event-log ring capacity (older events are evicted).
    pub cap: usize,
}

impl TraceArgs {
    pub(super) fn parse(a: &Args) -> Result<Self, CliError> {
        Ok(TraceArgs {
            spec: TestSpec::parse(a)?,
            level: a.get("--level", parse_level)?.unwrap_or(Severity::Info),
            target: a.text("--target"),
            cap: a.num("--cap")?.unwrap_or(10_000),
        })
    }

    pub(super) fn execute(&self, out: &mut String) -> Result<(), CliError> {
        let TestSpec { service, kind, seed } = self.spec;
        let mut log = EventLog::new(self.cap).with_min_severity(self.level);
        if let Some(prefix) = &self.target {
            log = log.with_target_prefix(prefix.clone());
        }
        let sink = ObsSink::with_log(log);
        let mut config = TestConfig::paper(service, kind);
        config.obs = Some(sink.clone());
        let r = run_one_test(&config, seed);
        let events = sink.log.drain();
        for e in &events {
            eprintln!("{}", e.render());
        }
        let _ = writeln!(
            out,
            "{service} {kind} (seed {seed}): {} in {:.1}s; {} event(s) at {} or above{} \
             ({} evicted)",
            if r.completed { "completed" } else { "TIMED OUT" },
            r.duration_secs,
            events.len(),
            self.level,
            self.target.as_ref().map(|t| format!(" under '{t}'")).unwrap_or_default(),
            sink.log.evicted(),
        );
        report_analysis(out, &r.analysis, &r.trace, service.reads_whole_state(), false);
        Ok(())
    }
}

/// `conprobe journal inspect`: record counts, per-cell completion and
/// corrupt-tail diagnostics of a campaign journal.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalInspectArgs {
    /// Path to the journal file.
    pub path: String,
}

impl JournalInspectArgs {
    pub(super) fn parse(a: &Args) -> Result<Self, CliError> {
        match a.positional[..] {
            ["inspect", path, ..] => Ok(JournalInspectArgs { path: path.to_string() }),
            ["inspect"] => Err(CliError("journal inspect requires a journal path".into())),
            _ => Err(CliError("usage: conprobe journal inspect <journal.jsonl>".into())),
        }
    }

    pub(super) fn execute(&self, out: &mut String) -> Result<(), CliError> {
        let path = &self.path;
        let recovery = Journal::recover(path).map_err(|e| CliError(format!("{path}: {e}")))?;
        let _ = writeln!(
            out,
            "{path}: {} record(s), {} superseded duplicate(s)",
            recovery.total_records, recovery.duplicates
        );
        match &recovery.tail {
            Some(t) => {
                let _ = writeln!(out, "  tail: {t}");
            }
            None => {
                let _ = writeln!(out, "  tail: clean");
            }
        }
        for cell in journal::summarize(&recovery) {
            let _ = writeln!(
                out,
                "  {:<20} {} completed, {} crashed (max instance {})",
                cell.cell, cell.completed, cell.crashed, cell.max_instance
            );
        }
        for (key, panic) in recovery.crashed() {
            let _ = writeln!(
                out,
                "  crashed: {} instance {} (seed {:#x}): {panic}",
                key.cell, key.instance, key.seed
            );
        }
        Ok(())
    }
}

/// `conprobe services`: the available service models.
pub(super) fn list_services(out: &mut String) {
    for s in ServiceKind::CATALOG {
        let topo = conprobe_services::catalog::topology(s);
        let _ = writeln!(
            out,
            "{:<10} — {} replica(s): {}",
            s.name(),
            topo.replicas.len(),
            topo.replicas.iter().map(|(r, _)| r.to_string()).collect::<Vec<_>>().join(", ")
        );
    }
}
