//! Resume determinism, end to end (ISSUE 4 acceptance bar).
//!
//! A campaign interrupted mid-run — by an injected worker panic or by the
//! process being aborted mid-append (the journal's SIGKILL drill) — and
//! resumed via `--resume` must produce *byte-identical* study output to
//! the same campaign run uninterrupted. The in-process tests drive the
//! CLI logic layer directly; the subprocess test murders a real
//! `conprobe` binary with `CONPROBE_ABORT_AFTER_JOURNALED` and resumes
//! it, which also exercises truncated-tail recovery on a journal the
//! dying process had no chance to close cleanly.

use conprobe::cli::{execute, parse};
use conprobe::harness::proto::TestKind;
use conprobe::harness::runner::TestConfig;
use conprobe::services::ServiceKind;
use conprobe_harness::journal::{self, Journal, RecoveredEntry};
use conprobe_json::frame;
use std::path::PathBuf;
use std::process::Command as Proc;

fn args(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_string).collect()
}

fn run_cli(s: &str) -> String {
    execute(parse(&args(s)).expect("parse")).expect("execute")
}

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("conprobe-resume-{tag}-{}.jsonl", std::process::id()))
}

/// Tests in this binary run in parallel but `CONPROBE_INJECT_PANIC` is
/// process-global; every test that sets it, or runs a campaign in this
/// process (which must see it unset), serializes on this lock. A spawned
/// `conprobe` inherits the environment as it is at the moment of the
/// spawn, so children go through [`conprobe_bin`], which scrubs it.
static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// A `conprobe` child that cannot inherit a sibling test's panic drill.
fn conprobe_bin() -> Proc {
    let mut child = Proc::new(env!("CARGO_BIN_EXE_conprobe"));
    child.env_remove("CONPROBE_INJECT_PANIC");
    child
}

#[test]
fn campaign_with_panicking_instance_completes_with_quarantine() {
    let _env = ENV_LOCK.lock().unwrap();
    std::env::set_var("CONPROBE_INJECT_PANIC", "1");
    let out = run_cli("campaign --service blogger --test 2 --tests 3 --seed 5");
    std::env::remove_var("CONPROBE_INJECT_PANIC");
    assert!(out.contains("2/3 completed"), "siblings survive: {out}");
    assert!(out.contains("QUARANTINED instance 1"), "{out}");
    assert!(out.contains("injected panic"), "{out}");
}

#[test]
fn interrupted_campaign_resumed_via_cli_is_byte_identical() {
    let _env = ENV_LOCK.lock().unwrap();
    let journal = temp("cli");
    let journal_s = journal.to_string_lossy();
    // Baseline: same campaign, no journal, uninterrupted.
    let want = run_cli("campaign --service blogger --test 2 --tests 4 --seed 9");
    // First attempt: instance 2 panics; the rest are journaled.
    std::env::set_var("CONPROBE_INJECT_PANIC", "2");
    let first = run_cli(&format!(
        "campaign --service blogger --test 2 --tests 4 --seed 9 --journal {journal_s}"
    ));
    std::env::remove_var("CONPROBE_INJECT_PANIC");
    assert!(first.contains("QUARANTINED instance 2"), "{first}");
    // Resume: the crashed record is retried, completed ones spliced.
    let resumed = run_cli(&format!(
        "campaign --service blogger --test 2 --tests 4 --seed 9 --resume {journal_s}"
    ));
    assert_eq!(resumed, want, "resumed stdout must be byte-identical to uninterrupted");
    std::fs::remove_file(&journal).ok();
}

#[test]
fn interrupted_repro_resumed_via_cli_is_byte_identical() {
    let _env = ENV_LOCK.lock().unwrap();
    let journal = temp("repro");
    let journal_s = journal.to_string_lossy();
    let want = run_cli("repro --tests 2 --seed 3 fig3");
    std::env::set_var("CONPROBE_INJECT_PANIC", "0");
    let first = run_cli(&format!("repro --tests 2 --seed 3 --journal {journal_s} fig3"));
    std::env::remove_var("CONPROBE_INJECT_PANIC");
    assert!(first.contains("QUARANTINED instance 0"), "{first}");
    let resumed = run_cli(&format!("repro --tests 2 --seed 3 --resume {journal_s} fig3"));
    assert_eq!(resumed, want, "resumed figure must match the uninterrupted one");
    std::fs::remove_file(&journal).ok();
}

#[test]
fn chaos_sweep_resumes_from_its_journal() {
    let _env = ENV_LOCK.lock().unwrap();
    let journal = temp("chaos");
    let journal_s = journal.to_string_lossy();
    let want = run_cli("chaos --service blogger --test 1 --seed 3 --levels 2");
    let first = run_cli(&format!(
        "chaos --service blogger --test 1 --seed 3 --levels 2 --journal {journal_s}"
    ));
    assert_eq!(first, want);
    // Sever the journal's tail mid-record, as a crash would.
    let bytes = std::fs::read(&journal).unwrap();
    std::fs::write(&journal, &bytes[..bytes.len() - 9]).unwrap();
    let resumed = run_cli(&format!(
        "chaos --service blogger --test 1 --seed 3 --levels 2 --resume {journal_s}"
    ));
    assert_eq!(resumed, want, "resumed sweep must match the uninterrupted one");
    std::fs::remove_file(&journal).ok();
}

/// Kills a *real* campaign process mid-run (abort after N fsync'd
/// appends — no unwinding, no Drop, the journal file is simply left
/// where the kernel flushed it) and proves the resumed run's report is
/// byte-identical to an uninterrupted one.
#[test]
fn sigkilled_campaign_resumes_to_identical_study_output() {
    let journal = temp("kill");
    let journal_s = journal.to_string_lossy().to_string();
    let campaign =
        ["campaign", "--service", "blogger", "--test", "2", "--tests", "4", "--seed", "7"];

    let clean = conprobe_bin().args(campaign).output().expect("spawn baseline");
    assert!(clean.status.success());

    let killed = conprobe_bin()
        .args(campaign)
        .args(["--journal", &journal_s])
        .env("CONPROBE_ABORT_AFTER_JOURNALED", "2")
        .output()
        .expect("spawn doomed campaign");
    assert!(!killed.status.success(), "the drill must abort the process");
    let recovered = Journal::recover(&journal).expect("journal survives the abort");
    assert!(!recovered.records.is_empty(), "completed tests were durably journaled");
    assert!(recovered.records.len() < 4, "the abort struck mid-campaign");

    let resumed = conprobe_bin()
        .args(campaign)
        .args(["--resume", &journal_s])
        .output()
        .expect("spawn resumed campaign");
    assert!(resumed.status.success(), "{}", String::from_utf8_lossy(&resumed.stderr));
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&clean.stdout),
        "resumed study output must be byte-identical to the uninterrupted run"
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(stderr.contains("spliced from the journal"), "{stderr}");

    // And the inspector reads the final journal cleanly.
    let inspect =
        conprobe_bin().args(["journal", "inspect", &journal_s]).output().expect("inspect");
    assert!(inspect.status.success());
    let text = String::from_utf8_lossy(&inspect.stdout);
    assert!(text.contains("blogger/test2"), "{text}");
    assert!(text.contains("tail: clean"), "{text}");
    std::fs::remove_file(&journal).ok();
}

/// A journal written by the binary of the commit *before* the record
/// codec stopped building trees: one small cell per golden case
/// (`campaign --tests 2`, the case's seed as the master seed; FB Group
/// `--tests 3` with `CONPROBE_INJECT_PANIC=1`, hence one `crashed` record).
const PARENT_JOURNAL: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/parent.cpj1.jsonl");

/// The configuration a `service/testN` cell's traces are re-analyzed under.
fn cell_config(cell: &str) -> TestConfig {
    let (token, kind) = cell.split_once('/').expect("service/testN");
    let service = ServiceKind::ALL.into_iter().find(|s| journal::service_token(*s) == token);
    let kind = if kind == "test1" { TestKind::Test1 } else { TestKind::Test2 };
    TestConfig::paper(service.expect("a catalog service"), kind)
}

#[test]
fn the_parent_commits_journal_recovers_and_re_encodes_byte_for_byte() {
    let recovery = Journal::recover(PARENT_JOURNAL).expect("every line recovers");
    assert_eq!((recovery.records.len(), recovery.duplicates), (9, 0));
    assert!(recovery.tail.is_none(), "{:?}", recovery.tail);
    let text = std::fs::read_to_string(PARENT_JOURNAL).unwrap();
    assert_eq!(recovery.valid_len, text.len() as u64);
    let (mut completed, mut crashed) = (0, 0);
    for (line, record) in text.split_inclusive('\n').zip(&recovery.records) {
        let key = &record.key;
        let payload = match &record.entry {
            RecoveredEntry::Completed(result) => {
                completed += 1;
                let result = journal::result_from_json(&cell_config(&key.cell), result)
                    .unwrap_or_else(|e| panic!("{} instance {}: {e}", key.cell, key.instance));
                journal::completed_record_json(&key.cell, key.instance, key.seed, &result)
            }
            RecoveredEntry::Crashed { panic } => {
                crashed += 1;
                journal::crashed_record_json(&key.cell, key.instance, key.seed, panic)
            }
        };
        assert_eq!(frame::decode_record(line).unwrap(), payload, "{} {}", key.cell, key.instance);
        assert_eq!(frame::encode_record(&payload), line);
    }
    assert_eq!((completed, crashed), (8, 1));
}

#[test]
fn a_truncated_parent_journal_resumes_to_the_uninterrupted_stdout() {
    let _env = ENV_LOCK.lock().unwrap();
    let copy = temp("parent");
    let copy_s = copy.to_string_lossy();
    // Cut mid-way through the last record: a tail for recovery to drop,
    // one instance of the last cell (FB Feed) for the resume to re-run.
    let bytes = std::fs::read(PARENT_JOURNAL).unwrap();
    std::fs::write(&copy, &bytes[..bytes.len() - 5000]).unwrap();
    for campaign in [
        "campaign --service fbfeed --test 2 --tests 2 --seed 3",
        "campaign --service gplus --test 2 --tests 2 --seed 2",
        "campaign --service fbgroup --test 1 --tests 3 --seed 7",
    ] {
        let resumed = run_cli(&format!("{campaign} --resume {copy_s}"));
        assert_eq!(resumed, run_cli(campaign), "{campaign}");
    }
    // What the resumes re-ran (the cut record, the crashed one) they appended.
    let after = Journal::recover(&copy).unwrap();
    assert_eq!((after.total_records, after.duplicates), (10, 1));
    assert!(after.tail.is_none() && after.crashed().is_empty());
    std::fs::remove_file(&copy).ok();
}
