//! `--journal` at the binary's surface: a fresh journal never overwrites
//! an old one, and a journal that cannot be written costs one line of
//! stderr, not the campaign.

use conprobe_harness::journal::Journal;
use conprobe_json::frame;
use std::path::PathBuf;
use std::process::Command as Proc;

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("conprobe-journal-cli-{tag}-{}.jsonl", std::process::id()))
}

/// `conprobe campaign --service blogger --test 2 --tests N --seed 7` plus `extra`.
fn campaign(tests: &str, extra: &[&str]) -> std::process::Output {
    Proc::new(env!("CARGO_BIN_EXE_conprobe"))
        .args(["campaign", "--service", "blogger", "--test", "2", "--tests", tests, "--seed", "7"])
        .args(extra)
        .env_remove("CONPROBE_INJECT_PANIC")
        .output()
        .expect("spawn conprobe")
}

#[test]
fn journal_flag_refuses_to_truncate_a_journal_that_holds_records() {
    let path = temp("refuse");
    let path_s = path.to_string_lossy().to_string();
    std::fs::remove_file(&path).ok();

    // Absent, and present but empty, are both a fresh start.
    assert!(campaign("2", &["--journal", &path_s]).status.success());
    let first = std::fs::read(&path).unwrap();
    assert_eq!(Journal::recover(&path).unwrap().records.len(), 2);
    let empty = temp("empty");
    std::fs::write(&empty, b"").unwrap();
    assert!(campaign("1", &["--journal", &empty.to_string_lossy()]).status.success());
    assert_eq!(Journal::recover(&empty).unwrap().records.len(), 1);

    // The same flag again would have destroyed those two records.
    let again = campaign("3", &["--journal", &path_s]);
    assert!(!again.status.success());
    let stderr = String::from_utf8_lossy(&again.stderr);
    assert!(stderr.contains("already holds records"), "{stderr}");
    assert!(stderr.contains(&format!("--resume {path_s}")), "{stderr}");
    assert_eq!(std::fs::read(&path).unwrap(), first, "the refused run must not touch the file");

    // And the flag the error names continues it.
    let resumed = campaign("3", &["--resume", &path_s]);
    assert!(resumed.status.success(), "{}", String::from_utf8_lossy(&resumed.stderr));
    assert_eq!(Journal::recover(&path).unwrap().records.len(), 3);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&empty).ok();
}

#[test]
fn unwritable_journal_costs_one_stderr_line_and_no_result() {
    if !std::path::Path::new("/dev/full").exists() {
        return; // platform without /dev/full; covered on CI (Linux)
    }
    let clean = campaign("8", &[]);
    let full = campaign("8", &["--journal", "/dev/full"]);
    assert!(full.status.success(), "{}", String::from_utf8_lossy(&full.stderr));
    assert_eq!(full.stdout, clean.stdout, "every result is still reported");
    let stderr = String::from_utf8_lossy(&full.stderr);
    assert_eq!(stderr.matches("journal: append failed").count(), 1, "{stderr}");
    assert!(stderr.contains("No space left on device"), "{stderr}");
}

/// A record that recovery accepts (valid frame, checksum and JSON) but
/// whose `result` does not decode is re-run — and said to be, in the
/// words `campaign` uses — by the commands that run their units one at a
/// time (`chaos`, `probe`).
#[test]
fn a_unit_whose_recorded_result_is_rejected_is_re_run_out_loud() {
    let path = temp("rejected");
    let path_s = path.to_string_lossy().to_string();
    std::fs::remove_file(&path).ok();
    let chaos = |extra: &[&str]| {
        Proc::new(env!("CARGO_BIN_EXE_conprobe"))
            .args(["chaos", "--service", "blogger", "--test", "1", "--seed", "3", "--levels", "2"])
            .args(extra)
            .output()
            .expect("spawn conprobe")
    };
    let want = chaos(&["--journal", &path_s]);
    assert!(want.status.success());
    // Level 1's record, with one member of the wrong type, re-framed.
    let lines: Vec<String> = std::fs::read_to_string(&path)
        .unwrap()
        .lines()
        .map(|line| {
            let payload = frame::decode_record(line).unwrap();
            match payload.contains("\"instance\":1,") {
                true => frame::encode_record(
                    &payload.replace("\"salvaged\":", "\"salvaged\":7,\"was\":"),
                ),
                false => format!("{line}\n"),
            }
        })
        .collect();
    std::fs::write(&path, lines.concat()).unwrap();
    assert_eq!(Journal::recover(&path).unwrap().records.len(), 3, "recovery checks syntax only");

    let resumed = chaos(&["--resume", &path_s]);
    assert!(resumed.status.success());
    assert_eq!(resumed.stdout, want.stdout, "the re-run level reports what it did the first time");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    let said = "journal: chaos/blogger/test1 level 1 payload rejected (JSON error at byte";
    assert!(stderr.contains(said) && stderr.contains("expected bool); re-running"), "{stderr}");
    assert_eq!(stderr.matches("spliced from the journal").count(), 2, "{stderr}");
    // The re-run superseded the rejected record.
    let after = Journal::recover(&path).unwrap();
    assert_eq!((after.total_records, after.duplicates), (4, 1));
    std::fs::remove_file(&path).ok();
}

/// A `result` that is JSON but not a result still recovers as a record,
/// and a resume rejects it in the very words it used when recovery kept
/// results as text and decoded them only on rebuild (the four lines
/// below were captured from that binary), except that a schema error
/// names no byte: it said "at byte 0" for every one. A `result` that is
/// not JSON still damages its line.
#[test]
fn a_result_that_is_json_but_not_a_result_is_rejected_as_before() {
    let path = temp("not-a-result");
    let path_s = path.to_string_lossy().to_string();
    std::fs::remove_file(&path).ok();
    let clean = campaign("5", &["--journal", &path_s]);
    assert!(clean.status.success());
    let journaled = std::fs::read_to_string(&path).unwrap();
    // The journal with `edit(i, payload)` applied to its `i`-th line.
    let edited = |edit: &dyn Fn(usize, &str) -> String| -> String {
        let line = |(i, line)| frame::encode_record(&edit(i, frame::decode_record(line).unwrap()));
        journaled.lines().enumerate().map(line).collect()
    };
    let rejected = edited(&|_, p| match p {
        _ if p.contains("\"instance\":0,") => {
            p.replace("\"writes_total\":", "\"writes_total\":\"x\",\"was\":")
        }
        _ if p.contains("\"instance\":1,") => {
            p.replacen("\"invoke\":", "\"invoke\":9223372036854775807,\"was\":", 1)
        }
        _ if p.contains("\"instance\":2,") => p.replace("\"sim_events\":", "\"sim_events_was\":"),
        _ if p.contains("\"instance\":3,") => {
            p.replace("\"service\":\"blogger\"", "\"service\":\"gminus\"")
        }
        _ => p.to_string(),
    });
    std::fs::write(&path, rejected).unwrap();
    assert_eq!(Journal::recover(&path).unwrap().records.len(), 5);

    let resumed = campaign("5", &["--resume", &path_s]);
    assert!(resumed.status.success());
    assert_eq!(resumed.stdout, clean.stdout);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    for said in [
        "instance 0 payload rejected (JSON error at byte 8877: expected a number); re-running",
        "instance 1 payload rejected (JSON error: operation response precedes invocation); \
         re-running",
        "instance 2 payload rejected (JSON error: missing member `sim_events`); re-running",
        "instance 3 payload rejected (JSON error: unknown service token \"gminus\"); re-running",
    ] {
        assert!(stderr.contains(&format!("journal: blogger/test2 {said}")), "{said}\n{stderr}");
    }
    assert!(stderr.contains("  1 instance(s) spliced from the journal"), "{stderr}");

    // Not JSON at all: the last line is a damaged tail, the first one
    // corrupts the journal.
    let not_json = |at: usize| {
        edited(&|i, p| match i == at {
            true => p.replace("\"writes_total\":", "\"writes_total\":01,\"was\":"),
            false => p.to_string(),
        })
    };
    std::fs::write(&path, not_json(4)).unwrap();
    let tail = Journal::recover(&path).unwrap();
    assert_eq!(tail.records.len(), 4);
    assert!(tail.tail.expect("a damaged tail").reason.contains("JSON error"));
    std::fs::write(&path, not_json(0)).unwrap();
    let err = Journal::recover(&path).unwrap_err();
    assert!(
        matches!(err, conprobe_harness::journal::JournalError::CorruptMiddle { record: 0, .. }),
        "{err}"
    );
    std::fs::remove_file(&path).ok();
}
