//! Durable campaign journal: crash-safe persistence and resume.
//!
//! The paper's study ran for weeks against live rate-limited APIs; losing
//! a campaign to a coordinator crash would have cost unrepeatable
//! measurements. This module gives conprobe the same survivability: as a
//! campaign runs, every finished (or quarantined) test instance is
//! appended to a journal file, and a later invocation can recover the
//! journal and re-run *only* the missing instances — with byte-identical
//! study output, because the per-instance seeds are derived
//! deterministically and the analysis is a pure function of the persisted
//! trace.
//!
//! ## On-disk format
//!
//! One record per line (JSONL), each framed for corruption detection:
//!
//! ```text
//! cpj1 <payload-len> <fnv64-hex> <payload-json>\n
//! ```
//!
//! * `cpj1` — format magic/version.
//! * `<payload-len>` — decimal byte length of the payload.
//! * `<fnv64-hex>` — 16-digit FNV-1a hash of the payload bytes.
//! * `<payload-json>` — one compact JSON object (compact JSON never
//!   contains a raw newline, so the file stays line-oriented).
//!
//! A record is one `write_all`, so a crash — including SIGKILL mid-write
//! — leaves at most one truncated tail line.
//!
//! ## Durability: group commit
//!
//! An append has two halves. **Write** frames the record and `write_all`s
//! it under the journal's lock; **wait-durable** returns once an `fsync`
//! that started after the write has finished. The fsync runs *outside*
//! the lock: whoever finds no sync in flight becomes the leader, syncs,
//! and publishes "durable up to what was written when I started";
//! everyone else waits for that. Concurrent appenders therefore share one
//! fsync, and a lone appender pays exactly one.
//!
//! [`Journal::append_payload`] / [`append_completed`](Journal::append_completed)
//! / [`append_crashed`](Journal::append_crashed) are write + wait: the
//! record is on disk when they return.
//! [`run_campaign_journaled`](crate::campaign::run_campaign_journaled) is
//! the one caller that does not wait per record: its workers write and go
//! on to the next test while the calling thread fsyncs whenever anything
//! is unsynced, and it returns only once everything it wrote is durable. At
//! most `UNSYNCED_WINDOW` (64) records are ever written but not yet durable,
//! so a crash mid-campaign loses at most that many *finished* instances —
//! which a resume re-runs byte-identically, because their seeds are
//! derived. A lost suffix is a shorter file, never a hole: the recovery
//! rules below are unchanged.
//!
//! The first I/O error is sticky: every later write or wait on the same
//! `Journal` fails with it, so a half-written line is never followed by a
//! valid one and nobody waits for a sync that cannot happen.
//!
//! ## Recovery rules
//!
//! * A *complete* line that is UTF-8, frames and checksums correctly, and
//!   whose payload is JSON throughout with a valid envelope (`cell`,
//!   `instance`, `seed`, a known `status`, and that status's member) is a
//!   record. All of that is checked by [`Journal::recover`], in one pass
//!   of the reader over the line. Lines are checked on every core, in
//!   contiguous runs, and judged in file order, so the first damaged line
//!   decides as it would on one thread.
//! * Trailing bytes that do not form a complete valid line are a
//!   **truncated or corrupt tail**: dropped and reported, never a panic
//!   ([`Recovery::tail`]). [`Journal::resume`] truncates the file back to
//!   the last valid record before appending.
//! * An invalid line *followed by more data* is **middle corruption**
//!   (e.g. a checksum flip from bit rot): recovery refuses with a clear
//!   [`JournalError::CorruptMiddle`] rather than silently skipping data.
//! * Duplicate `(cell, instance)` keys resolve last-writer-wins, counted
//!   in [`Recovery::duplicates`] so callers can warn.
//! * Recovery decodes a completed record's `result` in that same pass
//!   ([`DecodedResult`]). A `result` that is JSON but not a result (a
//!   member of the wrong type, an integer out of range, `response <
//!   invoke`) is still a record: it keeps the schema error, which
//!   [`result_from_json`] returns when a caller that knows the cell's
//!   [`TestConfig`] rebuilds the instance, and the result is re-run, out
//!   loud. Rebuilding only recomputes the analysis.
//!
//! ## What a record stores
//!
//! A `completed` record persists everything in a
//! [`TestResult`](crate::runner::TestResult) *except* the analysis and
//! the white-box report: the analysis is recomputed on recovery from the
//! persisted trace with [`crate::runner::checker_config_for`] (pure and
//! deterministic, so resumption is byte-identical), and the white-box
//! probe is a single-test debugging tool that journaled campaigns don't
//! enable. A `crashed` record stores the panic message of a quarantined
//! worker so `conprobe journal inspect` can report it.
//!
//! No record is ever a document tree: each type in it writes itself to a
//! [`JsonWriter`] and reads itself from a [`JsonReader`] (members in any
//! order, unknown ones skipped, the first of duplicates wins), and the
//! bytes are those the tree-building encoder wrote before it.

use crate::coordinator::AgentHealth;
use crate::runner::{checker_config_for, FaultLedger, TestConfig, TestResult};
use conprobe_core::{analyze, TestAnalysis};
use conprobe_json::{read_members, FromJson, JsonError, JsonReader, JsonValue, JsonWriter, ToJson};
use conprobe_services::fault_driver::ExecutedAction;
use conprobe_services::ServiceKind;
use conprobe_sim::net::Region;
use conprobe_sim::{BrownoutMode, NodeId, ServiceActionKind, SimDuration, SimTime};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, MutexGuard};

// Record framing (`cpj1` magic, length prefix, FNV-1a checksum) lives in
// `conprobe_json::frame` so the quorum state-transfer stream and this
// journal share one encoder/decoder.
use conprobe_json::frame;

// ---------------------------------------------------------------------------
// Record model
// ---------------------------------------------------------------------------

/// Identifies one test instance within a journal: which campaign cell it
/// belongs to, its instance index, and the seed it ran with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalKey {
    /// Stable cell identifier (e.g. `"blogger/test1"`,
    /// `"chaos/gplus/test2/seed7"`). Distinguishes cells sharing one
    /// journal file.
    pub cell: String,
    /// Instance index within the cell (for chaos journals, the level).
    pub instance: u32,
    /// The per-instance seed the record was produced with. Resume
    /// validates this against the freshly derived seed and re-runs the
    /// instance on mismatch, so a journal from a different master seed
    /// can never be spliced into the wrong study.
    pub seed: u64,
}

/// The `result` member of a completed record, decoded once, when the
/// record was recovered: every journaled field of a [`TestResult`] (the
/// analysis left empty), or the schema error that rejects it, its offset
/// relative to the member. [`result_from_json`] hands out either.
#[derive(Debug, Clone)]
pub struct DecodedResult(Result<Box<TestResult>, JsonError>);

/// Two decoded results are equal when they journal the same `result`
/// object, or are rejected with the same error.
impl PartialEq for DecodedResult {
    fn eq(&self, other: &Self) -> bool {
        let [a, b] = [self, other].map(|d| d.0.as_ref().map(|result| result.to_compact()));
        a == b
    }
}

/// A recovered record's body. A completed result becomes a
/// [`TestResult`] once a [`TestConfig`] is available to recompute its
/// analysis (see [`result_from_json`]).
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveredEntry {
    /// The instance finished; payload is its decoded result object.
    Completed(DecodedResult),
    /// The instance's worker panicked and was quarantined.
    Crashed {
        /// The panic message captured by the campaign worker.
        panic: String,
    },
}

/// One recovered journal record.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredRecord {
    /// The (cell, instance, seed) key.
    pub key: JournalKey,
    /// Completed payload or crash report.
    pub entry: RecoveredEntry,
}

/// Diagnostic for a dropped journal tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailLoss {
    /// Byte offset where the damaged tail starts.
    pub offset: u64,
    /// Number of bytes dropped.
    pub bytes: u64,
    /// Why the tail was rejected (truncation, checksum mismatch, …).
    pub reason: String,
}

impl fmt::Display for TailLoss {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dropped {} tail byte(s) at offset {}: {}", self.bytes, self.offset, self.reason)
    }
}

/// The outcome of [`Journal::recover`].
#[derive(Debug, Clone)]
pub struct Recovery {
    /// Valid records after last-writer-wins dedup, in file order of each
    /// key's final writer.
    pub records: Vec<RecoveredRecord>,
    /// Raw valid record count, including superseded duplicates.
    pub total_records: usize,
    /// Records superseded by a later record with the same key.
    pub duplicates: usize,
    /// Damaged tail, if the file ended mid-record.
    pub tail: Option<TailLoss>,
    /// Byte length of the valid prefix ([`Journal::resume`] truncates the
    /// file to this length before appending).
    pub valid_len: u64,
}

impl Recovery {
    /// Completed records for one cell: instance index → (seed, payload).
    pub fn completed_for(&self, cell: &str) -> BTreeMap<u32, (u64, &DecodedResult)> {
        self.records
            .iter()
            .filter(|r| r.key.cell == cell)
            .filter_map(|r| match &r.entry {
                RecoveredEntry::Completed(v) => Some((r.key.instance, (r.key.seed, v))),
                RecoveredEntry::Crashed { .. } => None,
            })
            .collect()
    }

    /// Crashed records (across all cells), for reporting.
    pub fn crashed(&self) -> Vec<(&JournalKey, &str)> {
        self.records
            .iter()
            .filter_map(|r| match &r.entry {
                RecoveredEntry::Crashed { panic } => Some((&r.key, panic.as_str())),
                RecoveredEntry::Completed(_) => None,
            })
            .collect()
    }
}

/// The one splice rule of every resume: a recovered completed record
/// (from [`Recovery::completed_for`]) replaces re-running `unit` `index`
/// only when its seed is the one the run derives for that unit — the
/// journal came from the same master seed — and its payload rebuilds
/// under `config`. Anything else is narrated on stderr and answers
/// `None`: the caller re-runs the unit. Crashed records never get here,
/// so a resume retries a quarantined instance.
pub fn splice(
    cell: &str,
    unit: &str,
    index: u32,
    (recorded_seed, payload): (u64, &DecodedResult),
    derived_seed: u64,
    config: &TestConfig,
) -> Option<TestResult> {
    if recorded_seed != derived_seed {
        eprintln!(
            "journal: {cell} {unit} {index} recorded seed {recorded_seed:#x} but campaign \
             derives {derived_seed:#x}; re-running"
        );
        return None;
    }
    result_from_json(config, payload)
        .map_err(|e| eprintln!("journal: {cell} {unit} {index} payload rejected ({e}); re-running"))
        .ok()
}

/// Why a journal could not be recovered.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem-level failure.
    Io(std::io::Error),
    /// A record *before* the tail is damaged — the journal is not a
    /// crash artifact but corrupted storage, and silently skipping the
    /// record would splice a hole into the study. Recovery refuses.
    CorruptMiddle {
        /// Zero-based index of the damaged record.
        record: usize,
        /// Byte offset of the damaged line.
        offset: u64,
        /// What failed (frame, checksum, JSON, schema).
        reason: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::CorruptMiddle { record, offset, reason } => write!(
                f,
                "journal corrupt at record {record} (byte offset {offset}): {reason}; \
                 refusing to resume from a journal with damage before the tail"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// The journal file
// ---------------------------------------------------------------------------

/// Most records a [`Journal`] lets be written but not yet durable: a
/// writer past it waits for a sync to finish. Only a caller that writes
/// without waiting — the campaign — can reach it, and it is what bounds
/// the finished instances a crash can cost such a caller.
pub(crate) const UNSYNCED_WINDOW: u64 = 64;

/// An append-only, group-committed campaign journal.
///
/// Appends are thread-safe (campaign workers and dispatch sessions
/// journal concurrently). Each record is one `write_all` under the lock;
/// the fsync that makes it durable runs outside the lock and covers every
/// record written before it began, so concurrent appenders share it (see
/// the module docs). The `append_*` methods return once their record is
/// on disk: a test appended through them can never be lost to a later
/// crash.
#[derive(Debug)]
pub struct Journal {
    /// Written through `&File` under the `commit` lock, synced outside it.
    file: File,
    commit: Mutex<Commit>,
    /// Signalled when `durable` advances or `failed` is set.
    progressed: Condvar,
    path: PathBuf,
}

/// Group-commit state. Sequence numbers count records written through
/// this `Journal` value, from 1.
#[derive(Debug, Default)]
struct Commit {
    /// Sequence number of the last record written.
    written: u64,
    /// Every record up to this sequence number is on disk.
    durable: u64,
    /// A leader is inside `sync_data`.
    syncing: bool,
    /// fsyncs issued.
    syncs: u64,
    /// The first I/O error. Sticky: a failed `write_all` may have left
    /// half a line, and a failed fsync may have dropped dirty pages that
    /// a retry would report clean.
    failed: Option<std::io::Error>,
}

/// An `io::Error` is not `Clone`; this keeps what callers look at.
fn copy_error(e: &std::io::Error) -> std::io::Error {
    match e.raw_os_error() {
        Some(code) => std::io::Error::from_raw_os_error(code),
        None => std::io::Error::new(e.kind(), e.to_string()),
    }
}

impl Journal {
    fn open(file: File, path: PathBuf) -> Journal {
        Journal { file, commit: Mutex::default(), progressed: Condvar::new(), path }
    }

    /// Creates (or truncates) a fresh journal at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).write(true).truncate(true).open(&path)?;
        Ok(Journal::open(file, path))
    }

    /// Recovers `path` (read-only): parses every record, tolerating a
    /// truncated or checksum-corrupt tail.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the file cannot be read;
    /// [`JournalError::CorruptMiddle`] if a record before the tail is
    /// damaged.
    pub fn recover(path: impl AsRef<Path>) -> Result<Recovery, JournalError> {
        let mut bytes = Vec::new();
        File::open(path.as_ref())?.read_to_end(&mut bytes)?;
        recover_bytes(&bytes)
    }

    /// Recovers `path` and reopens it for appending: the damaged tail (if
    /// any) is truncated away so subsequent appends extend the valid
    /// prefix.
    pub fn resume(path: impl AsRef<Path>) -> Result<(Journal, Recovery), JournalError> {
        let path = path.as_ref().to_path_buf();
        let recovery = Journal::recover(&path)?;
        let file = OpenOptions::new().write(true).open(&path)?;
        file.set_len(recovery.valid_len)?;
        file.sync_data()?;
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        Ok((Journal::open(file, path), recovery))
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends a completed-test record.
    pub fn append_completed(
        &self,
        cell: &str,
        instance: u32,
        seed: u64,
        result: &TestResult,
    ) -> std::io::Result<()> {
        self.append_payload(&completed_record_json(cell, instance, seed, result))
    }

    /// Appends a quarantined-crash record.
    pub fn append_crashed(
        &self,
        cell: &str,
        instance: u32,
        seed: u64,
        panic_msg: &str,
    ) -> std::io::Result<()> {
        self.append_payload(&crashed_record_json(cell, instance, seed, panic_msg))
    }

    /// Frames and writes one payload verbatim, and returns once it is on
    /// disk.
    ///
    /// This is the ingestion path for distributed campaigns: a dispatch
    /// coordinator appends record payloads produced by remote workers
    /// (via [`completed_record_json`] / [`crashed_record_json`]) without
    /// re-serializing, so the merged journal is byte-compatible with one
    /// a single process would have written. Validate foreign payloads
    /// with [`parse_record_payload`] first.
    pub fn append_payload(&self, payload: &str) -> std::io::Result<()> {
        let seq = self.write(payload)?;
        self.wait_durable(seq)
    }

    fn lock(&self) -> MutexGuard<'_, Commit> {
        // No update of `Commit` can panic half-way, so a poisoned lock
        // (a panicking caller thread) still guards consistent state.
        self.commit.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn wait<'a>(&self, commit: MutexGuard<'a, Commit>) -> MutexGuard<'a, Commit> {
        self.progressed.wait(commit).unwrap_or_else(|p| p.into_inner())
    }

    /// Records `e` as the journal's failure unless one is already set,
    /// wakes every waiter, and returns the failure for the caller to report.
    fn fail(&self, commit: &mut Commit, e: std::io::Error) -> std::io::Error {
        self.progressed.notify_all();
        copy_error(commit.failed.get_or_insert(e))
    }

    /// The write half of an append: frames `payload`, `write_all`s it
    /// under the lock, and returns the record's sequence number for
    /// [`wait_durable`](Self::wait_durable). No fsync. Waits while
    /// [`UNSYNCED_WINDOW`] records are written but not durable, so a
    /// caller that never waits must have someone syncing behind it.
    pub(crate) fn write(&self, payload: &str) -> std::io::Result<u64> {
        let line = frame::encode_record(payload);
        let mut commit = self.lock();
        while commit.failed.is_none() && commit.written - commit.durable >= UNSYNCED_WINDOW {
            commit = self.wait(commit);
        }
        if let Some(e) = &commit.failed {
            return Err(copy_error(e));
        }
        if let Err(e) = (&self.file).write_all(line.as_bytes()) {
            return Err(self.fail(&mut commit, e));
        }
        commit.written += 1;
        maybe_abort_for_drill();
        Ok(commit.written)
    }

    /// The wait half of an append: returns once record `seq` is on disk.
    /// Whoever finds no sync in flight runs one, outside the lock, and
    /// publishes everything written before it began; the others wait.
    pub(crate) fn wait_durable(&self, seq: u64) -> std::io::Result<()> {
        let mut commit = self.lock();
        loop {
            if commit.durable >= seq {
                return Ok(());
            }
            if let Some(e) = &commit.failed {
                return Err(copy_error(e));
            }
            if commit.syncing {
                commit = self.wait(commit);
                continue;
            }
            commit.syncing = true;
            commit.syncs += 1;
            let covered = commit.written;
            drop(commit);
            let synced = self.file.sync_data();
            commit = self.lock();
            commit.syncing = false;
            match synced {
                Ok(()) => {
                    commit.durable = covered;
                    self.progressed.notify_all();
                }
                Err(e) => return Err(self.fail(&mut commit, e)),
            }
        }
    }

    /// `(records written, fsyncs issued)` through this `Journal` value;
    /// their ratio is the batch factor.
    pub(crate) fn counts(&self) -> (u64, u64) {
        let commit = self.lock();
        (commit.written, commit.syncs)
    }
}

/// Kill drill: with `CONPROBE_ABORT_AFTER_JOURNALED=N` in the
/// environment, the process aborts (no unwinding, no destructors — the
/// moral equivalent of SIGKILL) at the N-th journal write, still under
/// the write lock, so the file it leaves holds exactly N records: the
/// page cache survives `abort()`, only the process does not. CI's
/// kill-and-resume smoke job uses this to prove that a campaign murdered
/// mid-run resumes to byte-identical study output.
fn maybe_abort_for_drill() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;
    static LIMIT: OnceLock<Option<u64>> = OnceLock::new();
    let limit = *LIMIT.get_or_init(|| {
        std::env::var("CONPROBE_ABORT_AFTER_JOURNALED").ok().and_then(|s| s.parse().ok())
    });
    if let Some(limit) = limit {
        static APPENDS: AtomicU64 = AtomicU64::new(0);
        if APPENDS.fetch_add(1, Ordering::Relaxed) + 1 >= limit {
            eprintln!("journal: CONPROBE_ABORT_AFTER_JOURNALED={limit} reached; aborting");
            std::process::abort();
        }
    }
}

/// The journal payload (compact JSON) for a completed-test record — what
/// [`Journal::append_completed`] writes, exposed so a dispatch worker can
/// serialize a result once and stream the exact journal bytes to its
/// coordinator.
pub fn completed_record_json(cell: &str, instance: u32, seed: u64, result: &TestResult) -> String {
    record_json(record_capacity(result), cell, instance, seed, "completed", |w| {
        w.member("result", result)
    })
}

/// The journal payload (compact JSON) for a quarantined-crash record —
/// what [`Journal::append_crashed`] writes; see [`completed_record_json`].
pub fn crashed_record_json(cell: &str, instance: u32, seed: u64, panic_msg: &str) -> String {
    record_json(0, cell, instance, seed, "crashed", |w| w.member("panic", panic_msg))
}

/// Bytes to reserve for a completed record so that writing it does not
/// regrow the buffer: all but a few hundred of them are the trace's
/// operations (two timestamps and the framing of a `kind` each) and the
/// post ids those carry.
fn record_capacity(result: &TestResult) -> usize {
    let ops = result.trace.ops();
    let ids: usize = ops.iter().map(|op| op.read_seq().map_or(1, <[_]>::len)).sum();
    2048 + 96 * ops.len() + 26 * ids
}

fn record_json(
    capacity: usize,
    cell: &str,
    instance: u32,
    seed: u64,
    status: &str,
    body: impl FnOnce(&mut JsonWriter),
) -> String {
    let mut w = JsonWriter::with_capacity(capacity);
    w.begin_object();
    w.member("cell", cell);
    w.member("instance", &instance);
    w.member("seed", &seed);
    w.member("status", status);
    body(&mut w);
    w.end_object();
    w.finish()
}

/// Fewest lines a worker thread is started for: a journal shorter than
/// two runs of this is checked on the calling thread.
const LINES_PER_WORKER: usize = 8;

/// Parses the journal byte stream (exposed for byte-surgery tests), on
/// as many threads as the machine runs at once.
fn recover_bytes(bytes: &[u8]) -> Result<Recovery, JournalError> {
    recover_on(bytes, std::thread::available_parallelism().map_or(1, usize::from))
}

/// [`recover_bytes`] on at most `workers` threads: the calling thread
/// checks the first contiguous run of lines, a scoped thread each other
/// run, and the verdicts are judged in file order.
fn recover_on(bytes: &[u8], workers: usize) -> Result<Recovery, JournalError> {
    let (mut lines, mut start) = (Vec::new(), 0);
    while start < bytes.len() {
        let end = find_newline(&bytes[start..]).map_or(bytes.len(), |nl| start + nl + 1);
        lines.push(start..end);
        start = end;
    }
    let check = |run: &[Range<usize>]| -> Vec<_> {
        run.iter().map(|line| check_line(&bytes[line.clone()])).collect()
    };
    let mut runs = lines.chunks(run_len(lines.len(), workers));
    let first = runs.next().unwrap_or_default();
    let verdicts = std::thread::scope(|scope| {
        let others: Vec<_> = runs.map(|run| scope.spawn(move || check(run))).collect();
        let mut verdicts = check(first);
        for other in others {
            verdicts.extend(other.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        verdicts
    });
    let mut raw: Vec<RecoveredRecord> = Vec::with_capacity(lines.len());
    let mut tail = None;
    let mut valid_len = 0u64;
    for (line, verdict) in lines.iter().zip(verdicts) {
        match verdict {
            Ok(record) => {
                raw.push(record);
                valid_len = line.end as u64;
            }
            Err(reason) if line.end == bytes.len() => {
                let bytes = (line.end - line.start) as u64;
                tail = Some(TailLoss { offset: line.start as u64, bytes, reason });
            }
            Err(reason) => {
                let (record, offset) = (raw.len(), line.start as u64);
                return Err(JournalError::CorruptMiddle { record, offset, reason });
            }
        }
    }
    // Last-writer-wins dedup on (cell, instance): a later record takes
    // the place, in `records`, of the first one with its key.
    let total_records = raw.len();
    let mut records: Vec<RecoveredRecord> = Vec::with_capacity(raw.len());
    let mut position: HashMap<(String, u32), usize> = HashMap::with_capacity(raw.len());
    let mut duplicates = 0usize;
    for record in raw {
        match position.entry((record.key.cell.clone(), record.key.instance)) {
            Entry::Occupied(at) => {
                records[*at.get()] = record;
                duplicates += 1;
            }
            Entry::Vacant(slot) => {
                slot.insert(records.len());
                records.push(record);
            }
        }
    }
    Ok(Recovery { records, total_records, duplicates, tail, valid_len })
}

/// The offset of the first `\n` in `bytes`, eight bytes at a time (the
/// lowest byte the has-zero-byte test flags in `word ^ NEWLINES` is one).
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_le_bytes([b'\n'; 8]);
    let mut words = bytes.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("eight bytes")) ^ NEWLINES;
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return Some(i * 8 + zeros.trailing_zeros() as usize / 8);
        }
    }
    let rest = words.remainder();
    rest.iter().position(|&b| b == b'\n').map(|at| bytes.len() - rest.len() + at)
}

/// How many lines each of `workers` threads checks.
fn run_len(lines: usize, workers: usize) -> usize {
    lines.div_ceil(workers.min(lines / LINES_PER_WORKER).max(1)).max(1)
}

/// Validates one line: its newline, UTF-8, frame, checksum, then the
/// payload.
fn check_line(line: &[u8]) -> Result<RecoveredRecord, String> {
    let Some((b'\n', line)) = line.split_last() else {
        return Err("record truncated mid-line (no trailing newline)".to_string());
    };
    let text = std::str::from_utf8(line).map_err(|_| "record is not UTF-8".to_string())?;
    let payload = frame::decode_record(text).map_err(|e| e.to_string())?;
    parse_record_payload(payload)
}

/// Validates one unframed record payload in one pass — that all of it is
/// JSON, and the envelope's schema — and returns its key and entry; a
/// completed record's `result` is decoded ([`DecodedResult`]). The
/// dispatch coordinator runs every worker-pushed payload through this
/// before journaling it, so a buggy or hostile worker cannot splice
/// malformed records into the study.
///
/// # Errors
///
/// A human-readable reason when the payload is not valid record JSON.
pub fn parse_record_payload(payload: &str) -> Result<RecoveredRecord, String> {
    record_from_json(&mut JsonReader::new(payload)).map_err(|e| e.to_string())
}

fn record_from_json(r: &mut JsonReader<'_>) -> Result<RecoveredRecord, JsonError> {
    // A `status` or `panic` that is not a string reads as an absent one.
    let lenient = |r: &mut JsonReader<'_>| match r.peek()? {
        b'"' => String::read_json(r),
        _ => r.skip_value().map(|_| String::new()),
    };
    read_members!(r => cell, instance, seed; status: lenient, result: decode_result, panic: lenient);
    r.finish()?;
    let entry = match status.as_deref().unwrap_or("") {
        "completed" => {
            RecoveredEntry::Completed(result.ok_or_else(|| conprobe_json::missing("result"))?)
        }
        "crashed" => RecoveredEntry::Crashed { panic: panic.unwrap_or_default() },
        other => return Err(JsonError::schema(format!("unknown record status {other:?}"))),
    };
    Ok(RecoveredRecord { key: JournalKey { cell, instance, seed }, entry })
}

/// Decodes a record's `result` member. JSON that is not a result still
/// reads: the reader goes back and skips the member, and the error is
/// kept with its offset made relative to the member — what decoding the
/// member's text alone would have said. Only text that is not JSON fails
/// the record.
fn decode_result(r: &mut JsonReader<'_>) -> Result<DecodedResult, JsonError> {
    r.peek()?;
    let (start, rewind) = (r.offset(), r.clone());
    let error = match journaled_result(r) {
        Ok(result) => return Ok(DecodedResult(Ok(Box::new(result)))),
        Err(error) => error,
    };
    *r = rewind;
    r.skip_value()?;
    // A reader's error lies inside the member; a schema error has none.
    let offset = error.offset.map(|at| at.saturating_sub(start));
    Ok(DecodedResult(Err(JsonError { offset, ..error })))
}

// ---------------------------------------------------------------------------
// TestResult (de)serialization
// ---------------------------------------------------------------------------

/// Stable CLI-style token for a service (`ServiceKind::name` contains
/// spaces and unicode; records use the same tokens the CLI parses).
pub fn service_token(service: ServiceKind) -> &'static str {
    match service {
        ServiceKind::Blogger => "blogger",
        ServiceKind::GooglePlus => "gplus",
        ServiceKind::FacebookFeed => "fbfeed",
        ServiceKind::FacebookGroup => "fbgroup",
        ServiceKind::Quorum => "quorum",
        ServiceKind::Pbft => "pbft",
    }
}

fn service_from_json(r: &mut JsonReader<'_>) -> Result<ServiceKind, JsonError> {
    let token = r.string()?;
    ServiceKind::CATALOG
        .into_iter()
        .find(|service| service_token(*service) == token)
        .ok_or_else(|| JsonError::schema(format!("unknown service token {token:?}")))
}

fn region_to_json(w: &mut JsonWriter, region: &Region) {
    w.str(&region.short());
}

fn region_from_json(r: &mut JsonReader<'_>) -> Result<Region, JsonError> {
    match &*r.string()? {
        "OR" => Ok(Region::Oregon),
        "JP" => Ok(Region::Tokyo),
        "IR" => Ok(Region::Ireland),
        "VA" => Ok(Region::Virginia),
        other => match other.strip_prefix("DC").and_then(|n| n.parse().ok()) {
            Some(n) => Ok(Region::Datacenter(n)),
            None => Err(JsonError::schema(format!("unknown region {other:?}"))),
        },
    }
}

fn action_to_json(w: &mut JsonWriter, a: &ExecutedAction) {
    w.begin_object();
    w.member("at_nanos", &a.at.as_nanos());
    w.member("target", &a.target);
    w.key("action");
    match a.action {
        ServiceActionKind::Crash => w.str("crash"),
        ServiceActionKind::Recover => w.str("recover"),
        ServiceActionKind::BrownoutEnd => w.str("brownout_end"),
        ServiceActionKind::BrownoutStart(BrownoutMode::ThrottleStorm) => w.str("brownout_throttle"),
        ServiceActionKind::BrownoutStart(BrownoutMode::Delay(d)) => {
            w.str(&format!("brownout_delay:{}", d.as_nanos()))
        }
    }
    w.end_object();
}

fn action_kind_from_json(r: &mut JsonReader<'_>) -> Result<ServiceActionKind, JsonError> {
    match &*r.string()? {
        "crash" => Ok(ServiceActionKind::Crash),
        "recover" => Ok(ServiceActionKind::Recover),
        "brownout_end" => Ok(ServiceActionKind::BrownoutEnd),
        "brownout_throttle" => Ok(ServiceActionKind::BrownoutStart(BrownoutMode::ThrottleStorm)),
        other => match other.strip_prefix("brownout_delay:").and_then(|n| n.parse().ok()) {
            Some(nanos) => Ok(ServiceActionKind::BrownoutStart(BrownoutMode::Delay(
                SimDuration::from_nanos(nanos),
            ))),
            None => Err(JsonError::schema(format!("unknown service action {other:?}"))),
        },
    }
}

fn action_from_json(r: &mut JsonReader<'_>) -> Result<ExecutedAction, JsonError> {
    read_members!(r => at_nanos, target, action: action_kind_from_json);
    Ok(ExecutedAction { at: SimTime::from_nanos(at_nanos), target, action })
}

impl ToJson for FaultLedger {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("net");
        w.begin_object();
        w.member("blocked", &self.net.blocked);
        w.member("dropped", &self.net.dropped);
        w.member("delayed", &self.net.delayed);
        w.end_object();
        w.key("actions");
        w.array(&self.actions, action_to_json);
        w.member("skipped_actions", &self.skipped_actions);
        w.member("agent_rpc", &self.agent_rpc);
        w.end_object();
    }
}

impl FromJson for FaultLedger {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let net_stats = |r: &mut JsonReader<'_>| {
            read_members!(r => blocked, dropped, delayed);
            Ok(conprobe_sim::FaultNetStats { blocked, dropped, delayed })
        };
        read_members!(r =>
            net: net_stats, actions: |r| r.elements(action_from_json), skipped_actions, agent_rpc,
        );
        Ok(FaultLedger { net, actions, skipped_actions, agent_rpc })
    }
}

impl ToJson for crate::agent::RpcStats {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.member("retransmits", &self.retransmits);
        w.member("abandoned", &self.abandoned);
        w.member("throttled", &self.throttled);
        w.member("max_throttle_streak", &self.max_throttle_streak);
        w.end_object();
    }
}

impl FromJson for crate::agent::RpcStats {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        read_members!(r => retransmits, abandoned, throttled, max_throttle_streak);
        Ok(Self { retransmits, abandoned, throttled, max_throttle_streak })
    }
}

impl ToJson for AgentHealth {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.member("agent_index", &self.agent_index);
        w.member("heartbeats", &self.heartbeats);
        w.member("quarantined", &self.quarantined);
        w.member("log_collected", &self.log_collected);
        w.end_object();
    }
}

impl FromJson for AgentHealth {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        read_members!(r => agent_index, heartbeats, quarantined, log_collected);
        Ok(AgentHealth { agent_index, heartbeats, quarantined, log_collected })
    }
}

/// A [`TestResult`] as a journal `result` object. The analysis and the
/// white-box report are intentionally omitted (see the module docs).
impl ToJson for TestResult {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.member("trace", &self.trace);
        w.member("completed", &self.completed);
        w.member("reads_per_agent", &self.reads_per_agent);
        w.member("writes_total", &self.writes_total);
        w.member("duration_secs", &self.duration_secs);
        w.member("partitioned", &self.partitioned);
        w.member("clock_error_nanos", &self.clock_error_nanos);
        w.member("clock_uncertainty_nanos", &self.clock_uncertainty_nanos);
        w.key("agent_regions");
        w.array(&self.agent_regions, region_to_json);
        w.member("fault_ledger", &self.fault_ledger);
        w.member("agent_health", &self.agent_health);
        w.member("salvaged", &self.salvaged);
        w.member("seed", &self.seed);
        w.member("sim_events", &self.sim_events);
        w.member("service", service_token(self.service));
        w.key("agent_entries");
        w.array(&self.agent_entries, |w, node| w.u64(node.0 as u64));
        w.end_object();
    }
}

/// The journal `result` object of `result` as a document tree: what its
/// one encoder writes, parsed.
pub fn result_to_json(result: &TestResult) -> JsonValue {
    conprobe_json::parse(&result.to_compact()).expect("the record encoder writes JSON")
}

/// Rebuilds a [`TestResult`] from a journal `result`, recomputing the
/// analysis with the checker configuration `config` implies — the
/// determinism-of-resume guarantee rests on `analyze` being a pure
/// function of `(trace, checker config)`.
///
/// # Errors
///
/// Returns the schema [`JsonError`] recovery found when the payload has
/// the wrong shape.
pub fn result_from_json(
    config: &TestConfig,
    payload: &DecodedResult,
) -> Result<TestResult, JsonError> {
    let mut result = payload.0.as_deref().map_err(JsonError::clone)?.clone();
    result.analysis = analyze(&result.trace, &checker_config_for(config));
    Ok(result)
}

/// Reads a journal `result` object: every field but the analysis, which
/// is left empty, and the white-box report.
fn journaled_result(r: &mut JsonReader<'_>) -> Result<TestResult, JsonError> {
    read_members!(r =>
        trace, completed, reads_per_agent, writes_total, duration_secs, partitioned,
        clock_error_nanos, clock_uncertainty_nanos,
        agent_regions: |r| r.elements(region_from_json),
        fault_ledger, agent_health, salvaged, seed, sim_events,
        service: service_from_json,
        agent_entries: |r| r.elements(|r| usize::read_json(r).map(NodeId)),
    );
    Ok(TestResult {
        analysis: TestAnalysis {
            observations: Vec::new(),
            content_windows: Vec::new(),
            order_windows: Vec::new(),
        },
        trace,
        completed,
        reads_per_agent,
        writes_total,
        duration_secs,
        partitioned,
        clock_error_nanos,
        clock_uncertainty_nanos,
        agent_regions,
        whitebox: None,
        fault_ledger,
        agent_health,
        salvaged,
        seed,
        sim_events,
        service,
        agent_entries,
    })
}

/// Stable cell identifier for a (service, test-kind) campaign cell.
pub fn cell_id(service: ServiceKind, kind: crate::proto::TestKind) -> String {
    let kind = match kind {
        crate::proto::TestKind::Test1 => "test1",
        crate::proto::TestKind::Test2 => "test2",
    };
    format!("{}/{kind}", service_token(service))
}

/// Cell identifier for a live-path chaos sweep (`chaos --wire`): its own
/// namespace, so an interposer-arm journal never splices into (or out
/// of) a simulated sweep's `chaos/…` cell or a plain probe's `wire/…`
/// cell with the same service and test kind.
pub fn wire_chaos_cell_id(service: ServiceKind, kind: crate::proto::TestKind) -> String {
    format!("chaos-wire/{}", cell_id(service, kind))
}

// ---------------------------------------------------------------------------
// Inspection
// ---------------------------------------------------------------------------

/// Per-cell completion summary for `conprobe journal inspect`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSummary {
    /// Cell identifier.
    pub cell: String,
    /// Completed instances recorded.
    pub completed: usize,
    /// Quarantined crashes recorded.
    pub crashed: usize,
    /// Highest instance index seen (completion is dense 0..=max when no
    /// instance is missing).
    pub max_instance: u32,
}

/// Groups a recovery into per-cell summaries (sorted by cell id).
pub fn summarize(recovery: &Recovery) -> Vec<CellSummary> {
    let mut by_cell: BTreeMap<&str, CellSummary> = BTreeMap::new();
    for record in &recovery.records {
        let entry = by_cell.entry(&record.key.cell).or_insert_with(|| CellSummary {
            cell: record.key.cell.clone(),
            completed: 0,
            crashed: 0,
            max_instance: 0,
        });
        match record.entry {
            RecoveredEntry::Completed(_) => entry.completed += 1,
            RecoveredEntry::Crashed { .. } => entry.crashed += 1,
        }
        entry.max_instance = entry.max_instance.max(record.key.instance);
    }
    by_cell.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::TestKind;
    use crate::runner::run_one_test;
    use crate::stats;
    use conprobe_core::window::WindowKind;
    use conprobe_json::testkit::{self, Edit, TestRng};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SERIAL: AtomicU64 = AtomicU64::new(0);
        let n = SERIAL.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir()
            .join(format!("conprobe-journal-{tag}-{}-{n}.jsonl", std::process::id()))
    }

    #[test]
    fn cell_namespaces_never_collide_across_run_modes() {
        // A journal shared by sim sweeps, live probes and wire chaos
        // sweeps keys each mode's records into a distinct cell.
        let sim = cell_id(ServiceKind::Blogger, TestKind::Test2);
        let wire_chaos = wire_chaos_cell_id(ServiceKind::Blogger, TestKind::Test2);
        assert_eq!(sim, "blogger/test2");
        assert_eq!(wire_chaos, "chaos-wire/blogger/test2");
        assert_ne!(format!("chaos/{sim}"), wire_chaos);
        assert_ne!(format!("wire/{sim}"), wire_chaos);
    }

    #[test]
    fn create_under_a_file_parent_is_a_typed_error_not_a_panic() {
        let parent = temp_path("not-a-dir");
        std::fs::write(&parent, b"a file, not a directory").unwrap();
        let err = Journal::create(parent.join("journal.jsonl"))
            .expect_err("a file cannot be a parent directory");
        // ENOTDIR surfaces as a plain io::Error for the caller to report.
        assert_ne!(err.kind(), std::io::ErrorKind::Other, "{err}");
        std::fs::remove_file(&parent).ok();
    }

    #[test]
    fn append_io_error_surfaces_instead_of_panicking() {
        // `/dev/full` accepts the open but fails every write with ENOSPC
        // — the kernel's built-in fault injector for exactly this path.
        let full = Path::new("/dev/full");
        if !full.exists() {
            return; // platform without /dev/full; covered on CI (Linux)
        }
        let journal = Journal::create(full).expect("character devices open for writing");
        let err = journal
            .append_crashed("cell/test1", 0, 7, "boom")
            .expect_err("a full device must fail the append");
        assert_eq!(err.raw_os_error(), Some(28), "expected ENOSPC, got {err}");
        // The journal object stays usable for error reporting (no
        // poisoned lock, no unwinding inside append_payload).
        let again = journal.append_crashed("cell/test1", 1, 7, "boom");
        assert!(again.is_err());
    }

    /// What recovery hands [`result_from_json`] for a completed record.
    fn result_text(payload: &str) -> DecodedResult {
        match parse_record_payload(payload).expect("a valid record").entry {
            RecoveredEntry::Completed(text) => text,
            RecoveredEntry::Crashed { .. } => panic!("expected a completed record"),
        }
    }

    #[test]
    fn completed_record_round_trips_with_recomputed_analysis() {
        let config = TestConfig::paper(ServiceKind::Blogger, TestKind::Test2);
        let result = run_one_test(&config, 11);
        let payload = completed_record_json("blogger/test2", 3, 11, &result);
        let back = result_from_json(&config, &result_text(&payload)).expect("round trip");
        assert_eq!(back.trace, result.trace);
        assert_eq!(back.completed, result.completed);
        assert_eq!(back.reads_per_agent, result.reads_per_agent);
        assert_eq!(back.duration_secs, result.duration_secs);
        assert_eq!(back.clock_error_nanos, result.clock_error_nanos);
        assert_eq!(back.agent_regions, result.agent_regions);
        assert_eq!(back.agent_entries, result.agent_entries);
        assert_eq!(back.seed, result.seed);
        assert_eq!(back.sim_events, result.sim_events);
        assert_eq!(back.service, result.service);
        // The recomputed analysis is byte-identical at the observation
        // level (pure function of trace + config).
        assert_eq!(back.analysis.observations, result.analysis.observations);
        assert_eq!(back.analysis.content_windows, result.analysis.content_windows);
        assert_eq!(back.analysis.order_windows, result.analysis.order_windows);
        // And a second serialization is a fixpoint, in one write that the
        // reserved buffer held without regrowing or much to spare.
        let again = completed_record_json("blogger/test2", 3, 11, &back);
        assert_eq!(again, payload);
        assert_eq!(again.capacity(), record_capacity(&back));
        assert!(again.len() * 3 > again.capacity() * 2, "{} of {}", again.len(), again.capacity());
        // The tree view is the same text, parsed.
        let record = conprobe_json::parse(&payload).unwrap();
        assert_eq!(&result_to_json(&back), conprobe_json::member(&record, "result").unwrap());
    }

    #[test]
    fn record_members_decode_in_any_order_and_checks_stay_where_they_were() {
        let config = TestConfig::paper(ServiceKind::Blogger, TestKind::Test1);
        let result = run_one_test(&config, 5);
        let payload = completed_record_json("blogger/test1", 0, 5, &result);
        let JsonValue::Object(mut envelope) = conprobe_json::parse(&payload).unwrap() else {
            panic!("a record is an object")
        };
        // Reversed at both levels, with an unknown member and a late
        // duplicate in each: same key, same result.
        for (_, value) in &mut envelope {
            if let JsonValue::Object(members) = value {
                members.reverse();
                members.push(("seed".into(), JsonValue::Str("a later duplicate".into())));
                members.push(("added_in_v2".into(), JsonValue::Array(vec![JsonValue::Null])));
            }
        }
        envelope.reverse();
        envelope.push(("instance".into(), JsonValue::Int(99)));
        envelope.push(("added_in_v2".into(), JsonValue::Bool(true)));
        let shuffled = JsonValue::Object(envelope).to_compact();
        let record = parse_record_payload(&shuffled).expect("order and extras do not matter");
        assert_eq!(record.key, JournalKey { cell: "blogger/test1".into(), instance: 0, seed: 5 });
        let back = result_from_json(&config, &result_text(&shuffled)).expect("decodes");
        assert_eq!(completed_record_json("blogger/test1", 0, 5, &back), payload);

        // Recovery checks syntax and the envelope; the result's schema is
        // checked when it is decoded.
        let wrong_type = payload.replace("\"writes_total\":", "\"writes_total\":\"x\",\"was\":");
        assert!(result_from_json(&config, &result_text(&wrong_type)).is_err());
        let backwards =
            payload.replacen("\"invoke\":", "\"invoke\":9223372036854775807,\"was\":", 1);
        let err = result_from_json(&config, &result_text(&backwards)).unwrap_err();
        assert!(err.message.contains("precedes"), "{err}");
        for bad in [
            payload.replace("\"writes_total\":", "\"writes_total\":01,\"was\":"),
            payload.replace("\"duration_secs\":", "\"duration_secs\":1e400,\"was\":"),
            payload.replace("\"instance\":0", "\"instance\":4294967296"),
            payload.replace("\"instance\":0", "\"instance\":\"0\""),
            payload.replace("\"status\":\"completed\"", "\"status\":\"done\""),
            payload.replace("\"status\":\"completed\"", "\"status\":7"),
            payload.replace("\"result\":", "\"outcome\":"),
            format!("{payload}}}"),
        ] {
            assert!(parse_record_payload(&bad).is_err(), "{}", &bad[..120]);
        }
    }

    /// The north star's "every decoder and recovery path stays panic-free
    /// under fuzz", past the checksum: each mutated record is re-framed
    /// with a correct length and hash, so recovery takes the line as
    /// written and the mutation reaches the reader and the schema.
    #[test]
    fn mutated_records_under_a_valid_checksum_never_panic_a_decoder() {
        let config = TestConfig::paper(ServiceKind::FacebookGroup, TestKind::Test1);
        let result = run_one_test(&config, 7);
        let payload = completed_record_json("fbgroup/test1", 2, 7, &result).into_bytes();
        let alphabet = b"{}[]\",:-0e.\\nut";
        let edits = [
            Edit::Flip(7),
            Edit::Replace(alphabet, &[]),
            Edit::Delete,
            Edit::Truncate,
            Edit::Splice,
        ];
        let mut rng = TestRng::new(0xF022);
        let (mut recovered, mut decoded) = (0, 0);
        for _ in 0..4000 {
            let bytes = testkit::mutant(&payload, &edits, 3, &mut rng);
            let Ok(mutated) = String::from_utf8(bytes) else { continue };
            let line = frame::encode_record(&mutated);
            let Ok(recovery) = recover_bytes(line.as_bytes()) else { unreachable!("one line") };
            assert_eq!(recovery.tail.is_some(), parse_record_payload(&mutated).is_err());
            for (_, (_, text)) in recovery.completed_for("fbgroup/test1") {
                recovered += 1;
                decoded += usize::from(result_from_json(&config, text).is_ok());
            }
        }
        // The mutations land on both sides of every check.
        assert!(recovered > 100 && decoded > 10 && decoded < recovered, "{decoded}/{recovered}");
    }

    /// Value mode past the checksum: each integer of a completed record —
    /// key, instants, ids, counts, ledger — set to its edge values and
    /// re-framed. Recovery never panics: a line is refused whole (a tail),
    /// or kept with its result either refused by the schema or rebuilt, and
    /// a rebuilt result goes through the `repro` figures, which take
    /// differences of its instants.
    #[test]
    fn hostile_values_in_a_completed_record_are_refused_or_answered() {
        let config = TestConfig::paper(ServiceKind::FacebookGroup, TestKind::Test1);
        // The first ten operations: every integer of a record takes 15
        // values, so the whole 24-operation trace costs a debug run 3 s.
        let mut result = run_one_test(&config, 7);
        result.trace = conprobe_core::TestTrace::new(result.trace.ops()[..10].to_vec());
        let line = frame::encode_record(&completed_record_json("fbgroup/test1", 2, 7, &result));
        let (mut refused, mut answered) = (0, 0);
        for mutant in testkit::record_values(&line) {
            let recovery = recover_on(mutant.as_bytes(), 1).expect("one line is never a middle");
            refused += usize::from(recovery.tail.is_some());
            for (_, (_, decoded)) in recovery.completed_for("fbgroup/test1") {
                let Ok(result) = result_from_json(&config, decoded) else {
                    refused += 1;
                    continue;
                };
                answered += 1;
                let results = [result];
                for (kind, pair) in [WindowKind::Content, WindowKind::Order]
                    .into_iter()
                    .flat_map(|kind| stats::PAIRS.map(|pair| (kind, pair)))
                {
                    stats::largest_windows_secs(&results, kind, pair);
                }
                stats::visibility_by_locality(&results);
            }
        }
        assert!(refused > 100 && answered > 100, "{refused} refused, {answered} answered");
    }

    /// A checksum-valid record whose instants span more than an `i64` of
    /// nanoseconds is kept with its schema error, and a resume re-runs it.
    #[test]
    fn a_record_whose_timestamps_span_more_than_an_i64_is_kept_and_re_run() {
        use conprobe_core::{AgentId, TestTraceBuilder, Timestamp};
        let config = TestConfig::paper(ServiceKind::FacebookGroup, TestKind::Test1);
        let mut result = run_one_test(&config, 7);
        let (t, post) = (Timestamp::from_nanos, crate::proto::test1_post(0, 1));
        let (early, late) = (i64::MIN + 10, i64::MAX - 10);
        let mut b = TestTraceBuilder::new();
        b.write(AgentId(0), t(early), t(early + 5), post);
        b.read(AgentId(1), t(early), t(early + 5), vec![post]);
        b.read(AgentId(0), t(late - 5), t(late), vec![post]);
        b.read(AgentId(1), t(late - 5), t(late), vec![]);
        result.trace = b.build();
        let line = frame::encode_record(&completed_record_json("fbgroup/test1", 0, 7, &result));
        let recovery = recover_bytes(line.as_bytes()).expect("a valid line");
        assert_eq!((recovery.records.len(), &recovery.tail), (1, &None));
        let completed = recovery.completed_for("fbgroup/test1");
        let err = result_from_json(&config, completed[&0].1).unwrap_err();
        assert!(err.message.contains("outside ±2^62 ns"), "{err}");
        assert!(splice("fbgroup/test1", "instance", 0, completed[&0], 7, &config).is_none());
    }

    /// The same fuzz one layer out, in the shape of `wire::frame`'s: every
    /// byte of a three-line journal — magic, length, checksum, separators,
    /// payload, newline — flipped four ways. Recovery never panics, and a
    /// damaged line either decodes to the original records or is lost
    /// where it starts: as the tail when it (merged with the next line, if
    /// its newline was hit) runs to the end, as `CorruptMiddle` otherwise.
    #[test]
    fn single_byte_mutations_of_framed_lines_are_caught_at_their_line() {
        let lines: Vec<String> = (0..3)
            .map(|i| frame::encode_record(&crashed_record_json("fbgroup/test1", i, 7, "boom")))
            .collect();
        let bytes = lines.concat().into_bytes();
        let starts: Vec<usize> = (0..3).map(|i| lines[..i].concat().len()).collect();
        let clean = recover_bytes(&bytes).expect("an undamaged journal");
        assert_eq!(clean.records.len(), 3);
        for (pos, flip, damaged) in testkit::flips(&bytes) {
            let line = starts.iter().rposition(|&s| s <= pos).expect("line 0 starts at 0");
            let at = format!("byte {pos} ^ {flip:#04x}");
            match recover_bytes(&damaged) {
                Ok(r) if r.tail.is_none() => assert_eq!(r.records, clean.records, "{at}"),
                Ok(r) => {
                    assert_eq!(r.tail.expect("a tail").offset, starts[line] as u64, "{at}");
                    assert_eq!(r.records, clean.records[..line], "{at}");
                }
                Err(JournalError::CorruptMiddle { record, offset, .. }) => {
                    assert_eq!((record, offset), (line, starts[line] as u64), "{at}");
                }
                Err(e) => panic!("{at}: {e}"),
            }
        }
    }

    #[test]
    fn ledger_and_actions_round_trip() {
        use conprobe_sim::FaultNetStats;
        let ledger = FaultLedger {
            net: FaultNetStats { blocked: 3, dropped: 1, delayed: 7 },
            actions: vec![
                ExecutedAction {
                    at: SimTime::from_nanos(5),
                    target: 1,
                    action: ServiceActionKind::Crash,
                },
                ExecutedAction {
                    at: SimTime::from_nanos(9),
                    target: 0,
                    action: ServiceActionKind::BrownoutStart(BrownoutMode::Delay(
                        SimDuration::from_millis(20),
                    )),
                },
                ExecutedAction {
                    at: SimTime::from_nanos(11),
                    target: 0,
                    action: ServiceActionKind::BrownoutEnd,
                },
            ],
            skipped_actions: 2,
            agent_rpc: vec![crate::agent::RpcStats {
                retransmits: 4,
                abandoned: 1,
                throttled: 9,
                max_throttle_streak: 3,
            }],
        };
        let back = FaultLedger::from_json_str(&ledger.to_compact()).unwrap();
        assert_eq!(back.net, ledger.net);
        assert_eq!(back.actions, ledger.actions);
        assert_eq!(back.skipped_actions, ledger.skipped_actions);
        assert_eq!(back.agent_rpc, ledger.agent_rpc);
    }

    #[test]
    fn empty_journal_recovers_to_nothing() {
        let path = temp_path("empty");
        std::fs::write(&path, b"").unwrap();
        let r = Journal::recover(&path).unwrap();
        assert!(r.records.is_empty());
        assert_eq!(r.total_records, 0);
        assert!(r.tail.is_none());
        assert_eq!(r.valid_len, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_journal_is_an_io_error_not_a_panic() {
        let err = Journal::recover(temp_path("missing")).unwrap_err();
        assert!(matches!(err, JournalError::Io(_)), "{err}");
    }

    #[test]
    fn tail_truncated_at_every_byte_boundary_recovers_the_prefix() {
        let path = temp_path("trunc");
        let journal = Journal::create(&path).unwrap();
        journal.append_crashed("cell/a", 0, 100, "first").unwrap();
        journal.append_crashed("cell/a", 1, 101, "second").unwrap();
        let full = std::fs::read(&path).unwrap();
        let clean = recover_bytes(&full).unwrap();
        assert_eq!(clean.records.len(), 2);
        assert!(clean.tail.is_none());
        let first_len = clean.records_boundary(&full);
        // Cut the file anywhere inside the second record (from losing
        // just the newline to losing all but one byte).
        for cut in first_len + 1..full.len() {
            let r = recover_bytes(&full[..cut])
                .unwrap_or_else(|e| panic!("cut at {cut}/{} must recover, got {e}", full.len()));
            assert_eq!(r.records.len(), 1, "cut at {cut}");
            assert_eq!(r.records[0].key.instance, 0);
            assert_eq!(r.valid_len, first_len as u64, "cut at {cut}");
            let tail = r.tail.expect("truncation must be diagnosed");
            assert_eq!(tail.offset, first_len as u64);
            assert_eq!(tail.bytes as usize, cut - first_len);
        }
        std::fs::remove_file(&path).ok();
    }

    impl Recovery {
        /// Test helper: byte offset after the first record line.
        fn records_boundary(&self, bytes: &[u8]) -> usize {
            bytes.iter().position(|&b| b == b'\n').unwrap() + 1
        }
    }

    #[test]
    fn checksum_flip_in_middle_record_is_rejected_with_clear_error() {
        let path = temp_path("flip");
        let journal = Journal::create(&path).unwrap();
        journal.append_crashed("cell/a", 0, 100, "first").unwrap();
        journal.append_crashed("cell/a", 1, 101, "second").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte inside the *first* record.
        let payload_pos = bytes.iter().position(|&b| b == b'{').unwrap();
        bytes[payload_pos + 10] ^= 0x01;
        let err = recover_bytes(&bytes).unwrap_err();
        match err {
            JournalError::CorruptMiddle { record, offset, ref reason } => {
                assert_eq!(record, 0);
                assert_eq!(offset, 0);
                assert!(reason.contains("checksum") || reason.contains("JSON"), "{reason}");
            }
            other => panic!("expected CorruptMiddle, got {other}"),
        }
        assert!(err.to_string().contains("refusing to resume"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_flip_in_tail_record_is_dropped_with_report() {
        let path = temp_path("tailflip");
        let journal = Journal::create(&path).unwrap();
        journal.append_crashed("cell/a", 0, 100, "first").unwrap();
        journal.append_crashed("cell/a", 1, 101, "second").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 3; // inside the final record's payload
        bytes[last] ^= 0x01;
        let r = recover_bytes(&bytes).unwrap();
        assert_eq!(r.records.len(), 1);
        let tail = r.tail.expect("corrupt tail must be diagnosed");
        assert!(
            tail.reason.contains("checksum") || tail.reason.contains("JSON"),
            "{}",
            tail.reason
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_keys_resolve_last_writer_wins() {
        let path = temp_path("dup");
        let journal = Journal::create(&path).unwrap();
        journal.append_crashed("cell/a", 0, 100, "first attempt").unwrap();
        journal.append_crashed("cell/b", 0, 100, "other cell").unwrap();
        journal.append_crashed("cell/a", 0, 100, "second attempt").unwrap();
        let r = Journal::recover(&path).unwrap();
        assert_eq!(r.total_records, 3);
        assert_eq!(r.duplicates, 1);
        assert_eq!(r.records.len(), 2);
        let winner =
            r.records.iter().find(|rec| rec.key.cell == "cell/a").expect("cell/a survives");
        assert_eq!(winner.entry, RecoveredEntry::Crashed { panic: "second attempt".into() });
        // The winner takes the place of the record it supersedes.
        assert_eq!(r.records[0].key.cell, "cell/a");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_truncates_damaged_tail_and_appends_cleanly() {
        let path = temp_path("resume");
        let journal = Journal::create(&path).unwrap();
        journal.append_crashed("cell/a", 0, 100, "first").unwrap();
        journal.append_crashed("cell/a", 1, 101, "second").unwrap();
        drop(journal);
        // Simulate a crash mid-write: lop 7 bytes off the tail.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let (journal, recovery) = Journal::resume(&path).unwrap();
        assert_eq!(recovery.records.len(), 1);
        assert!(recovery.tail.is_some());
        journal.append_crashed("cell/a", 1, 101, "rewritten").unwrap();
        drop(journal);
        let r = Journal::recover(&path).unwrap();
        assert!(r.tail.is_none(), "resume must have truncated the damage");
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.records[1].entry, RecoveredEntry::Crashed { panic: "rewritten".into() });
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_appends_share_syncs_and_lose_nothing() {
        let path = temp_path("group");
        let journal = Journal::create(&path).unwrap();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let (journal, start) = (&journal, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..50 {
                        journal
                            .append_payload(&crashed_record_json("cell/a", t * 50 + i, 9, "x"))
                            .unwrap();
                    }
                });
            }
        });
        let (written, syncs) = journal.counts();
        assert_eq!(written, 200);
        assert!((1..=200).contains(&syncs), "{syncs} fsyncs for 200 records");
        // Durable on return: nothing is left for a further wait to sync.
        journal.wait_durable(written).unwrap();
        assert_eq!(journal.counts(), (written, syncs));
        let r = Journal::recover(&path).unwrap();
        assert_eq!(r.records.len(), 200);
        assert_eq!(r.duplicates, 0);
        assert!(r.tail.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_lost_unsynced_suffix_is_a_tail_and_resumes_identically() {
        use crate::campaign::{run_campaign, run_campaign_journaled, CampaignConfig};
        let path = temp_path("suffix");
        let cell = "blogger/test1";
        let mut c = CampaignConfig::paper(ServiceKind::Blogger, TestKind::Test1, 6);
        c.threads = 1;
        let journal = Journal::create(&path).unwrap();
        run_campaign_journaled(&c, None, cell, Some(&journal), None);
        drop(journal);
        let full = std::fs::read(&path).unwrap();
        let ends: Vec<usize> =
            full.iter().enumerate().filter(|(_, &b)| b == b'\n').map(|(i, _)| i + 1).collect();
        assert_eq!(ends.len(), 6);
        let uninterrupted = run_campaign(&c);

        // A crash inside the unsynced window leaves the file cut anywhere
        // in the records not yet synced — here, the last three. The scan
        // starts at the window: the three records before it read the same
        // at every cut, and re-parsing them 13 000 times costs a debug
        // build 15 s.
        let window = &full[ends[2]..];
        for cut in 0..window.len() {
            let at = ends[2] + cut;
            let r = recover_bytes(&window[..cut])
                .unwrap_or_else(|e| panic!("cut at {at} must recover, got {e}"));
            let whole = ends.iter().filter(|&&end| end <= at).count();
            assert_eq!(r.records.len(), whole - 3, "cut at {at}");
            assert_eq!(ends[2] + r.valid_len as usize, ends[whole - 1], "cut at {at}");
            assert_eq!(r.tail.is_some(), at != ends[whole - 1], "cut at {at}");
        }

        // Resuming from each surviving prefix re-runs the rest to the
        // results of a campaign that was never interrupted.
        for lost in 1..=3 {
            std::fs::write(&path, &full[..ends[6 - lost] - 1]).unwrap();
            let (journal, recovery) = Journal::resume(&path).unwrap();
            assert!(recovery.tail.is_some());
            let resumed = run_campaign_journaled(&c, None, cell, Some(&journal), Some(&recovery));
            drop(journal);
            assert_eq!(resumed.resumed, 6 - lost);
            assert_eq!(resumed.results.len(), 6);
            for (a, b) in resumed.results.iter().zip(&uninterrupted.results) {
                assert_eq!(a.trace, b.trace);
                assert_eq!(a.analysis.observations, b.analysis.observations);
            }
            assert_eq!(std::fs::read(&path).unwrap().len(), full.len());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn summarize_groups_by_cell() {
        let path = temp_path("summary");
        let journal = Journal::create(&path).unwrap();
        journal.append_crashed("blogger/test1", 3, 1, "boom").unwrap();
        journal.append_crashed("gplus/test2", 0, 2, "bang").unwrap();
        journal.append_crashed("blogger/test1", 1, 3, "pow").unwrap();
        let r = Journal::recover(&path).unwrap();
        let cells = summarize(&r);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].cell, "blogger/test1");
        assert_eq!(cells[0].crashed, 2);
        assert_eq!(cells[0].max_instance, 3);
        assert_eq!(cells[1].cell, "gplus/test2");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn region_and_action_tokens_round_trip() {
        for region in [
            Region::Oregon,
            Region::Tokyo,
            Region::Ireland,
            Region::Virginia,
            Region::Datacenter(4),
        ] {
            let mut w = JsonWriter::compact();
            region_to_json(&mut w, &region);
            assert_eq!(region_from_json(&mut JsonReader::new(&w.finish())), Ok(region));
        }
        assert!(region_from_json(&mut JsonReader::new("\"XX\"")).is_err());
        for service in ServiceKind::CATALOG {
            let token = format!("{:?}", service_token(service));
            assert_eq!(service_from_json(&mut JsonReader::new(&token)), Ok(service));
        }
        assert!(service_from_json(&mut JsonReader::new("\"gminus\"")).is_err());
    }

    /// A quorum or pbft record rebuilds: its service token is in the
    /// catalog, so a resume splices every instance instead of re-running it.
    #[test]
    fn strong_arms_resume_from_their_journal() {
        use crate::campaign::{run_campaign_journaled, CampaignConfig};
        for service in [ServiceKind::Quorum, ServiceKind::Pbft] {
            let path = temp_path("strong");
            let cell = cell_id(service, TestKind::Test2);
            let mut c = CampaignConfig::paper(service, TestKind::Test2, 3);
            c.threads = 1;
            let journal = Journal::create(&path).unwrap();
            let first = run_campaign_journaled(&c, None, &cell, Some(&journal), None);
            drop(journal);
            let (journal, recovery) = Journal::resume(&path).unwrap();
            let resumed = run_campaign_journaled(&c, None, &cell, Some(&journal), Some(&recovery));
            drop(journal);
            assert_eq!((resumed.resumed, resumed.results.len()), (3, 3), "{cell}");
            for (a, b) in resumed.results.iter().zip(&first.results) {
                assert_eq!(a.trace, b.trace, "{cell}");
                assert_eq!(a.analysis.observations, b.analysis.observations, "{cell}");
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn newlines_are_found_at_every_alignment() {
        let mut bytes = vec![b'x'; 40];
        assert_eq!(find_newline(&bytes), None);
        for at in 0..bytes.len() {
            bytes[at] = b'\n';
            for start in 0..=at {
                assert_eq!(find_newline(&bytes[start..]), Some(at - start), "{start}..{at}");
            }
            // A byte that differs from `\n` in one bit, and `\n + 0x80`,
            // before the newline, are not newlines.
            for near in [b'\n' ^ 0x01, b'\n' ^ 0x80, 0x8a, 0x00] {
                let mut noisy = bytes.clone();
                noisy[..at].fill(near);
                assert_eq!(find_newline(&noisy), Some(at), "{near:#04x} before {at}");
            }
            bytes[at] = b'x';
        }
    }

    /// The serial recovery this module had before lines were checked on
    /// every core and each `result` decoded once, frozen as the oracle the
    /// parallel one is held to. A record's body is its `result` text
    /// (completed) or its panic message (crashed).
    mod serial {
        use super::*;

        type Record = (JournalKey, Result<String, String>);

        #[derive(Debug)]
        pub(super) struct Recovery {
            pub records: Vec<Record>,
            pub total_records: usize,
            pub duplicates: usize,
            pub tail: Option<TailLoss>,
            pub valid_len: u64,
        }

        pub(super) fn recover_bytes(bytes: &[u8]) -> Result<Recovery, JournalError> {
            let mut raw: Vec<Record> = Vec::new();
            let mut tail = None;
            let mut valid_len = 0u64;
            let mut offset = 0usize;
            let mut index = 0usize;
            while offset < bytes.len() {
                let rest = &bytes[offset..];
                let line_end = rest.iter().position(|&b| b == b'\n');
                let (line, consumed, complete) = match line_end {
                    Some(nl) => (&rest[..nl], nl + 1, true),
                    None => (rest, rest.len(), false),
                };
                let verdict = if complete {
                    parse_line(line)
                } else {
                    Err("record truncated mid-line (no trailing newline)".to_string())
                };
                match verdict {
                    Ok(record) => {
                        raw.push(record);
                        valid_len = (offset + consumed) as u64;
                        index += 1;
                    }
                    Err(reason) => {
                        let last = offset + consumed >= bytes.len();
                        if last {
                            tail = Some(TailLoss {
                                offset: offset as u64,
                                bytes: (bytes.len() - offset) as u64,
                                reason,
                            });
                            break;
                        }
                        return Err(JournalError::CorruptMiddle {
                            record: index,
                            offset: offset as u64,
                            reason,
                        });
                    }
                }
                offset += consumed;
            }
            let total_records = raw.len();
            let mut records: Vec<Record> = Vec::with_capacity(raw.len());
            let mut position: HashMap<(String, u32), usize> = HashMap::new();
            let mut duplicates = 0usize;
            for record in raw {
                match position.entry((record.0.cell.clone(), record.0.instance)) {
                    Entry::Occupied(at) => {
                        records[*at.get()] = record;
                        duplicates += 1;
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(records.len());
                        records.push(record);
                    }
                }
            }
            Ok(Recovery { records, total_records, duplicates, tail, valid_len })
        }

        fn parse_line(line: &[u8]) -> Result<Record, String> {
            let text = std::str::from_utf8(line).map_err(|_| "record is not UTF-8".to_string())?;
            let payload = frame::decode_record(text).map_err(|e| e.to_string())?;
            record_from_json(&mut JsonReader::new(payload)).map_err(|e| e.to_string())
        }

        fn record_from_json(r: &mut JsonReader<'_>) -> Result<Record, JsonError> {
            let lenient = |r: &mut JsonReader<'_>| match r.peek()? {
                b'"' => String::read_json(r),
                _ => r.skip_value().map(|_| String::new()),
            };
            read_members!(r => cell, instance, seed;
                status: lenient, result: |r| r.skip_value().map(String::from), panic: lenient);
            r.finish()?;
            let body = match status.as_deref().unwrap_or("") {
                "completed" => Ok(result.ok_or_else(|| conprobe_json::missing("result"))?),
                "crashed" => Err(panic.unwrap_or_default()),
                other => return Err(JsonError::schema(format!("unknown record status {other:?}"))),
            };
            Ok((JournalKey { cell, instance, seed }, body))
        }
    }

    /// What the oracle's caller rebuilt from a `result` text: the text
    /// decoded on its own.
    fn decoded_alone(text: &str) -> DecodedResult {
        DecodedResult(journaled_result(&mut JsonReader::new(text)).map(Box::new))
    }

    /// Recovers `bytes` on `workers` threads and with the serial oracle,
    /// and asserts the two agree: the same counts, tail and valid prefix,
    /// and the same records — a completed one decoded to what the oracle's
    /// text decodes to alone, or rejected with the same error — or the
    /// same `CorruptMiddle`.
    fn assert_matches_oracle(bytes: &[u8], workers: usize, at: &str) {
        match (recover_on(bytes, workers), serial::recover_bytes(bytes)) {
            (Ok(new), Ok(old)) => {
                assert_eq!(
                    (new.total_records, new.duplicates, &new.tail, new.valid_len),
                    (old.total_records, old.duplicates, &old.tail, old.valid_len),
                    "{at}"
                );
                assert_eq!(new.records.len(), old.records.len(), "{at}");
                for (record, (key, body)) in new.records.iter().zip(&old.records) {
                    assert_eq!(&record.key, key, "{at}");
                    match (&record.entry, body) {
                        (RecoveredEntry::Completed(decoded), Ok(text)) => {
                            assert!(*decoded == decoded_alone(text), "{at}: {key:?}");
                        }
                        (RecoveredEntry::Crashed { panic }, Err(old)) => {
                            assert_eq!(panic, old, "{at}");
                        }
                        (_, body) => panic!("{at}: {key:?} changed status, was {body:?}"),
                    }
                }
            }
            (
                Err(JournalError::CorruptMiddle { record, offset, reason }),
                Err(JournalError::CorruptMiddle { record: was, offset: at_was, reason: why }),
            ) => assert_eq!((record, offset, reason), (was, at_was, why), "{at}"),
            (new, old) => panic!("{at}: {:?} against {old:?}", new.map(|r| r.valid_len)),
        }
    }

    /// `n` framed records on `keys` keys (instance `i % keys`, so keys
    /// repeat when `keys < n`): record `i` is `result` completed where
    /// `completed(i)`, a crash otherwise. Returns each line.
    fn journal_lines(
        n: usize,
        keys: usize,
        completed: impl Fn(usize) -> bool,
        result: &TestResult,
    ) -> Vec<String> {
        (0..n)
            .map(|i| {
                let instance = (i % keys) as u32;
                frame::encode_record(&match completed(i) {
                    true => completed_record_json("blogger/test1", instance, 5, result),
                    false => {
                        crashed_record_json("blogger/test1", instance, 5, &format!("boom {i}"))
                    }
                })
            })
            .collect()
    }

    #[test]
    fn parallel_recovery_matches_the_serial_oracle() {
        let config = TestConfig::paper(ServiceKind::Blogger, TestKind::Test1);
        let result = run_one_test(&config, 5);
        let workers = [1, 2, 3, 4, 8];
        let every_third = |i: usize| i.is_multiple_of(3);

        // Clean journals, with and without duplicate keys; at 64 records
        // and `keys = 33`, record i and i + 33 share a key and sit in
        // different runs for every worker count above one.
        for n in [1, 2, 3, 17, 64] {
            for keys in [n, n / 2 + 1] {
                let bytes = journal_lines(n, keys, every_third, &result).concat().into_bytes();
                assert_matches_oracle(&bytes, 1, &format!("{n} records on {keys} keys"));
                for w in workers {
                    assert_matches_oracle(&bytes, w, &format!("{n} on {keys} keys, {w} workers"));
                }
                // And the rebuilt results equal the oracle's.
                let new = recover_bytes(&bytes).unwrap();
                let old = serial::recover_bytes(&bytes).unwrap();
                for (record, (_, body)) in new.records.iter().zip(&old.records) {
                    if let (RecoveredEntry::Completed(decoded), Ok(text)) = (&record.entry, body) {
                        let alone = decoded_alone(text);
                        let a = result_from_json(&config, decoded).unwrap();
                        let b = result_from_json(&config, &alone).unwrap();
                        assert_eq!(a.analysis.observations, b.analysis.observations);
                        assert_eq!(a.to_compact(), b.to_compact());
                    }
                }
            }
        }

        // Truncation at every offset inside the last two records, one of
        // them completed (the rest are crashes, which keeps the debug
        // build's 9 000 recoveries to a second).
        for (n, w) in [(3, 1), (17, 2)] {
            let lines = journal_lines(n, n, |i| i == n - 2, &result);
            let bytes = lines.concat().into_bytes();
            let from = lines[..n - 2].concat().len();
            for cut in from..bytes.len() {
                assert_matches_oracle(&bytes[..cut], w, &format!("{n} records cut at {cut}"));
            }
        }

        // One damaged line first, last, and either side of a run boundary:
        // a checksum flip, a byte that is not UTF-8, and a result that is
        // JSON but not a result (a record, rejected when rebuilt).
        let n = 64;
        let lines = journal_lines(n, n, every_third, &result);
        for w in [2, 3, 4] {
            let run = run_len(n, w);
            for at in [0, run - 1, run, n - 1] {
                let line = &lines[at];
                let payload = frame::decode_record(line).unwrap();
                let mut flipped = line.clone().into_bytes();
                let middle = line.len() - payload.len() / 2;
                flipped[middle] ^= 0x01;
                let mut not_utf8 = line.clone().into_bytes();
                not_utf8[middle] = 0xff;
                let not_a_result = frame::encode_record(
                    &completed_record_json("blogger/test1", at as u32, 5, &result)
                        .replace("\"writes_total\":", "\"writes_total\":true,\"was\":"),
                )
                .into_bytes();
                for (kind, damaged) in
                    [("flip", flipped), ("not UTF-8", not_utf8), ("not a result", not_a_result)]
                {
                    let mut bytes = lines[..at].concat().into_bytes();
                    bytes.extend_from_slice(&damaged);
                    let ended = bytes.len();
                    bytes.extend_from_slice(lines[at + 1..].concat().as_bytes());
                    assert_matches_oracle(&bytes, w, &format!("{kind} at line {at}, {w} workers"));
                    // Followed by one byte: still more data, so not the tail.
                    if ended < bytes.len() {
                        let cut = &bytes[..ended + 1];
                        assert_matches_oracle(cut, w, &format!("{kind} at line {at} + 1 byte"));
                    }
                }
            }
        }

        // Every byte of a short journal flipped four ways — the mutation
        // set of `single_byte_mutations_of_framed_lines_are_caught_at_their_line`
        // on 3 lines, and on 17 that two workers split.
        for (n, w) in [(3, 1), (17, 2)] {
            let lines: Vec<String> = (0..n)
                .map(|i| frame::encode_record(&crashed_record_json("fbgroup/test1", i, 7, "boom")))
                .collect();
            let bytes = lines.concat().into_bytes();
            for pos in 0..bytes.len() {
                for flip in [0x01, 0x20, 0x80, 0xff] {
                    let mut damaged = bytes.clone();
                    damaged[pos] ^= flip;
                    assert_matches_oracle(&damaged, w, &format!("byte {pos} ^ {flip:#04x}"));
                }
            }
        }
    }
}
