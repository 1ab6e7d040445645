//! Distributed campaigns: `conprobe dispatch` / `conprobe worker`.
//!
//! The paper's study ran ~1,000 test instances per (service, test) cell;
//! a single machine replays that comfortably, but the journal format and
//! seed derivation were designed so a cell can also be *farmed out*. This
//! module adds the farming: a **dispatch coordinator** owns the campaign
//! journal and a lease table over the cell's instances, and any number of
//! **workers** — separate `conprobe` processes started with the identical
//! campaign parameters — pull `(instance, seed)` units over `cpw1`
//! dispatch frames, run them with the ordinary panic-isolated runner, and
//! stream the finished journal-record payloads back.
//!
//! ## Why the output is byte-identical to a single-process run
//!
//! Three existing invariants carry the whole design:
//!
//! 1. Per-instance seeds are derived deterministically from the master
//!    seed (`SimRng::split_indexed("test", i)`), so coordinator and
//!    worker agree on every unit's seed without trusting each other — a
//!    grant whose seed does not match the worker's own derivation is a
//!    configuration mismatch and the worker refuses it.
//! 2. A journal record is a pure function of `(cell, instance, seed,
//!    result)`; the worker runs and serializes a unit with the exact code
//!    a local campaign uses ([`run_instance`]) and the coordinator
//!    appends the payload verbatim, so the merged journal is
//!    byte-compatible with one written by a single process.
//! 3. Campaign output is a pure function of the journal: the coordinator
//!    finishes by recovering its own journal and splicing it through
//!    [`run_campaign_journaled`] — the same resume path a crashed
//!    single-process campaign takes.
//!
//! ## Fault tolerance
//!
//! Units are *leased*, not assigned: a lease is released the moment its
//! worker's connection drops, and expires after [`DispatchConfig::
//! lease_timeout`] even if the connection stays open (hung worker). A
//! released or expired unit goes back to the pending pool and is granted
//! to the next requester, so killing a worker mid-run (the CI drill does
//! this with SIGKILL) costs only the in-flight unit's work. Result
//! pushes are at-least-once: a worker re-sends an unacknowledged record
//! after reconnecting, and the coordinator acknowledges-without-append
//! for units already done, keeping the journal free of duplicates.

use crate::client::{ReconnectPolicy, WireClient};
use crate::frame::{read_frame, write_frame, Frame, PROTO_VERSION};
use conprobe_harness::campaign::{
    run_campaign_journaled, run_instance, CampaignConfig, CampaignResult,
};
use conprobe_harness::journal::{self, Journal, Recovery};
use conprobe_sim::SimRng;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

fn io_invalid(context: &str, detail: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{context}: {detail}"))
}

// ---------------------------------------------------------------------------
// The lease table
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unit {
    Pending,
    Leased { session: u64, deadline: Instant },
    Done,
}

#[derive(Debug)]
struct Table {
    units: Vec<Unit>,
    done: usize,
    /// Leases re-issued after expiry or disconnect (reported to CI).
    reissued: u64,
}

/// Shared dispatcher state: the lease table plus a condvar that wakes
/// granting connections when a unit frees up or the cell completes.
struct Shared {
    table: Mutex<Table>,
    cv: Condvar,
}

impl Shared {
    fn new(units: Vec<Unit>) -> Shared {
        let done = units.iter().filter(|u| matches!(u, Unit::Done)).count();
        Shared { table: Mutex::new(Table { units, done, reissued: 0 }), cv: Condvar::new() }
    }

    fn all_done(&self) -> bool {
        let t = self.table.lock().unwrap_or_else(|p| p.into_inner());
        t.done == t.units.len()
    }

    /// Reclaims expired leases (holding the lock). Returns how many.
    fn reclaim_expired(t: &mut Table, now: Instant) -> usize {
        let mut n = 0;
        for u in &mut t.units {
            if matches!(u, Unit::Leased { deadline, .. } if *deadline <= now) {
                *u = Unit::Pending;
                t.reissued += 1;
                n += 1;
            }
        }
        n
    }

    /// Blocks until a unit can be leased to `session` (returning its
    /// index) or the whole cell is done (returning `None`). Expired
    /// leases are reclaimed by whoever is waiting, so a hung worker
    /// cannot strand its units even with no dispatcher-side timer
    /// thread.
    fn grant(&self, session: u64, lease: Duration) -> Option<usize> {
        let mut t = self.table.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            let now = Instant::now();
            Self::reclaim_expired(&mut t, now);
            if t.done == t.units.len() {
                return None;
            }
            if let Some(i) = t.units.iter().position(|u| matches!(u, Unit::Pending)) {
                t.units[i] = Unit::Leased { session, deadline: now + lease };
                return Some(i);
            }
            // Everything is leased out: sleep until the earliest lease
            // can expire or a completion/release notifies us.
            let earliest = t
                .units
                .iter()
                .filter_map(|u| match u {
                    Unit::Leased { deadline, .. } => Some(*deadline),
                    _ => None,
                })
                .min()
                .unwrap_or(now + lease);
            let wait = earliest.saturating_duration_since(now).max(Duration::from_millis(10));
            t = self.cv.wait_timeout(t, wait).unwrap_or_else(|p| p.into_inner()).0;
        }
    }

    /// Marks `i` done (idempotent). Returns whether this call freshly
    /// completed it — a duplicate push after a reconnect returns false
    /// and must not be journaled again.
    fn complete(&self, i: usize) -> bool {
        let mut t = self.table.lock().unwrap_or_else(|p| p.into_inner());
        let fresh = t.units[i] != Unit::Done;
        if fresh {
            t.units[i] = Unit::Done;
            t.done += 1;
        }
        self.cv.notify_all();
        fresh
    }

    fn finished(&self) -> usize {
        self.table.lock().unwrap_or_else(|p| p.into_inner()).done
    }

    /// Releases every lease held by `session` (its connection dropped).
    fn release_session(&self, session: u64) {
        let mut t = self.table.lock().unwrap_or_else(|p| p.into_inner());
        let mut released = 0;
        for u in &mut t.units {
            if matches!(u, Unit::Leased { session: s, .. } if *s == session) {
                *u = Unit::Pending;
                released += 1;
            }
        }
        t.reissued += released;
        if released > 0 {
            self.cv.notify_all();
        }
    }

    fn reissued(&self) -> u64 {
        self.table.lock().unwrap_or_else(|p| p.into_inner()).reissued
    }
}

// ---------------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------------

/// Configuration for [`run_dispatch`].
#[derive(Debug)]
pub struct DispatchConfig {
    /// The campaign cell being farmed out. Workers must be started with
    /// the identical cell parameters.
    pub config: CampaignConfig,
    /// Journal cell identifier (e.g. `blogger/test1`).
    pub cell: String,
    /// Address to listen on (`127.0.0.1:0` picks an ephemeral port; the
    /// bound address is reported through `on_ready`).
    pub addr: SocketAddr,
    /// How long a granted unit may stay unfinished before it is
    /// re-issued to another worker.
    pub lease_timeout: Duration,
}

/// What [`run_dispatch`] produced, beyond the merged campaign result.
#[derive(Debug)]
pub struct DispatchStats {
    /// Leases re-issued after a worker disconnect or lease expiry.
    pub reissued: u64,
    /// Distinct worker connections that requested at least one unit.
    pub connections: u64,
}

/// Runs the dispatch coordinator: listens on [`DispatchConfig::addr`],
/// leases the cell's pending instances to connecting workers, journals
/// every pushed record, and — once all units are done — merges the
/// journal through the ordinary resume path into a [`CampaignResult`]
/// identical to a single-process run of the same cell.
///
/// `journal` must be the coordinator's own open journal for this cell;
/// `recovery` (from a `--resume`) pre-completes instances already
/// journaled with matching seeds. `on_ready(addr)` fires once the
/// listener is bound (the CLI writes the ready-file there);
/// `progress(finished, total)` fires on every completed unit.
///
/// # Errors
///
/// Propagates listener I/O failures and journal recovery errors; a
/// misbehaving *worker* never fails the dispatch (its connection is
/// dropped and its units re-issued).
pub fn run_dispatch(
    cfg: &DispatchConfig,
    journal: Journal,
    recovery: Option<&Recovery>,
    on_ready: &mut (dyn FnMut(SocketAddr) + Send),
    progress: Option<&(dyn Fn(usize, usize) + Sync)>,
) -> Result<(CampaignResult, DispatchStats), Box<dyn std::error::Error + Send + Sync>> {
    let n = cfg.config.tests as usize;
    let root = SimRng::new(cfg.config.seed);
    let seeds: Vec<u64> = (0..n).map(|i| root.split_indexed("test", i as u64).seed()).collect();

    // Pre-complete units the recovered journal already covers with the
    // right seed (crashed records are retried, as on a local resume).
    let mut units = vec![Unit::Pending; n];
    if let Some(r) = recovery {
        let completed: BTreeMap<u32, (u64, _)> = r.completed_for(&cfg.cell);
        for (i, (seed, _)) in completed {
            let i = i as usize;
            if i < n && seed == seeds[i] {
                units[i] = Unit::Done;
            }
        }
    }
    let shared = Shared::new(units);

    let listener = TcpListener::bind(cfg.addr)?;
    let local = listener.local_addr()?;
    on_ready(local);

    let sessions = AtomicU64::new(0);
    let connections = AtomicU64::new(0);

    std::thread::scope(|scope| {
        // Completion monitor: once the last unit lands, a self-connect
        // unblocks the accept loop so the scope can drain.
        scope.spawn(|| {
            let mut t = shared.table.lock().unwrap_or_else(|p| p.into_inner());
            while t.done < t.units.len() {
                t = shared
                    .cv
                    .wait_timeout(t, Duration::from_millis(200))
                    .unwrap_or_else(|p| p.into_inner())
                    .0;
            }
            drop(t);
            let _ = TcpStream::connect(local);
        });
        loop {
            let Ok((stream, _)) = listener.accept() else { break };
            if shared.all_done() {
                break;
            }
            let session = sessions.fetch_add(1, Ordering::Relaxed);
            let shared = &shared;
            let journal = &journal;
            let connections = &connections;
            let seeds = &seeds;
            scope.spawn(move || {
                let counted = serve_worker(stream, session, cfg, seeds, shared, journal, progress);
                shared.release_session(session);
                if counted {
                    connections.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    let stats =
        DispatchStats { reissued: shared.reissued(), connections: connections.into_inner() };

    // All units journaled: merge through the ordinary resume path. The
    // splice validates every seed again and recomputes each analysis, so
    // the result is what a single process would have produced. Crashed
    // records are not spliced (resume semantics): they re-run here, and
    // an `inject_panic` instance re-panics into the same quarantine.
    let path = journal.path().to_path_buf();
    drop(journal);
    let (journal, recovery) = Journal::resume(&path)?;
    let result =
        run_campaign_journaled(&cfg.config, progress, &cfg.cell, Some(&journal), Some(&recovery));
    Ok((result, stats))
}

/// One worker connection: hello, then a grant/push conversation until
/// the worker disconnects or the cell completes. Returns whether the
/// worker requested at least one unit (for the connection count; the
/// monitor's self-connect never speaks and is not counted).
fn serve_worker(
    mut stream: TcpStream,
    session: u64,
    cfg: &DispatchConfig,
    seeds: &[u64],
    shared: &Shared,
    journal: &Journal,
    progress: Option<&(dyn Fn(usize, usize) + Sync)>,
) -> bool {
    // A worker that goes silent longer than its lease is presumed dead;
    // the read timeout mirrors the lease so the handler thread is
    // reclaimed on the same clock as the unit.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(cfg.lease_timeout.max(Duration::from_secs(1))));
    let mut buf = Vec::new();
    let mut spoke = false;
    let result: std::io::Result<()> = (|| {
        match read_frame(&mut stream, &mut buf)? {
            Frame::Hello { proto } if proto == PROTO_VERSION => {}
            other => return Err(io_invalid("handshake", format!("unexpected {other:?}"))),
        }
        write_frame(
            &mut stream,
            &Frame::HelloAck {
                proto: PROTO_VERSION,
                server_clock_nanos: 0,
                service: cfg.cell.clone(),
            },
        )?;
        loop {
            match read_frame(&mut stream, &mut buf)? {
                Frame::WorkReq { .. } => {
                    spoke = true;
                    match shared.grant(session, cfg.lease_timeout) {
                        Some(i) => write_frame(
                            &mut stream,
                            &Frame::WorkGrant {
                                instance: i as u32,
                                seed: seeds[i],
                                cell: cfg.cell.clone(),
                            },
                        )?,
                        None => {
                            write_frame(&mut stream, &Frame::WorkFin)?;
                            return Ok(());
                        }
                    }
                }
                Frame::ResultPush { record } => {
                    let parsed = journal::parse_record_payload(&record)
                        .map_err(|e| io_invalid("pushed record", e))?;
                    let i = parsed.key.instance as usize;
                    if parsed.key.cell != cfg.cell
                        || i >= seeds.len()
                        || parsed.key.seed != seeds[i]
                    {
                        return Err(io_invalid(
                            "pushed record",
                            format!(
                                "key {}/{}/{:#x} does not belong to this campaign",
                                parsed.key.cell, parsed.key.instance, parsed.key.seed
                            ),
                        ));
                    }
                    // Duplicates (an at-least-once re-push after a lost
                    // ack) are acknowledged but not re-journaled.
                    if shared.complete(i) {
                        // Returns once the record is on disk (sessions
                        // pushing together share the fsync), so the ack
                        // below never covers a record a crash could lose.
                        journal.append_payload(&record)?;
                        if let Some(cb) = progress {
                            cb(shared.finished(), seeds.len());
                        }
                    }
                    write_frame(&mut stream, &Frame::ResultAck)?;
                }
                other => return Err(io_invalid("dispatch", format!("unexpected {other:?}"))),
            }
        }
    })();
    if let Err(e) = result {
        if e.kind() != std::io::ErrorKind::UnexpectedEof {
            eprintln!("dispatch: worker session {session} dropped: {e}");
        }
    }
    spoke
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// Configuration for [`run_worker`].
#[derive(Debug)]
pub struct WorkerConfig {
    /// The dispatch coordinator's address.
    pub addr: SocketAddr,
    /// The campaign cell parameters — must match the coordinator's.
    pub config: CampaignConfig,
    /// Journal cell identifier — must match the coordinator's.
    pub cell: String,
    /// Worker id for progress labels (not used for correctness).
    pub worker_id: u32,
    /// Reconnect budget for a dropped coordinator connection.
    pub reconnect: ReconnectPolicy,
}

/// What one worker accomplished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerReport {
    /// Units that ran to completion and were acknowledged.
    pub completed: u32,
    /// Units whose test panicked (pushed as `crashed` records).
    pub crashed: u32,
    /// Times the coordinator connection was re-dialed.
    pub reconnects: u32,
}

/// Runs one dispatch worker: pulls units from the coordinator at
/// [`WorkerConfig::addr`], runs each with the ordinary panic-isolated
/// runner, and pushes the journal-record payload back. Returns when the
/// coordinator reports the cell complete.
///
/// Result pushes are at-least-once: after a reconnect the worker
/// re-sends the record it never saw acknowledged (the coordinator
/// deduplicates). A grant whose seed disagrees with the worker's own
/// derivation is a coordinator/worker configuration mismatch and is a
/// hard error, never a silent wrong-seed run.
///
/// # Errors
///
/// Connection failures that outlive the reconnect budget, protocol
/// violations, and grant/derivation mismatches.
pub fn run_worker(cfg: &WorkerConfig) -> std::io::Result<WorkerReport> {
    let root = SimRng::new(cfg.config.seed);
    // No read timeout: the dispatcher holds a `work_req` until a lease
    // frees, which can take a whole `--lease-secs`.
    let mut client =
        WireClient::dial_tcp(cfg.addr, Duration::from_secs(5), None, cfg.reconnect.clone())
            .map_err(std::io::Error::other)?;
    if client.service() != cfg.cell {
        return Err(io_invalid(
            "handshake",
            format!("cell mismatch: worker {:?}, dispatcher {:?}", cfg.cell, client.service()),
        ));
    }
    let mut exchange = |frame: Frame| client.roundtrip(&frame).map_err(std::io::Error::other);
    let mut report = WorkerReport { completed: 0, crashed: 0, reconnects: 0 };
    loop {
        let (instance, seed) = match exchange(Frame::WorkReq { worker: cfg.worker_id })? {
            Frame::WorkGrant { instance, seed, cell } => {
                if cell != cfg.cell {
                    return Err(io_invalid(
                        "grant",
                        format!("cell mismatch: got {cell:?}, want {:?}", cfg.cell),
                    ));
                }
                (instance, seed)
            }
            Frame::WorkFin => break,
            other => return Err(io_invalid("grant", format!("unexpected {other:?}"))),
        };
        let derived = root.split_indexed("test", u64::from(instance)).seed();
        if seed != derived {
            return Err(io_invalid(
                "grant",
                format!(
                    "instance {instance} granted seed {seed:#x} but this worker derives \
                     {derived:#x}; campaign parameters differ from the dispatcher's"
                ),
            ));
        }
        let record = run_unit(&cfg.config, &cfg.cell, instance, seed, &mut report);
        match exchange(Frame::ResultPush { record })? {
            Frame::ResultAck => {}
            other => return Err(io_invalid("push", format!("unexpected {other:?}"))),
        }
    }
    report.reconnects = u32::try_from(client.reconnects()).unwrap_or(u32::MAX);
    Ok(report)
}

/// Runs one granted unit through the local campaign's own
/// [`run_instance`] and returns the journal payload to push.
fn run_unit(
    config: &CampaignConfig,
    cell: &str,
    instance: u32,
    seed: u64,
    report: &mut WorkerReport,
) -> String {
    // Drill hook (the dispatch counterpart of the journal's
    // CONPROBE_ABORT_AFTER_JOURNALED): dawdle inside the unit so an
    // externally delivered SIGKILL reliably lands while this worker
    // holds a lease. Simulated tests finish in microseconds, so without
    // the stall a kill-one-worker drill mostly hits the between-units
    // window where no lease is held and nothing needs re-issuing.
    if let Some(ms) =
        std::env::var("CONPROBE_WORKER_STALL_MS").ok().and_then(|v| v.parse::<u64>().ok())
    {
        std::thread::sleep(Duration::from_millis(ms));
    }
    let run = run_instance(config, instance, seed);
    match run.outcome {
        Ok(_) => report.completed += 1,
        Err(_) => report.crashed += 1,
    }
    run.record(cell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use conprobe_harness::campaign::run_campaign;
    use conprobe_harness::proto::TestKind;
    use conprobe_services::ServiceKind;
    use std::sync::atomic::AtomicU32;

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        static SERIAL: AtomicU32 = AtomicU32::new(0);
        let n = SERIAL.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir()
            .join(format!("conprobe-dispatch-{tag}-{}-{n}.jsonl", std::process::id()))
    }

    fn small_cell(tests: u32) -> CampaignConfig {
        let mut c = CampaignConfig::paper(ServiceKind::Blogger, TestKind::Test2, tests);
        c.threads = 1;
        c
    }

    /// Drives a dispatch with in-process worker threads plus any extra
    /// raw connections the test wants to throw at the coordinator.
    fn dispatch_with_workers(
        config: &CampaignConfig,
        cell: &str,
        path: &std::path::Path,
        workers: u32,
        saboteur: Option<fn(SocketAddr, &CampaignConfig, &str)>,
    ) -> (CampaignResult, DispatchStats, Vec<WorkerReport>) {
        let journal = Journal::create(path).unwrap();
        let dcfg = DispatchConfig {
            config: config.clone(),
            cell: cell.to_string(),
            addr: "127.0.0.1:0".parse().unwrap(),
            lease_timeout: Duration::from_secs(30),
        };
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let dispatcher = scope.spawn({
                let dcfg = &dcfg;
                move || {
                    let mut on_ready = move |addr| tx.send(addr).unwrap();
                    run_dispatch(dcfg, journal, None, &mut on_ready, None)
                        .map_err(|e| e.to_string())
                }
            });
            let addr = rx.recv().unwrap();
            if let Some(f) = saboteur {
                f(addr, config, cell);
            }
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let config = config.clone();
                    let cell = cell.to_string();
                    scope.spawn(move || {
                        run_worker(&WorkerConfig {
                            addr,
                            config,
                            cell,
                            worker_id: w,
                            reconnect: ReconnectPolicy::probe_default(u64::from(w)),
                        })
                        .unwrap()
                    })
                })
                .collect();
            let reports: Vec<WorkerReport> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();
            let (result, stats) = dispatcher.join().unwrap().unwrap();
            (result, stats, reports)
        })
    }

    #[test]
    fn three_workers_match_a_single_process_campaign() {
        let config = small_cell(6);
        let path = temp_journal("basic");
        let (result, stats, reports) =
            dispatch_with_workers(&config, "blogger/test2", &path, 3, None);
        assert_eq!(result.results.len(), 6);
        assert!(result.crashed.is_empty());
        assert_eq!(stats.connections, 3);
        assert_eq!(reports.iter().map(|r| r.completed).sum::<u32>(), 6);
        // Byte-identical to the same cell run in one process.
        let local = run_campaign(&config);
        for (a, b) in result.results.iter().zip(&local.results) {
            assert_eq!(a.trace, b.trace);
            assert_eq!(a.analysis.observations, b.analysis.observations);
            assert_eq!(a.duration_secs, b.duration_secs);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deserting_worker_gets_its_lease_reissued() {
        // The saboteur takes a grant and silently drops the connection —
        // the moral equivalent of a SIGKILL'd worker. Its unit must be
        // re-issued to the honest workers and the output stay identical.
        fn desert(addr: SocketAddr, _config: &CampaignConfig, _cell: &str) {
            let mut client = WireClient::connect(addr, Duration::from_secs(5)).unwrap();
            match client.roundtrip(&Frame::WorkReq { worker: 99 }).unwrap() {
                Frame::WorkGrant { .. } => {} // taken to the grave
                other => panic!("expected a grant, got {other:?}"),
            }
            // Dropping the client releases the lease instantly.
        }
        let config = small_cell(4);
        let path = temp_journal("desert");
        let (result, stats, _) =
            dispatch_with_workers(&config, "blogger/test2", &path, 2, Some(desert));
        assert!(stats.reissued >= 1, "the deserted lease must be re-issued");
        assert_eq!(result.results.len(), 4);
        let local = run_campaign(&config);
        for (a, b) in result.results.iter().zip(&local.results) {
            assert_eq!(a.trace, b.trace);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_result_push_is_acked_but_not_rejournaled() {
        // At-least-once delivery: a worker that never saw its ack pushes
        // the same record again after reconnecting. The journal must end
        // up with exactly one record per instance.
        fn double_push(addr: SocketAddr, config: &CampaignConfig, cell: &str) {
            let mut client = WireClient::connect(addr, Duration::from_secs(5)).unwrap();
            let (instance, seed) = match client.roundtrip(&Frame::WorkReq { worker: 7 }).unwrap() {
                Frame::WorkGrant { instance, seed, .. } => (instance, seed),
                other => panic!("expected a grant, got {other:?}"),
            };
            let mut report = WorkerReport { completed: 0, crashed: 0, reconnects: 0 };
            let push =
                Frame::ResultPush { record: run_unit(config, cell, instance, seed, &mut report) };
            for _ in 0..2 {
                assert_eq!(client.roundtrip(&push).unwrap(), Frame::ResultAck);
            }
        }
        let config = small_cell(3);
        let path = temp_journal("dup");
        let (result, _, _) =
            dispatch_with_workers(&config, "blogger/test2", &path, 1, Some(double_push));
        assert_eq!(result.results.len(), 3);
        let recovery = Journal::recover(&path).unwrap();
        assert_eq!(recovery.duplicates, 0, "the duplicate push must not be re-journaled");
        assert_eq!(recovery.total_records, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_panic_rides_the_wire_as_a_crashed_record() {
        let mut config = small_cell(4);
        config.inject_panic = vec![2];
        let path = temp_journal("panic");
        let (result, _, reports) = dispatch_with_workers(&config, "blogger/test2", &path, 2, None);
        // The merge re-runs crashed records (resume semantics), and the
        // injected panic re-fires locally into the same quarantine.
        assert_eq!(result.results.len(), 3);
        assert_eq!(result.crashed.len(), 1);
        assert_eq!(result.crashed[0].index, 2);
        assert!(result.crashed[0].panic.contains("injected panic"));
        assert_eq!(reports.iter().map(|r| r.crashed).sum::<u32>(), 1);
        // Identical quarantine to the single-process run.
        let local = run_campaign(&config);
        assert_eq!(result.crashed[0].panic, local.crashed[0].panic);
        for (a, b) in result.results.iter().zip(&local.results) {
            assert_eq!(a.trace, b.trace);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn worker_refuses_a_mismatched_campaign_seed() {
        // The dispatcher runs seed X, the worker seed Y: the first grant
        // must be refused as a configuration mismatch, not silently run.
        let config = small_cell(2);
        let path = temp_journal("mismatch");
        let journal = Journal::create(&path).unwrap();
        let dcfg = DispatchConfig {
            config: config.clone(),
            cell: "blogger/test2".into(),
            addr: "127.0.0.1:0".parse().unwrap(),
            lease_timeout: Duration::from_secs(30),
        };
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let dispatcher = scope.spawn({
                let dcfg = &dcfg;
                move || {
                    let mut on_ready = move |addr| tx.send(addr).unwrap();
                    run_dispatch(dcfg, journal, None, &mut on_ready, None)
                        .map_err(|e| e.to_string())
                }
            });
            let addr = rx.recv().unwrap();
            let bad = WorkerConfig {
                addr,
                config: config.clone().with_seed(0xBAD5EED),
                cell: "blogger/test2".into(),
                worker_id: 0,
                reconnect: ReconnectPolicy::disabled(),
            };
            let err = run_worker(&bad).expect_err("mismatched seed must refuse");
            assert!(err.to_string().contains("campaign parameters differ"), "{err}");
            // An honest worker then finishes the cell.
            let good = WorkerConfig {
                addr,
                config: config.clone(),
                cell: "blogger/test2".into(),
                worker_id: 1,
                reconnect: ReconnectPolicy::probe_default(1),
            };
            run_worker(&good).unwrap();
            let (result, _) = dispatcher.join().unwrap().unwrap();
            assert_eq!(result.results.len(), 2);
        });
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resumed_dispatch_only_farms_out_missing_instances() {
        // First dispatch completes 2 of 5 instances (a saboteur runs two
        // units, then the dispatcher is... actually: run a full local
        // journaled campaign for 2 instances, then dispatch the 5-wide
        // cell resuming from that journal — only 3 units go on the wire.
        let config = small_cell(5);
        let cell = "blogger/test2";
        let path = temp_journal("resume");
        {
            let journal = Journal::create(&path).unwrap();
            let mut partial = config.clone();
            partial.tests = 2;
            run_campaign_journaled(&partial, None, cell, Some(&journal), None);
        }
        let (journal, recovery) = Journal::resume(&path).unwrap();
        let dcfg = DispatchConfig {
            config: config.clone(),
            cell: cell.to_string(),
            addr: "127.0.0.1:0".parse().unwrap(),
            lease_timeout: Duration::from_secs(30),
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let (result, reports) = std::thread::scope(|scope| {
            let dispatcher = scope.spawn({
                let dcfg = &dcfg;
                let recovery = &recovery;
                move || {
                    let mut on_ready = move |addr| tx.send(addr).unwrap();
                    run_dispatch(dcfg, journal, Some(recovery), &mut on_ready, None)
                        .map_err(|e| e.to_string())
                }
            });
            let addr = rx.recv().unwrap();
            let report = run_worker(&WorkerConfig {
                addr,
                config: config.clone(),
                cell: cell.to_string(),
                worker_id: 0,
                reconnect: ReconnectPolicy::probe_default(0),
            })
            .unwrap();
            let (result, _) = dispatcher.join().unwrap().unwrap();
            (result, report)
        });
        assert_eq!(reports.completed, 3, "only the missing instances go on the wire");
        assert_eq!(result.resumed, 5, "the merge splices every journaled instance");
        assert_eq!(result.results.len(), 5);
        let local = run_campaign(&config);
        for (a, b) in result.results.iter().zip(&local.results) {
            assert_eq!(a.trace, b.trace);
        }
        std::fs::remove_file(&path).ok();
    }
}
