//! The `cpw1` TCP server: catalog services on real sockets.
//!
//! [`WireServer::start`] binds one listener per agent region, hosts a
//! keyspace-sharded [`LiveCluster`] (the catalog's services on wall-clock
//! time), and serves frames with optional
//! per-region artificial latency shaped from the sim's WAN latency
//! matrix. Architecture — a readiness-sweep event loop (the workspace is
//! `std`-only and forbids `unsafe`, so there is no epoll; non-blocking
//! sockets swept in a tight loop get the same effect on loopback):
//!
//! * one *accept* thread per region listener (non-blocking accept + stop
//!   polling, so shutdown needs no signal machinery) handing accepted
//!   streams to the event loops round-robin;
//! * [`ServeConfig::event_loops`] *worker* threads, each owning a set of
//!   non-blocking connections it multiplexes: per sweep it reads every
//!   readable socket to exhaustion, serves **all** buffered complete
//!   frames (pipelining: many in-flight requests per connection,
//!   answered strictly in arrival order), and coalesces the responses
//!   into one output buffer flushed with single large writes — the
//!   write-batching that amortizes syscalls over the pipeline depth;
//! * one *ticker* thread advancing the cluster's replication queue and
//!   anti-entropy schedule on wall-clock time (the cluster's atomic
//!   horizon makes the per-request inline tick nearly free);
//! * an optional *stop-file* watcher — the workspace forbids `unsafe`,
//!   so POSIX signal handlers are out; a stop file (or a `stop` frame
//!   from any client) is the graceful-drain trigger, and `Ctrl-C` still
//!   works the ungraceful way.
//!
//! Graceful drain: once the stop flag rises, accept threads close their
//! listeners, each worker serves the requests already buffered on its
//! connections, then switches the sockets back to blocking and flushes
//! every output buffer to the last byte — a drained connection never
//! ends mid-frame — and [`WireServer::join`] returns the final metrics
//! dump.
//!
//! Request routing: every `read_q`/`write_q` frame carries a keyspace
//! key, routed by the cluster's consistent-hash [`ShardRing`] (see
//! `conprobe_services::shard`; key 0 is the paper's single-object
//! workload), plus a request id echoed in the response — `read_q_ok`,
//! `write_q_ack`, or `throttled` (a throttle-storm brownout, or a hosted
//! arm with no majority to answer from) — so pipelined clients can
//! verify per-connection FIFO order. A connection
//! needs no `hello` before its first operation.

use crate::frame::{
    append_read_q_ok_iter, append_write_q_ack, decode_raw, read_q_fields, write_q_fields, Frame,
    HEADER_LEN, KIND_HELLO, KIND_READ_Q, KIND_STOP, KIND_WRITE_Q, PROTO_VERSION,
};
use crate::load::wire_latency_bounds_nanos;
use conprobe_obs::MetricsRegistry;
use conprobe_services::live::{LiveCluster, LiveConfig, LiveReply, RejoinReport, StaleWindow};
use conprobe_services::{ClientOp, ServiceKind};
use conprobe_sim::net::{LatencyMatrix, Region};
use conprobe_sim::{BrownoutMode, LocalTime, SimRng};
use conprobe_store::{Post, PostId};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration for [`WireServer::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Which catalog service to host.
    pub kind: ServiceKind,
    /// Seed for replication-delay and latency-shaping streams.
    pub seed: u64,
    /// Optional seeded staleness window (see [`StaleWindow`]).
    pub stale_window: Option<StaleWindow>,
    /// Multiplier on WAN delays sampled from the paper latency matrix
    /// per request. `0.0` disables artificial latency (loopback-speed
    /// serving — what the load benchmark uses); `1.0` emulates the
    /// paper's full WAN RTTs.
    pub latency_scale: f64,
    /// Probability of dropping (not answering) a request, emulating a
    /// lost response on a lossy WAN. The client's retry layer recovers.
    pub drop_prob: f64,
    /// Base TCP port; region `i` binds `base_port + i`. `0` picks
    /// ephemeral ports (tests and same-host CI).
    pub base_port: u16,
    /// Graceful-drain trigger: the server stops when this file appears.
    pub stop_file: Option<PathBuf>,
    /// Keyspace shards in the hosted [`LiveCluster`] (clamped to ≥ 1).
    pub shards: usize,
    /// Event-loop worker threads multiplexing the connections (clamped
    /// to ≥ 1). One is right for one core; more only helps when the
    /// host actually has spare cores.
    pub event_loops: usize,
    /// Bounded accept backlog: above this many live connections the
    /// server sheds new clients with a typed `busy` frame instead of
    /// queueing them. `0` disables shedding (unbounded).
    pub max_connections: usize,
    /// Slow-client eviction: a connection whose response bytes stay
    /// unflushable for longer than this budget is dropped so one
    /// trickle-reading client cannot pin worker output buffers.
    /// `Duration::ZERO` disables eviction.
    pub stall_budget: Duration,
}

impl ServeConfig {
    /// Loopback defaults: ephemeral ports, no artificial latency or
    /// loss, a sharded keyspace on one event loop.
    pub fn loopback(kind: ServiceKind, seed: u64) -> Self {
        ServeConfig {
            kind,
            seed,
            stale_window: None,
            latency_scale: 0.0,
            drop_prob: 0.0,
            base_port: 0,
            stop_file: None,
            shards: 16,
            event_loops: 1,
            max_connections: 0,
            stall_budget: Duration::ZERO,
        }
    }
}

/// Typed serve-path errors: a misconfigured probe or chaos target fails
/// with a readable message instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No listener is bound for this region.
    UnknownRegion(Region),
    /// Replica index out of range for the hosted topology.
    UnknownReplica(usize),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownRegion(r) => write!(f, "no listener for region {r}"),
            ServeError::UnknownReplica(i) => write!(f, "no replica with index {i}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Backoff hint carried by shed `busy` frames.
const BUSY_RETRY_MILLIS: u32 = 50;

/// Per-replica brownout switches the fault driver toggles at runtime.
#[derive(Default)]
struct BrownoutState {
    /// Throttle storm: the front door answers reads and writes with
    /// `Frame::Throttled` while set.
    throttle: AtomicBool,
    /// Added service delay in nanoseconds (folded into the WAN-shaping
    /// release schedule); `0` means no delay brownout.
    delay_nanos: AtomicU64,
}

struct Shared {
    cluster: LiveCluster,
    started: Instant,
    stop: AtomicBool,
    metrics: MetricsRegistry,
    matrix: LatencyMatrix,
    latency_scale: f64,
    drop_prob: f64,
    seed: u64,
    service_token: &'static str,
    conn_seq: AtomicU64,
    /// One inbox per event-loop worker; accept threads drop new
    /// connections in round-robin and workers adopt them each sweep.
    inboxes: Vec<Mutex<Vec<Conn>>>,
    /// Live (accepted, not yet dropped) connections — the shed gate.
    live_conns: AtomicU64,
    /// Accept cap behind the `busy` shed; `0` = unbounded.
    max_connections: usize,
    /// Slow-client eviction budget; `ZERO` = disabled.
    stall_budget: Duration,
    /// Per-replica crash flags. A down replica's listener stays bound
    /// (rebinding the port would race TIME_WAIT) but refuses clients:
    /// new accepts are dropped immediately and live connections evicted,
    /// so the client sees a clean EOF and its reconnect policy backs
    /// off until the replica rejoins.
    replica_down: Vec<AtomicBool>,
    /// Per-replica brownout switches.
    brownouts: Vec<BrownoutState>,
}

impl Shared {
    fn now_nanos(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }
}

/// A running wire server. Dropping it without [`WireServer::join`] leaks
/// the serving threads; `join` performs the graceful drain.
pub struct WireServer {
    shared: Arc<Shared>,
    addrs: Vec<(Region, SocketAddr)>,
    accepters: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    ticker: Option<JoinHandle<()>>,
    watcher: Option<JoinHandle<()>>,
}

impl WireServer {
    /// Binds the per-region listeners and starts serving. A staleness
    /// window on a hosted arm is refused, not ignored: the caller would
    /// believe the control arm is seeded with an anomaly.
    pub fn start(config: &ServeConfig) -> std::io::Result<WireServer> {
        if config.stale_window.is_some() && config.kind.hosted_live() {
            let why = format!("--stale-replica pins a stored snapshot; {} has none", config.kind);
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, why));
        }
        let event_loops = config.event_loops.max(1);
        let cluster = LiveCluster::new(&LiveConfig {
            kind: config.kind,
            seed: config.seed,
            stale_window: config.stale_window,
            shards: config.shards,
        });
        let replicas = cluster.replica_count();
        let shared = Arc::new(Shared {
            cluster,
            started: Instant::now(),
            stop: AtomicBool::new(false),
            metrics: MetricsRegistry::new(),
            matrix: LatencyMatrix::paper_wan(),
            latency_scale: config.latency_scale,
            drop_prob: config.drop_prob,
            seed: config.seed,
            service_token: conprobe_harness::journal::service_token(config.kind),
            conn_seq: AtomicU64::new(0),
            inboxes: (0..event_loops).map(|_| Mutex::new(Vec::new())).collect(),
            live_conns: AtomicU64::new(0),
            max_connections: config.max_connections,
            stall_budget: config.stall_budget,
            replica_down: (0..replicas).map(|_| AtomicBool::new(false)).collect(),
            brownouts: (0..replicas).map(|_| BrownoutState::default()).collect(),
        });
        let mut addrs = Vec::new();
        let mut accepters = Vec::new();
        for (i, region) in Region::AGENTS.iter().enumerate() {
            let port = if config.base_port == 0 { 0 } else { config.base_port + i as u16 };
            let listener = TcpListener::bind(("127.0.0.1", port))?;
            listener.set_nonblocking(true)?;
            addrs.push((*region, listener.local_addr()?));
            let shared = Arc::clone(&shared);
            let region = *region;
            accepters.push(std::thread::spawn(move || accept_loop(shared, region, listener)));
        }
        let workers = (0..event_loops)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared, w))
            })
            .collect();
        let ticker = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                while !shared.stop.load(Ordering::Acquire) {
                    shared.cluster.tick(shared.now_nanos());
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };
        let watcher = config.stop_file.clone().map(|path| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                while !shared.stop.load(Ordering::Acquire) {
                    if path.exists() {
                        shared.stop.store(true, Ordering::Release);
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            })
        });
        Ok(WireServer {
            shared,
            addrs,
            accepters,
            workers,
            ticker: Some(ticker),
            watcher: Some(watcher.unwrap_or_else(|| std::thread::spawn(|| ()))),
        })
    }

    /// The bound address for each agent region.
    pub fn addrs(&self) -> &[(Region, SocketAddr)] {
        &self.addrs
    }

    /// The bound address serving clients of `region`.
    pub fn addr_for(&self, region: Region) -> Result<SocketAddr, ServeError> {
        self.addrs
            .iter()
            .find(|(r, _)| *r == region)
            .map(|(_, a)| *a)
            .ok_or(ServeError::UnknownRegion(region))
    }

    /// Crashes replica `idx` mid-run: its in-memory state is wiped and
    /// its front door goes dark — new connections are refused and live
    /// ones evicted — while the listener keeps the port reserved so the
    /// later restart never races `TIME_WAIT` rebinding. Killing the
    /// ordered log's leader changes no view by itself: the survivors
    /// replace it once operations have stalled at two of their doors for
    /// the protocol's suspicion timeout, and not before.
    pub fn kill_replica(&self, idx: usize) -> Result<(), ServeError> {
        let down = self.shared.replica_down.get(idx).ok_or(ServeError::UnknownReplica(idx))?;
        down.store(true, Ordering::Release);
        self.shared.cluster.crash_replica(idx);
        self.shared.metrics.counter("wire.server.replica_kills").inc();
        Ok(())
    }

    /// PBFT-arm consensus status as `(view, leader, views entered)`, read
    /// off the replicas of key 0's group: the highest view installed at a
    /// running one. `None` for every other service kind.
    pub fn pbft_status(&self) -> Option<(u64, usize, u64)> {
        self.shared.cluster.view_status()
    }

    /// Restarts a crashed replica: a hosted (strong-arm) replica rejoins
    /// through its protocol's fenced `cpj1` state transfer, a stored one
    /// cold (replication and anti-entropy converge it); only then does
    /// its front door reopen.
    pub fn restart_replica(&self, idx: usize) -> Result<RejoinReport, ServeError> {
        let down = self.shared.replica_down.get(idx).ok_or(ServeError::UnknownReplica(idx))?;
        let report = self.shared.cluster.recover_replica(idx);
        down.store(false, Ordering::Release);
        self.shared.metrics.counter("wire.server.replica_restarts").inc();
        Ok(report)
    }

    /// Sets (or with `None` clears) replica `idx`'s brownout. A
    /// throttle storm makes the front door answer reads and writes with
    /// `Frame::Throttled`; a delay brownout adds fixed service latency
    /// on every connection pinned to the replica.
    pub fn set_brownout(&self, idx: usize, mode: Option<BrownoutMode>) -> Result<(), ServeError> {
        let state = self.shared.brownouts.get(idx).ok_or(ServeError::UnknownReplica(idx))?;
        match mode {
            None => {
                state.throttle.store(false, Ordering::Release);
                state.delay_nanos.store(0, Ordering::Release);
            }
            Some(BrownoutMode::ThrottleStorm) => state.throttle.store(true, Ordering::Release),
            Some(BrownoutMode::Delay(d)) => {
                state.delay_nanos.store(d.as_nanos(), Ordering::Release)
            }
        }
        Ok(())
    }

    /// Replica count of the hosted cluster (kill/restart index space).
    pub fn replica_count(&self) -> usize {
        self.shared.replica_down.len()
    }

    /// Keyspace shards in the hosted cluster.
    pub fn shard_count(&self) -> usize {
        self.shared.cluster.shard_count()
    }

    /// Raises the stop flag (same effect as a `stop` frame or the stop
    /// file appearing).
    pub fn request_stop(&self) {
        self.shared.stop.store(true, Ordering::Release);
    }

    /// True once a drain has been requested (by any trigger).
    pub fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }

    /// Blocks until a drain is triggered, then joins every serving
    /// thread and returns the final metrics dump as pretty JSON.
    /// In-flight requests finish first: workers answer every request
    /// already buffered and flush every response in full before closing.
    pub fn join(self) -> String {
        for handle in self.accepters {
            let _ = handle.join();
        }
        for handle in self.workers {
            let _ = handle.join();
        }
        if let Some(t) = self.ticker {
            let _ = t.join();
        }
        if let Some(w) = self.watcher {
            let _ = w.join();
        }
        self.shared.metrics.to_json().to_pretty()
    }
}

fn accept_loop(shared: Arc<Shared>, region: Region, listener: TcpListener) {
    let connections = shared.metrics.counter("wire.server.connections");
    let busy_sheds = shared.metrics.counter("wire.server.busy_sheds");
    let refused_down = shared.metrics.counter("wire.server.refused_down");
    let replica_idx = shared.cluster.replica_for(region);
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return; // closing the listener refuses further clients
        }
        match listener.accept() {
            Ok((mut stream, _)) => {
                // A crashed replica's front door is dark: accept and
                // immediately drop, so the client sees EOF and its
                // reconnect policy backs off until the rejoin.
                if shared.replica_down[replica_idx].load(Ordering::Acquire) {
                    refused_down.inc();
                    continue;
                }
                // Bounded backlog: over the connection budget, shed the
                // client with a typed `busy` frame (retryable, carries a
                // backoff hint) instead of silently queueing it. The
                // accepted stream is still blocking here, so the tiny
                // frame flushes synchronously before the drop.
                if shared.max_connections > 0
                    && shared.live_conns.load(Ordering::Acquire) >= shared.max_connections as u64
                {
                    busy_sheds.inc();
                    let mut shed = Vec::with_capacity(32);
                    Frame::Busy { retry_after_millis: BUSY_RETRY_MILLIS }.encode_into(&mut shed);
                    let _ = stream.write_all(&shed);
                    let _ = stream.flush();
                    continue;
                }
                connections.inc();
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let conn_id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
                shared.live_conns.fetch_add(1, Ordering::AcqRel);
                let conn = Conn {
                    stream,
                    region,
                    replica_region: shared.cluster.replica_region(replica_idx),
                    replica_idx,
                    inbuf: Vec::new(),
                    inpos: 0,
                    outbuf: Vec::new(),
                    outpos: 0,
                    rng: SimRng::new(shared.seed).split_indexed("wire.conn", conn_id),
                    release_at: None,
                    stalled_since: None,
                };
                let inbox = &shared.inboxes[(conn_id as usize) % shared.inboxes.len()];
                inbox.lock().unwrap().push(conn);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => return,
        }
    }
}

/// One multiplexed connection owned by an event-loop worker.
struct Conn {
    stream: TcpStream,
    region: Region,
    replica_region: Region,
    /// Index of the replica this connection is pinned to (crash flags
    /// and brownout switches key on it).
    replica_idx: usize,
    /// Inbound bytes; `inpos..` is the unconsumed tail (consuming a
    /// frame advances `inpos` instead of memmoving the buffer).
    inbuf: Vec<u8>,
    inpos: usize,
    /// Coalesced responses awaiting flush; `outpos..` is unsent.
    outbuf: Vec<u8>,
    outpos: usize,
    rng: SimRng,
    /// WAN shaping: the instant the next buffered request may be served.
    release_at: Option<Instant>,
    /// When response bytes first failed to flush; cleared on a full
    /// flush. Drives the slow-client stall budget.
    stalled_since: Option<Instant>,
}

/// Soft cap on unserved inbound bytes per connection per sweep; frames
/// already buffered are always served, this only pauses further reads so
/// one fire-hose connection cannot starve its loop-mates.
const READ_BACKLOG_CAP: usize = 1 << 20;

/// Outcome of one sweep over one connection.
enum Sweep {
    /// Bytes moved or frames served — keep the loop hot.
    Progress,
    /// Nothing to do.
    Idle,
    /// EOF, protocol violation, or I/O error — drop the connection.
    Closed,
}

/// Per-worker handles to the shared metrics (resolved once, not per op).
struct Counters {
    frames: conprobe_obs::Counter,
    hellos: conprobe_obs::Counter,
    writes: conprobe_obs::Counter,
    reads: conprobe_obs::Counter,
    stops: conprobe_obs::Counter,
    dropped: conprobe_obs::Counter,
    slow_evictions: conprobe_obs::Counter,
    throttled: conprobe_obs::Counter,
    op_nanos: conprobe_obs::Histogram,
}

fn worker_loop(shared: Arc<Shared>, worker: usize) {
    let ctrs = Counters {
        frames: shared.metrics.counter("wire.server.frames"),
        hellos: shared.metrics.counter("wire.server.hellos"),
        writes: shared.metrics.counter("wire.server.writes"),
        reads: shared.metrics.counter("wire.server.reads"),
        stops: shared.metrics.counter("wire.server.stops"),
        dropped: shared.metrics.counter("wire.server.dropped_responses"),
        slow_evictions: shared.metrics.counter("wire.server.slow_evictions"),
        throttled: shared.metrics.counter("wire.server.throttled"),
        op_nanos: shared.metrics.histogram("wire.server.op_nanos", &wire_latency_bounds_nanos()),
    };
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; 256 * 1024];
    let mut idle_sweeps: u32 = 0;
    loop {
        let stopping = shared.stop.load(Ordering::Acquire);
        {
            let mut inbox = shared.inboxes[worker].lock().unwrap();
            conns.append(&mut inbox);
        }
        let mut progressed = false;
        let mut i = 0;
        while i < conns.len() {
            match sweep_conn(&shared, &ctrs, &mut conns[i], &mut scratch, stopping) {
                Sweep::Progress => {
                    progressed = true;
                    i += 1;
                }
                Sweep::Idle => i += 1,
                Sweep::Closed => {
                    shared.live_conns.fetch_sub(1, Ordering::AcqRel);
                    conns.swap_remove(i);
                }
            }
        }
        if stopping {
            // Drain point: the sweep above answered everything buffered;
            // push the remaining response bytes out synchronously so no
            // client ever observes a stream ending mid-frame.
            for conn in conns.drain(..) {
                shared.live_conns.fetch_sub(1, Ordering::AcqRel);
                drain_flush(conn);
            }
            return;
        }
        if progressed {
            idle_sweeps = 0;
        } else {
            // Yield first: on a saturated core the client thread likely
            // holds the next request, and a yield hands it the CPU at
            // context-switch cost instead of a 50µs timer wait. Only a
            // genuinely idle server (yields keep coming back with no
            // work) backs off to sleeping.
            idle_sweeps = idle_sweeps.saturating_add(1);
            if idle_sweeps > 256 {
                std::thread::sleep(Duration::from_micros(50));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// One event-loop pass over one connection: read to exhaustion, serve
/// every buffered complete frame in arrival order, flush what the socket
/// will take.
fn sweep_conn(
    shared: &Shared,
    ctrs: &Counters,
    conn: &mut Conn,
    scratch: &mut [u8],
    stopping: bool,
) -> Sweep {
    // A freshly crashed replica evicts its live connections: clients see
    // a clean close, retry, and hit the refuse-at-accept path until the
    // rejoin.
    if shared.replica_down[conn.replica_idx].load(Ordering::Acquire) {
        return Sweep::Closed;
    }
    let mut progressed = false;
    let mut eof = false;
    if !stopping {
        while conn.inbuf.len() - conn.inpos < READ_BACKLOG_CAP {
            match conn.stream.read(scratch) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.inbuf.extend_from_slice(&scratch[..n]);
                    progressed = true;
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Sweep::Closed,
            }
        }
    }
    // Serve every complete frame already buffered, strictly in arrival
    // order — the per-connection FIFO guarantee pipelined clients check
    // via request ids.
    loop {
        let raw = match decode_raw(&conn.inbuf[conn.inpos..]) {
            Ok(Some(raw)) => raw,
            Ok(None) => break,
            Err(_) => return Sweep::Closed, // corrupt stream: hang up
        };
        // Artificial WAN shaping: each request waits out a sampled
        // agent↔replica delay (plus any delay-brownout surcharge on the
        // replica) before being served. The event loop keeps the request
        // buffered and revisits on later sweeps instead of sleeping, so
        // shaping one connection never stalls the others.
        let brownout_nanos = shared.brownouts[conn.replica_idx].delay_nanos.load(Ordering::Acquire);
        if shared.latency_scale > 0.0 || brownout_nanos > 0 {
            match conn.release_at {
                None => {
                    let mut nanos = brownout_nanos;
                    if shared.latency_scale > 0.0 {
                        let wan = shared.matrix.sample_delay(
                            conn.region,
                            conn.replica_region,
                            &mut conn.rng,
                        );
                        nanos += (wan.as_nanos() as f64 * shared.latency_scale) as u64;
                    }
                    conn.release_at = Some(Instant::now() + Duration::from_nanos(nanos));
                    break;
                }
                Some(t) if Instant::now() < t => break,
                Some(_) => conn.release_at = None,
            }
        }
        let payload_at = conn.inpos + HEADER_LEN;
        let payload_end = conn.inpos + raw.consumed;
        conn.inpos += raw.consumed;
        ctrs.frames.inc();
        let began = Instant::now();
        let now = began.duration_since(shared.started).as_nanos() as u64;
        if shared.drop_prob > 0.0 && conn.rng.gen_bool(shared.drop_prob) {
            ctrs.dropped.inc();
            continue;
        }
        let payload = &conn.inbuf[payload_at..payload_end];
        // A throttle-storm brownout on the connection's replica refuses
        // reads and writes alike, mirroring the sim's front-door brownout.
        let throttling = shared.brownouts[conn.replica_idx].throttle.load(Ordering::Acquire);
        match raw.kind {
            KIND_READ_Q => {
                ctrs.reads.inc();
                let (req, key) = read_q_fields(payload);
                let reply = if throttling {
                    LiveReply::Unavailable
                } else {
                    shared.cluster.serve(conn.region, key, ClientOp::Read, now)
                };
                encode_reply(&mut conn.outbuf, ctrs, req, reply);
            }
            KIND_WRITE_Q => {
                ctrs.writes.inc();
                let Ok(w) = write_q_fields(payload) else { return Sweep::Closed };
                let reply = if throttling {
                    LiveReply::Unavailable
                } else {
                    let id = PostId::new(conprobe_store::AuthorId(w.author), w.seq);
                    let post = Post::new(id, w.content, LocalTime::from_nanos(w.client_ts_nanos));
                    shared.cluster.serve(conn.region, w.key, ClientOp::Write(post), now)
                };
                encode_reply(&mut conn.outbuf, ctrs, w.req, reply);
            }
            KIND_HELLO => {
                // The ack always carries our version; the client decides
                // whether it can proceed.
                ctrs.hellos.inc();
                Frame::HelloAck {
                    proto: PROTO_VERSION,
                    server_clock_nanos: now as i64,
                    service: shared.service_token.to_owned(),
                }
                .encode_into(&mut conn.outbuf);
            }
            KIND_STOP => {
                ctrs.stops.inc();
                shared.stop.store(true, Ordering::Release);
                Frame::StopAck.encode_into(&mut conn.outbuf);
            }
            // Server-role frames from a client are a protocol violation,
            // and the dispatch family belongs to a dispatch coordinator,
            // not a service server.
            _ => return Sweep::Closed,
        }
        ctrs.op_nanos.record(began.elapsed().as_nanos() as u64);
        progressed = true;
    }
    // Reclaim fully consumed input; compact a large consumed prefix so
    // the buffer does not grow without bound under sustained pipelining.
    if conn.inpos == conn.inbuf.len() {
        conn.inbuf.clear();
        conn.inpos = 0;
    } else if conn.inpos > 64 * 1024 {
        conn.inbuf.drain(..conn.inpos);
        conn.inpos = 0;
    }
    match flush_outbuf(conn) {
        Ok(wrote) => progressed |= wrote,
        Err(()) => return Sweep::Closed,
    }
    // Slow-client stall budget: a connection whose response bytes sit
    // unflushable past the budget (a trickle reader, or a peer that
    // stopped reading entirely) is evicted rather than pinning worker
    // buffers indefinitely.
    if conn.outpos < conn.outbuf.len() {
        if !shared.stall_budget.is_zero() {
            match conn.stalled_since {
                None => conn.stalled_since = Some(Instant::now()),
                Some(since) if since.elapsed() > shared.stall_budget => {
                    ctrs.slow_evictions.inc();
                    return Sweep::Closed;
                }
                Some(_) => {}
            }
        }
    } else {
        conn.stalled_since = None;
    }
    if eof && conn.inpos == conn.inbuf.len() && conn.outpos == conn.outbuf.len() {
        return Sweep::Closed;
    }
    if progressed {
        Sweep::Progress
    } else {
        Sweep::Idle
    }
}

/// Appends the answer to request `req`. "Unavailable" is the refusal a
/// throttle storm sends: the probe already retries it as a new operation.
fn encode_reply(out: &mut Vec<u8>, ctrs: &Counters, req: u32, reply: LiveReply) {
    match reply {
        LiveReply::Read(ids) => append_read_q_ok_iter(out, req, ids.iter().map(|id| id.as_u64())),
        LiveReply::Acked(id) => append_write_q_ack(out, req, id.as_u64()),
        LiveReply::Unavailable => {
            ctrs.throttled.inc();
            Frame::Throttled { req }.encode_into(out);
        }
    }
}

/// Writes as much of the batched response buffer as the socket accepts.
fn flush_outbuf(conn: &mut Conn) -> Result<bool, ()> {
    let mut wrote = false;
    while conn.outpos < conn.outbuf.len() {
        match conn.stream.write(&conn.outbuf[conn.outpos..]) {
            Ok(0) => return Err(()),
            Ok(n) => {
                conn.outpos += n;
                wrote = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    if conn.outpos == conn.outbuf.len() {
        conn.outbuf.clear();
        conn.outpos = 0;
    } else if conn.outpos > 64 * 1024 {
        conn.outbuf.drain(..conn.outpos);
        conn.outpos = 0;
    }
    Ok(wrote)
}

/// Final synchronous flush at drain: every byte of every answered
/// response reaches the socket before the connection closes.
fn drain_flush(mut conn: Conn) {
    if conn.outpos < conn.outbuf.len() {
        let _ = conn.stream.set_nonblocking(false);
        let _ = conn.stream.write_all(&conn.outbuf[conn.outpos..]);
        let _ = conn.stream.flush();
    }
}
