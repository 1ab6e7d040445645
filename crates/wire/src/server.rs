//! The `cpw1` TCP server: catalog services on real sockets.
//!
//! [`WireServer::start`] binds one listener per agent region, hosts a
//! keyspace-sharded [`LiveCluster`] (the catalog's services on wall-clock
//! time), and serves frames with optional
//! per-region artificial latency shaped from the sim's WAN latency
//! matrix. Architecture — one readiness-sweep event loop per
//! [`ServeConfig::event_loops`], so at the default `serve` is one thread
//! (the workspace is `std`-only and forbids `unsafe`, so there is no
//! epoll; non-blocking sockets swept in a tight loop get the same effect
//! on loopback). Each pass of a loop:
//!
//! * polls every region listener at most once a millisecond, applying
//!   the dark-door and `busy`-shed rules (several loops each hold their
//!   own handles to the listeners; whichever polls first adopts a client);
//! * reads every socket it owns to exhaustion (or the backlog cap),
//!   serves **all** buffered complete frames (pipelining: many in-flight
//!   requests per connection, answered strictly in arrival order), and
//!   flushes the coalesced responses with single large writes. The loop
//!   owns the sockets and the clock; what a connection *does* is `Conn`,
//!   a state machine over a `FrameBuf` and a `now`;
//! * ticks the cluster's replication and anti-entropy every 5 ms (its
//!   atomic horizon makes the per-request inline tick nearly free);
//! * between passes that moved nothing, yields and then sleeps 50 µs
//!   while it holds connections, and with none sleeps until its next
//!   accept poll or tick (at most a millisecond), so an idle `serve`
//!   wakes about once a millisecond instead of spinning.
//!
//! Graceful drain, without POSIX signal handlers (no `unsafe`): a `stop`
//! frame or [`WireServer::request_stop`] (the CLI's stop file) raises the
//! stop flag. At the drain point each loop closes its listeners, serves
//! what is buffered, switches its sockets back to blocking and flushes
//! every output buffer to the last byte — a drained connection never ends
//! mid-frame — and [`WireServer::join`] returns the final metrics dump.
//!
//! Request routing: every `read_q`/`write_q` frame carries a keyspace
//! key, routed by the cluster's consistent-hash [`ShardRing`] (see
//! `conprobe_services::shard`; key 0 is the paper's single-object
//! workload), plus a request id echoed in the response — `read_q_ok`,
//! `write_q_ack`, or `throttled` (a throttle-storm brownout, or a hosted
//! arm with no majority to answer from) — so pipelined clients can
//! verify per-connection FIFO order. A connection
//! needs no `hello` before its first operation.

use crate::conn::{idle_nap, FrameBuf, IdleBackoff, ACCEPT_EVERY, READ_BACKLOG_CAP};
use crate::frame::{
    append_read_q_ok_iter, append_write_q_ack, decode_raw, read_q_fields, write_q_fields, Frame,
    KIND_HELLO, KIND_READ_Q, KIND_STOP, KIND_WRITE_Q, PROTO_VERSION,
};
use conprobe_obs::MetricsRegistry;
use conprobe_services::catalog::topology;
use conprobe_services::live::{LiveCluster, LiveConfig, LiveReply, RejoinReport, StaleWindow};
use conprobe_services::{ClientOp, ServiceKind};
use conprobe_sim::net::{LatencyMatrix, Region};
use conprobe_sim::{BrownoutMode, LocalTime, SimRng};
use conprobe_store::{Post, PostId};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
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
    /// Base TCP port; region `i` binds `base_port + i`. `0` picks
    /// ephemeral ports (tests and same-host CI).
    pub base_port: u16,
    /// Keyspace shards in the hosted [`LiveCluster`] (clamped to ≥ 1; at
    /// most `conprobe_services::shard::MAX_SHARDS`).
    pub shards: usize,
    /// Event loops, one thread each, accepting and multiplexing the
    /// connections (clamped to ≥ 1). One is right for one core; more
    /// only helps when the host actually has spare cores.
    pub event_loops: usize,
    /// Bounded accept backlog: above this many live connections the
    /// server sheds new clients with a typed `busy` frame instead of
    /// queueing them. `0` disables shedding (unbounded).
    pub max_connections: usize,
    /// Slow-client eviction: a connection whose response bytes stay
    /// unflushable for longer than this budget is dropped so one
    /// trickle-reading client cannot pin a loop's output buffers.
    /// `Duration::ZERO` disables eviction.
    pub stall_budget: Duration,
}

impl ServeConfig {
    /// Loopback defaults: ephemeral ports, no artificial latency, a
    /// sharded keyspace on one event loop.
    pub fn loopback(kind: ServiceKind, seed: u64) -> Self {
        ServeConfig {
            kind,
            seed,
            stale_window: None,
            latency_scale: 0.0,
            base_port: 0,
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
    ctrs: Counters,
    matrix: LatencyMatrix,
    /// What was asked for: shaping, loss, the accept cap behind the `busy`
    /// shed, the slow-client stall budget.
    config: ServeConfig,
    service_token: &'static str,
    conn_seq: AtomicU64,
    /// Live (accepted, not yet dropped) connections on every loop — the
    /// shed gate.
    live_conns: AtomicU64,
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
    fn new(config: &ServeConfig) -> Shared {
        let cluster = LiveCluster::new(&LiveConfig {
            kind: config.kind,
            seed: config.seed,
            stale_window: config.stale_window,
            shards: config.shards,
        });
        let replicas = cluster.replica_count();
        let metrics = MetricsRegistry::new();
        Shared {
            cluster,
            started: Instant::now(),
            stop: AtomicBool::new(false),
            ctrs: Counters::new(&metrics),
            metrics,
            matrix: LatencyMatrix::paper_wan(),
            config: config.clone(),
            service_token: conprobe_harness::journal::service_token(config.kind),
            conn_seq: AtomicU64::new(0),
            live_conns: AtomicU64::new(0),
            replica_down: (0..replicas).map(|_| AtomicBool::new(false)).collect(),
            brownouts: (0..replicas).map(|_| BrownoutState::default()).collect(),
        }
    }

    fn now_nanos(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }
}

/// Binds one non-blocking loopback listener per region, region `i` on
/// `base_port + i` (all ephemeral when `base_port` is 0). Either every
/// listener binds or none stays bound: a port past 65535 is refused as
/// `InvalidInput` before any bind, and a failed bind drops the listeners
/// bound before it — so callers start serving only on success.
pub(crate) fn bind_listeners(
    base_port: u16,
    regions: &[Region],
) -> std::io::Result<Vec<(TcpListener, (Region, SocketAddr))>> {
    let last = usize::from(base_port) + regions.len().saturating_sub(1);
    if base_port != 0 && last > usize::from(u16::MAX) {
        let why = format!("listener port {last} is past 65535 (base port {base_port})");
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, why));
    }
    let bind = |(i, &region): (usize, &Region)| {
        let port = if base_port == 0 { 0 } else { base_port + i as u16 };
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok((listener, (region, addr)))
    };
    regions.iter().enumerate().map(bind).collect()
}

/// A running wire server. Dropping it without [`WireServer::join`] leaks
/// the event loops; `join` performs the graceful drain.
pub struct WireServer {
    shared: Arc<Shared>,
    addrs: Vec<(Region, SocketAddr)>,
    loops: Vec<JoinHandle<()>>,
}

impl WireServer {
    /// Binds the per-region listeners and starts serving. A staleness
    /// window on a hosted arm, or on a replica the topology lacks, is
    /// refused, not ignored: the caller would believe the service is
    /// seeded with an anomaly.
    pub fn start(config: &ServeConfig) -> std::io::Result<WireServer> {
        let refusal = config.stale_window.and_then(|w| {
            let (kind, replicas) = (config.kind, topology(config.kind).replicas.len());
            match w.replica {
                _ if kind.hosted_live() => {
                    Some(format!("--stale-replica pins a stored snapshot; {kind} has none"))
                }
                i if i >= replicas => {
                    Some(format!("--stale-replica {i}: {kind} has {replicas} replica(s)"))
                }
                _ => None,
            }
        });
        if let Some(why) = refusal {
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, why));
        }
        let (listeners, addrs): (Vec<_>, _) =
            bind_listeners(config.base_port, &Region::AGENTS)?.into_iter().unzip();
        // Each loop accepts on handles of its own: a port closes once
        // the last loop holding it has reached its drain point.
        let doors: Vec<(Region, TcpListener)> = Region::AGENTS.into_iter().zip(listeners).collect();
        let clone = |_| doors.iter().map(|(r, l)| Ok((*r, l.try_clone()?))).collect();
        let mut handles: Vec<Vec<_>> =
            (1..config.event_loops.max(1)).map(clone).collect::<std::io::Result<_>>()?;
        handles.push(doors);
        let shared = Arc::new(Shared::new(config));
        let loops = handles
            .into_iter()
            .map(|doors| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared, doors))
            })
            .collect();
        Ok(WireServer { shared, addrs, loops })
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

    /// Raises the stop flag (same effect as a `stop` frame).
    pub fn request_stop(&self) {
        self.shared.stop.store(true, Ordering::Release);
    }

    /// True once a drain has been requested (by any trigger).
    pub fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }

    /// Blocks until a drain is triggered, then joins every event loop
    /// and returns the final metrics dump as pretty JSON. In-flight
    /// requests finish first: each loop answers every request already
    /// buffered and flushes every response in full before closing.
    pub fn join(self) -> String {
        for handle in self.loops {
            let _ = handle.join();
        }
        self.shared.metrics.to_json().to_pretty()
    }
}

/// Adopts every client waiting at `region`'s door; true when anyone
/// knocked. A crashed replica's door is dark: a client is dropped at once,
/// sees EOF, and its reconnect policy backs off until the rejoin. Over the
/// connection budget a client is shed with a typed `busy` frame (it
/// carries a backoff hint; an accepted stream blocks, so it flushes).
fn accept_pending(
    shared: &Shared,
    region: Region,
    listener: &TcpListener,
    conns: &mut Vec<(TcpStream, Conn)>,
) -> bool {
    let ctrs = &shared.ctrs;
    let replica_idx = shared.cluster.replica_for(region);
    let cap = shared.config.max_connections as u64;
    let mut knocked = false;
    // A failed accept (nothing waiting, or a client gone before it was
    // taken) leaves the rest for the next poll.
    while let Ok((mut stream, _)) = listener.accept() {
        knocked = true;
        if shared.replica_down[replica_idx].load(Ordering::Acquire) {
            ctrs.refused_down.inc();
            continue;
        }
        if cap > 0 && shared.live_conns.load(Ordering::Acquire) >= cap {
            ctrs.busy_sheds.inc();
            let _ =
                stream.write_all(&Frame::Busy { retry_after_millis: BUSY_RETRY_MILLIS }.encode());
            continue;
        }
        ctrs.connections.inc();
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let conn_id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
        shared.live_conns.fetch_add(1, Ordering::AcqRel);
        conns.push((stream, Conn::new(shared, region, conn_id)));
    }
    knocked
}

/// One multiplexed connection minus its stream: decode → shape/drop/
/// throttle → [`LiveCluster::serve`] → encode, with the stall budget.
/// Time is an argument (nanoseconds since [`Shared::started`]); the
/// loop that owns the `TcpStream` reads the clock.
struct Conn {
    buf: FrameBuf,
    region: Region,
    replica_region: Region,
    /// Index of the replica this connection is pinned to (crash flags
    /// and brownout switches key on it).
    replica_idx: usize,
    rng: SimRng,
    /// WAN shaping: the instant the next buffered request may be served.
    release_at: Option<u64>,
    /// When response bytes first failed to flush; cleared on a full
    /// flush. Drives the slow-client stall budget.
    stalled_since: Option<u64>,
}

/// Outcome of one sweep over one connection.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Sweep {
    /// Bytes moved or frames served — keep the loop hot.
    Progress,
    /// Nothing to do.
    Idle,
    /// EOF, protocol violation, or I/O error — drop the connection.
    Closed,
}

/// Outcome of [`Conn::serve_next`] on the head of the input.
enum Step {
    /// One request consumed and answered.
    Served,
    /// The head frame is incomplete: only more bytes can help.
    Starved,
    /// The head frame is complete and waiting out its delay.
    Held,
    /// Corrupt stream or protocol violation — hang up.
    Closed,
}

/// Handles to the serving-path metrics (resolved once, not per op).
struct Counters {
    connections: conprobe_obs::Counter,
    busy_sheds: conprobe_obs::Counter,
    refused_down: conprobe_obs::Counter,
    frames: conprobe_obs::Counter,
    hellos: conprobe_obs::Counter,
    writes: conprobe_obs::Counter,
    reads: conprobe_obs::Counter,
    stops: conprobe_obs::Counter,
    slow_evictions: conprobe_obs::Counter,
    throttled: conprobe_obs::Counter,
    op_nanos: conprobe_obs::Histogram,
}

impl Counters {
    fn new(metrics: &MetricsRegistry) -> Counters {
        Counters {
            connections: metrics.counter("wire.server.connections"),
            busy_sheds: metrics.counter("wire.server.busy_sheds"),
            refused_down: metrics.counter("wire.server.refused_down"),
            frames: metrics.counter("wire.server.frames"),
            hellos: metrics.counter("wire.server.hellos"),
            writes: metrics.counter("wire.server.writes"),
            reads: metrics.counter("wire.server.reads"),
            stops: metrics.counter("wire.server.stops"),
            slow_evictions: metrics.counter("wire.server.slow_evictions"),
            throttled: metrics.counter("wire.server.throttled"),
            op_nanos: metrics.log_histogram("wire.server.op_nanos"),
        }
    }
}

impl Conn {
    fn new(shared: &Shared, region: Region, conn_id: u64) -> Conn {
        let replica_idx = shared.cluster.replica_for(region);
        Conn {
            buf: FrameBuf::default(),
            region,
            replica_region: shared.cluster.replica_region(replica_idx),
            replica_idx,
            rng: SimRng::new(shared.config.seed).split_indexed("wire.conn", conn_id),
            release_at: None,
            stalled_since: None,
        }
    }

    /// Serves the frame at the head of the input, if it is complete and
    /// due at `now` — strictly in arrival order, the per-connection FIFO
    /// guarantee pipelined clients check via request ids.
    fn serve_next(&mut self, shared: &Shared, now: u64) -> Step {
        let ctrs = &shared.ctrs;
        let (input, out) = self.buf.split();
        let raw = match decode_raw(input) {
            Ok(Some(raw)) => raw,
            Ok(None) => return Step::Starved,
            Err(_) => return Step::Closed,
        };
        // Artificial WAN shaping: each request waits out a sampled
        // agent↔replica delay (plus any delay-brownout surcharge on the
        // replica) before being served. The request stays buffered and is
        // revisited on later sweeps, so shaping one connection never
        // stalls the others.
        let brownout = &shared.brownouts[self.replica_idx];
        let brownout_nanos = brownout.delay_nanos.load(Ordering::Acquire);
        if shared.config.latency_scale > 0.0 || brownout_nanos > 0 {
            match self.release_at {
                None => {
                    let mut nanos = brownout_nanos;
                    if shared.config.latency_scale > 0.0 {
                        let wan = shared.matrix.sample_delay(
                            self.region,
                            self.replica_region,
                            &mut self.rng,
                        );
                        // The cast saturates at u64::MAX and so do the
                        // sums: a huge scale holds the frame, never wraps.
                        let scaled = (wan.as_nanos() as f64 * shared.config.latency_scale) as u64;
                        nanos = nanos.saturating_add(scaled);
                    }
                    self.release_at = Some(now.saturating_add(nanos));
                    return Step::Held;
                }
                Some(t) if now < t => return Step::Held,
                Some(_) => self.release_at = None,
            }
        }
        ctrs.frames.inc();
        let payload = &input[raw.payload.clone()];
        // A throttle-storm brownout on the connection's replica refuses
        // reads and writes alike, mirroring the sim's front-door brownout.
        let throttling = brownout.throttle.load(Ordering::Acquire);
        match raw.kind {
            KIND_READ_Q => {
                ctrs.reads.inc();
                let (req, key) = read_q_fields(payload);
                let reply = if throttling {
                    LiveReply::Unavailable
                } else {
                    shared.cluster.serve(self.region, key, ClientOp::Read, now)
                };
                encode_reply(out, ctrs, req, reply);
            }
            KIND_WRITE_Q => {
                ctrs.writes.inc();
                let Ok(w) = write_q_fields(payload) else { return Step::Closed };
                let reply = if throttling {
                    LiveReply::Unavailable
                } else {
                    let id = PostId::new(conprobe_store::AuthorId(w.author), w.seq);
                    let post = Post::new(id, w.content, LocalTime::from_nanos(w.client_ts_nanos));
                    shared.cluster.serve(self.region, w.key, ClientOp::Write(post), now)
                };
                encode_reply(out, ctrs, w.req, reply);
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
                .encode_into(out);
            }
            KIND_STOP => {
                ctrs.stops.inc();
                shared.stop.store(true, Ordering::Release);
                Frame::StopAck.encode_into(out);
            }
            // Server-role frames from a client are a protocol violation,
            // and the dispatch family belongs to a dispatch coordinator,
            // not a service server.
            _ => return Step::Closed,
        }
        self.buf.consume(raw.consumed);
        Step::Served
    }

    /// Slow-client stall budget: true once response bytes have sat
    /// unflushable for longer than `budget` (a trickle reader, or a peer
    /// that stopped reading entirely).
    fn stalled_out(&mut self, budget: u64, now: u64) -> bool {
        now - *self.stalled_since.get_or_insert(now) > budget
    }
}

/// Nanoseconds between cluster ticks.
const TICK_EVERY: u64 = 5_000_000;

/// One event loop: accepts on `doors`, sweeps the connections it adopted,
/// ticks the cluster, and drains once the stop flag rises.
fn worker_loop(shared: Arc<Shared>, doors: Vec<(Region, TcpListener)>) {
    let clock = || shared.now_nanos();
    let mut conns: Vec<(TcpStream, Conn)> = Vec::new();
    let mut scratch = vec![0u8; 256 * 1024];
    let mut backoff = IdleBackoff::default();
    let (mut accept_at, mut tick_at) = (0, 0);
    loop {
        let stopping = shared.stop.load(Ordering::Acquire);
        let now = clock();
        let mut progressed = false;
        if !stopping && now >= accept_at {
            accept_at = now + ACCEPT_EVERY;
            for (region, listener) in &doors {
                progressed |= accept_pending(&shared, *region, listener, &mut conns);
            }
        }
        if now >= tick_at {
            tick_at = now + TICK_EVERY;
            shared.cluster.tick(now);
        }
        conns.retain_mut(|(stream, conn)| {
            match sweep_conn(&shared, stream, conn, &mut scratch, stopping, &clock) {
                Sweep::Progress => progressed = true,
                Sweep::Idle => {}
                Sweep::Closed => {
                    shared.live_conns.fetch_sub(1, Ordering::AcqRel);
                    return false;
                }
            }
            true
        });
        if stopping {
            // Drain point: closing the listeners refuses further clients;
            // the sweep above answered everything buffered, so push the
            // remaining response bytes out synchronously (a blocking flush
            // is `write_all`) and no client ever observes a stream ending
            // mid-frame.
            drop(doors);
            for (mut stream, mut conn) in conns.drain(..) {
                shared.live_conns.fetch_sub(1, Ordering::AcqRel);
                if conn.buf.unsent() > 0 {
                    let _ = stream.set_nonblocking(false);
                    let _ = conn.buf.flush(&mut stream);
                }
            }
            return;
        }
        match idle_nap(conns.len(), accept_at.min(tick_at), now) {
            Some(nap) => std::thread::sleep(nap),
            None => backoff.after_sweep(progressed),
        }
    }
}

/// One event-loop pass over one connection and the stream `io` it
/// arrived on: read to the backlog cap, serve every buffered complete
/// frame that is due, flush what the stream will take. `clock` is read
/// once per served frame, plus once for the first: the first frame's
/// `now` is read after `fill` (a `HelloAck` never carries an instant older
/// than the bytes it answers), and each frame's end, which times its
/// `op_nanos`, is the next frame's `now`. A connection with nothing
/// buffered reads no clock.
fn sweep_conn<S: Read + Write>(
    shared: &Shared,
    io: &mut S,
    conn: &mut Conn,
    scratch: &mut [u8],
    stopping: bool,
    clock: &impl Fn() -> u64,
) -> Sweep {
    // A freshly crashed replica evicts its live connections: clients see
    // a clean close, retry, and hit the refuse-at-accept path until the
    // rejoin.
    if shared.replica_down[conn.replica_idx].load(Ordering::Acquire) {
        return Sweep::Closed;
    }
    let mut progressed = false;
    if !stopping {
        match conn.buf.fill(io, scratch, READ_BACKLOG_CAP) {
            Ok(read) => progressed = read,
            Err(_) => return Sweep::Closed,
        }
    }
    let mut held = false;
    let mut now = None;
    while !conn.buf.unread().is_empty() {
        let began = *now.get_or_insert_with(clock);
        match conn.serve_next(shared, began) {
            Step::Served => {
                let ended = clock();
                shared.ctrs.op_nanos.record(ended - began);
                now = Some(ended);
                progressed = true;
            }
            Step::Starved => break,
            Step::Held => {
                held = true;
                break;
            }
            Step::Closed => return Sweep::Closed,
        }
    }
    match conn.buf.flush(io) {
        Ok(wrote) => progressed |= wrote,
        Err(_) => return Sweep::Closed,
    }
    let budget = shared.config.stall_budget;
    if conn.buf.unsent() == 0 {
        conn.stalled_since = None;
        // A peer that hung up is done once everything it sent is answered;
        // what is left of a frame it never finished goes with it.
        if conn.buf.eof() && !held {
            return Sweep::Closed;
        }
    } else if !budget.is_zero()
        && conn.stalled_out(budget.as_nanos() as u64, now.unwrap_or_else(clock))
    {
        shared.ctrs.slow_evictions.inc();
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::conn::mem::{frames, FakeClock, Link};
    use crate::frame::{append_read_q, decode};

    const MS: u64 = 1_000_000;

    /// One server connection with no socket under it: the first
    /// connection a `serve` with `config` would accept from `region`,
    /// swept over whatever stream the test passes, at fabricated instants.
    pub(crate) struct Rig {
        shared: Shared,
        conn: Conn,
        clock: FakeClock,
        scratch: Vec<u8>,
    }

    impl Rig {
        pub(crate) fn new(config: &ServeConfig, region: Region) -> Rig {
            let shared = Shared::new(config);
            let conn = Conn::new(&shared, region, 0);
            Rig { shared, conn, clock: FakeClock::default(), scratch: vec![0; 256 * 1024] }
        }

        pub(crate) fn sweep<S: Read + Write>(&mut self, io: &mut S, now: u64) -> Sweep {
            self.clock.set(now);
            let clock = self.clock.read();
            sweep_conn(&self.shared, io, &mut self.conn, &mut self.scratch, false, &clock)
        }

        pub(crate) fn counter(&self, name: &str) -> u64 {
            self.shared.metrics.counter(name).get()
        }

        /// Response bytes appended and not yet written to a stream.
        pub(crate) fn unflushed(&mut self) -> Vec<u8> {
            let pending = self.conn.buf.unsent();
            let out = self.conn.buf.out();
            out[out.len() - pending..].to_vec()
        }

        /// Sets (or with `0` lifts) a delay brownout on the connection's replica.
        pub(crate) fn delay_brownout(&self, nanos: u64) {
            self.brownout().delay_nanos.store(nanos, Ordering::Release);
        }

        fn brownout(&self) -> &BrownoutState {
            &self.shared.brownouts[self.conn.replica_idx]
        }

        /// The sampled WAN delays this connection will draw, in order.
        fn wan_delays(&self, seed: u64, count: usize) -> Vec<u64> {
            let mut rng = SimRng::new(seed).split_indexed("wire.conn", 0);
            let (a, b) = (self.conn.region, self.conn.replica_region);
            (0..count).map(|_| self.shared.matrix.sample_delay(a, b, &mut rng).as_nanos()).collect()
        }
    }

    fn reads(reqs: std::ops::Range<u32>) -> Vec<u8> {
        let mut bytes = Vec::new();
        for req in reqs {
            append_read_q(&mut bytes, req, req % 5);
        }
        bytes
    }

    /// The request ids a response stream answers, in stream order.
    pub(crate) fn answered(bytes: &[u8]) -> Vec<u32> {
        let req_of = |frame| match frame {
            Frame::ReadQOk { req, .. }
            | Frame::WriteQAck { req, .. }
            | Frame::Throttled { req } => req,
            other => panic!("not an answer: {other:?}"),
        };
        frames(bytes).into_iter().map(req_of).collect()
    }

    #[test]
    fn wan_shaping_releases_in_arrival_order_at_the_sampled_instants() {
        let run = |seed: u64| -> Vec<(u64, Vec<u32>)> {
            let mut config = ServeConfig::loopback(ServiceKind::Blogger, seed);
            config.latency_scale = 1.0;
            let mut rig = Rig::new(&config, Region::Tokyo);
            let delays = rig.wan_delays(seed, 4);
            assert!(delays.iter().all(|d| *d > MS), "Tokyo is an ocean away: {delays:?}");
            let mut link = Link::default();
            link.a_to_b.bytes.extend(reads(0..4));
            // A request's delay is drawn when it reaches the head of the
            // connection, so release instants chain.
            let mut releases = Vec::new();
            let mut at = 3 * MS;
            assert_eq!(rig.sweep(&mut link.b(), at), Sweep::Progress, "bytes arrived");
            for delay in delays {
                at += delay;
                assert_eq!(rig.sweep(&mut link.b(), at - 1), Sweep::Idle, "one nanosecond early");
                assert!(link.b_to_a.bytes.is_empty());
                assert_eq!(rig.sweep(&mut link.b(), at), Sweep::Progress);
                releases.push((at, answered(&link.b_to_a.take())));
            }
            assert_eq!(rig.counter("wire.server.frames"), 4);
            releases
        };
        let first = run(42);
        let order: Vec<Vec<u32>> = first.iter().map(|(_, reqs)| reqs.clone()).collect();
        assert_eq!(order, [[0], [1], [2], [3]], "one per release, in arrival order");
        assert_eq!(first, run(42), "same seed, same instants");
        assert_ne!(first, run(43));
    }

    #[test]
    fn a_huge_latency_scale_holds_the_frame_without_overflowing() {
        let mut config = ServeConfig::loopback(ServiceKind::Blogger, 4);
        config.latency_scale = 1e30;
        let mut rig = Rig::new(&config, Region::Tokyo);
        rig.delay_brownout(7 * MS);
        let mut link = Link::default();
        link.a_to_b.bytes.extend(reads(0..1));
        assert_eq!(rig.sweep(&mut link.b(), 3 * MS), Sweep::Progress, "bytes arrived");
        assert_eq!(rig.sweep(&mut link.b(), u64::MAX - 1), Sweep::Idle, "still held");
        assert!(link.b_to_a.bytes.is_empty());
        assert_eq!(rig.counter("wire.server.frames"), 0);
    }

    #[test]
    fn a_delay_brownout_adds_exactly_its_nanoseconds() {
        let mut rig = Rig::new(&ServeConfig::loopback(ServiceKind::Blogger, 5), Region::Oregon);
        let mut link = Link::default();
        rig.brownout().delay_nanos.store(7 * MS, Ordering::Release);
        link.a_to_b.bytes.extend(reads(0..1));
        rig.sweep(&mut link.b(), MS);
        rig.sweep(&mut link.b(), 8 * MS - 1);
        assert!(link.b_to_a.bytes.is_empty(), "held for the brownout's 7 ms");
        rig.sweep(&mut link.b(), 8 * MS);
        assert_eq!(answered(&link.b_to_a.take()), [0]);
        // Lifted, a request is served in the sweep that reads it.
        rig.brownout().delay_nanos.store(0, Ordering::Release);
        link.a_to_b.bytes.extend(reads(1..2));
        rig.sweep(&mut link.b(), 9 * MS);
        assert_eq!(answered(&link.b_to_a.take()), [1]);

        // On a shaped link the surcharge lands on top of the sampled delay.
        let mut config = ServeConfig::loopback(ServiceKind::Blogger, 5);
        config.latency_scale = 0.5;
        let mut rig = Rig::new(&config, Region::Ireland);
        let due = rig.wan_delays(5, 1)[0] / 2 + 7 * MS;
        rig.brownout().delay_nanos.store(7 * MS, Ordering::Release);
        link.a_to_b.bytes.extend(reads(0..1));
        rig.sweep(&mut link.b(), 0);
        rig.sweep(&mut link.b(), due - 1);
        assert!(link.b_to_a.bytes.is_empty());
        rig.sweep(&mut link.b(), due);
        assert_eq!(answered(&link.b_to_a.take()), [0]);

        // The other brownout refuses instead of delaying.
        rig.brownout().delay_nanos.store(0, Ordering::Release);
        rig.brownout().throttle.store(true, Ordering::Release);
        link.a_to_b.bytes.extend(reads(1..3));
        let _ = (rig.sweep(&mut link.b(), due), rig.sweep(&mut link.b(), due + 200 * MS));
        let refused = link.b_to_a.take();
        assert_eq!(answered(&refused), [1]);
        assert!(matches!(decode(&refused), Ok(Some((Frame::Throttled { req: 1 }, _)))));
        assert_eq!(rig.counter("wire.server.throttled"), 1);
    }

    #[test]
    fn slow_client_eviction_fires_after_the_stall_budget_and_never_without_one() {
        let mut config = ServeConfig::loopback(ServiceKind::Blogger, 3);
        config.stall_budget = Duration::from_millis(100);
        let mut rig = Rig::new(&config, Region::Oregon);
        let mut link = Link::default();
        link.b_to_a.room = 0; // the client stopped reading
        link.a_to_b.bytes.extend(reads(0..2));
        assert_eq!(rig.sweep(&mut link.b(), 10 * MS), Sweep::Progress, "served; nothing flushed");
        // The client reads a little before the budget runs out: the clock restarts.
        assert_eq!(rig.sweep(&mut link.b(), 110 * MS), Sweep::Idle);
        link.b_to_a.room = usize::MAX;
        assert_eq!(rig.sweep(&mut link.b(), 110 * MS), Sweep::Progress);
        assert_eq!(answered(&link.b_to_a.take()), [0, 1]);
        link.b_to_a.room = 0;
        link.a_to_b.bytes.extend(reads(2..3));
        assert_eq!(rig.sweep(&mut link.b(), 150 * MS), Sweep::Progress);
        assert_eq!(rig.sweep(&mut link.b(), 250 * MS), Sweep::Idle, "at the budget, not past it");
        assert_eq!(rig.counter("wire.server.slow_evictions"), 0);
        assert_eq!(rig.sweep(&mut link.b(), 250 * MS + 1), Sweep::Closed);
        assert_eq!(rig.counter("wire.server.slow_evictions"), 1);

        // Budget zero: a peer may stay stuck for as long as it likes.
        let mut rig = Rig::new(&ServeConfig::loopback(ServiceKind::Blogger, 3), Region::Oregon);
        link.a_to_b.bytes.extend(reads(0..1));
        assert_eq!(rig.sweep(&mut link.b(), 0), Sweep::Progress);
        assert_eq!(rig.sweep(&mut link.b(), 3_600_000 * MS), Sweep::Idle);
        assert_eq!(rig.counter("wire.server.slow_evictions"), 0);
    }

    #[test]
    fn a_sweep_reads_the_clock_once_per_served_frame_and_once_before_the_first() {
        const STEP: u64 = 250;
        let mut rig = Rig::new(&ServeConfig::loopback(ServiceKind::Blogger, 7), Region::Oregon);
        rig.clock.tick_per_read(STEP);
        let mut link = Link::default();
        let op_nanos = rig.shared.ctrs.op_nanos.clone();
        let reads_in = |rig: &mut Rig, link: &mut Link, now: u64| {
            let before = rig.clock.reads();
            rig.sweep(&mut link.b(), now);
            rig.clock.reads() - before
        };
        // Nothing buffered: no read.
        assert_eq!(reads_in(&mut rig, &mut link, MS), 0);
        let mut served = 0;
        for k in [1u32, 5, 40] {
            // k frames and the head of the next: the starved tail costs nothing.
            link.a_to_b.bytes.extend(reads(0..k));
            link.a_to_b.bytes.extend(&reads(k..k + 1)[..7]);
            let (count, sum) = (op_nanos.count(), op_nanos.sum());
            assert_eq!(reads_in(&mut rig, &mut link, 10 * MS), u64::from(k) + 1, "{k} frames");
            // k samples, which sum to the time from the first read to the last.
            assert_eq!(op_nanos.count() - count, u64::from(k));
            assert_eq!(op_nanos.sum() - sum, u64::from(k) * STEP);
            served += u64::from(k);
            assert_eq!(answered(&link.b_to_a.take()).len() as u64, u64::from(k));
            // The rest of the head frame: one frame, two reads.
            link.a_to_b.bytes.extend(&reads(k..k + 1)[7..]);
            assert_eq!(reads_in(&mut rig, &mut link, 11 * MS), 2);
            served += 1;
            link.b_to_a.take();
        }
        assert_eq!(rig.counter("wire.server.frames"), served);
        // A held head frame reads the clock once, on every sweep that holds it.
        rig.delay_brownout(5 * MS);
        link.a_to_b.bytes.extend(reads(0..3));
        assert_eq!(reads_in(&mut rig, &mut link, 20 * MS), 1);
        assert_eq!(reads_in(&mut rig, &mut link, 21 * MS), 1);
        assert!(link.b_to_a.bytes.is_empty());
        assert_eq!(rig.counter("wire.server.frames"), served);
    }

    #[test]
    fn reading_pauses_at_the_backlog_cap_while_buffered_frames_are_still_served() {
        let mut rig = Rig::new(&ServeConfig::loopback(ServiceKind::Blogger, 4), Region::Oregon);
        let mut link = Link::default();
        let total = 3 * READ_BACKLOG_CAP as u32 / 25; // 25-byte frames, ~3 caps' worth
        link.a_to_b.bytes.extend(reads(0..total));
        let offered = link.a_to_b.bytes.len();
        // A brownout holds the head request, so input only accumulates.
        rig.brownout().delay_nanos.store(50 * MS, Ordering::Release);
        for sweep in 0..20 {
            rig.sweep(&mut link.b(), sweep * MS);
        }
        let held = rig.conn.buf.unread().len();
        assert!((READ_BACKLOG_CAP..READ_BACKLOG_CAP + rig.scratch.len()).contains(&held), "{held}");
        assert_eq!(held + link.a_to_b.bytes.len(), offered, "the rest stays on the wire");
        assert_eq!(rig.counter("wire.server.frames"), 0);
        // Lifted: everything buffered is served by one sweep, which read
        // nothing; the sweeps after it read on.
        rig.brownout().delay_nanos.store(0, Ordering::Release);
        let on_the_wire = link.a_to_b.bytes.len();
        rig.sweep(&mut link.b(), 50 * MS);
        assert_eq!(link.a_to_b.bytes.len(), on_the_wire, "still at the cap: no read");
        let served = answered(&link.b_to_a.take());
        assert_eq!(served.len(), held / 25, "every complete buffered frame");
        let mut all = served;
        for sweep in 51..60 {
            rig.sweep(&mut link.b(), sweep * MS);
            all.extend(answered(&link.b_to_a.take()));
        }
        assert_eq!(all, (0..total).collect::<Vec<u32>>());
    }

    #[test]
    fn a_server_role_or_dispatch_frame_from_a_client_closes_the_connection() {
        let intruders = [
            Frame::HelloAck { proto: PROTO_VERSION, server_clock_nanos: 1, service: "x".into() },
            Frame::ReadQOk { req: 1, ids: vec![3] },
            Frame::WriteQAck { req: 1, id: 3 },
            Frame::Throttled { req: 1 },
            Frame::StopAck,
            Frame::Busy { retry_after_millis: 5 },
            Frame::WorkReq { worker: 1 },
            Frame::WorkFin,
            Frame::ResultAck,
        ];
        for intruder in intruders {
            let mut rig = Rig::new(&ServeConfig::loopback(ServiceKind::Blogger, 6), Region::Oregon);
            let mut link = Link::default();
            link.a_to_b.bytes.extend(reads(0..1));
            link.a_to_b.bytes.extend(intruder.encode());
            link.a_to_b.bytes.extend(reads(1..2));
            assert_eq!(rig.sweep(&mut link.b(), MS), Sweep::Closed, "{intruder:?}");
            assert_eq!(answered(rig.conn.buf.out()), [0], "nothing appended after {intruder:?}");
            assert_eq!(rig.counter("wire.server.reads"), 1);
        }
    }

    #[test]
    fn a_peer_that_hangs_up_is_closed_once_everything_it_sent_is_answered() {
        let mut config = ServeConfig::loopback(ServiceKind::Blogger, 8);
        config.latency_scale = 1.0;
        let mut rig = Rig::new(&config, Region::Oregon);
        let due = rig.wan_delays(8, 1)[0];
        let mut link = Link::default();
        // One whole request, then the first bytes of a second, then EOF.
        link.a_to_b.bytes.extend(reads(0..1));
        link.a_to_b.bytes.extend(&reads(1..2)[..9]);
        link.a_to_b.closed = true;
        assert_eq!(rig.sweep(&mut link.b(), 0), Sweep::Progress);
        assert_eq!(rig.sweep(&mut link.b(), due - 1), Sweep::Idle, "a held request keeps it open");
        // Served and flushed; what is left can never become a frame.
        assert_eq!(rig.sweep(&mut link.b(), due), Sweep::Closed);
        assert_eq!(answered(&link.b_to_a.take()), [0]);
    }

    #[test]
    fn a_hello_is_acknowledged_with_the_instant_it_was_served_at() {
        let mut rig = Rig::new(&ServeConfig::loopback(ServiceKind::Quorum, 2), Region::Ireland);
        let mut link = Link::default();
        link.a_to_b.bytes.extend(Frame::Hello { proto: PROTO_VERSION }.encode());
        rig.sweep(&mut link.b(), 123_456_789);
        let (ack, _) = decode(&link.b_to_a.take()).unwrap().unwrap();
        let expect = Frame::HelloAck {
            proto: PROTO_VERSION,
            server_clock_nanos: 123_456_789,
            service: "quorum".into(),
        };
        assert_eq!(ack, expect);
    }

    /// Both listener sets `serve` and `chaosd` bind: one per agent region.
    fn start_both(base_port: u16) -> [std::io::Error; 2] {
        let mut config = ServeConfig::loopback(ServiceKind::Blogger, 1);
        config.base_port = base_port;
        let served = WireServer::start(&config).err().expect("the serve start fails");
        let chaos = crate::chaos::ChaosConfig {
            seed: 1,
            plan: conprobe_sim::FaultPlan::new(1),
            inject: crate::chaos::InjectProfile::default(),
            base_port,
        };
        let targets: Vec<_> = Region::AGENTS
            .iter()
            .map(|&region| crate::chaos::ChaosTarget {
                region,
                replica_region: region,
                addr: "127.0.0.1:9".parse().unwrap(),
            })
            .collect();
        let proxied = crate::chaos::ChaosProxy::start(&chaos, &targets).err();
        [served, proxied.expect("the chaosd start fails")]
    }

    #[test]
    fn a_base_port_whose_last_listener_overflows_is_refused_before_any_bind() {
        // The third region would need port 65536.
        assert_eq!(Region::AGENTS.len(), 3);
        for err in start_both(65534) {
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
            assert!(err.to_string().contains("listener port 65536"), "{err}");
        }
    }

    #[test]
    fn a_stale_window_on_a_replica_the_topology_lacks_is_refused() {
        let start = |kind, replica| {
            let mut config = ServeConfig::loopback(kind, 1);
            config.stale_window = Some(StaleWindow { replica, lag_nanos: MS });
            WireServer::start(&config)
        };
        for (kind, replica, why) in [
            (ServiceKind::Blogger, 1, "--stale-replica 1: Blogger has 1 replica(s)"),
            (ServiceKind::FacebookFeed, 3, "--stale-replica 3: FB Feed has 3 replica(s)"),
        ] {
            let err = start(kind, replica).err().expect("the start is refused");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
            assert_eq!(err.to_string(), why);
        }
        // The last replica in range still pins.
        let server = start(ServiceKind::FacebookFeed, 2).expect("replica 2 exists");
        server.request_stop();
        server.join();
    }

    #[test]
    fn a_start_whose_second_bind_fails_leaves_the_first_port_free() {
        // A free port whose successor another listener holds.
        let (port, _successor) = loop {
            let probe = TcpListener::bind("127.0.0.1:0").unwrap();
            let port = probe.local_addr().unwrap().port();
            if port < u16::MAX {
                if let Ok(successor) = TcpListener::bind(("127.0.0.1", port + 1)) {
                    break (port, successor);
                }
            }
        };
        for err in start_both(port) {
            assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
            TcpListener::bind(("127.0.0.1", port))
                .expect("nothing still listens on the first port");
        }
    }
}
