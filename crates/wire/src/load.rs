//! Closed-loop load generator for `cpw1` servers.
//!
//! The generator multiplexes [`LoadConfig::connections`] non-blocking
//! pipelined connections ([`crate::pipeline::PipeConn`]) over a few
//! sweeper threads, keeping up to [`LoadConfig::pipeline`] keyed reads
//! in flight per connection — a closed loop at every depth, so offered
//! load adapts to service capacity and the measured latency histogram is
//! honest (latency is queue-to-response, including the client's own
//! batching). Requests spread round-robin over [`LoadConfig::keys`]
//! keyspace keys, exercising the server's consistent-hash shard routing.
//!
//! An optional ops/sec target turns the loop into a paced open-ish load
//! for soak tests; left unset, the generator reports the sustained
//! closed-loop ceiling (the open-loop measurements live in
//! `benchmarks/README.md`). A warm-up window runs the identical workload
//! before the measured interval so connection setup, allocator steady
//! state, and socket buffer sizing never pollute the numbers.
//!
//! Error accounting is deliberately paranoid: I/O, decode, ordering and
//! stall faults are counted separately *and* per connection
//! (`conns_with_errors` / `max_conn_errors`), so a handful of sick
//! connections cannot hide inside an aggregate average. Each event is
//! counted once, in the `wire.load.*` registry counters; the report reads
//! how far they moved during the run.

use crate::client::{dial_nonblocking, WireClient};
use crate::conn::IdleBackoff;
use crate::pipeline::{PipeConn, PipeFault};
use conprobe_harness::transport::{EndpointError, ServiceEndpoint};
use conprobe_obs::{Counter, Histogram, MetricsRegistry};
use conprobe_services::{ClientOp, OpResult};
use conprobe_sim::LocalTime;
use conprobe_store::{AuthorId, Post, PostId};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Configuration for [`run_load`].
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// The endpoint to load.
    pub addr: SocketAddr,
    /// Concurrent connections, multiplexed across [`LoadConfig::threads`]
    /// sweeper threads (tens of thousands are fine — connections are
    /// non-blocking sockets, not threads).
    pub connections: usize,
    /// In-flight pipelined requests per connection (≥ 1). Depth 1 is the
    /// classic request-then-response closed loop.
    pub pipeline: usize,
    /// Sweeper threads the connections are distributed over. One is
    /// right on a single-core host.
    pub threads: usize,
    /// Keyspace keys the reads cycle through (round-robin), exercising
    /// the server's shard routing. 1 pins everything to key 0.
    pub keys: u32,
    /// Wall-clock duration of the measured loop.
    pub duration: Duration,
    /// Identical workload run before measurement begins; counters and
    /// histograms only see the measured window.
    pub warmup: Duration,
    /// Optional pacing target, total ops/sec across all connections.
    /// `None` runs flat out.
    pub target_ops_per_sec: Option<u64>,
    /// Posts seeded before the read loop (spread round-robin over the
    /// key set, so per-key read payloads are stable over the run).
    pub seed_posts: u32,
    /// Per-call socket timeout (seeding) and in-flight stall bound.
    pub timeout: Duration,
}

impl LoadConfig {
    /// Flat-out loopback defaults: the pre-pipelining configuration
    /// (8 connections, depth 1, one key) with a short warm-up.
    pub fn loopback(addr: SocketAddr) -> Self {
        LoadConfig {
            addr,
            connections: 8,
            pipeline: 1,
            threads: 1,
            keys: 1,
            duration: Duration::from_secs(5),
            warmup: Duration::from_millis(250),
            target_ops_per_sec: None,
            seed_posts: 32,
            timeout: Duration::from_secs(5),
        }
    }
}

/// What the load run measured (the measured window only — warm-up ops
/// are discarded).
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Completed operations across all connections.
    pub ops: u64,
    /// Failed operations (transport, decode, ordering, stall — total).
    pub errors: u64,
    /// Measured wall-clock seconds.
    pub elapsed_secs: f64,
    /// `ops / elapsed_secs`.
    pub ops_per_sec: f64,
    /// Median latency in nanoseconds ([`Histogram::quantile`]: at most
    /// 1/32 above the exact value); `None` when no op completed.
    pub p50_nanos: Option<u64>,
    /// 99th percentile latency in nanoseconds.
    pub p99_nanos: Option<u64>,
    /// 99.9th percentile latency in nanoseconds — the tail the p99 hides.
    pub p999_nanos: Option<u64>,
    /// Responses that violated per-connection FIFO order.
    pub ordering_errors: u64,
    /// Responses that failed frame validation.
    pub decode_errors: u64,
    /// Connections the server shed with a `busy` frame. Backpressure,
    /// not failure: counted apart from `errors`, and the slot reconnects
    /// only after the server's wait hint.
    pub busy_sheds: u64,
    /// Requests the server refused with `throttled` (a throttle-storm
    /// brownout). Rate limiting, not failure: counted apart from `ops`,
    /// `errors` and the latency histogram.
    pub throttled: u64,
    /// Connections that suffered at least one error.
    pub conns_with_errors: u64,
    /// Errors on the single worst connection.
    pub max_conn_errors: u64,
}

/// The run's one account: every event is counted here, once.
struct LoadCounters {
    latency: Histogram,
    ops: Counter,
    errors: Counter,
    ordering: Counter,
    decode: Counter,
    busy: Counter,
    throttled: Counter,
}

impl LoadCounters {
    fn new(metrics: &MetricsRegistry) -> LoadCounters {
        LoadCounters {
            latency: metrics.log_histogram("wire.load.latency_nanos"),
            ops: metrics.counter("wire.load.ops"),
            errors: metrics.counter("wire.load.errors"),
            ordering: metrics.counter("wire.load.ordering_errors"),
            decode: metrics.counter("wire.load.decode_errors"),
            busy: metrics.counter("wire.load.busy_sheds"),
            throttled: metrics.counter("wire.load.throttled"),
        }
    }

    /// `[ops, errors, ordering, decode, busy, throttled]` as they stand.
    fn read(&self) -> [u64; 6] {
        [&self.ops, &self.errors, &self.ordering, &self.decode, &self.busy, &self.throttled]
            .map(Counter::get)
    }
}

/// Runs the load loop and records per-op latencies into `metrics`
/// (`wire.load.latency_nanos` histogram, `wire.load.ops` /
/// `wire.load.errors` / `wire.load.ordering_errors` /
/// `wire.load.decode_errors` / `wire.load.busy_sheds` /
/// `wire.load.throttled` counters). The report's counts are how far
/// those counters moved during the run.
pub fn run_load(
    config: &LoadConfig,
    metrics: &MetricsRegistry,
) -> Result<LoadReport, EndpointError> {
    let ctrs = LoadCounters::new(metrics);
    let before = ctrs.read();

    // Seed a fixed read corpus, spread round-robin over the key set so
    // every key's read payload is stable over the run.
    {
        let keys = config.keys.max(1);
        let mut seeder = WireClient::connect(config.addr, config.timeout)?;
        for seq in 1..=config.seed_posts {
            let id = PostId::new(AuthorId(u32::MAX), seq);
            seeder.set_key(Some((seq - 1) % keys));
            let post = Post::new(id, format!("seed {id}"), LocalTime::from_nanos(0));
            match seeder.call(ClientOp::Write(post))? {
                OpResult::WriteAck(_) => {}
                other => return Err(EndpointError(format!("seed post {id} refused: {other:?}"))),
            }
        }
    }

    let connections = config.connections.max(1);
    let threads = config.threads.clamp(1, connections);
    let depth = config.pipeline.max(1);
    let keys = config.keys.max(1);
    let warmup_end = Instant::now() + config.warmup;
    let deadline = warmup_end + config.duration;
    // Per-connection pacing interval, if a target was set.
    let pace = config.target_ops_per_sec.map(|t| {
        let per_conn = (t / connections as u64).max(1);
        Duration::from_nanos(1_000_000_000 / per_conn)
    });

    // Errors per connection slot, over every sweeper's slots.
    let slot_errors: Vec<u64> = std::thread::scope(|scope| {
        let sweepers: Vec<_> = (0..threads)
            .map(|t| {
                // Distribute the connection count across sweepers.
                let conns = connections / threads + usize::from(t < connections % threads);
                let ctrs = &ctrs;
                let args =
                    SweeperArgs { config, conns, depth, keys, pace, warmup_end, deadline, ctrs };
                scope.spawn(move || sweep_connections(args))
            })
            .collect();
        sweepers.into_iter().filter_map(|s| s.join().ok()).flatten().collect()
    });
    let after = ctrs.read();
    let [ops, errors, ordering, decode, busy, throttled] =
        std::array::from_fn(|i| after[i] - before[i]);

    let elapsed_secs = config.duration.as_secs_f64();
    Ok(LoadReport {
        ops,
        errors,
        elapsed_secs,
        ops_per_sec: ops as f64 / elapsed_secs.max(1e-9),
        p50_nanos: ctrs.latency.quantile(0.50),
        p99_nanos: ctrs.latency.quantile(0.99),
        p999_nanos: ctrs.latency.quantile(0.999),
        ordering_errors: ordering,
        decode_errors: decode,
        busy_sheds: busy,
        throttled,
        conns_with_errors: slot_errors.iter().filter(|&&e| e > 0).count() as u64,
        max_conn_errors: slot_errors.iter().copied().max().unwrap_or(0),
    })
}

struct SweeperArgs<'a> {
    config: &'a LoadConfig,
    conns: usize,
    depth: usize,
    keys: u32,
    pace: Option<Duration>,
    warmup_end: Instant,
    deadline: Instant,
    ctrs: &'a LoadCounters,
}

/// One sweeper thread: owns `conns` pipelined connections and runs the
/// warm-up + measured loop over them. Returns the errors per connection
/// slot, the per-connection figure no registry counter holds.
fn sweep_connections(args: SweeperArgs<'_>) -> Vec<u64> {
    let ctrs = args.ctrs;
    // The sweeper's epoch: every `PipeConn` instant is nanoseconds since.
    let epoch = Instant::now();
    let clock = || epoch.elapsed().as_nanos() as u64;
    let dial = || {
        let stream = dial_nonblocking(args.config.addr, args.config.timeout).ok()?;
        Some((stream, PipeConn::new(clock())))
    };
    let pace = args.pace.map(|interval| interval.as_nanos() as u64);
    let mut conns: Vec<Option<(TcpStream, PipeConn)>> = Vec::with_capacity(args.conns);
    // Errors per connection *slot*, surviving reconnects — the
    // per-connection counter the report surfaces.
    let mut slot_errors: Vec<u64> = vec![0; args.conns];
    // Earliest instant each empty slot may re-dial: a busy shed backs
    // off by the server's wait hint; plain connect failures retry on a
    // short fixed delay instead of hammering a refusing listener.
    let mut retry_at: Vec<Instant> = vec![Instant::now(); args.conns];
    let mut key_cursor: u32 = 0;
    for slot in slot_errors.iter_mut() {
        let conn = dial();
        if conn.is_none() {
            ctrs.errors.inc();
            *slot += 1;
        }
        conns.push(conn);
    }
    let mut scratch = vec![0u8; 256 * 1024];
    let mut backoff = IdleBackoff::default();
    loop {
        let now = Instant::now();
        let measuring = now >= args.warmup_end;
        let issuing = now < args.deadline;
        let mut progressed = false;
        let mut all_drained = true;
        for (slot_idx, slot) in conns.iter_mut().enumerate() {
            if slot.is_none() {
                // An empty slot (shed, faulted, or never connected)
                // re-dials once its backoff expires — previously a slot
                // that failed its initial connect was dead for the run.
                if !issuing || now < retry_at[slot_idx] {
                    continue;
                }
                *slot = dial();
                if slot.is_none() {
                    retry_at[slot_idx] = now + Duration::from_millis(20);
                    continue;
                }
                progressed = true;
            }
            let Some((stream, conn)) = slot else { continue };
            if issuing && conn.inflight() < args.depth {
                let at = clock();
                while conn.inflight() < args.depth {
                    if let Some(interval) = pace {
                        if at < conn.next_issue_at {
                            break;
                        }
                        conn.next_issue_at += interval;
                    }
                    conn.issue_read(key_cursor % args.keys, at);
                    key_cursor = key_cursor.wrapping_add(1);
                }
            }
            let result = conn.pump(stream, &mut scratch, args.config.timeout, &clock);
            progressed |= result.progressed;
            if result.completed > 0 && measuring {
                ctrs.ops.add(result.completed as u64);
                for nanos in conn.take_latencies() {
                    ctrs.latency.record(nanos);
                }
            } else {
                conn.take_latencies();
            }
            if result.throttled > 0 && measuring {
                ctrs.throttled.add(result.throttled as u64);
            }
            if let Some(fault) = result.fault {
                let backoff = if fault == PipeFault::Busy {
                    // Backpressure, not failure: honour the server's
                    // wait hint before re-dialing.
                    ctrs.busy.inc();
                    Duration::from_millis(u64::from(result.busy_wait_millis.unwrap_or(50)))
                } else {
                    ctrs.errors.inc();
                    match fault {
                        PipeFault::Ordering => ctrs.ordering.inc(),
                        PipeFault::Decode => ctrs.decode.inc(),
                        PipeFault::Io | PipeFault::Stall | PipeFault::Busy => {}
                    }
                    slot_errors[slot_idx] += 1;
                    Duration::ZERO
                };
                // Tear down; the empty-slot path re-dials after the
                // backoff (a lossy server leaks in-flight slots
                // otherwise).
                *slot = None;
                retry_at[slot_idx] = now + backoff;
                progressed = true;
                continue;
            }
            if conn.inflight() > 0 {
                all_drained = false;
            }
        }
        // Done once drained, or give up on stragglers after the stall bound.
        let done =
            !issuing && (all_drained || Instant::now() > args.deadline + args.config.timeout);
        if done {
            return slot_errors;
        }
        // The server's backoff, mirrored: a yield hands the core to the
        // serving thread, which holds the responses we are waiting on.
        backoff.after_sweep(progressed);
    }
}
