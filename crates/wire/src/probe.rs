//! Live probe agents: the paper's measurement methodology over real
//! sockets.
//!
//! [`run_probe`] runs one test instance (Test 1 or Test 2, the same
//! designs `harness::runner` executes in simulation) against remote
//! `cpw1` endpoints:
//!
//! 1. each agent thread keeps a *deliberately skewed* local clock — a
//!    seeded constant offset on the process monotonic clock, emulating
//!    the paper's NTP-disabled VMs (and letting us score the estimator
//!    against known ground truth);
//! 2. each agent runs `hello` clock probes and feeds the samples to the
//!    unmodified [`clocksync`](conprobe_harness::clocksync) estimator —
//!    Cristian's method over real RTTs;
//! 3. agents start at one agreed *server-timeline* instant (each sleeps
//!    until its own skewed clock reaches the mapped deadline — exactly
//!    the coordinator's synchronized-start trick);
//! 4. the read/write cadence of the chosen test design runs against the
//!    [`ServiceEndpoint`](conprobe_harness::transport::ServiceEndpoint),
//!    logging local invoke/response times;
//! 5. records are mapped onto the server timeline via the estimated
//!    deltas and merged into a standard
//!    [`TestTrace`](conprobe_core::TestTrace) — which then flows through
//!    the *unmodified* `analyze()` checkers, journal, metrics and report
//!    pipeline.
//!
//! The output is a full [`TestResult`], so campaign-side machinery
//! (journaling, `--resume`, anomaly tables) works on live traces
//! untouched.

use crate::client::{ReconnectPolicy, WireClient};
use conprobe_core::trace::{AgentId, OpRecord, Timestamp};
use conprobe_core::{analyze, trace::OpKind, TestTrace};
use conprobe_harness::clocksync::{estimate, ProbeSample};
use conprobe_harness::coordinator::AgentHealth;
use conprobe_harness::proto::{test1_post, LocalOpRecord, TestKind};
use conprobe_harness::runner::{checker_config_for, FaultLedger, TestConfig, TestResult};
use conprobe_harness::transport::{EndpointError, ServiceEndpoint};
use conprobe_services::{ClientOp, OpResult, ServiceKind};
use conprobe_sim::net::Region;
use conprobe_sim::{LocalTime, NodeId, SimRng};
use conprobe_store::{Post, PostId};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Configuration for one live probe instance.
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    /// The service the server claims to host (verified on connect).
    pub service: ServiceKind,
    /// Test design to run.
    pub kind: TestKind,
    /// One `(region, address)` endpoint per agent, in agent-index order.
    pub endpoints: Vec<(Region, SocketAddr)>,
    /// Background read period.
    pub read_period: Duration,
    /// Test 2: reads at `read_period` before switching to `slow_period`.
    pub fast_reads: u32,
    /// Test 2: read period after the fast phase.
    pub slow_period: Duration,
    /// Test 2: reads after which an agent is complete.
    pub reads_target: u32,
    /// Clock probes per agent before the test.
    pub probes_per_agent: u32,
    /// Delay between the clock-sync phase and the synchronized start.
    pub start_margin: Duration,
    /// Hard per-agent cap on the measurement phase.
    pub max_duration: Duration,
    /// Seed for the agents' artificial clock offsets.
    pub seed: u64,
    /// Per-call socket timeout.
    pub timeout: Duration,
    /// Keyspace key the probe's reads and writes address (0 by
    /// default). Each key is one isolated logical object, so a probe
    /// measures exactly the per-object semantics the paper's tests
    /// define — the shard map changes *where* the object lives, never
    /// what the analysis sees.
    pub key: u32,
}

impl ProbeConfig {
    /// A cadence scaled for fast loopback runs: the paper's schedule
    /// shape with millisecond periods, so a full instance takes a couple
    /// of seconds instead of minutes.
    pub fn loopback(
        service: ServiceKind,
        kind: TestKind,
        endpoints: Vec<(Region, SocketAddr)>,
        seed: u64,
    ) -> Self {
        ProbeConfig {
            service,
            kind,
            endpoints,
            read_period: Duration::from_millis(30),
            fast_reads: 15,
            slow_period: Duration::from_millis(60),
            reads_target: 30,
            probes_per_agent: 5,
            start_margin: Duration::from_millis(300),
            max_duration: Duration::from_secs(30),
            seed,
            timeout: Duration::from_secs(5),
            key: 0,
        }
    }
}

/// A skewed agent clock: process-monotonic nanoseconds plus a constant
/// seeded offset. Constant offsets keep `response ≥ invoke` intact under
/// the per-agent delta correction, so merged traces are always
/// well-formed.
struct AgentClock {
    epoch: Instant,
    offset_nanos: i64,
}

impl AgentClock {
    fn now(&self) -> LocalTime {
        LocalTime::from_nanos(self.epoch.elapsed().as_nanos() as i64 + self.offset_nanos)
    }

    /// Sleeps until the local clock reaches `deadline`.
    fn sleep_until(&self, deadline: LocalTime) {
        loop {
            let remaining = deadline.delta_nanos(self.now());
            if remaining <= 0 {
                return;
            }
            std::thread::sleep(Duration::from_nanos(remaining.min(5_000_000) as u64));
        }
    }
}

struct AgentOutput {
    records: Vec<LocalOpRecord>,
    delta_nanos: i64,
    uncertainty_nanos: i64,
    /// `|estimated − true|`: ground truth is known because the offsets
    /// are ours.
    clock_error_nanos: i64,
    reads: u32,
    writes: u32,
    completed: bool,
    /// The connection died past the reconnect budget (or never came up):
    /// the agent is quarantined and whatever records it logged before
    /// the failure are salvaged into the merged trace.
    error: Option<String>,
}

impl AgentOutput {
    /// An agent that produced nothing before failing.
    fn failed(error: String) -> Self {
        AgentOutput {
            records: Vec::new(),
            delta_nanos: 0,
            uncertainty_nanos: 0,
            clock_error_nanos: 0,
            reads: 0,
            writes: 0,
            completed: false,
            error: Some(error),
        }
    }
}

fn map_records(records: &[LocalOpRecord], agent: u32, delta_nanos: i64) -> Vec<OpRecord<PostId>> {
    records
        .iter()
        .map(|r| OpRecord {
            agent: AgentId(agent),
            invoke: Timestamp::from_nanos(r.invoke.as_nanos() + delta_nanos),
            response: Timestamp::from_nanos(r.response.as_nanos() + delta_nanos),
            kind: r.kind.clone(),
        })
        .collect()
}

/// One event on a probe's live tap (see [`run_probe_with_live`]).
#[derive(Debug, Clone)]
pub enum LiveEvent {
    /// An operation just finished, already mapped onto the server
    /// timeline with the agent's estimated clock delta — the same
    /// record the merged trace will contain.
    Op(OpRecord<PostId>),
    /// This agent's stream is over (it completed, hit the deadline, or
    /// was quarantined); it will send no further [`LiveEvent::Op`]s.
    Done(u32),
}

/// Sends every record in `records[*sent..]` down the live tap (mapped
/// onto the server timeline) and advances the cursor. A dropped
/// receiver silently disables the tap: monitoring must never fail a
/// measurement.
fn flush_live(
    live: &Option<std::sync::mpsc::Sender<LiveEvent>>,
    agent: u32,
    delta_nanos: i64,
    records: &[LocalOpRecord],
    sent: &mut usize,
) {
    if let Some(tx) = live {
        for op in map_records(&records[*sent..], agent, delta_nanos) {
            let _ = tx.send(LiveEvent::Op(op));
        }
    }
    *sent = records.len();
}

/// Runs one live probe instance end to end. Returns a full
/// [`TestResult`] whose trace, analysis and journal serialization are
/// indistinguishable from a simulated run's.
///
/// A dead agent connection (past the reconnect budget) does not abort
/// the study: the agent is quarantined in `agent_health`, its partial
/// record log is salvaged into the merged trace, and the result is
/// marked `salvaged`. Only when *every* agent fails is the instance an
/// error.
pub fn run_probe(config: &ProbeConfig) -> Result<TestResult, EndpointError> {
    run_probe_with_live(config, None)
}

/// [`run_probe`] with an optional live tap: every finished operation is
/// also sent down `live` as a [`LiveEvent::Op`] the moment it responds
/// (already on the server timeline), followed by one
/// [`LiveEvent::Done`] per agent. Each agent's own events arrive in
/// invoke order; a monitor merging the per-agent streams by
/// `(invoke, response)` reconstructs the trace order `analyze()` sees,
/// so it can feed a [`StreamingAnalyzer`](conprobe_core::stream) for a
/// running anomaly readout. The tap is observe-only: the returned
/// result is byte-identical with or without it, and a dropped receiver
/// just stops the feed.
pub fn run_probe_with_live(
    config: &ProbeConfig,
    live: Option<std::sync::mpsc::Sender<LiveEvent>>,
) -> Result<TestResult, EndpointError> {
    let total = config.endpoints.len() as u32;
    assert!(total > 0, "probe needs at least one endpoint");
    let epoch = Instant::now();
    let began = Instant::now();
    let sync_barrier = Arc::new(Barrier::new(config.endpoints.len()));
    let start_at_server: Arc<OnceLock<i64>> = Arc::new(OnceLock::new());
    let completions = Arc::new(AtomicU32::new(0));
    let abandoned = Arc::new(AtomicU32::new(0));

    let mut threads = Vec::new();
    for (i, (_region, addr)) in config.endpoints.iter().enumerate() {
        let config = config.clone();
        let addr = *addr;
        let sync_barrier = Arc::clone(&sync_barrier);
        let start_at_server = Arc::clone(&start_at_server);
        let completions = Arc::clone(&completions);
        let abandoned = Arc::clone(&abandoned);
        let live = live.clone();
        threads.push(std::thread::spawn(move || {
            agent_main(
                &config,
                i as u32,
                total,
                addr,
                epoch,
                &sync_barrier,
                &start_at_server,
                &completions,
                &abandoned,
                live,
            )
        }));
    }
    // The agents hold the only remaining senders: the tap closes when
    // the last agent finishes.
    drop(live);

    let mut outputs = Vec::new();
    for t in threads {
        // Agent threads catch their own I/O failures; a panic would be
        // a bug, but even then the study salvages what the others
        // produced instead of unwinding.
        let out = t.join().unwrap_or_else(|_| AgentOutput::failed("probe agent panicked".into()));
        outputs.push(out);
    }

    if outputs.iter().all(|o| o.error.is_some()) {
        let first = outputs.iter().find_map(|o| o.error.as_deref()).unwrap_or("unknown failure");
        return Err(EndpointError(format!("all {total} probe agent(s) failed: {first}")));
    }
    let salvaged = outputs.iter().any(|o| o.error.is_some());

    // Merge onto the server timeline — the live analogue of the
    // coordinator's delta correction.
    let mut ops = Vec::new();
    for (i, out) in outputs.iter().enumerate() {
        ops.extend(map_records(&out.records, i as u32, out.delta_nanos));
    }
    let trace = TestTrace::new(ops);

    // The checkers read the test design (trigger pairs, windows) from a
    // TestConfig; only `kind` and the agent count matter.
    let mut analysis_config = TestConfig::paper(config.service, config.kind);
    analysis_config.agent_regions = config.endpoints.iter().map(|(r, _)| *r).collect();
    let analysis = analyze(&trace, &checker_config_for(&analysis_config));

    let entries: Vec<NodeId> = config
        .endpoints
        .iter()
        .map(|(r, _)| NodeId(cluster_entry_index(config.service, *r)))
        .collect();
    Ok(TestResult {
        analysis,
        trace,
        completed: outputs.iter().all(|o| o.completed),
        reads_per_agent: outputs.iter().map(|o| o.reads).collect(),
        writes_total: outputs.iter().map(|o| o.writes).sum(),
        duration_secs: began.elapsed().as_secs_f64(),
        partitioned: false,
        clock_error_nanos: outputs.iter().map(|o| o.clock_error_nanos).collect(),
        clock_uncertainty_nanos: outputs.iter().map(|o| o.uncertainty_nanos).collect(),
        agent_regions: config.endpoints.iter().map(|(r, _)| *r).collect(),
        whitebox: None,
        fault_ledger: FaultLedger::default(),
        agent_health: outputs
            .iter()
            .enumerate()
            .map(|(i, o)| AgentHealth {
                agent_index: i as u32,
                heartbeats: u64::from(o.reads),
                quarantined: o.error.is_some(),
                log_collected: o.error.is_none() || !o.records.is_empty(),
            })
            .collect(),
        salvaged,
        seed: config.seed,
        sim_events: 0,
        service: config.service,
        agent_entries: entries,
    })
}

/// Issues one operation over the endpoint, logging it (with local
/// invoke/response times) exactly as the sim agent logs its operations.
/// Returns the read sequence for reads, `None` otherwise. A `Throttled`
/// result (a throttle-storm brownout on the serving replica) is a
/// skipped, unlogged operation.
fn do_op(
    client: &mut WireClient,
    clock: &AgentClock,
    records: &mut Vec<LocalOpRecord>,
    op: ClientOp,
) -> Result<Option<Vec<PostId>>, EndpointError> {
    let invoke = clock.now();
    let result = client.call(op)?;
    let response = clock.now();
    match result {
        OpResult::WriteAck(id) => {
            records.push(LocalOpRecord { invoke, response, kind: OpKind::Write { id } });
            Ok(None)
        }
        OpResult::ReadOk(seq) => {
            records.push(LocalOpRecord {
                invoke,
                response,
                kind: OpKind::Read { seq: seq.clone() },
            });
            Ok(Some(seq))
        }
        OpResult::Throttled => Ok(None),
    }
}

/// Writes this agent's next post (ids follow the paper's
/// `M(2·agent+seq)` naming via [`test1_post`]).
fn write_next(
    client: &mut WireClient,
    clock: &AgentClock,
    records: &mut Vec<LocalOpRecord>,
    agent_index: u32,
    next_write_seq: &mut u32,
    writes: &mut u32,
) -> Result<(), EndpointError> {
    let id = test1_post(agent_index, *next_write_seq);
    *next_write_seq += 1;
    *writes += 1;
    let post = Post::new(id, format!("post {id}"), clock.now());
    do_op(client, clock, records, ClientOp::Write(post)).map(|_| ())
}

/// The replica index `region` routes to in `service`'s catalog topology —
/// the live stand-in for the sim's front-door node id, reported so the
/// same-entry/remote-visibility classification stays meaningful.
fn cluster_entry_index(service: ServiceKind, region: Region) -> usize {
    conprobe_services::catalog::topology(service).affinity.replica_for(region)
}

/// Connect, verify the hosted service and run the Cristian clock-sync
/// phase — everything that can fail *before* the synchronized start.
fn agent_setup(
    config: &ProbeConfig,
    addr: SocketAddr,
    clock: &AgentClock,
    offset_nanos: i64,
) -> Result<(WireClient, i64, i64, i64), EndpointError> {
    // Transient connection drops ride out on the capped-backoff
    // reconnect budget; only a persistently dead endpoint fails the
    // agent (and then the study quarantines it rather than aborting).
    let mut client = WireClient::connect_with_policy(
        addr,
        config.timeout,
        ReconnectPolicy::probe_default(config.seed),
    )?;
    let expected = conprobe_harness::journal::service_token(config.service);
    if client.service() != expected {
        return Err(EndpointError(format!(
            "server hosts '{}', probe expected '{expected}'",
            client.service()
        )));
    }
    // Every read and write addresses the probe's one keyspace key;
    // clock-sync hellos carry none.
    client.set_key(Some(config.key));

    // Clock sync: Cristian probes over the real wire.
    let mut samples = Vec::new();
    for _ in 0..config.probes_per_agent.max(1) {
        let sent = clock.now();
        let reading = client.server_clock()?;
        let received = clock.now();
        samples.push(ProbeSample { sent, received, agent_reading: LocalTime::from_nanos(reading) });
    }
    // `agent_reading` is the *server's* clock here, so the estimate is
    // `server − agent_local`: add it to a local time to land on the
    // server timeline.
    let est = estimate(&samples);
    // Ground truth: local = mono + offset and the server clock *is* mono
    // (same host epoch difference is absorbed into the estimate when
    // hosts differ), so the true delta is `server_epoch_shift − offset`;
    // on one host the shift is the tiny interval between the two
    // `Instant::now()` calls — call it zero and score the estimator.
    let clock_error_nanos = (est.delta_nanos + offset_nanos).abs();
    Ok((client, est.delta_nanos, est.uncertainty_nanos, clock_error_nanos))
}

#[allow(clippy::too_many_arguments)]
fn agent_main(
    config: &ProbeConfig,
    agent_index: u32,
    total: u32,
    addr: SocketAddr,
    epoch: Instant,
    sync_barrier: &Barrier,
    start_at_server: &OnceLock<i64>,
    completions: &AtomicU32,
    abandoned: &AtomicU32,
    live: Option<std::sync::mpsc::Sender<LiveEvent>>,
) -> AgentOutput {
    // The paper's NTP-disabled clocks: ±2 s seeded offsets, per agent.
    let mut rng =
        SimRng::new(config.seed).split_indexed("wire.agent.clock", u64::from(agent_index));
    let offset_nanos = rng.gen_range(-2_000_000_000_i64..2_000_000_000);
    let clock = AgentClock { epoch, offset_nanos };

    let (mut client, delta_nanos, uncertainty_nanos, clock_error_nanos) =
        match agent_setup(config, addr, &clock, offset_nanos) {
            Ok(v) => v,
            Err(e) => {
                // The barrier MUST still be crossed, or every healthy
                // agent deadlocks waiting for the synchronized start.
                abandoned.fetch_add(1, Ordering::AcqRel);
                sync_barrier.wait();
                if let Some(tx) = &live {
                    let _ = tx.send(LiveEvent::Done(agent_index));
                }
                return AgentOutput::failed(e.0);
            }
        };

    // Synchronized start: the first agent past the barrier publishes one
    // server-timeline start instant; everyone maps it into their own
    // skewed clock and sleeps.
    sync_barrier.wait();
    let start_server = *start_at_server.get_or_init(|| {
        clock.now().as_nanos() + delta_nanos + config.start_margin.as_nanos() as i64
    });
    let start_local = LocalTime::from_nanos(start_server - delta_nanos);
    clock.sleep_until(start_local);

    // The measurement phase: the sim agent's cadence, blocking. I/O
    // errors break out of the cadence instead of unwinding the study —
    // whatever was recorded up to the failure is the salvageable part
    // of this agent's trace.
    let deadline = start_local.offset_by(config.max_duration.as_nanos() as i64);
    let mut records: Vec<LocalOpRecord> = Vec::new();
    let mut reads = 0u32;
    let mut writes = 0u32;
    let mut next_write_seq = 1u32;
    let mut triggered = agent_index == 0; // agent 0 needs no trigger
    let mut completed = false;
    let mut live_sent = 0usize;

    let outcome = (|| -> Result<(), EndpointError> {
        let mut next_read = clock.now();

        // Test 1: agent 0 writes both messages at the start (second as
        // soon as the first acked — which a blocking call gives us for
        // free). Test 2: every agent writes once at the start.
        match config.kind {
            TestKind::Test1 => {
                if agent_index == 0 {
                    for _ in 0..2 {
                        write_next(
                            &mut client,
                            &clock,
                            &mut records,
                            agent_index,
                            &mut next_write_seq,
                            &mut writes,
                        )?;
                    }
                }
            }
            TestKind::Test2 => {
                write_next(
                    &mut client,
                    &clock,
                    &mut records,
                    agent_index,
                    &mut next_write_seq,
                    &mut writes,
                )?;
            }
        }
        flush_live(&live, agent_index, delta_nanos, &records, &mut live_sent);

        loop {
            if clock.now() >= deadline {
                break;
            }
            clock.sleep_until(next_read);
            let seq = do_op(&mut client, &clock, &mut records, ClientOp::Read)?.unwrap_or_default();
            reads += 1;
            match config.kind {
                TestKind::Test1 => {
                    if !triggered && seq.contains(&test1_post(agent_index - 1, 2)) {
                        triggered = true;
                        for _ in 0..2 {
                            write_next(
                                &mut client,
                                &clock,
                                &mut records,
                                agent_index,
                                &mut next_write_seq,
                                &mut writes,
                            )?;
                        }
                    }
                    if !completed && seq.contains(&test1_post(total - 1, 2)) {
                        completed = true;
                        completions.fetch_add(1, Ordering::AcqRel);
                    }
                    // Keep reading until everyone has either seen the
                    // last write or been written off — the coordinator's
                    // Stop, decentralized. Counting the abandoned keeps
                    // the healthy agents from spinning until the hard
                    // deadline when a sibling's connection dies.
                    if completions.load(Ordering::Acquire) + abandoned.load(Ordering::Acquire)
                        >= total
                    {
                        break;
                    }
                    next_read = next_read.offset_by(config.read_period.as_nanos() as i64);
                }
                TestKind::Test2 => {
                    if reads >= config.reads_target {
                        completed = true;
                        break;
                    }
                    let period = if reads < config.fast_reads {
                        config.read_period
                    } else {
                        config.slow_period
                    };
                    next_read = next_read.offset_by(period.as_nanos() as i64);
                }
            }
            flush_live(&live, agent_index, delta_nanos, &records, &mut live_sent);
        }
        Ok(())
    })();

    // Whatever the loop's exit path left unsent (break-outs, errors).
    flush_live(&live, agent_index, delta_nanos, &records, &mut live_sent);
    if let Some(tx) = &live {
        let _ = tx.send(LiveEvent::Done(agent_index));
    }

    let error = outcome.err().map(|e| e.0);
    if error.is_some() && !completed {
        // A completed agent already counts toward the decentralized
        // stop; counting it again would let Test 1 stop one sighting
        // early.
        abandoned.fetch_add(1, Ordering::AcqRel);
    }

    AgentOutput {
        records,
        delta_nanos,
        uncertainty_nanos,
        clock_error_nanos,
        reads,
        writes,
        completed,
        error,
    }
}
