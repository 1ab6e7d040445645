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
//! 4. [`run_script`] drives the chosen design's [`TestScript`] — the one
//!    the sim agent runs — against the endpoint, logging local
//!    invoke/response times, until the script ends or every agent has
//!    completed or been written off (the coordinator's Stop,
//!    decentralized);
//! 5. records are mapped onto the server timeline via the estimated
//!    deltas and merged into a standard [`TestTrace`] — which then flows
//!    through the *unmodified* `analyze()` checkers, journal, metrics and report
//!    pipeline.
//!
//! The output is a full [`TestResult`], so campaign-side machinery
//! (journaling, `--resume`, anomaly tables) works on live traces
//! untouched.

use crate::client::{ReconnectPolicy, WireClient};
use conprobe_core::trace::{AgentId, OpRecord, Timestamp};
use conprobe_core::{analyze, TestTrace};
use conprobe_harness::clocksync::{estimate, ProbeSample};
use conprobe_harness::coordinator::AgentHealth;
use conprobe_harness::proto::{LocalOpRecord, TestKind};
use conprobe_harness::runner::{checker_config_for, FaultLedger, TestConfig, TestResult};
use conprobe_harness::script::{Cadence, TestScript};
use conprobe_harness::transport::{
    run_script, AgentClock, EndpointError, ScriptRun, ServiceEndpoint,
};
use conprobe_services::ServiceKind;
use conprobe_sim::net::Region;
use conprobe_sim::{LocalTime, NodeId, SimDuration, SimRng};
use conprobe_store::PostId;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Configuration for one live probe instance.
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    /// The service the server claims to host (verified on connect).
    pub service: ServiceKind,
    /// Test design to run, and on what schedule.
    pub cadence: Cadence,
    /// One `(region, address)` endpoint per agent, in agent-index order.
    pub endpoints: Vec<(Region, SocketAddr)>,
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
            cadence: Cadence {
                kind,
                read_period: SimDuration::from_millis(30),
                fast_reads: 15,
                slow_period: SimDuration::from_millis(60),
                reads_target: 30,
            },
            endpoints,
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
struct SkewedClock {
    epoch: Instant,
    offset_nanos: i64,
}

impl AgentClock for SkewedClock {
    fn now(&self) -> LocalTime {
        LocalTime::from_nanos(self.epoch.elapsed().as_nanos() as i64 + self.offset_nanos)
    }

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
    /// What the agent logged. An `error` means its connection died past
    /// the reconnect budget (or never came up): the agent is quarantined
    /// and the records it logged before the failure are salvaged into
    /// the merged trace.
    run: ScriptRun,
    delta_nanos: i64,
    uncertainty_nanos: i64,
    /// `|estimated − true|`: ground truth is known because the offsets
    /// are ours.
    clock_error_nanos: i64,
}

impl AgentOutput {
    /// An agent that produced nothing before failing.
    fn failed(error: EndpointError) -> Self {
        let run = ScriptRun { records: Vec::new(), completed: false, error: Some(error) };
        AgentOutput { run, delta_nanos: 0, uncertainty_nanos: 0, clock_error_nanos: 0 }
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
    let began = Instant::now();
    let shared = Shared {
        epoch: began,
        sync_barrier: Barrier::new(config.endpoints.len()),
        start_at_server: OnceLock::new(),
        completions: AtomicU32::new(0),
        abandoned: AtomicU32::new(0),
    };
    let outputs: Vec<AgentOutput> = std::thread::scope(|scope| {
        let agents: Vec<_> = (0..total)
            .map(|i| {
                let (shared, live) = (&shared, live.clone());
                scope.spawn(move || agent_main(config, i, shared, live))
            })
            .collect();
        // The agents hold the only remaining senders: the tap closes
        // when the last agent finishes.
        drop(live);
        // Agent threads catch their own I/O failures; a panic would be
        // a bug, but even then the study salvages what the others
        // produced instead of unwinding.
        agents
            .into_iter()
            .map(|t| {
                t.join().unwrap_or_else(|_| {
                    AgentOutput::failed(EndpointError("probe agent panicked".into()))
                })
            })
            .collect()
    });

    if outputs.iter().all(|o| o.run.error.is_some()) {
        let first = outputs[0].run.error.as_ref().map_or("unknown failure", |e| &e.0);
        return Err(EndpointError(format!("all {total} probe agent(s) failed: {first}")));
    }
    let salvaged = outputs.iter().any(|o| o.run.error.is_some());

    // Merge onto the server timeline — the live analogue of the
    // coordinator's delta correction.
    let mut ops = Vec::new();
    for (i, out) in outputs.iter().enumerate() {
        ops.extend(map_records(&out.run.records, i as u32, out.delta_nanos));
    }
    let trace = TestTrace::new(ops);

    // The checkers read the test design (trigger pairs, windows) from a
    // TestConfig; only `kind` and the agent count matter.
    let mut analysis_config = TestConfig::paper(config.service, config.cadence.kind);
    analysis_config.agent_regions = config.endpoints.iter().map(|(r, _)| *r).collect();
    let analysis = analyze(&trace, &checker_config_for(&analysis_config));

    let reads_per_agent: Vec<u32> =
        (0..total).map(|i| trace.reads_by(AgentId(i)).len() as u32).collect();
    let entries: Vec<NodeId> = config
        .endpoints
        .iter()
        .map(|(r, _)| NodeId(cluster_entry_index(config.service, *r)))
        .collect();
    Ok(TestResult {
        analysis,
        completed: outputs.iter().all(|o| o.run.completed),
        writes_total: trace.write_count() as u32,
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
                heartbeats: u64::from(reads_per_agent[i]),
                quarantined: o.run.error.is_some(),
                log_collected: o.run.error.is_none() || !o.run.records.is_empty(),
            })
            .collect(),
        reads_per_agent,
        trace,
        salvaged,
        seed: config.seed,
        sim_events: 0,
        service: config.service,
        agent_entries: entries,
    })
}

/// The replica index `region` routes to in `service`'s catalog topology —
/// the live stand-in for the sim's front-door node id, reported so the
/// same-entry/remote-visibility classification stays meaningful.
fn cluster_entry_index(service: ServiceKind, region: Region) -> usize {
    conprobe_services::catalog::topology(service).affinity.replica_for(region)
}

/// Agent `agent_index`'s reconnect budget: its own jitter stream, so the
/// agents of one instance losing a server do not re-dial in lockstep.
fn reconnect_policy(seed: u64, agent_index: u32) -> ReconnectPolicy {
    let jitter = SimRng::new(seed).split_indexed("wire.agent.reconnect", u64::from(agent_index));
    ReconnectPolicy::probe_default(jitter.seed())
}

/// Connect, verify the hosted service and run the Cristian clock-sync
/// phase — everything that can fail *before* the synchronized start.
fn agent_setup(
    config: &ProbeConfig,
    agent_index: u32,
    clock: &SkewedClock,
    offset_nanos: i64,
) -> Result<(WireClient, i64, i64, i64), EndpointError> {
    // Transient connection drops ride out on the capped-backoff
    // reconnect budget; only a persistently dead endpoint fails the
    // agent (and then the study quarantines it rather than aborting).
    let mut client = WireClient::connect_with_policy(
        config.endpoints[agent_index as usize].1,
        config.timeout,
        reconnect_policy(config.seed, agent_index),
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

/// What one instance's agent threads share: the common clock epoch, the
/// synchronized start, and the two counters of the decentralized stop.
struct Shared {
    epoch: Instant,
    sync_barrier: Barrier,
    /// The server-timeline start instant, published by the first agent
    /// past the barrier.
    start_at_server: OnceLock<i64>,
    /// Agents whose completion condition is met.
    completions: AtomicU32,
    /// Agents written off: never connected, or died before completing.
    abandoned: AtomicU32,
}

fn agent_main(
    config: &ProbeConfig,
    agent_index: u32,
    shared: &Shared,
    live: Option<std::sync::mpsc::Sender<LiveEvent>>,
) -> AgentOutput {
    let total = config.endpoints.len() as u32;
    // The paper's NTP-disabled clocks: ±2 s seeded offsets, per agent.
    let mut rng =
        SimRng::new(config.seed).split_indexed("wire.agent.clock", u64::from(agent_index));
    let offset_nanos = rng.gen_range(-2_000_000_000_i64..2_000_000_000);
    let clock = SkewedClock { epoch: shared.epoch, offset_nanos };

    let (mut client, delta_nanos, uncertainty_nanos, clock_error_nanos) =
        match agent_setup(config, agent_index, &clock, offset_nanos) {
            Ok(v) => v,
            Err(e) => {
                // The barrier MUST still be crossed, or every healthy
                // agent deadlocks waiting for the synchronized start.
                shared.abandoned.fetch_add(1, Ordering::AcqRel);
                shared.sync_barrier.wait();
                if let Some(tx) = &live {
                    let _ = tx.send(LiveEvent::Done(agent_index));
                }
                return AgentOutput::failed(e);
            }
        };

    // Synchronized start: the first agent past the barrier publishes one
    // server-timeline start instant; everyone maps it into their own
    // skewed clock and sleeps.
    shared.sync_barrier.wait();
    let start_server = *shared.start_at_server.get_or_init(|| {
        clock.now().as_nanos() + delta_nanos + config.start_margin.as_nanos() as i64
    });
    let start_local = LocalTime::from_nanos(start_server - delta_nanos);
    clock.sleep_until(start_local);

    // The measurement phase: the sim agent's script, driven blocking. An
    // I/O error ends the run instead of unwinding the study — whatever
    // was recorded up to the failure is the salvageable part of this
    // agent's trace.
    let deadline = start_local.offset_by(config.max_duration.as_nanos() as i64);
    let mut counted = false;
    let run = run_script(
        TestScript::new(config.cadence, agent_index, total),
        &mut client,
        &clock,
        deadline,
        |new, completed| {
            // A dropped receiver silently disables the tap: monitoring
            // must never fail a measurement.
            if let Some(tx) = &live {
                for op in map_records(new, agent_index, delta_nanos) {
                    let _ = tx.send(LiveEvent::Op(op));
                }
            }
            if completed && !counted {
                counted = true;
                shared.completions.fetch_add(1, Ordering::AcqRel);
            }
            // Keep reading until everyone has either completed or been
            // written off — the coordinator's Stop, decentralized.
            // Counting the abandoned keeps the healthy agents from
            // spinning until the hard deadline when a sibling's
            // connection dies.
            shared.completions.load(Ordering::Acquire) + shared.abandoned.load(Ordering::Acquire)
                < total
        },
    );
    if let Some(tx) = &live {
        let _ = tx.send(LiveEvent::Done(agent_index));
    }
    if run.error.is_some() && !run.completed {
        // A completed agent already counts toward the decentralized
        // stop; counting it again would let Test 1 stop one sighting
        // early.
        shared.abandoned.fetch_add(1, Ordering::AcqRel);
    }

    AgentOutput { run, delta_nanos, uncertainty_nanos, clock_error_nanos }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// The backoffs a client under `policy` pauses for while every dial
    /// is refused.
    fn backoffs(policy: ReconnectPolicy) -> Vec<Duration> {
        let pauses = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&pauses);
        let refused = || Err::<std::io::Cursor<Vec<u8>>, _>(EndpointError("refused".into()));
        let dead = WireClient::with_dialer(refused, move |d| log.lock().unwrap().push(d), policy);
        assert!(dead.is_err(), "every dial is refused");
        let pauses = pauses.lock().unwrap().clone();
        pauses
    }

    #[test]
    fn agents_of_one_instance_back_off_on_their_own_schedules() {
        let first = backoffs(reconnect_policy(7, 0));
        assert_eq!(first.len(), 5, "the probe budget");
        assert_ne!(first, backoffs(reconnect_policy(7, 1)), "no lockstep re-dials");
        assert_eq!(first, backoffs(reconnect_policy(7, 0)), "seeded: same agent, same schedule");
    }
}
