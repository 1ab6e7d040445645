//! The coordinator (North Virginia).
//!
//! Before every test the coordinator re-estimates each agent's clock delta
//! (the paper recomputes deltas "before the start of each iteration of a
//! test"), then schedules a synchronized start, waits for every agent's
//! completion signal (or a timeout — e.g. a partition can keep Test 1's M6
//! from ever reaching Tokyo), collects the local logs, and merges them onto
//! its own timeline using the estimated deltas.

use crate::clocksync::{estimate, DeltaEstimate, ProbeSample};
use crate::proto::{AgentTestPlan, HarnessMsg, LocalOpRecord, Msg};
use crate::script::Cadence;
use conprobe_core::trace::{AgentId, OpRecord, TestTrace, Timestamp};
use conprobe_json::{FastMap, FastSet};
use conprobe_obs::Severity;
use conprobe_services::NetMsg;
use conprobe_sim::{Context, LocalTime, Node, NodeId, ObsSink, SimDuration, SimTime};
use conprobe_store::PostId;
use std::collections::BTreeMap;

const TOKEN_PROBE: u64 = 1;
const TOKEN_TIMEOUT: u64 = 2;
const TOKEN_STOP_RETRY: u64 = 3;
const TOKEN_FINALIZE: u64 = 4;
const TOKEN_START_RETRY: u64 = 5;
const TOKEN_LIVENESS: u64 = 6;

/// Pause between Stop retransmission rounds while collecting logs.
const STOP_RETRY_PERIOD: SimDuration = SimDuration::from_secs(2);
/// Stop retransmission rounds before a silent agent is quarantined and the
/// test concludes with a partial (salvaged) trace. Bounds what used to be
/// an unbounded retry loop: a dead agent now costs
/// `MAX_STOP_ROUNDS × STOP_RETRY_PERIOD` of collection time, not the full
/// finalize grace period.
const MAX_STOP_ROUNDS: u32 = 5;
/// How often the coordinator re-evaluates agent liveness while running.
const LIVENESS_PERIOD: SimDuration = SimDuration::from_secs(2);
/// An agent whose last heartbeat is older than this is considered dead
/// (agents beacon every second; six consecutive losses are implausible on
/// a merely lossy link).
const DEAD_AFTER_NANOS: i64 = 6_000_000_000;

/// Static configuration of one test run, from the coordinator's viewpoint.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// The agent node ids, in agent-index order (Oregon, Tokyo, Ireland).
    pub agents: Vec<NodeId>,
    /// The service front door for each agent.
    pub entries: Vec<NodeId>,
    /// The test design every agent runs.
    pub cadence: Cadence,
    /// Clock probes per agent (averaged).
    pub probes_per_agent: u32,
    /// Pause between successive probes.
    pub probe_spacing: SimDuration,
    /// Margin between sync completion and the synchronized start (must
    /// exceed the worst agent RTT so the `Start` message arrives in time).
    pub start_margin: SimDuration,
    /// Give up and stop the test after this long past the start.
    pub max_duration: SimDuration,
}

/// Per-agent liveness summary at the end of a test (part of the fault
/// ledger).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgentHealth {
    /// The agent's index.
    pub agent_index: u32,
    /// Heartbeats received from the agent.
    pub heartbeats: u64,
    /// The agent was written off as dead or unreachable (its Stop retry
    /// budget ran out, or it went silent and the test concluded without
    /// it).
    pub quarantined: bool,
    /// The agent's operation log made it back to the coordinator.
    pub log_collected: bool,
}

/// Everything the coordinator knows at the end of a test.
#[derive(Debug, Clone)]
pub struct TestOutcome {
    /// The merged, clock-corrected trace.
    pub trace: TestTrace<PostId>,
    /// Per-agent delta estimates used for the correction.
    pub deltas: Vec<DeltaEstimate>,
    /// `true` if every agent reported completion before the timeout and
    /// no agent had to be quarantined.
    pub completed: bool,
    /// Coordinator-local nanoseconds from synchronized start to the last
    /// collected log.
    pub duration_nanos: i64,
    /// Per-agent liveness accounting.
    pub agent_health: Vec<AgentHealth>,
    /// `true` if the trace is a coherent *partial* view: one or more
    /// agents were quarantined and their operations are missing.
    pub salvaged: bool,
}

#[derive(Debug, PartialEq, Eq)]
enum Phase {
    Probing,
    Running,
    Collecting,
    Done,
}

impl Phase {
    fn name(&self) -> &'static str {
        match self {
            Phase::Probing => "probing",
            Phase::Running => "running",
            Phase::Collecting => "collecting",
            Phase::Done => "done",
        }
    }
}

/// The coordinator node.
pub struct CoordinatorNode {
    cfg: CoordinatorConfig,
    phase: Phase,
    next_probe_id: u64,
    in_flight: FastMap<u64, (usize, LocalTime)>,
    samples: Vec<Vec<ProbeSample>>,
    deltas: Vec<DeltaEstimate>,
    completions: FastSet<u32>,
    start_acks: FastSet<u32>,
    plans: Vec<AgentTestPlan>,
    logs: BTreeMap<u32, Vec<LocalOpRecord>>,
    started_at: LocalTime,
    timed_out: bool,
    stop_sent: bool,
    outcome: Option<TestOutcome>,
    /// Heartbeats received per agent.
    heartbeats: Vec<u64>,
    /// Coordinator-local receipt time of each agent's latest heartbeat.
    last_heartbeat: Vec<Option<LocalTime>>,
    /// Agents written off as dead/unreachable.
    quarantined: FastSet<u32>,
    /// Stop retransmission rounds spent so far.
    stop_rounds: u32,
    /// Coordinator-local time the Start messages went out (liveness
    /// baseline for agents that never heartbeat).
    running_since: LocalTime,
    /// Observability sink, resolved in `on_start` (None = telemetry off).
    obs: Option<ObsSink>,
    /// True-sim-time start of the current phase, for the per-phase spans
    /// accumulated under `harness.coordinator.phase.<name>.nanos`.
    phase_started_at: SimTime,
}

impl CoordinatorNode {
    /// Creates a coordinator for one test.
    ///
    /// # Panics
    ///
    /// Panics if the agent and entry lists differ in length or are empty.
    pub fn new(cfg: CoordinatorConfig) -> Self {
        assert!(!cfg.agents.is_empty(), "a test needs at least one agent");
        assert_eq!(cfg.agents.len(), cfg.entries.len(), "one service entry per agent");
        let n = cfg.agents.len();
        CoordinatorNode {
            cfg,
            phase: Phase::Probing,
            next_probe_id: 0,
            in_flight: FastMap::default(),
            samples: vec![Vec::new(); n],
            deltas: Vec::new(),
            completions: FastSet::default(),
            start_acks: FastSet::default(),
            plans: Vec::new(),
            logs: BTreeMap::new(),
            started_at: LocalTime::from_nanos(0),
            timed_out: false,
            stop_sent: false,
            outcome: None,
            heartbeats: vec![0; n],
            last_heartbeat: vec![None; n],
            quarantined: FastSet::default(),
            stop_rounds: 0,
            running_since: LocalTime::from_nanos(0),
            obs: None,
            phase_started_at: SimTime::ZERO,
        }
    }

    /// Closes the span of the phase that just ended and logs the
    /// transition. Call *before* assigning the new phase; pure
    /// instrumentation — a no-op without a sink.
    fn note_phase_change(&mut self, ctx: &Context<'_, Msg>, to: &Phase) {
        let now = ctx.true_now();
        if let Some(obs) = &self.obs {
            let elapsed = now.saturating_since(self.phase_started_at).as_nanos();
            let name = self.phase.name();
            obs.metrics.counter(&format!("harness.coordinator.phase.{name}.nanos")).add(elapsed);
            obs.metrics.counter(&format!("harness.coordinator.phase.{name}.count")).inc();
            if obs.log.enabled(Severity::Info, "harness") {
                obs.log.record(
                    now.as_nanos(),
                    Severity::Info,
                    "harness",
                    format!("coordinator phase {name} -> {}", to.name()),
                );
            }
        }
        self.phase_started_at = now;
    }

    /// The test outcome, available once the run has finished.
    pub fn outcome(&self) -> Option<&TestOutcome> {
        self.outcome.as_ref()
    }

    /// Moves the finished outcome out of the coordinator.
    pub fn take_outcome(&mut self) -> Option<TestOutcome> {
        self.outcome.take()
    }

    /// The delta estimates (available once probing finished).
    pub fn deltas(&self) -> &[DeltaEstimate] {
        &self.deltas
    }

    fn agent_needing_probe(&self) -> Option<usize> {
        let want = self.cfg.probes_per_agent as usize;
        (0..self.cfg.agents.len())
            .filter(|i| self.samples[*i].len() < want)
            .min_by_key(|i| self.samples[*i].len())
    }

    fn send_probe(&mut self, ctx: &mut Context<'_, Msg>, agent_idx: usize) {
        let probe_id = self.next_probe_id;
        self.next_probe_id += 1;
        self.in_flight.insert(probe_id, (agent_idx, ctx.now_local()));
        ctx.send(self.cfg.agents[agent_idx], NetMsg::App(HarnessMsg::TimeProbe { probe_id }));
    }

    fn start_test(&mut self, ctx: &mut Context<'_, Msg>) {
        self.note_phase_change(ctx, &Phase::Running);
        self.phase = Phase::Running;
        self.deltas = self.samples.iter().map(|s| estimate(s)).collect();
        let target = ctx.now_local().offset_by(self.cfg.start_margin.as_nanos() as i64);
        self.started_at = target;
        for (i, agent) in self.cfg.agents.iter().copied().enumerate() {
            // Agent-local start instant: coordinator target plus the
            // agent's estimated delta, so true start times align.
            let start_at_local = target.offset_by(self.deltas[i].delta_nanos);
            let plan = AgentTestPlan {
                cadence: self.cfg.cadence,
                agent_index: i as u32,
                total_agents: self.cfg.agents.len() as u32,
                service_entry: self.cfg.entries[i],
                start_at_local,
            };
            ctx.send(agent, NetMsg::App(HarnessMsg::Start(Box::new(plan.clone()))));
            self.plans.push(plan);
        }
        ctx.set_timer(self.cfg.start_margin + self.cfg.max_duration, TOKEN_TIMEOUT);
        ctx.set_timer(SimDuration::from_millis(700), TOKEN_START_RETRY);
        self.running_since = ctx.now_local();
        ctx.set_timer(LIVENESS_PERIOD, TOKEN_LIVENESS);
    }

    /// Whether agent `i` currently looks dead: no heartbeat for longer
    /// than the liveness window (or never, counting from test start plus
    /// the start margin). Purely observational — a later heartbeat makes
    /// the agent look alive again.
    fn looks_dead(&self, i: usize, now: LocalTime) -> bool {
        match self.last_heartbeat[i] {
            Some(at) => now.delta_nanos(at) > DEAD_AFTER_NANOS,
            None => {
                now.delta_nanos(self.running_since)
                    > DEAD_AFTER_NANOS + self.cfg.start_margin.as_nanos() as i64
            }
        }
    }

    /// Concludes collection with whatever arrived: agents without a log
    /// are quarantined, their logs recorded as empty, and the outcome is
    /// flagged as salvaged.
    fn salvage_finish(&mut self, ctx: &mut Context<'_, Msg>) {
        for i in 0..self.cfg.agents.len() as u32 {
            if !self.logs.contains_key(&i) {
                self.quarantined.insert(i);
                self.logs.insert(i, Vec::new());
            }
        }
        self.finish(ctx);
    }

    fn send_stop(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.stop_sent {
            return;
        }
        self.stop_sent = true;
        self.note_phase_change(ctx, &Phase::Collecting);
        self.phase = Phase::Collecting;
        for agent in self.cfg.agents.clone() {
            ctx.send(agent, NetMsg::App(HarnessMsg::Stop));
        }
        // Retry Stop to agents whose logs have not arrived (loss
        // tolerance), and give up on stragglers after a generous grace
        // period so a test always concludes.
        ctx.set_timer(SimDuration::from_secs(2), TOKEN_STOP_RETRY);
        ctx.set_timer(SimDuration::from_secs(60), TOKEN_FINALIZE);
    }

    fn finish(&mut self, ctx: &mut Context<'_, Msg>) {
        // The logs move into the trace (no `Log` is accepted after `Done`),
        // which a campaign keeps: reserve exactly, leave no slack.
        let mut ops = Vec::with_capacity(self.logs.values().map(Vec::len).sum());
        for (agent_index, records) in std::mem::take(&mut self.logs) {
            let delta = self.deltas[agent_index as usize];
            for r in records {
                ops.push(OpRecord {
                    agent: AgentId(agent_index),
                    invoke: Timestamp::from_nanos(delta.to_coordinator(r.invoke).as_nanos()),
                    response: Timestamp::from_nanos(delta.to_coordinator(r.response).as_nanos()),
                    kind: r.kind,
                });
            }
        }
        self.note_phase_change(ctx, &Phase::Done);
        self.phase = Phase::Done;
        let agent_health = (0..self.cfg.agents.len() as u32)
            .map(|i| AgentHealth {
                agent_index: i,
                heartbeats: self.heartbeats[i as usize],
                quarantined: self.quarantined.contains(&i),
                log_collected: !self.quarantined.contains(&i),
            })
            .collect();
        self.outcome = Some(TestOutcome {
            trace: TestTrace::new(ops),
            deltas: self.deltas.clone(),
            completed: !self.timed_out && self.quarantined.is_empty(),
            duration_nanos: ctx.now_local().delta_nanos(self.started_at),
            agent_health,
            salvaged: !self.quarantined.is_empty(),
        });
    }
}

impl Node<Msg> for CoordinatorNode {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        self.obs = ctx.obs().cloned();
        self.phase_started_at = ctx.true_now();
        ctx.set_timer(SimDuration::ZERO, TOKEN_PROBE);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        match msg {
            NetMsg::App(HarnessMsg::TimeReply { probe_id, local }) => {
                if self.phase != Phase::Probing {
                    return;
                }
                let Some((agent_idx, sent)) = self.in_flight.remove(&probe_id) else {
                    return;
                };
                self.samples[agent_idx].push(ProbeSample {
                    sent,
                    received: ctx.now_local(),
                    agent_reading: local,
                });
                if self.agent_needing_probe().is_none() {
                    self.start_test(ctx);
                }
            }
            NetMsg::App(HarnessMsg::StartAck { agent_index }) => {
                self.start_acks.insert(agent_index);
            }
            NetMsg::App(HarnessMsg::Heartbeat { agent_index }) => {
                if let Some(slot) = self.last_heartbeat.get_mut(agent_index as usize) {
                    *slot = Some(ctx.now_local());
                    self.heartbeats[agent_index as usize] += 1;
                }
            }
            NetMsg::App(HarnessMsg::CompletionSeen { agent_index }) => {
                if self.phase != Phase::Running {
                    return;
                }
                self.completions.insert(agent_index);
                if self.completions.len() == self.cfg.agents.len() {
                    self.send_stop(ctx);
                }
            }
            NetMsg::App(HarnessMsg::Log { agent_index, records }) => {
                if self.phase != Phase::Collecting {
                    return;
                }
                self.logs.insert(agent_index, records);
                if self.logs.len() == self.cfg.agents.len() {
                    self.finish(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, token: u64) {
        match token {
            TOKEN_PROBE => {
                if self.phase != Phase::Probing {
                    return;
                }
                if let Some(idx) = self.agent_needing_probe() {
                    // Probes are sequential (one in flight), per Cristian.
                    // Drop probes that have been in flight implausibly long
                    // (lost request or reply) so probing self-heals.
                    let now = ctx.now_local();
                    self.in_flight.retain(|_, (_, sent)| now.delta_nanos(*sent) < 3_000_000_000);
                    if self.in_flight.is_empty() {
                        self.send_probe(ctx, idx);
                    }
                    ctx.set_timer(self.cfg.probe_spacing, TOKEN_PROBE);
                }
            }
            TOKEN_TIMEOUT if self.phase == Phase::Running => {
                self.timed_out = true;
                self.send_stop(ctx);
            }
            TOKEN_START_RETRY
                if self.phase == Phase::Running
                    && self.start_acks.len() < self.cfg.agents.len() =>
            {
                for (i, agent) in self.cfg.agents.clone().into_iter().enumerate() {
                    if !self.start_acks.contains(&(i as u32)) {
                        let plan = self.plans[i].clone();
                        ctx.send(agent, NetMsg::App(HarnessMsg::Start(Box::new(plan))));
                    }
                }
                ctx.set_timer(SimDuration::from_millis(700), TOKEN_START_RETRY);
            }
            TOKEN_STOP_RETRY if self.phase == Phase::Collecting => {
                self.stop_rounds += 1;
                if self.stop_rounds > MAX_STOP_ROUNDS {
                    // Retry budget exhausted: quarantine the silent
                    // agents and salvage a coherent partial trace from
                    // the logs that did arrive.
                    self.salvage_finish(ctx);
                    return;
                }
                for (i, agent) in self.cfg.agents.clone().into_iter().enumerate() {
                    if !self.logs.contains_key(&(i as u32)) {
                        ctx.send(agent, NetMsg::App(HarnessMsg::Stop));
                    }
                }
                ctx.set_timer(STOP_RETRY_PERIOD, TOKEN_STOP_RETRY);
            }
            TOKEN_FINALIZE if self.phase == Phase::Collecting => {
                // Backstop behind the Stop retry budget (kept in case
                // the budget is ever raised past it): stragglers are
                // quarantined and the test concludes.
                self.timed_out = true;
                self.salvage_finish(ctx);
            }
            TOKEN_LIVENESS if self.phase == Phase::Running => {
                // Graceful degradation: when every agent that still
                // looks alive has completed and at least one looks
                // dead, stop now instead of waiting out max_duration
                // for a completion that can never arrive.
                let now = ctx.now_local();
                let n = self.cfg.agents.len();
                let any_dead = (0..n).any(|i| self.looks_dead(i, now));
                let live_done = (0..n)
                    .all(|i| self.looks_dead(i, now) || self.completions.contains(&(i as u32)));
                if any_dead && live_done {
                    self.timed_out = true;
                    self.send_stop(ctx);
                } else {
                    ctx.set_timer(LIVENESS_PERIOD, TOKEN_LIVENESS);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::TestKind;

    fn cfg(agents: Vec<NodeId>, entries: Vec<NodeId>) -> CoordinatorConfig {
        CoordinatorConfig {
            agents,
            entries,
            cadence: Cadence {
                kind: TestKind::Test1,
                read_period: SimDuration::from_millis(300),
                fast_reads: 0,
                slow_period: SimDuration::from_secs(1),
                reads_target: 0,
            },
            probes_per_agent: 3,
            probe_spacing: SimDuration::from_millis(50),
            start_margin: SimDuration::from_secs(1),
            max_duration: SimDuration::from_secs(60),
        }
    }

    #[test]
    fn constructor_validates_shapes() {
        let c = CoordinatorNode::new(cfg(vec![NodeId(1)], vec![NodeId(0)]));
        assert!(c.outcome().is_none());
        assert!(c.deltas().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one agent")]
    fn rejects_empty_agent_list() {
        let _ = CoordinatorNode::new(cfg(vec![], vec![]));
    }

    #[test]
    #[should_panic(expected = "one service entry per agent")]
    fn rejects_mismatched_entries() {
        let _ = CoordinatorNode::new(cfg(vec![NodeId(1), NodeId(2)], vec![NodeId(0)]));
    }
}
