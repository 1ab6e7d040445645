//! The measurement agent (§IV–V).
//!
//! One agent runs in each of Oregon, Tokyo and Ireland. An agent is a
//! scripted state machine:
//!
//! * it always answers the coordinator's clock probes with its local clock
//!   reading;
//! * on `Start` it waits until the agent-local start time the coordinator
//!   computed, then runs the plan's [`TestScript`]: the script decides who
//!   writes when, the adaptive read period and when the agent is done;
//!   this node is its simulator driver — request ids, retransmit and
//!   throttle-backoff timers, heartbeats and the Stop/flush/Log protocol;
//! * every operation is logged with **local** invocation/response times and
//!   its output — the agent has no access to true time;
//! * on `Stop` it ships the log to the coordinator.
//!
//! Optionally the agent routes reads and write-acks through a session
//! guard (`guard.rs`, the A3 extension experiment): the *corrected* view
//! is then what gets logged, modelling an application that masks session
//! anomalies client-side.

use crate::guard::SessionGuard;
use crate::proto::{HarnessMsg, LocalOpRecord, Msg};
use crate::script::{post_for, TestScript};
use conprobe_core::trace::OpKind;
use conprobe_json::FastMap;
use conprobe_services::{ClientOp, NetMsg, OpResult};
use conprobe_sim::{Context, LocalTime, Node, NodeId, SimDuration, TimerId};
use conprobe_store::PostId;

const TOKEN_START: u64 = 1;
const TOKEN_READ: u64 = 2;
const TOKEN_HEARTBEAT: u64 = 3;
/// Deadline for the post-Stop write-flush grace period.
const TOKEN_FLUSH: u64 = 4;
/// High-bit namespace for throttle-backoff timers.
const TOKEN_THROTTLED: u64 = 1 << 62;
/// High-bit namespace for per-request retry timers: `TOKEN_RETRY | req_id`.
const TOKEN_RETRY: u64 = 1 << 63;
/// Liveness beacon period (agent → coordinator).
const HEARTBEAT_PERIOD: SimDuration = SimDuration::from_secs(1);
/// First retransmit delay for an unanswered request. The paper's HTTP
/// client had TCP retransmits and library-level retries; the simulated WAN
/// can drop messages when loss is configured.
const RETRY_INITIAL: SimDuration = SimDuration::from_secs(1);
/// Cap on the exponentially growing retransmit delay.
const RETRY_CAP: SimDuration = SimDuration::from_secs(8);
/// Transmissions per operation (first send included) before the agent
/// abandons it as undeliverable.
const MAX_ATTEMPTS: u32 = 8;
/// How long a stopped agent holds its log back while a write ack is still
/// outstanding. One retransmit round fits inside it, so an ack lost right
/// at the end of the test is usually recovered; after the grace the log
/// ships as-is — better a log missing one record than a quarantined agent.
const STOP_FLUSH_GRACE: SimDuration = SimDuration::from_millis(1500);

enum PendingOp {
    Read,
    Write(PostId),
}

/// One in-flight request awaiting a response.
struct Pending {
    invoke: LocalTime,
    kind: PendingOp,
    op: ClientOp,
    /// Transmissions so far (first send included).
    attempts: u32,
    /// The armed retransmit timer, cancelled when the answer arrives or
    /// the request is dropped.
    retry: TimerId,
}

/// Transport-level counters for one agent (diagnostics and the fault
/// ledger): how hard the resilient RPC layer had to work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RpcStats {
    /// Retransmissions of unanswered requests.
    pub retransmits: u64,
    /// Operations given up on after [`MAX_ATTEMPTS`] transmissions.
    pub abandoned: u64,
    /// Responses rejected by the service's rate limiter.
    pub throttled: u64,
    /// Longest run of consecutive throttle rejections.
    pub max_throttle_streak: u32,
}

/// Shared observability handles for the agent's transport layer, resolved
/// in `on_start` when the world has a sink installed. The counters are
/// global across agents (`harness.agent.rpc.*`): the interesting signal is
/// the fleet-wide retry/abandon volume a fault plan induces.
struct AgentObs {
    sink: conprobe_sim::ObsSink,
    retransmits: conprobe_obs::Counter,
    abandoned: conprobe_obs::Counter,
    throttled: conprobe_obs::Counter,
}

impl AgentObs {
    fn new(sink: &conprobe_sim::ObsSink) -> Self {
        let m = &sink.metrics;
        AgentObs {
            retransmits: m.counter("harness.agent.rpc.retransmits"),
            abandoned: m.counter("harness.agent.rpc.abandoned"),
            throttled: m.counter("harness.agent.rpc.throttled"),
            sink: sink.clone(),
        }
    }
}

/// The deployed measurement agent.
pub struct AgentNode {
    agent_index: u32,
    coordinator: Option<NodeId>,
    /// The running test — the plan's service front door and the script
    /// deciding what to do there; `None` until a `Start` arrives.
    test: Option<(NodeId, TestScript)>,
    records: Vec<LocalOpRecord>,
    pending: FastMap<u64, Pending>,
    next_req: u64,
    stopped: bool,
    rpc: RpcStats,
    /// Operations rejected by the rate limiter, awaiting a backoff retry.
    throttle_backlog: FastMap<u64, (PendingOp, ClientOp)>,
    next_backoff: u64,
    guard: Option<SessionGuard>,
    use_guard: bool,
    obs: Option<AgentObs>,
}

impl AgentNode {
    /// Creates an idle agent with the given index (0-based; the paper's
    /// Agent⟨i+1⟩). If `use_guard` is set, reads are filtered through a
    /// session guard before logging.
    pub fn new(agent_index: u32, use_guard: bool) -> Self {
        AgentNode {
            agent_index,
            coordinator: None,
            test: None,
            records: Vec::new(),
            pending: FastMap::default(),
            next_req: 0,
            stopped: false,
            rpc: RpcStats::default(),
            throttle_backlog: FastMap::default(),
            next_backoff: 0,
            guard: None,
            use_guard,
            obs: None,
        }
    }

    /// Operations logged so far (diagnostics).
    pub fn logged(&self) -> usize {
        self.records.len()
    }

    /// Requests rejected by the service's rate limit (diagnostics).
    pub fn throttled(&self) -> u64 {
        self.rpc.throttled
    }

    /// Transport-level RPC counters (diagnostics and the fault ledger).
    pub fn rpc_stats(&self) -> RpcStats {
        self.rpc
    }

    fn script(&mut self) -> &mut TestScript {
        &mut self.test.as_mut().expect("agent acted before receiving a plan").1
    }

    /// Exponential backoff with deterministic jitter: `attempts`
    /// transmissions have happened; the next retry fires after
    /// `min(RETRY_INITIAL·2^(attempts−1), RETRY_CAP)` plus up to 25 %
    /// jitter drawn from the agent's own random stream (so retransmits
    /// de-synchronize across agents without perturbing any other stream).
    fn retry_delay(&self, ctx: &mut Context<'_, Msg>, attempts: u32) -> SimDuration {
        let shift = attempts.saturating_sub(1).min(6);
        let base = RETRY_INITIAL.saturating_mul(1 << shift).min(RETRY_CAP);
        let jitter = ctx.rng().gen_range(0..base.as_nanos() / 4 + 1);
        base + SimDuration::from_nanos(jitter)
    }

    /// Sends one transmission of `op` — a first send or a retransmit —
    /// to the plan's service front door.
    fn send_request(&self, ctx: &mut Context<'_, Msg>, req_id: u64, op: ClientOp) {
        let (entry, _) = self.test.as_ref().expect("agent acted before receiving a plan");
        ctx.send(*entry, NetMsg::Request { req_id, op });
    }

    fn issue(&mut self, ctx: &mut Context<'_, Msg>, op: ClientOp, kind: PendingOp) {
        let req_id = self.next_req;
        self.next_req += 1;
        self.send_request(ctx, req_id, op.clone());
        let delay = self.retry_delay(ctx, 1);
        let retry = ctx.set_timer(delay, TOKEN_RETRY | req_id);
        self.pending
            .insert(req_id, Pending { invoke: ctx.now_local(), kind, op, attempts: 1, retry });
    }

    /// Issues a scheduled background read and arms the timer for the
    /// next one, if the script wants another.
    fn issue_read(&mut self, ctx: &mut Context<'_, Msg>) {
        let next = self.script().read_issued();
        self.issue(ctx, ClientOp::Read, PendingOp::Read);
        if let Some(period) = next {
            ctx.set_timer(period, TOKEN_READ);
        }
    }

    fn issue_write(&mut self, ctx: &mut Context<'_, Msg>, id: PostId) {
        let post = post_for(id, ctx.now_local());
        self.issue(ctx, ClientOp::Write(post), PendingOp::Write(id));
    }

    /// Handles a `TOKEN_RETRY | req_id` timer: retransmits the operation
    /// with growing backoff (replicas deduplicate writes by post id; reads
    /// are idempotent), or abandons it once the attempt budget is spent —
    /// the request is undeliverable (dead service or severed link), and
    /// the coordinator's liveness machinery handles a stalled test. An
    /// answered or dropped request's timer was cancelled, so the request
    /// is still pending here.
    fn retransmit(&mut self, ctx: &mut Context<'_, Msg>, token: u64) {
        let req_id = token & !TOKEN_RETRY;
        let retransmit = match self.pending.get_mut(&req_id) {
            None => return,
            Some(p) if p.attempts >= MAX_ATTEMPTS => None,
            Some(p) => {
                p.attempts += 1;
                Some((p.op.clone(), p.attempts))
            }
        };
        match retransmit {
            Some((op, attempts)) => {
                self.rpc.retransmits += 1;
                if let Some(obs) = &self.obs {
                    obs.retransmits.inc();
                }
                self.send_request(ctx, req_id, op);
                let delay = self.retry_delay(ctx, attempts);
                let retry = ctx.set_timer(delay, TOKEN_RETRY | req_id);
                if let Some(p) = self.pending.get_mut(&req_id) {
                    p.retry = retry;
                }
            }
            None => {
                self.pending.remove(&req_id);
                self.rpc.abandoned += 1;
                if let Some(obs) = &self.obs {
                    obs.abandoned.inc();
                    let (agent, now) = (self.agent_index, ctx.true_now());
                    if obs.sink.log.enabled(conprobe_obs::Severity::Warn, "harness") {
                        obs.sink.log.record(
                            now.as_nanos(),
                            conprobe_obs::Severity::Warn,
                            "harness",
                            format!("agent {agent} abandoned req {req_id} after {MAX_ATTEMPTS} attempts"),
                        );
                    }
                }
            }
        }
    }

    fn ship_log(&mut self, ctx: &mut Context<'_, Msg>) {
        if let Some(coord) = self.coordinator {
            ctx.send(
                coord,
                NetMsg::App(HarnessMsg::Log {
                    agent_index: self.agent_index,
                    records: self.records.clone(),
                }),
            );
        }
    }
}

impl Node<Msg> for AgentNode {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        self.obs = ctx.obs().map(AgentObs::new);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            NetMsg::App(HarnessMsg::TimeProbe { probe_id }) => {
                ctx.send(
                    from,
                    NetMsg::App(HarnessMsg::TimeReply { probe_id, local: ctx.now_local() }),
                );
            }
            NetMsg::App(HarnessMsg::Start(plan)) => {
                ctx.send(from, NetMsg::App(HarnessMsg::StartAck { agent_index: self.agent_index }));
                if self.test.is_some() {
                    return; // duplicate Start (retry): already running
                }
                self.coordinator = Some(from);
                self.stopped = false;
                self.guard = self.use_guard.then(SessionGuard::default);
                debug_assert_eq!(plan.agent_index, self.agent_index, "plan routed to wrong agent");
                let now = ctx.now_local();
                let wait = plan.start_at_local.delta_nanos(now).max(0) as u64;
                let script = TestScript::new(plan.cadence, plan.agent_index, plan.total_agents);
                self.test = Some((plan.service_entry, script));
                ctx.set_timer(SimDuration::from_nanos(wait), TOKEN_START);
                // Liveness beacons run from plan receipt until Stop.
                ctx.set_timer(SimDuration::ZERO, TOKEN_HEARTBEAT);
            }
            NetMsg::App(HarnessMsg::Stop) => {
                // Stop may arrive repeatedly (the coordinator retries until
                // it has our log), and even before a Start if that was
                // lost — always answer with what we have.
                let first = !self.stopped;
                self.stopped = true;
                self.coordinator = Some(from);
                if first {
                    // In-flight reads are simply incomplete operations and
                    // are dropped. An in-flight *write* may well have taken
                    // effect with only its ack lost, so it keeps
                    // retransmitting through a short grace before the log
                    // ships — losing its record would understate the trace.
                    self.pending.retain(|_, p| {
                        let write = matches!(p.kind, PendingOp::Write(_));
                        if !write {
                            ctx.cancel_timer(p.retry);
                        }
                        write
                    });
                    self.throttle_backlog.clear();
                    if !self.pending.is_empty() {
                        ctx.set_timer(STOP_FLUSH_GRACE, TOKEN_FLUSH);
                        return;
                    }
                }
                self.ship_log(ctx);
            }
            NetMsg::Response { req_id, result } => {
                let Some(Pending { invoke, kind, op, retry, .. }) = self.pending.remove(&req_id)
                else {
                    return; // response to a request we no longer track
                };
                ctx.cancel_timer(retry);
                if self.stopped {
                    // Only a late write ack still matters: record it, and
                    // release the held log once no write is outstanding.
                    if let (PendingOp::Write(id), OpResult::WriteAck(acked)) = (&kind, &result) {
                        debug_assert_eq!(id, acked);
                        self.records.push(LocalOpRecord {
                            invoke,
                            response: ctx.now_local(),
                            kind: OpKind::Write { id: *id },
                        });
                        if self.pending.is_empty() {
                            self.ship_log(ctx);
                        }
                    }
                    return;
                }
                match (kind, result) {
                    (PendingOp::Write(id), OpResult::WriteAck(acked)) => {
                        debug_assert_eq!(id, acked);
                        self.records.push(LocalOpRecord {
                            invoke,
                            response: ctx.now_local(),
                            kind: OpKind::Write { id },
                        });
                        if let Some(g) = &mut self.guard {
                            g.note_write_ack(id);
                        }
                        if let Some(next) = self.script().write_acked() {
                            self.issue_write(ctx, next);
                        }
                    }
                    (PendingOp::Read, OpResult::ReadOk(raw)) => {
                        let seq = match &mut self.guard {
                            Some(g) => g.filter_read(&raw),
                            None => raw,
                        };
                        let outcome = self.script().read_returned(&seq);
                        self.records.push(LocalOpRecord {
                            invoke,
                            response: ctx.now_local(),
                            kind: OpKind::Read { seq },
                        });
                        if let Some(id) = outcome.write {
                            self.issue_write(ctx, id);
                        }
                        if let (true, Some(coord)) = (outcome.completed, self.coordinator) {
                            let agent_index = self.agent_index;
                            ctx.send(
                                coord,
                                NetMsg::App(HarnessMsg::CompletionSeen { agent_index }),
                            );
                        }
                    }
                    (kind, OpResult::Throttled) => {
                        // Back off for as long as the script says, then
                        // retry from the backlog.
                        self.rpc.throttled += 1;
                        if let Some(obs) = &self.obs {
                            obs.throttled.inc();
                        }
                        let backoff = self.script().throttled();
                        let streak = self.script().throttle_streak();
                        self.rpc.max_throttle_streak = self.rpc.max_throttle_streak.max(streak);
                        let token = TOKEN_THROTTLED | self.next_backoff;
                        self.next_backoff += 1;
                        self.throttle_backlog.insert(token, (kind, op));
                        ctx.set_timer(backoff, token);
                    }
                    _ => {}
                }
            }
            // Requests / replication traffic are not for agents.
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, token: u64) {
        if self.test.is_none() {
            return;
        }
        if self.stopped {
            match token {
                // The post-Stop grace expired: stop chasing unacked writes
                // and ship whatever the log holds.
                TOKEN_FLUSH => {
                    self.rpc.abandoned += self.pending.len() as u64;
                    if let Some(obs) = &self.obs {
                        obs.abandoned.add(self.pending.len() as u64);
                    }
                    for (_, p) in self.pending.drain() {
                        ctx.cancel_timer(p.retry);
                    }
                    self.ship_log(ctx);
                }
                // Write retransmissions keep running during the grace.
                t if t & TOKEN_RETRY != 0 => self.retransmit(ctx, t),
                _ => {}
            }
            return;
        }
        if token & TOKEN_THROTTLED != 0 && token & TOKEN_RETRY == 0 {
            if let Some((kind, op)) = self.throttle_backlog.remove(&token) {
                // The throttled attempt failed visibly, so the retry is a
                // *new* operation with a fresh invocation time (unlike a
                // lost-message retransmit, where the original request may
                // have taken effect).
                self.issue(ctx, op, kind);
            }
            return;
        }
        if token & TOKEN_RETRY != 0 {
            self.retransmit(ctx, token);
            return;
        }
        match token {
            TOKEN_HEARTBEAT => {
                if let Some(coord) = self.coordinator {
                    ctx.send(
                        coord,
                        NetMsg::App(HarnessMsg::Heartbeat { agent_index: self.agent_index }),
                    );
                    // CompletionSeen is not acknowledged, so a lossy link
                    // can eat it and stall the coordinator until the test
                    // timeout. Re-announce on every beacon until Stop; the
                    // coordinator treats duplicates as idempotent.
                    if self.script().completed() {
                        ctx.send(
                            coord,
                            NetMsg::App(HarnessMsg::CompletionSeen {
                                agent_index: self.agent_index,
                            }),
                        );
                    }
                }
                ctx.set_timer(HEARTBEAT_PERIOD, TOKEN_HEARTBEAT);
            }
            TOKEN_START => {
                if let Some(id) = self.script().start() {
                    self.issue_write(ctx, id);
                }
                self.issue_read(ctx);
            }
            TOKEN_READ => self.issue_read(ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_agent_is_idle() {
        let a = AgentNode::new(0, false);
        assert_eq!(a.logged(), 0);
        assert_eq!(a.throttled(), 0);
        assert!(a.test.is_none());
    }

    /// A service that never answers, doubling as the coordinator.
    struct Silent;

    impl Node<Msg> for Silent {
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        fn on_timer(&mut self, _: &mut Context<'_, Msg>, _: u64) {}
    }

    /// An agent whose timer firings are logged.
    struct Spy {
        agent: AgentNode,
        fired: Vec<(u64, conprobe_sim::SimTime)>,
    }

    impl Node<Msg> for Spy {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            self.agent.on_start(ctx);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
            self.agent.on_message(ctx, from, msg);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, token: u64) {
            self.fired.push((token, ctx.true_now()));
            self.agent.on_timer(ctx, token);
        }
    }

    #[test]
    fn no_retry_timer_of_a_read_dropped_at_stop_fires() {
        use crate::proto::{AgentTestPlan, TestKind};
        use crate::script::Cadence;
        use conprobe_sim::{Region, SimTime, World, WorldConfig};

        let mut w: World<Msg> = World::new(WorldConfig::default(), 3);
        let silent = w.add_node(Region::Oregon, Box::new(Silent));
        let spy = Spy { agent: AgentNode::new(0, false), fired: Vec::new() };
        let agent = w.add_node(Region::Oregon, Box::new(spy));
        let cadence = Cadence {
            kind: TestKind::Test2,
            read_period: SimDuration::from_millis(300),
            fast_reads: 100,
            slow_period: SimDuration::from_secs(1),
            reads_target: 100,
        };
        let plan = AgentTestPlan {
            cadence,
            agent_index: 0,
            total_agents: 1,
            service_entry: silent,
            start_at_local: LocalTime::from_nanos(0),
        };
        w.post(silent, agent, NetMsg::App(HarnessMsg::Start(Box::new(plan))));
        w.run_until(SimTime::from_millis(2_500));

        let stop_at = w.now();
        let dropped: Vec<u64> = {
            let a = &w.node_as::<Spy>(agent).unwrap().agent;
            a.pending.iter().filter(|(_, p)| matches!(p.kind, PendingOp::Read)).map(|(r, _)| *r)
        }
        .collect();
        assert!(dropped.len() >= 3, "reads in flight at Stop: {dropped:?}");
        w.post(silent, agent, NetMsg::App(HarnessMsg::Stop));
        w.run_capped(100_000);

        let fired = &w.node_as::<Spy>(agent).unwrap().fired;
        let late_retries: Vec<u64> = fired
            .iter()
            .filter(|&&(token, at)| at > stop_at && token & TOKEN_RETRY != 0)
            .map(|&(token, _)| token & !TOKEN_RETRY)
            .collect();
        for req in &dropped {
            assert!(!late_retries.contains(req), "read {req} retried after Stop: {late_retries:?}");
        }
        // Without the cancel those timers were due after Stop: retries run
        // about a second behind each send, reads go out every 300 ms.
        assert!(fired.iter().any(|&(token, at)| at <= stop_at && token & TOKEN_RETRY != 0));
    }
}
