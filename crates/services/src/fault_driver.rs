//! Executes a [`FaultPlan`]'s service-level actions against deployed nodes.
//!
//! [`FaultPlan::service_actions`] speaks in abstract target indices; the
//! [`FaultDriver`] is the deployment-aware half that resolves those indices
//! against the real replica [`NodeId`]s, fires each transition at its
//! scheduled time as a [`ControlMsg`], and keeps an execution log for the
//! test's fault ledger. Network-level events don't pass through here: they
//! enter a world only through its [`conprobe_sim::WorldConfig::plan`],
//! whose windows the world applies on every send.
//!
//! The plan is the only fault injector a simulated run has. Links lose
//! nothing on their own and replicas have no rate limiter of their own: a
//! cut, a loss, a block, an extra delay, a crash or a throttle comes from
//! a plan event, so the ledger sees every one. Any composition of crash/restart
//! cycles and brownouts is a plan, and the same plan drives both unit
//! tests and the harness.

use crate::api::{ControlMsg, NetMsg};
use conprobe_sim::{
    Context, FaultPlan, Node, NodeId, ServiceAction, ServiceActionKind, SimDuration, SimTime,
};

/// Extra copies of each control message, spaced [`RETRY_GAP`] apart.
///
/// The injector's control plane rides the same simulated network it
/// degrades, so a one-shot `BrownoutEnd` can be eaten by the very loss
/// burst it is composed with — leaving a replica throttled forever and
/// the test to its timeout. Control transitions are idempotent on every
/// service (duplicates are state no-ops), so blind retransmission is
/// safe; plans whose opposing transitions sit closer together than the
/// retry tail (`RETRANSMITS × RETRY_GAP`) are the composer's error.
const RETRANSMITS: u64 = 2;
/// Spacing between control-message retransmissions.
const RETRY_GAP: SimDuration = SimDuration::from_millis(150);

/// One executed (or skipped) service action, for the fault ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutedAction {
    /// When the transition fired.
    pub at: SimTime,
    /// The abstract target index from the plan.
    pub target: usize,
    /// The transition.
    pub action: ServiceActionKind,
}

/// A sim node that executes the service-level half of a [`FaultPlan`].
///
/// Construct it with the plan and the replica id list (plan target index
/// `i` maps to `targets[i]`), add it to the world, and read back
/// [`FaultDriver::log`] after the run. Actions naming an out-of-range
/// target are dropped at start-up and counted in
/// [`FaultDriver::skipped`] rather than panicking mid-run, so a generic
/// plan can be swept across topologies with fewer replicas.
#[derive(Debug)]
pub struct FaultDriver {
    targets: Vec<NodeId>,
    actions: Vec<ServiceAction>,
    log: Vec<ExecutedAction>,
    skipped: usize,
}

impl FaultDriver {
    /// Creates a driver for `plan` against the deployed `targets`.
    pub fn new(plan: &FaultPlan, targets: Vec<NodeId>) -> Self {
        let (actions, dropped): (Vec<_>, Vec<_>) =
            plan.service_actions().into_iter().partition(|a| a.target < targets.len());
        FaultDriver { targets, actions, log: Vec::new(), skipped: dropped.len() }
    }

    /// The actions executed so far, in firing order.
    pub fn log(&self) -> &[ExecutedAction] {
        &self.log
    }

    /// Actions dropped because their target index had no deployed replica.
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Total actions still waiting to fire.
    pub fn pending(&self) -> usize {
        self.actions.len() - self.log.len()
    }
}

impl<A: Send + 'static> Node<NetMsg<A>> for FaultDriver {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg<A>>) {
        // on_start runs at t = 0, so each action's absolute time is its
        // timer delay; the token indexes into the action list (attempt 0).
        for (i, action) in self.actions.iter().enumerate() {
            ctx.set_timer(action.at.saturating_since(SimTime::ZERO), i as u64);
        }
    }

    fn on_message(&mut self, _: &mut Context<'_, NetMsg<A>>, _: NodeId, _: NetMsg<A>) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, NetMsg<A>>, token: u64) {
        // token = attempt · |actions| + index: every firing re-sends its
        // action; only attempt 0 enters the ledger.
        let n = self.actions.len() as u64;
        let (attempt, index) = (token / n, (token % n) as usize);
        let action = self.actions[index];
        let ctl = match action.action {
            ServiceActionKind::Crash => ControlMsg::Crash,
            ServiceActionKind::Recover => ControlMsg::Recover,
            ServiceActionKind::BrownoutStart(mode) => ControlMsg::BrownoutStart(mode),
            ServiceActionKind::BrownoutEnd => ControlMsg::BrownoutEnd,
        };
        ctx.send(self.targets[action.target], NetMsg::Control(ctl));
        if attempt == 0 {
            self.log.push(ExecutedAction {
                at: ctx.true_now(),
                target: action.target,
                action: action.action,
            });
        }
        if attempt < RETRANSMITS {
            ctx.set_timer(RETRY_GAP, token + n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica_node::{ReplicaNode, ReplicaParams};
    use crate::{PbftReplica, QuorumReplica};
    use conprobe_obs::{EventLog, ObsSink, Severity};
    use conprobe_sim::net::Region;
    use conprobe_sim::{BrownoutMode, FaultEvent, LocalClock, SimDuration, World, WorldConfig};

    type Msg = NetMsg<()>;

    fn world_with_replica() -> (World<Msg>, NodeId) {
        let mut w = World::new(WorldConfig::default(), 21);
        let r = w.add_node_with_clock(
            Region::Virginia,
            LocalClock::perfect(),
            Box::new(ReplicaNode::new(ReplicaParams::default())),
        );
        (w, r)
    }

    /// The three sim replica types, each deployed alone (no peers: a
    /// recovering strong replica just stays fenced) in a world with a
    /// telemetry sink: `(name, deploy, is_crashed)`.
    type Arm = (&'static str, fn(&mut World<Msg>) -> NodeId, fn(&World<Msg>, NodeId) -> bool);
    const ARMS: [Arm; 3] = [
        (
            "ReplicaNode",
            |w| w.add_node(Region::Virginia, Box::new(ReplicaNode::new(ReplicaParams::default()))),
            |w, r| w.node_as::<ReplicaNode>(r).unwrap().is_crashed(),
        ),
        (
            "QuorumReplica",
            |w| w.add_node(Region::Virginia, Box::new(QuorumReplica::new())),
            |w, r| w.node_as::<QuorumReplica>(r).unwrap().is_crashed(),
        ),
        (
            "PbftReplica",
            |w| {
                let r = w.add_node(Region::Virginia, Box::new(PbftReplica::new()));
                w.node_as_mut::<PbftReplica>(r).unwrap().set_members(vec![r], 0);
                r
            },
            |w, r| w.node_as::<PbftReplica>(r).unwrap().is_crashed(),
        ),
    ];

    /// A world with an Info-level `services` log, the arm's replica, and
    /// a driver for `plan` aimed at it.
    fn observed(arm: &Arm, plan: &FaultPlan) -> (World<Msg>, ObsSink, NodeId, NodeId) {
        let sink = ObsSink::with_log(
            EventLog::new(256).with_min_severity(Severity::Info).with_target_prefix("services"),
        );
        let mut w = World::new(WorldConfig::default(), 21);
        w.install_obs(sink.clone());
        let r = (arm.1)(&mut w);
        let driver = w.add_node(Region::Virginia, Box::new(FaultDriver::new(plan, vec![r])));
        (w, sink, r, driver)
    }

    /// How many logged transitions mention `what`. The driver sends every
    /// control three times; a duplicate must not log again.
    fn logged(sink: &ObsSink, what: &str) -> usize {
        sink.log.drain().iter().filter(|e| e.render().contains(what)).count()
    }

    #[test]
    fn crash_cycle_toggles_replica_state_and_is_logged() {
        let plan = FaultPlan::new(1).with(FaultEvent::CrashCycle {
            target: 0,
            at: SimTime::from_secs(1),
            down_for: SimDuration::from_secs(2),
            up_for: SimDuration::from_secs(1),
            cycles: 2,
        });
        for arm in &ARMS {
            let (name, is_crashed) = (arm.0, arm.2);
            let (mut w, sink, r, driver) = observed(arm, &plan);
            // Timeline: crash 1 s, recover 3 s, crash 4 s, recover 6 s.
            for (until_ms, crashed) in
                [(2_000, true), (3_500, false), (5_000, true), (7_000, false)]
            {
                w.run_until(SimTime::from_millis(until_ms));
                assert_eq!(is_crashed(&w, r), crashed, "{name} at {until_ms} ms");
                let line = if crashed { "crashed" } else { "recovered" };
                assert_eq!(logged(&sink, line), 1, "{name}: one {line:?} line per transition");
            }
            let d = w.node_as::<FaultDriver>(driver).unwrap();
            assert_eq!(d.log().len(), 4);
            assert_eq!(d.log()[0].action, ServiceActionKind::Crash);
            assert_eq!(d.log()[0].at, SimTime::from_secs(1));
            assert_eq!(d.log()[3].action, ServiceActionKind::Recover);
            assert_eq!(d.log()[3].at, SimTime::from_secs(6));
            assert_eq!(d.skipped(), 0);
        }
    }

    #[test]
    fn brownout_window_sets_and_clears_mode() {
        let plan = FaultPlan::new(1).with(FaultEvent::Brownout {
            target: 0,
            at: SimTime::from_secs(1),
            duration: SimDuration::from_secs(2),
            mode: BrownoutMode::ThrottleStorm,
        });
        for arm in &ARMS {
            let name = arm.0;
            let (mut w, sink, r, _driver) = observed(arm, &plan);
            let gauge = sink.metrics.gauge(&format!("services.replica.{r}.brownout"));
            w.run_until(SimTime::from_secs(2));
            assert_eq!(gauge.get(), 1.0, "{name}: gauge up inside the window");
            assert_eq!(logged(&sink, "brownout start: ThrottleStorm"), 1, "{name}");
            w.run_until(SimTime::from_secs(4));
            assert_eq!(gauge.get(), 0.0, "{name}: gauge down after the window");
            assert_eq!(logged(&sink, "brownout end"), 1, "{name}");
        }
        let (mut w, r) = world_with_replica();
        let _driver = w.add_node(Region::Virginia, Box::new(FaultDriver::new(&plan, vec![r])));
        w.run_until(SimTime::from_secs(2));
        assert_eq!(
            w.node_as::<ReplicaNode>(r).unwrap().brownout(),
            Some(BrownoutMode::ThrottleStorm)
        );
        w.run_until(SimTime::from_secs(4));
        assert_eq!(w.node_as::<ReplicaNode>(r).unwrap().brownout(), None);
    }

    /// Sends one Read at a fixed time and records the response arrival.
    struct ProbeClient {
        target: NodeId,
        send_at: SimDuration,
        response: Option<(SimTime, crate::api::OpResult)>,
    }
    impl Node<Msg> for ProbeClient {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.set_timer(self.send_at, 0);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: NodeId, msg: Msg) {
            if let NetMsg::Response { result, .. } = msg {
                self.response = Some((ctx.true_now(), result));
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: u64) {
            ctx.send(self.target, NetMsg::Request { req_id: 1, op: crate::api::ClientOp::Read });
        }
    }

    fn probe_through_brownout(mode: BrownoutMode) -> (SimTime, crate::api::OpResult) {
        let (mut w, r) = world_with_replica();
        let plan = FaultPlan::new(1).with(FaultEvent::Brownout {
            target: 0,
            at: SimTime::from_secs(1),
            duration: SimDuration::from_secs(2),
            mode,
        });
        let _driver = w.add_node(Region::Virginia, Box::new(FaultDriver::new(&plan, vec![r])));
        let client = w.add_node(
            Region::Virginia,
            Box::new(ProbeClient {
                target: r,
                send_at: SimDuration::from_millis(1500),
                response: None,
            }),
        );
        w.run_until_idle();
        w.node_as::<ProbeClient>(client).unwrap().response.clone().expect("answered")
    }

    #[test]
    fn throttle_storm_brownout_rejects_client_requests() {
        let (at, result) = probe_through_brownout(BrownoutMode::ThrottleStorm);
        assert_eq!(result, crate::api::OpResult::Throttled);
        assert!(at < SimTime::from_secs(2), "rejected immediately");
    }

    #[test]
    fn delay_brownout_holds_requests_then_serves_them() {
        let (at, result) = probe_through_brownout(BrownoutMode::Delay(SimDuration::from_secs(3)));
        assert!(matches!(result, crate::api::OpResult::ReadOk(_)), "served, not rejected");
        // Sent at 1.5 s, held 3 s: the answer cannot arrive before 4.5 s
        // (well past the brownout window itself).
        assert!(at >= SimTime::from_millis(4500), "answered at {at}");
    }

    #[test]
    fn out_of_range_targets_are_skipped_not_fatal() {
        let (mut w, r) = world_with_replica();
        let plan = FaultPlan::new(1)
            .with(FaultEvent::CrashCycle {
                target: 7, // no such replica
                at: SimTime::from_secs(1),
                down_for: SimDuration::from_secs(1),
                up_for: SimDuration::ZERO,
                cycles: 1,
            })
            .with(FaultEvent::Brownout {
                target: 0,
                at: SimTime::from_secs(1),
                duration: SimDuration::from_secs(1),
                mode: BrownoutMode::Delay(SimDuration::from_millis(100)),
            });
        let driver = w.add_node(Region::Virginia, Box::new(FaultDriver::new(&plan, vec![r])));
        w.run_until_idle();
        let d = w.node_as::<FaultDriver>(driver).unwrap();
        assert_eq!(d.skipped(), 2, "crash + recover of target 7 dropped");
        assert_eq!(d.log().len(), 2, "brownout start + end fired");
        assert_eq!(d.pending(), 0);
        assert!(!w.node_as::<ReplicaNode>(r).unwrap().is_crashed());
    }
}
