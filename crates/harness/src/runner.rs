//! Single-test execution: build a world, run it, analyze the trace.

use crate::agent::{AgentNode, RpcStats};
use crate::coordinator::{AgentHealth, CoordinatorConfig, CoordinatorNode};
use crate::proto::{test1_trigger_pairs, Msg, TestKind};
use crate::script::Cadence;
use crate::whitebox::ReplicaSample;
use conprobe_core::checkers::WfrMode;
use conprobe_core::{analyze, CheckerConfig, TestAnalysis, TestTrace};
use conprobe_services::catalog::{replica_state, topology};
use conprobe_services::fault_driver::{ExecutedAction, FaultDriver};
use conprobe_services::{deploy, ServiceCluster, ServiceKind};
use conprobe_sim::net::Region;
use conprobe_sim::{
    ClockConfig, FaultEvent, FaultNetStats, FaultPlan, LatencyMatrix, LinkScope, NodeId, ObsSink,
    SimDuration, SimTime, World, WorldConfig,
};
use conprobe_store::PostId;

/// Configuration of one test instance.
#[derive(Debug, Clone)]
pub struct TestConfig {
    /// The service under test.
    pub service: ServiceKind,
    /// Which of the paper's two tests to run, and on what schedule.
    pub cadence: Cadence,
    /// Clock probes per agent before the test.
    pub probes_per_agent: u32,
    /// Margin between clock sync and the synchronized start.
    pub start_margin: SimDuration,
    /// Abort the test after this long.
    pub max_duration: SimDuration,
    /// Clock distribution of the measurement machines (NTP disabled).
    pub agent_clocks: ClockConfig,
    /// Run agents behind a client-side session guard (extension A3).
    pub use_guard: bool,
    /// Deploy this topology instead of the service's calibrated preset
    /// (ablations).
    pub service_override: Option<conprobe_services::catalog::Topology>,
    /// Read every replica in place every [`crate::whitebox::PERIOD`] (white-box
    /// extension: adds a [`crate::whitebox::WhiteboxReport`], changes nothing).
    pub whitebox: bool,
    /// Declarative fault script executed against the world and the service
    /// (link flaps, loss bursts, degraded links, crash cycles, brownouts,
    /// node-pair cuts such as [`TestConfig::with_tokyo_partition`]'s): the
    /// only fault injector a run has. The resulting interference is
    /// accounted in [`TestResult::fault_ledger`].
    pub fault_plan: FaultPlan,
    /// Agent deployment regions, in agent-index order. The paper's three
    /// (Oregon, Tokyo, Ireland) by default; any count ≥ 2 works — Test 1's
    /// message naming, trigger chain and completion condition generalize
    /// (agent *i* writes M(2i+1), M(2i+2); completion is the last agent's
    /// second message).
    pub agent_regions: Vec<Region>,
    /// Observability sink installed into the test's world (metrics under
    /// `sim.`/`services.`/`harness.`, plus the structured event log).
    /// `None` (the default) runs with telemetry off; either way the
    /// simulation schedule is identical.
    pub obs: Option<ObsSink>,
}

impl TestConfig {
    /// The paper's configuration for `service`/`kind` (Tables I and II).
    ///
    /// Read periods are 300 ms everywhere. Test 2's adaptive schedule and
    /// read quotas come from Table II (Google+ 17–75 reads — we use the
    /// upper range since its windows are the longest; Blogger 20; FB Feed
    /// 40; FB Group 50). `max_duration` is sized so that a healthy test
    /// always completes (Test 1 ends when M6 is globally visible).
    pub fn paper(service: ServiceKind, kind: TestKind) -> Self {
        let (fast_reads, reads_target) = match service {
            ServiceKind::GooglePlus => (14, 60),
            ServiceKind::Blogger => (13, 20),
            ServiceKind::FacebookFeed => (20, 40),
            ServiceKind::FacebookGroup => (20, 50),
            // The quorum control arm is not in the paper's tables; the
            // quota is sized so a Test 2 run outlasts the chaos plan's
            // crash/recover cycle (crash at 7 s, 4 s down) and exercises
            // post-recovery reads.
            ServiceKind::Quorum => (14, 30),
            // Same sizing argument for the ordered-log arm: outlast the
            // leader-crash cycle so view change, rejoin state transfer
            // and post-recovery reads all land inside the run.
            ServiceKind::Pbft => (14, 30),
        };
        TestConfig {
            service,
            cadence: Cadence {
                kind,
                read_period: SimDuration::from_millis(300),
                fast_reads,
                slow_period: SimDuration::from_secs(1),
                reads_target,
            },
            probes_per_agent: 5,
            start_margin: SimDuration::from_secs(1),
            max_duration: match kind {
                TestKind::Test1 => SimDuration::from_secs(180),
                TestKind::Test2 => SimDuration::from_secs(120),
            },
            agent_clocks: ClockConfig::default(),
            use_guard: false,
            service_override: None,
            whitebox: false,
            fault_plan: FaultPlan::default(),
            agent_regions: Region::AGENTS.to_vec(),
            obs: None,
        }
    }

    /// Adds the paper's transient Tokyo fault (FB Group's partition
    /// instances): routes the Tokyo agent to the last replica (idle for FB
    /// Group) and plans a cut between it and every other replica until
    /// `start_margin + 10 s`, so the cut covers the start of the measured
    /// phase and heals mid-test; anti-entropy then closes the window. The
    /// Tokyo agent still reaches its own front door: it "was unable to
    /// observe the operations of other agents". A single-replica service
    /// gains no event. Replica `i` is node `i`: [`run_one_test`] deploys
    /// the service first.
    pub fn with_tokyo_partition(mut self) -> Self {
        let mut topo = self.service_override.take().unwrap_or_else(|| topology(self.service));
        let tokyo = topo.replicas.len() - 1;
        topo.affinity.assign(Region::Tokyo, tokyo);
        for other in 0..tokyo {
            self.fault_plan.push(FaultEvent::LinkFlap {
                scope: LinkScope::Nodes(NodeId(tokyo), NodeId(other)),
                at: SimTime::ZERO,
                down_for: self.start_margin + SimDuration::from_secs(10),
                up_for: SimDuration::ZERO,
                flaps: 1,
            });
        }
        self.service_override = Some(topo);
        self
    }
}

/// The checker configuration [`run_one_test`] analyzes a test of this
/// configuration with. Exposed so journal recovery
/// ([`crate::journal`]) can re-derive a byte-identical
/// [`TestAnalysis`] from a persisted trace: the analysis is a pure
/// function of `(trace, checker config)`, so it is *recomputed* on
/// resume rather than serialized.
pub fn checker_config_for(config: &TestConfig) -> CheckerConfig<PostId> {
    match config.cadence.kind {
        TestKind::Test1 => CheckerConfig {
            wfr_mode: WfrMode::TriggerPairs(test1_trigger_pairs(config.agent_regions.len() as u32)),
        },
        TestKind::Test2 => CheckerConfig::default(),
    }
}

/// Everything a test's fault plan did to the run: network interference
/// counters, the executed service transitions, and how hard each agent's
/// RPC layer had to work to get through.
#[derive(Debug, Clone, Default)]
pub struct FaultLedger {
    /// Messages blocked/dropped/delayed by the plan's network effects.
    pub net: FaultNetStats,
    /// Service transitions (crash/recover/brownout) in firing order.
    pub actions: Vec<ExecutedAction>,
    /// Plan actions dropped for naming a replica the topology lacks.
    pub skipped_actions: usize,
    /// Per-agent transport counters (retransmits, abandonments,
    /// throttles).
    pub agent_rpc: Vec<RpcStats>,
}

impl FaultLedger {
    /// True when the plan interfered with the run in any visible way.
    pub fn any_interference(&self) -> bool {
        self.net.total() > 0 || !self.actions.is_empty()
    }
}

/// Everything measured in one test instance.
#[derive(Debug, Clone)]
pub struct TestResult {
    /// The checker output.
    pub analysis: TestAnalysis<PostId>,
    /// The merged clock-corrected trace.
    pub trace: TestTrace<PostId>,
    /// Whether the test reached its completion condition (vs timed out).
    pub completed: bool,
    /// Reads logged per agent.
    pub reads_per_agent: Vec<u32>,
    /// Total writes logged.
    pub writes_total: u32,
    /// Test duration in (coordinator-perceived) seconds.
    pub duration_secs: f64,
    /// Whether the fault plan cut nodes apart (the Tokyo partition of
    /// [`TestConfig::with_tokyo_partition`]).
    pub partitioned: bool,
    /// Per-agent absolute error of the estimated clock delta vs ground
    /// truth (nanoseconds) — the clock-sync ablation input.
    pub clock_error_nanos: Vec<i64>,
    /// Per-agent half-RTT uncertainty claimed by the estimator.
    pub clock_uncertainty_nanos: Vec<i64>,
    /// The region each agent index was deployed in
    /// ([`TestConfig::agent_regions`]).
    pub agent_regions: Vec<Region>,
    /// Replica-level ground truth, when white-box probing was enabled.
    pub whitebox: Option<crate::whitebox::WhiteboxReport>,
    /// What the fault plan did to the run.
    pub fault_ledger: FaultLedger,
    /// Per-agent liveness accounting from the coordinator.
    pub agent_health: Vec<AgentHealth>,
    /// The trace is a coherent partial view: one or more agents were
    /// quarantined and contributed nothing.
    pub salvaged: bool,
    /// The seed this test ran with.
    pub seed: u64,
    /// Message deliveries during the run (`World::delivered`). Timer
    /// firings, not counted, are a quarter to a half of the events a test
    /// dispatches (Google+ Test 2: ≈ 609 deliveries and ≈ 630 firings;
    /// pbft Test 2: 2,591 and ≈ 815).
    pub sim_events: u64,
    /// The service this test ran against.
    pub service: ServiceKind,
    /// The service front door each agent index was routed to (the
    /// affinity actually in force, including any Tokyo-partition
    /// reroute) — the ground truth for same-entry vs remote visibility
    /// classification.
    pub agent_entries: Vec<NodeId>,
}

impl TestResult {
    /// Shorthand: does the analysis contain this anomaly?
    pub fn has(&self, kind: conprobe_core::AnomalyKind) -> bool {
        self.analysis.has(kind)
    }
}

/// Builds the world for one test and runs it to completion.
///
/// Returns the analyzed result. Each call constructs a fresh world (fresh
/// service state, fresh clocks), which matches the paper's per-test
/// isolation: anomaly detection only ever involves the test's own messages.
///
/// # Panics
///
/// Panics if the simulation exceeds its event budget without the
/// coordinator finishing — that indicates a harness bug, not an anomaly.
pub fn run_one_test(config: &TestConfig, seed: u64) -> TestResult {
    let fault_plan = &config.fault_plan;
    let world_config = WorldConfig {
        matrix: LatencyMatrix::paper_wan(),
        plan: fault_plan.clone(),
        clocks: config.agent_clocks.clone(),
    };
    let mut world: World<Msg> = World::new(world_config, seed);
    // Install telemetry before any node exists so every `on_start` sees it.
    let test_span = config.obs.as_ref().map(|sink| {
        world.install_obs(sink.clone());
        sink.metrics.counter("harness.tests.started").inc();
        sink.metrics.span("harness.test")
    });

    // Service first: plan events name replica `i` as node `i`.
    let cluster: ServiceCluster = match &config.service_override {
        Some(topo) => {
            conprobe_services::catalog::deploy_topology(&mut world, config.service, topo.clone())
        }
        None => deploy(&mut world, config.service),
    };
    assert!(cluster.replicas.iter().enumerate().all(|(i, id)| id.0 == i), "replica i is node i");

    // Agents (the paper's three regions by default; any count works).
    let n_agents = config.agent_regions.len() as u32;
    assert!(n_agents >= 2, "a consistency test needs at least two agents");
    let mut agents = Vec::new();
    let mut entries = Vec::new();
    for (i, &region) in (0..).zip(&config.agent_regions) {
        let id = world.add_node(region, Box::new(AgentNode::new(i, config.use_guard)));
        entries.push(cluster.entry_for(region));
        agents.push(id);
    }
    let agent_entries = entries.clone();

    // Coordinator in North Virginia.
    let coord_cfg = CoordinatorConfig {
        agents: agents.clone(),
        entries,
        cadence: config.cadence,
        probes_per_agent: config.probes_per_agent,
        probe_spacing: SimDuration::from_millis(50),
        start_margin: config.start_margin,
        max_duration: config.max_duration,
    };
    let coord = world.add_node(Region::Virginia, Box::new(CoordinatorNode::new(coord_cfg)));

    // One driver executes the whole service-level half of the fault plan.
    let fault_driver = (!fault_plan.is_empty()).then(|| {
        world.add_node(
            Region::Virginia,
            Box::new(FaultDriver::new(fault_plan, cluster.replicas.clone())),
        )
    });

    let samples = drive(&mut world, coord, config.whitebox.then_some(&cluster));
    let sim_events = world.delivered();

    let outcome = world
        .node_as_mut::<CoordinatorNode>(coord)
        .and_then(CoordinatorNode::take_outcome)
        .expect("coordinator finished");
    if let Some(sink) = &config.obs {
        let m = &sink.metrics;
        if outcome.completed {
            m.counter("harness.tests.completed").inc();
        } else {
            m.counter("harness.tests.timed_out").inc();
        }
        if outcome.salvaged {
            m.counter("harness.tests.salvaged").inc();
        }
    }
    drop(test_span); // closes the wall-clock harness.test span

    // Clock-sync ablation: compare estimates against ground truth.
    let now = world.now();
    let coord_true = world.clock_of(coord).true_offset_nanos(now);
    let mut clock_error = Vec::new();
    let mut clock_uncertainty = Vec::new();
    for (i, agent) in agents.iter().enumerate() {
        let agent_true = world.clock_of(*agent).true_offset_nanos(now);
        let true_delta = agent_true - coord_true;
        clock_error.push((outcome.deltas[i].delta_nanos - true_delta).abs());
        clock_uncertainty.push(outcome.deltas[i].uncertainty_nanos);
    }

    let analysis = analyze(&outcome.trace, &checker_config_for(config));

    let mut reads_per_agent = vec![0; n_agents as usize];
    for op in outcome.trace.ops().iter().filter(|op| op.is_read()) {
        if let Some(n) = reads_per_agent.get_mut(op.agent.0 as usize) {
            *n += 1;
        }
    }

    let agent_regions = agents.iter().map(|id| world.region_of(*id)).collect();
    let (actions, skipped_actions) = fault_driver
        .and_then(|d| world.node_as::<FaultDriver>(d))
        .map(|d| (d.log().to_vec(), d.skipped()))
        .unwrap_or_default();
    let fault_ledger = FaultLedger {
        net: world.fault_stats(),
        actions,
        skipped_actions,
        agent_rpc: agents
            .iter()
            .map(|id| world.node_as::<AgentNode>(*id).map(|a| a.rpc_stats()).unwrap_or_default())
            .collect(),
    };
    let whitebox = config
        .whitebox
        .then(|| crate::whitebox::WhiteboxReport::from_samples(samples, cluster.replicas.len()));
    TestResult {
        agent_regions,
        whitebox,
        reads_per_agent,
        writes_total: outcome.trace.write_count() as u32,
        duration_secs: outcome.duration_nanos as f64 / 1e9,
        completed: outcome.completed,
        partitioned: fault_plan
            .events()
            .iter()
            .any(|e| matches!(e, FaultEvent::LinkFlap { scope: LinkScope::Nodes(..), .. })),
        clock_error_nanos: clock_error,
        clock_uncertainty_nanos: clock_uncertainty,
        trace: outcome.trace,
        analysis,
        fault_ledger,
        agent_health: outcome.agent_health,
        salvaged: outcome.salvaged,
        seed,
        sim_events,
        service: config.service,
        agent_entries,
    }
}

/// Steps the world until the coordinator publishes its outcome. With a
/// `whitebox` cluster, reads every running replica at each instant k·PERIOD
/// once the events due by then have run: between steps, moving nothing.
fn drive(
    world: &mut World<Msg>,
    coord: NodeId,
    whitebox: Option<&ServiceCluster>,
) -> Vec<ReplicaSample> {
    let mut samples = Vec::new();
    let mut instant = SimTime::ZERO;
    // Generous budget: a long Test 2 is ~200k events.
    for _ in 0..50_000_000u64 {
        let done =
            world.node_as::<CoordinatorNode>(coord).map(|c| c.outcome().is_some()).unwrap_or(false);
        if done {
            return samples;
        }
        let next = world.next_event_at().expect("world drained before the coordinator finished");
        if let Some(cluster) = whitebox {
            while instant < next {
                for replica in 0..cluster.replicas.len() {
                    let Some(seq) = replica_state(world, cluster, replica) else { continue };
                    samples.push(ReplicaSample { replica, at_nanos: instant.as_nanos(), seq });
                }
                instant += crate::whitebox::PERIOD;
            }
        }
        world.step();
    }
    panic!("event budget exhausted before the coordinator finished");
}

#[cfg(test)]
mod tests {
    use super::*;
    use conprobe_core::AnomalyKind;

    #[test]
    fn blogger_test1_completes_cleanly() {
        let config = TestConfig::paper(ServiceKind::Blogger, TestKind::Test1);
        let r = run_one_test(&config, 1);
        assert!(r.completed, "Blogger Test 1 must complete");
        assert_eq!(r.writes_total, 6, "M1..M6");
        assert!(
            r.analysis.is_clean(),
            "Blogger shows no anomalies: {:?}",
            r.analysis.observations.first()
        );
        assert!(r.reads_per_agent.iter().all(|n| *n >= 2));
    }

    #[test]
    fn blogger_test2_completes_with_quota() {
        let config = TestConfig::paper(ServiceKind::Blogger, TestKind::Test2);
        let r = run_one_test(&config, 2);
        assert!(r.completed);
        assert_eq!(r.writes_total, 3, "one write per agent");
        for n in &r.reads_per_agent {
            assert_eq!(*n, config.cadence.reads_target, "each agent reads its quota");
        }
    }

    #[test]
    fn results_are_deterministic() {
        let config = TestConfig::paper(ServiceKind::FacebookGroup, TestKind::Test1);
        let a = run_one_test(&config, 7);
        let b = run_one_test(&config, 7);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.duration_secs, b.duration_secs);
    }

    #[test]
    fn fbgroup_test1_shows_monotonic_writes_reversal() {
        let config = TestConfig::paper(ServiceKind::FacebookGroup, TestKind::Test1);
        // MW appears in most but not all tests; check across a few seeds.
        let hits =
            (0..5).filter(|s| run_one_test(&config, *s).has(AnomalyKind::MonotonicWrites)).count();
        assert!(hits >= 3, "FB Group same-second reversal should dominate, got {hits}/5");
    }

    #[test]
    fn fbgroup_partition_causes_content_divergence_and_timeout() {
        let config =
            TestConfig::paper(ServiceKind::FacebookGroup, TestKind::Test2).with_tokyo_partition();
        let r = run_one_test(&config, 3);
        assert!(r.partitioned);
        assert!(r.has(AnomalyKind::ContentDivergence), "a partitioned Tokyo replica must diverge");
    }

    #[test]
    fn clock_error_is_within_claimed_uncertainty_scale() {
        let config = TestConfig::paper(ServiceKind::Blogger, TestKind::Test2);
        let r = run_one_test(&config, 4);
        for (err, unc) in r.clock_error_nanos.iter().zip(&r.clock_uncertainty_nanos) {
            // Error ≤ uncertainty + drift slack (clocks drift between sync
            // and measurement; allow 3× for the ±50 ppm default).
            assert!(*err <= unc * 3 + 20_000_000, "clock error {err} vs uncertainty {unc}");
        }
    }

    #[test]
    fn guarded_agents_mask_session_anomalies() {
        let mut config = TestConfig::paper(ServiceKind::FacebookGroup, TestKind::Test1);
        config.use_guard = true;
        let r = run_one_test(&config, 5);
        assert!(!r.has(AnomalyKind::MonotonicWrites), "guard restores write order");
        assert!(!r.has(AnomalyKind::MonotonicReads));
        assert!(!r.has(AnomalyKind::ReadYourWrites));
    }
}
