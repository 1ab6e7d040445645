//! End-to-end clock synchronization over the simulated WAN: the
//! coordinator's estimates must recover known clock offsets within the
//! paper's half-RTT uncertainty bound.

use conprobe_harness::agent::AgentNode;
use conprobe_harness::coordinator::{CoordinatorConfig, CoordinatorNode};
use conprobe_harness::proto::{Msg, TestKind};
use conprobe_harness::script::Cadence;
use conprobe_sim::net::Region;
use conprobe_sim::{LocalClock, SimDuration, SimTime, World, WorldConfig};

/// Builds a world with a coordinator and three agents with explicit clock
/// offsets (no drift), runs until deltas are computed, and returns the
/// estimates.
fn sync_world(offsets_ms: [i64; 3]) -> Vec<i64> {
    let mut world: World<Msg> = World::new(WorldConfig::default(), 9);
    // A dummy "service" node so agents have an entry in their plan (the
    // test never reaches the running phase deeply; Blogger-style default).
    let service = world.add_node_with_clock(
        Region::Virginia,
        LocalClock::perfect(),
        Box::new(conprobe_services::ReplicaNode::new(Default::default())),
    );
    let mut agents = Vec::new();
    for (i, region) in Region::AGENTS.into_iter().enumerate() {
        let clock = LocalClock::new(offsets_ms[i] * 1_000_000, 0.0);
        let id =
            world.add_node_with_clock(region, clock, Box::new(AgentNode::new(i as u32, false)));
        agents.push(id);
    }
    let coord = world.add_node_with_clock(
        Region::Virginia,
        LocalClock::perfect(),
        Box::new(CoordinatorNode::new(CoordinatorConfig {
            agents: agents.clone(),
            entries: vec![service; 3],
            cadence: Cadence {
                kind: TestKind::Test2,
                read_period: SimDuration::from_millis(300),
                fast_reads: 2,
                slow_period: SimDuration::from_secs(1),
                reads_target: 2,
            },
            probes_per_agent: 5,
            probe_spacing: SimDuration::from_millis(50),
            start_margin: SimDuration::from_secs(1),
            max_duration: SimDuration::from_secs(30),
        })),
    );
    // Run until probing completes (deltas become available).
    world.run_while(|w| {
        w.node_as::<CoordinatorNode>(coord).map(|c| c.deltas().is_empty()).unwrap_or(true)
            && w.now() < SimTime::from_secs(20)
    });
    let c = world.node_as::<CoordinatorNode>(coord).unwrap();
    assert_eq!(c.deltas().len(), 3, "probing must finish");
    // Check the claimed uncertainty while we're here.
    for (i, d) in c.deltas().iter().enumerate() {
        let rtt_bound_ms = [136i64, 218, 172][i]; // paper RTTs coordinator↔agent
        assert!(
            d.uncertainty_nanos <= rtt_bound_ms * 1_000_000,
            "claimed uncertainty exceeds the full RTT"
        );
    }
    c.deltas().iter().map(|d| d.delta_nanos).collect()
}

#[test]
fn recovers_positive_and_negative_offsets() {
    let offsets = [1500i64, -2000, 0];
    let deltas = sync_world(offsets);
    for (i, (est, true_ms)) in deltas.iter().zip(offsets).enumerate() {
        let err_ms = (est - true_ms * 1_000_000).abs() / 1_000_000;
        // Paper bound: half the RTT (68/109/86 ms); jitter keeps actual
        // error far below.
        let bound = [68i64, 109, 86][i];
        assert!(
            err_ms <= bound,
            "agent {i}: estimate error {err_ms}ms exceeds half-RTT bound {bound}ms"
        );
    }
}

#[test]
fn estimates_are_deterministic_per_seed() {
    let a = sync_world([300, 700, -100]);
    let b = sync_world([300, 700, -100]);
    assert_eq!(a, b);
}

#[test]
fn zero_offsets_give_near_zero_deltas() {
    let deltas = sync_world([0, 0, 0]);
    for d in deltas {
        assert!(d.abs() < 30_000_000, "near-zero offset should estimate ~0, got {d}ns");
    }
}
