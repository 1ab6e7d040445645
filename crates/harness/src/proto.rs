//! Coordinator ↔ agent protocol, carried in the service network's
//! application slot.
//!
//! All harness traffic crosses the same simulated WAN as the measured
//! requests, so clock-sync probes experience real RTTs (which is the whole
//! point of the paper's uncertainty analysis).

use crate::script::Cadence;
use conprobe_core::trace::OpKind;
use conprobe_services::NetMsg;
use conprobe_sim::LocalTime;
use conprobe_sim::NodeId;
use conprobe_store::PostId;

/// The two test designs of §IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TestKind {
    /// Staggered write pairs; detects the session-guarantee anomalies.
    Test1,
    /// Simultaneous writes; measures divergence and its windows.
    Test2,
}

impl std::fmt::Display for TestKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestKind::Test1 => f.write_str("Test 1"),
            TestKind::Test2 => f.write_str("Test 2"),
        }
    }
}

/// One operation as logged by an agent, in the agent's *local* time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalOpRecord {
    /// Local invocation time.
    pub invoke: LocalTime,
    /// Local response time.
    pub response: LocalTime,
    /// The operation and its payload/output.
    pub kind: OpKind<PostId>,
}

/// The per-test marching orders an agent receives from the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentTestPlan {
    /// The test design to run.
    pub cadence: Cadence,
    /// This agent's index (0-based; the paper's Agent⟨i+1⟩).
    pub agent_index: u32,
    /// Total number of agents in the test.
    pub total_agents: u32,
    /// The service front door this agent talks to.
    pub service_entry: NodeId,
    /// Agent-local time at which to start the test (coordinator-computed
    /// via the estimated delta, so that true start times align).
    pub start_at_local: LocalTime,
}

/// Application messages exchanged between coordinator and agents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HarnessMsg {
    /// Coordinator → agent: read your clock.
    TimeProbe {
        /// Correlation id.
        probe_id: u64,
    },
    /// Agent → coordinator: my clock reads `local`.
    TimeReply {
        /// Echoed correlation id.
        probe_id: u64,
        /// The agent's local clock reading at receipt of the probe.
        local: LocalTime,
    },
    /// Coordinator → agent: run this test.
    Start(Box<AgentTestPlan>),
    /// Agent → coordinator: the plan arrived (enables Start retries under
    /// message loss).
    StartAck {
        /// The acknowledging agent's index.
        agent_index: u32,
    },
    /// Agent → coordinator: my completion condition is met (Test 1: I saw
    /// the last agent's last write; Test 2: I performed my read quota).
    CompletionSeen {
        /// The reporting agent's index.
        agent_index: u32,
    },
    /// Agent → coordinator: periodic liveness beacon, sent once per second
    /// from test start until `Stop`. Lets the coordinator distinguish a
    /// slow agent from a dead or unreachable one and degrade gracefully
    /// instead of waiting out the full test timeout.
    Heartbeat {
        /// The beaconing agent's index.
        agent_index: u32,
    },
    /// Coordinator → agent: stop and ship your log.
    Stop,
    /// Agent → coordinator: my full operation log.
    Log {
        /// The reporting agent's index.
        agent_index: u32,
        /// All operations, in local time.
        records: Vec<LocalOpRecord>,
    },
}

/// The complete message type flowing through a measurement world.
pub type Msg = NetMsg<HarnessMsg>;

/// The post id of message `M(2·agent_index + seq)` in the paper's Test 1
/// naming: agent `i` (0-based) writes its messages as seq 1 and 2.
pub fn test1_post(agent_index: u32, seq: u32) -> PostId {
    PostId::new(conprobe_store::AuthorId(agent_index), seq)
}

/// The Writes-Follows-Reads trigger pairs of Test 1: *"M3 and M5 are the
/// only write operations that require the observation of M2 and M4,
/// respectively, as a trigger."*
pub fn test1_trigger_pairs(total_agents: u32) -> Vec<(PostId, PostId)> {
    (1..total_agents).map(|i| (test1_post(i - 1, 2), test1_post(i, 1))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_pairs_match_paper_naming() {
        // With 3 agents: M1..M6 = (a0,1),(a0,2),(a1,1),(a1,2),(a2,1),(a2,2).
        // Pairs: (M2,M3) and (M4,M5).
        let pairs = test1_trigger_pairs(3);
        assert_eq!(
            pairs,
            vec![(test1_post(0, 2), test1_post(1, 1)), (test1_post(1, 2), test1_post(2, 1)),]
        );
    }

    #[test]
    fn trigger_pairs_single_agent_is_empty() {
        assert!(test1_trigger_pairs(1).is_empty());
    }

    #[test]
    fn test_kind_display() {
        assert_eq!(TestKind::Test1.to_string(), "Test 1");
        assert_eq!(TestKind::Test2.to_string(), "Test 2");
    }
}
