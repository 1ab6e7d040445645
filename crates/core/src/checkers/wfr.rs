//! Writes Follows Reads checker.
//!
//! §III: *"if S₁ is a sequence returned by a read invoked by client c, w a
//! write performed by c after observing S₁, and S₂ is a sequence returned by
//! a read issued by **any** client in the system; a Writes Follows Reads
//! anomaly happens when `w ∈ S₂ ∧ ∃x ∈ S₁ : x ∉ S₂`."*
//!
//! Two modes are provided:
//!
//! * [`WfrMode::General`] — the full definition: each write depends on
//!   everything its author had read before issuing it.
//! * [`WfrMode::TriggerPairs`] — the paper's Test 1 instantiation: *"We only
//!   consider these particular pairs of messages because, in the design of
//!   our test, M3 and M5 are the only write operations that require the
//!   observation of M2 and M4, respectively, as a trigger."* Each pair
//!   `(dep, w)` flags reads that contain `w` but not `dep`.
//!
//! One observation per read that shows a write without one of its
//! dependencies. Its witnesses are `[missing dependency, write]` for each
//! violated dependency, in dependency order: agent ascending, then write
//! issue order, then observation order within the write — or trigger-pair
//! order.

/// Which dependency relation the checker uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WfrMode<K> {
    /// Full §III definition: a write depends on every event its author had
    /// observed (in any completed read) before issuing the write.
    General,
    /// Only the designated `(dependency, write)` pairs are checked — Test 1
    /// uses `[(M2, M3), (M4, M5)]`.
    TriggerPairs(Vec<(K, K)>),
}

#[cfg(test)]
mod tests {
    use super::super::observations_of;
    use super::*;
    use crate::anomaly::{AnomalyKind, Observation};
    use crate::trace::{AgentId, TestTrace, TestTraceBuilder, Timestamp};

    fn check(trace: &TestTrace<u32>, mode: &WfrMode<u32>) -> Vec<Observation<u32>> {
        observations_of(trace, AnomalyKind::WritesFollowReads, mode.clone())
    }

    fn t(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }
    const A0: AgentId = AgentId(0);
    const A1: AgentId = AgentId(1);
    const A2: AgentId = AgentId(2);

    /// Agent 0 writes M2; agent 1 reads it then writes M3 (the reply).
    fn reply_scenario() -> TestTraceBuilder<u32> {
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(10), 2u32); // M2
        b.read(A1, t(20), t(30), vec![2]); // A1 observes M2
        b.write(A1, t(40), t(50), 3u32); // M3 causally follows M2
        b
    }

    #[test]
    fn trigger_pairs_flags_reply_without_question() {
        let mut b = reply_scenario();
        b.read(A2, t(60), t(70), vec![3]); // sees the reply, not the question
        let obs = check(&b.build(), &WfrMode::TriggerPairs(vec![(2, 3)]));
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].kind, AnomalyKind::WritesFollowReads);
        assert_eq!(obs[0].agent, A2);
        assert_eq!(obs[0].witnesses, vec![2, 3]);
    }

    #[test]
    fn trigger_pairs_clean_when_both_visible() {
        let mut b = reply_scenario();
        b.read(A2, t(60), t(70), vec![2, 3]);
        assert!(check(&b.build(), &WfrMode::TriggerPairs(vec![(2, 3)])).is_empty());
    }

    #[test]
    fn seeing_neither_or_only_dependency_is_clean() {
        let mut b = reply_scenario();
        b.read(A2, t(60), t(70), vec![2]);
        b.read(A2, t(80), t(90), vec![]);
        assert!(check(&b.build(), &WfrMode::TriggerPairs(vec![(2, 3)])).is_empty());
    }

    #[test]
    fn general_mode_derives_dependencies_from_reads() {
        let mut b = reply_scenario();
        b.read(A2, t(60), t(70), vec![3]);
        let obs = check(&b.build(), &WfrMode::General);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].witnesses, vec![2, 3]);
    }

    #[test]
    fn general_mode_ignores_reads_after_the_write() {
        // A1 writes M3 *before* reading M2: no dependency.
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(10), 2u32);
        b.write(A1, t(15), t(25), 3u32);
        b.read(A1, t(30), t(40), vec![2, 3]);
        b.read(A2, t(60), t(70), vec![3]);
        assert!(check(&b.build(), &WfrMode::General).is_empty());
    }

    #[test]
    fn general_mode_in_flight_read_is_not_a_dependency() {
        // The read completes after the write is invoked: not observed first.
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(10), 2u32);
        b.read(A1, t(20), t(100), vec![2]);
        b.write(A1, t(50), t(60), 3u32);
        b.read(A2, t(120), t(130), vec![3]);
        assert!(check(&b.build(), &WfrMode::General).is_empty());
    }

    #[test]
    fn paper_test1_pairs_m2_m3_and_m4_m5() {
        // Test 1 with the paper's message naming: M3 requires M2,
        // M5 requires M4.
        let pairs = WfrMode::TriggerPairs(vec![(2u32, 3u32), (4, 5)]);
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(5), 1u32);
        b.write(A0, t(6), t(11), 2);
        b.read(A1, t(20), t(25), vec![1, 2]);
        b.write(A1, t(30), t(35), 3);
        b.write(A1, t(36), t(41), 4);
        b.read(A2, t(50), t(55), vec![1, 2, 3, 4]);
        b.write(A2, t(60), t(65), 5);
        b.write(A2, t(66), t(71), 6);
        // Violations: M5 visible without M4.
        b.read(A0, t(80), t(90), vec![1, 2, 3, 5, 6]);
        let obs = check(&b.build(), &pairs);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].witnesses, vec![4, 5]);
    }

    #[test]
    fn multiple_pairs_in_one_read_yield_one_observation() {
        let pairs = WfrMode::TriggerPairs(vec![(2u32, 3u32), (4, 5)]);
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(5), 2u32);
        b.write(A0, t(6), t(10), 3);
        b.write(A1, t(0), t(5), 4);
        b.write(A1, t(6), t(10), 5);
        b.read(A2, t(20), t(30), vec![3, 5]); // both pairs violated
        let obs = check(&b.build(), &pairs);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].witnesses, vec![2, 3, 4, 5]);
    }
}
