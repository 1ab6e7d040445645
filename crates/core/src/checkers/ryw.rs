//! Read Your Writes checker.
//!
//! §III: *"say W is the set of write operations made by a client c at a
//! given instant, and S a sequence (of effects) of write operations returned
//! in a subsequent read operation of c, a Read Your Writes anomaly happens
//! when `∃x ∈ W : x ∉ S`."*
//!
//! "At a given instant" is interpreted as: writes whose response arrived
//! before the read was invoked. A write still in flight when the read
//! started is not required to be visible.
//!
//! One observation per read that misses at least one of the reader's own
//! completed writes; the missing writes are the witnesses.

#[cfg(test)]
mod tests {
    use super::super::{observations_of, WfrMode};
    use crate::anomaly::{AnomalyKind, Observation};
    use crate::trace::{AgentId, TestTrace, TestTraceBuilder, Timestamp};

    fn check(trace: &TestTrace<u32>) -> Vec<Observation<u32>> {
        observations_of(trace, AnomalyKind::ReadYourWrites, WfrMode::General)
    }

    fn t(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }
    const A0: AgentId = AgentId(0);
    const A1: AgentId = AgentId(1);

    #[test]
    fn clean_trace_has_no_anomaly() {
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(10), 1u32);
        b.read(A0, t(20), t(30), vec![1]);
        assert!(check(&b.build()).is_empty());
    }

    #[test]
    fn missing_own_write_is_flagged() {
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(10), 1u32);
        b.read(A0, t(20), t(30), vec![]);
        let obs = check(&b.build());
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].kind, AnomalyKind::ReadYourWrites);
        assert_eq!(obs[0].agent, A0);
        assert_eq!(obs[0].witnesses, vec![1]);
        assert_eq!(obs[0].at, t(30));
    }

    #[test]
    fn in_flight_write_is_exempt() {
        // Write completes at t=50 but the read was invoked at t=20.
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(50), 1u32);
        b.read(A0, t(20), t(30), vec![]);
        assert!(check(&b.build()).is_empty());
    }

    #[test]
    fn other_agents_writes_do_not_matter() {
        let mut b = TestTraceBuilder::new();
        b.write(A1, t(0), t(10), 9u32);
        b.read(A0, t(20), t(30), vec![]);
        assert!(check(&b.build()).is_empty());
    }

    #[test]
    fn each_violating_read_counts_once() {
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(10), 1u32);
        b.write(A0, t(11), t(20), 2u32);
        b.read(A0, t(30), t(40), vec![]); // misses both
        b.read(A0, t(50), t(60), vec![1]); // misses one
        b.read(A0, t(70), t(80), vec![1, 2]); // clean
        let obs = check(&b.build());
        assert_eq!(obs.len(), 2);
        assert_eq!(obs[0].witnesses.len(), 2);
        assert_eq!(obs[1].witnesses, vec![2]);
    }

    #[test]
    fn paper_test1_example() {
        // "Agent 1 writes M1 (or M2), and in a subsequent read operation M1
        // (or M2) is missing."
        let m1 = 101u32;
        let m2 = 102u32;
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(100), m1);
        b.write(A0, t(110), t(200), m2);
        b.read(A0, t(300), t(400), vec![m2]); // M1 vanished
        let obs = check(&b.build());
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].witnesses, vec![m1]);
    }

    #[test]
    fn order_in_read_is_irrelevant_for_ryw() {
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(10), 1u32);
        b.write(A0, t(11), t(20), 2u32);
        b.read(A0, t(30), t(40), vec![2, 1]); // reversed, but both present
        assert!(check(&b.build()).is_empty());
    }

    #[test]
    fn read_concurrent_with_write_boundary() {
        // Response exactly equals read invocation: counted as completed.
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(20), 1u32);
        b.read(A0, t(20), t(30), vec![]);
        assert_eq!(check(&b.build()).len(), 1);
    }
}
