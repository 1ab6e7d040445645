//! Monotonic Reads checker.
//!
//! §III: *"a Monotonic Reads anomaly happens when a client c issues two read
//! operations that return sequences S₁ and S₂ (in that order) and
//! `∃x ∈ S₁ : x ∉ S₂`."*
//!
//! The checker examines consecutive read pairs per agent. Any violation of
//! the general (any-pair) definition is also a violation on some adjacent
//! pair: if `x ∈ Sᵢ` and `x ∉ Sⱼ` for `i < j`, then along the way there is
//! an adjacent pair where `x` disappears. Counting adjacent pairs therefore
//! detects the same anomalies while matching the paper's per-test
//! observation counts (a message that disappears once is one observation,
//! not one per later read).
//!
//! "(in that order)" is the order results were *returned*: a client reacts
//! to responses, and retransmitted reads can overlap later ones, so
//! response order — not invocation order — defines the successive views.
//! One observation per consecutive read pair in which an observed event
//! disappeared; the vanished events are the witnesses.

#[cfg(test)]
mod tests {
    use super::super::{observations_of, WfrMode};
    use crate::anomaly::{AnomalyKind, Observation};
    use crate::trace::{AgentId, TestTrace, TestTraceBuilder, Timestamp};

    fn check(trace: &TestTrace<u32>) -> Vec<Observation<u32>> {
        observations_of(trace, AnomalyKind::MonotonicReads, WfrMode::General)
    }

    fn t(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }
    const A0: AgentId = AgentId(0);
    const A1: AgentId = AgentId(1);

    #[test]
    fn growing_reads_are_clean() {
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(10), vec![1u32]);
        b.read(A0, t(20), t(30), vec![1, 2]);
        b.read(A0, t(40), t(50), vec![1, 2, 3]);
        assert!(check(&b.build()).is_empty());
    }

    #[test]
    fn disappearing_event_is_flagged() {
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(10), vec![1u32, 2]);
        b.read(A0, t(20), t(30), vec![2]);
        let obs = check(&b.build());
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].kind, AnomalyKind::MonotonicReads);
        assert_eq!(obs[0].witnesses, vec![1]);
        assert_eq!(obs[0].at, t(30));
    }

    #[test]
    fn reorder_without_disappearance_is_not_mr() {
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(10), vec![1u32, 2]);
        b.read(A0, t(20), t(30), vec![2, 1]);
        assert!(check(&b.build()).is_empty());
    }

    #[test]
    fn cross_agent_reads_are_independent() {
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(10), vec![1u32]);
        b.read(A1, t(20), t(30), vec![]); // different agent: not MR
        assert!(check(&b.build()).is_empty());
    }

    #[test]
    fn flapping_event_counts_each_disappearance() {
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(10), vec![1u32]);
        b.read(A0, t(20), t(30), vec![]); // gone
        b.read(A0, t(40), t(50), vec![1]); // back
        b.read(A0, t(60), t(70), vec![]); // gone again
        let obs = check(&b.build());
        assert_eq!(obs.len(), 2);
    }

    #[test]
    fn single_read_never_flags() {
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(10), vec![1u32, 2, 3]);
        assert!(check(&b.build()).is_empty());
    }

    #[test]
    fn overlapping_reads_are_ordered_by_response() {
        // A retransmitted read can be invoked early but answered late; the
        // successive views are defined by response order, so a later-
        // answered richer read before an earlier-answered poorer one is
        // NOT an anomaly.
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(3_000), vec![1u32, 2]); // slow (retried) read
        b.read(A0, t(300), t(400), vec![1]); // answered first
        assert!(check(&b.build()).is_empty());
        // Whereas a genuine disappearance in response order still flags.
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(300), t(400), vec![1u32, 2]);
        b.read(A0, t(0), t(3_000), vec![1]); // responded later, lost 2
        assert_eq!(check(&b.build()).len(), 1);
    }

    #[test]
    fn paper_example_message_m_disappears() {
        // "any agent observes the effect of a message M and in a subsequent
        // read by the same agent the effects of M are no longer observed."
        let m = 42u32;
        let mut b = TestTraceBuilder::new();
        b.write(A1, t(0), t(10), m);
        b.read(A0, t(20), t(30), vec![m]);
        b.read(A0, t(40), t(50), vec![]);
        let obs = check(&b.build());
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].witnesses, vec![m]);
    }
}
