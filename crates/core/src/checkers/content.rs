//! Content Divergence checker.
//!
//! §III: *"a content divergence anomaly happens when two reads issued by
//! clients c₁ and c₂ return, respectively, sequences S₁ and S₂, and
//! `∃x ∈ S₁, y ∈ S₂ : x ∉ S₂ ∧ y ∉ S₁`."*
//!
//! Note the *mutual* difference: each client sees something the other does
//! not. Simple staleness (one client strictly behind the other) is **not**
//! content divergence.
//!
//! The reads need not be simultaneous — the paper's window computation (see
//! [`crate::window`]) handles the temporal aspect; this checker establishes
//! presence per agent pair.
//!
//! At most one observation per unordered agent pair: the witness pair
//! `[x, y]` (`x` seen only by the first agent, `y` only by the second)
//! comes from the earliest diverging read pair, and its `read_pairs`
//! counts all diverging read pairs.

#[cfg(test)]
mod tests {
    use super::super::{observations_of, WfrMode};
    use crate::anomaly::{AnomalyKind, Observation};
    use crate::trace::{AgentId, TestTrace, TestTraceBuilder, Timestamp};

    fn check(trace: &TestTrace<u32>) -> Vec<Observation<u32>> {
        observations_of(trace, AnomalyKind::ContentDivergence, WfrMode::General)
    }

    fn t(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }
    const A0: AgentId = AgentId(0);
    const A1: AgentId = AgentId(1);
    const A2: AgentId = AgentId(2);

    #[test]
    fn mutual_difference_is_flagged() {
        // Paper: "an Agent observes a sequence containing only M1 and
        // another Agent sees only M2."
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(10), vec![1u32]);
        b.read(A1, t(0), t(10), vec![2]);
        let obs = check(&b.build());
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].kind, AnomalyKind::ContentDivergence);
        assert_eq!((obs[0].agent, obs[0].other_agent), (A0, Some(A1)));
        assert_eq!(obs[0].witnesses, vec![1, 2]);
    }

    #[test]
    fn strict_staleness_is_not_divergence() {
        // A1 is simply behind A0: no mutual difference.
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(10), vec![1u32, 2]);
        b.read(A1, t(0), t(10), vec![1]);
        assert!(check(&b.build()).is_empty());
    }

    #[test]
    fn identical_views_are_clean() {
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(10), vec![1u32, 2]);
        b.read(A1, t(0), t(10), vec![1, 2]);
        assert!(check(&b.build()).is_empty());
    }

    #[test]
    fn non_simultaneous_reads_still_diverge() {
        // The paper's zero-window example: divergence exists between
        // non-overlapping reads even though the window is zero.
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(10), vec![1u32]);
        b.read(A0, t(20), t(30), vec![1, 2]);
        b.read(A1, t(40), t(50), vec![2]);
        b.read(A1, t(60), t(70), vec![1, 2]);
        let obs = check(&b.build());
        assert_eq!(obs.len(), 1, "content divergence detected despite zero window");
    }

    #[test]
    fn one_observation_per_pair() {
        let mut b = TestTraceBuilder::new();
        for i in 0..3 {
            b.read(A0, t(i * 20), t(i * 20 + 10), vec![1u32]);
            b.read(A1, t(i * 20), t(i * 20 + 10), vec![2u32]);
        }
        let obs = check(&b.build());
        assert_eq!(obs.len(), 1);
        assert!(obs[0].detail().contains("9 read pair(s)"), "{}", obs[0].detail());
    }

    #[test]
    fn all_three_pairs_reported() {
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(10), vec![1u32]);
        b.read(A1, t(0), t(10), vec![2]);
        b.read(A2, t(0), t(10), vec![3]);
        let obs = check(&b.build());
        assert_eq!(obs.len(), 3);
        let pairs: Vec<_> = obs.iter().map(|o| (o.agent, o.other_agent.unwrap())).collect();
        assert_eq!(pairs, vec![(A0, A1), (A0, A2), (A1, A2)]);
    }

    #[test]
    fn same_agent_reads_never_diverge_with_themselves() {
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(10), vec![1u32]);
        b.read(A0, t(20), t(30), vec![2]);
        assert!(check(&b.build()).is_empty());
    }

    #[test]
    fn empty_reads_are_clean() {
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(10), Vec::<u32>::new());
        b.read(A1, t(0), t(10), vec![]);
        assert!(check(&b.build()).is_empty());
    }
}
