//! Order Divergence checker.
//!
//! §III: *"an order divergence anomaly happens when two reads issued by two
//! clients c₁ and c₂ return sequences S₁ and S₂ containing a pair of events
//! occurring in a different order at the two sequences:
//! `∃x, y ∈ S₁, S₂ : S₁(x) ≺ S₁(y) ∧ S₂(y) ≺ S₂(x)`."*
//!
//! Only events present in both sequences participate: the common
//! subsequence of `S₁` is order-divergent iff its positions in `S₂` are not
//! increasing, and any descent yields an adjacent witness pair. At most one
//! observation per unordered agent pair, witnessed from the earliest
//! diverging read pair; its `read_pairs` counts all diverging read pairs.

#[cfg(test)]
mod tests {
    use super::super::{observations_of, WfrMode};
    use crate::anomaly::{AnomalyKind, Observation};
    use crate::trace::{AgentId, TestTrace, TestTraceBuilder, Timestamp};

    fn check(trace: &TestTrace<u32>) -> Vec<Observation<u32>> {
        observations_of(trace, AnomalyKind::OrderDivergence, WfrMode::General)
    }

    fn t(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }
    const A0: AgentId = AgentId(0);
    const A1: AgentId = AgentId(1);

    /// The witness pair reported when agent 0 reads `s1` and agent 1 reads
    /// `s2`, if the two orders diverge.
    pub(super) fn inversion(s1: &[u32], s2: &[u32]) -> Option<(u32, u32)> {
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(10), s1.to_vec());
        b.read(A1, t(0), t(10), s2.to_vec());
        check(&b.build()).first().map(|o| (o.witnesses[0], o.witnesses[1]))
    }

    #[test]
    fn inversion_basic() {
        assert_eq!(inversion(&[1, 2], &[2, 1]), Some((1, 2)));
        assert_eq!(inversion(&[1, 2], &[1, 2]), None);
        assert_eq!(inversion(&[], &[]), None);
    }

    #[test]
    fn inversion_ignores_uncommon_events() {
        // 9 and 7 are not shared; the common subsequence (1,2) agrees.
        assert_eq!(inversion(&[9, 1, 2], &[1, 7, 2]), None);
        // Common subsequence (1,2) vs (2,1) disagrees despite noise.
        assert_eq!(inversion(&[9, 1, 2], &[2, 7, 1]), Some((1, 2)));
    }

    #[test]
    fn inversion_non_adjacent() {
        // Inversion between non-adjacent elements (1 before 3 vs 3 before 1)
        // is still caught via the adjacent pair of the common subsequence.
        assert!(inversion(&[1, 2, 3], &[3, 2, 1]).is_some());
        assert!(inversion(&[1, 2, 3], &[2, 3, 1]).is_some());
    }

    #[test]
    fn paper_example_m1_m2_reversed() {
        // "an Agent sees the sequence (M2,M1) and another Agent sees the
        // sequence (M1,M2)."
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(10), vec![2u32, 1]);
        b.read(A1, t(0), t(10), vec![1, 2]);
        let obs = check(&b.build());
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].kind, AnomalyKind::OrderDivergence);
        assert_eq!((obs[0].agent, obs[0].other_agent), (A0, Some(A1)));
    }

    #[test]
    fn same_order_is_clean() {
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(10), vec![1u32, 2, 3]);
        b.read(A1, t(0), t(10), vec![1, 2, 3]);
        assert!(check(&b.build()).is_empty());
    }

    #[test]
    fn subset_reads_without_inversion_are_clean() {
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(10), vec![1u32, 3]);
        b.read(A1, t(0), t(10), vec![1, 2, 3]);
        assert!(check(&b.build()).is_empty());
    }

    #[test]
    fn divergence_within_one_agent_is_not_order_divergence() {
        // One agent flip-flopping alone is a monotonic-writes/reads issue,
        // not order divergence between clients.
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(10), vec![1u32, 2]);
        b.read(A0, t(20), t(30), vec![2, 1]);
        assert!(check(&b.build()).is_empty());
    }

    #[test]
    fn counts_all_diverging_read_pairs() {
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(10), vec![1u32, 2]);
        b.read(A0, t(20), t(30), vec![1, 2]);
        b.read(A1, t(0), t(10), vec![2, 1]);
        let obs = check(&b.build());
        assert_eq!(obs.len(), 1);
        assert!(obs[0].detail().contains("2 read pair(s)"), "{}", obs[0].detail());
    }

    #[test]
    fn single_common_event_cannot_invert() {
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(10), vec![1u32, 2]);
        b.read(A1, t(0), t(10), vec![2, 3]);
        assert!(check(&b.build()).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::inversion;
    use conprobe_json::testkit::TestRng;

    /// A random sequence of distinct small ids.
    fn gen_seq(rng: &mut TestRng) -> Vec<u32> {
        let len = rng.range_usize(0, 10);
        let mut seen = std::collections::HashSet::new();
        (0..len).map(|_| rng.range(0, 12) as u32).filter(|x| seen.insert(*x)).collect()
    }

    /// Order divergence is symmetric in *existence*: an inversion between
    /// s1 and s2 exists iff one exists between s2 and s1.
    #[test]
    fn inversion_existence_is_symmetric() {
        let mut rng = TestRng::new(0x08DE81);
        for case in 0..500 {
            let s1 = gen_seq(&mut rng);
            let s2 = gen_seq(&mut rng);
            assert_eq!(
                inversion(&s1, &s2).is_some(),
                inversion(&s2, &s1).is_some(),
                "case {case}: {s1:?} vs {s2:?}"
            );
        }
    }

    /// A sequence never diverges from itself or its own subsequences.
    #[test]
    fn no_self_inversion() {
        let mut rng = TestRng::new(0x08DE82);
        for case in 0..500 {
            let s = gen_seq(&mut rng);
            assert_eq!(inversion(&s, &s), None, "case {case}");
            let sub: Vec<u32> = s.iter().filter(|_| rng.chance(0.5)).copied().collect();
            assert_eq!(inversion(&s, &sub), None, "case {case}: {s:?} vs {sub:?}");
        }
    }

    /// Any witness returned truly satisfies the §III predicate.
    #[test]
    fn witnesses_are_sound() {
        let mut rng = TestRng::new(0x08DE83);
        for case in 0..500 {
            let s1 = gen_seq(&mut rng);
            let s2 = gen_seq(&mut rng);
            if let Some((x, y)) = inversion(&s1, &s2) {
                let p = |s: &[u32], v: u32| s.iter().position(|e| *e == v).unwrap();
                assert!(p(&s1, x) < p(&s1, y), "case {case}");
                assert!(p(&s2, y) < p(&s2, x), "case {case}");
            }
        }
    }
}
