//! Monotonic Writes checker.
//!
//! §III: *"if W is a sequence of write operations made by client c up to a
//! given instant, and S is a sequence of write operations returned in a read
//! operation by **any** client, a Monotonic Writes anomaly happens when
//! `∃x, y ∈ W : W(x) ≺ W(y) ∧ y ∈ S ∧ (x ∉ S ∨ S(y) ≺ S(x))`."*
//!
//! That is: some later write `y` of a client is visible while an earlier
//! write `x` of the same client is either missing or ordered after `y`.
//!
//! One observation per (read, writing agent) with at least one violating
//! pair; the witnesses are `[x, y]` for the first violating pair in issue
//! order.

#[cfg(test)]
mod tests {
    use super::super::{observations_of, WfrMode};
    use crate::anomaly::{AnomalyKind, Observation};
    use crate::trace::{AgentId, TestTrace, TestTraceBuilder, Timestamp};

    fn check(trace: &TestTrace<u32>) -> Vec<Observation<u32>> {
        observations_of(trace, AnomalyKind::MonotonicWrites, WfrMode::General)
    }

    fn t(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }
    const A0: AgentId = AgentId(0);
    const A1: AgentId = AgentId(1);

    fn two_writes() -> TestTraceBuilder<u32> {
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(10), 1u32);
        b.write(A0, t(20), t(30), 2u32);
        b
    }

    #[test]
    fn in_order_visibility_is_clean() {
        let mut b = two_writes();
        b.read(A0, t(40), t(50), vec![1, 2]);
        b.read(A1, t(40), t(50), vec![1, 2]);
        assert!(check(&b.build()).is_empty());
    }

    #[test]
    fn later_write_without_earlier_is_flagged() {
        // Paper: "observes only the effects of M2".
        let mut b = two_writes();
        b.read(A0, t(40), t(50), vec![2]);
        let obs = check(&b.build());
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].kind, AnomalyKind::MonotonicWrites);
        assert_eq!(obs[0].witnesses, vec![1, 2]);
    }

    #[test]
    fn reversed_order_is_flagged() {
        // Paper: "observes the effect of both writes in a different order".
        let mut b = two_writes();
        b.read(A1, t(40), t(50), vec![2, 1]);
        let obs = check(&b.build());
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].agent, A1);
        assert_eq!(obs[0].other_agent, Some(A0));
    }

    #[test]
    fn earlier_without_later_is_fine() {
        // Seeing only the first write is normal propagation lag, not MW.
        let mut b = two_writes();
        b.read(A1, t(40), t(50), vec![1]);
        assert!(check(&b.build()).is_empty());
    }

    #[test]
    fn any_reader_can_observe_the_violation() {
        let mut b = two_writes();
        b.read(A1, t(40), t(50), vec![2]);
        let obs = check(&b.build());
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].agent, A1, "observer is the reader");
    }

    #[test]
    fn incomplete_writes_are_exempt() {
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(10), 1u32);
        b.write(A0, t(20), t(100), 2u32); // completes after the read begins
        b.read(A1, t(40), t(50), vec![2]); // y visible early — but y not yet "in W"
        assert!(check(&b.build()).is_empty());
    }

    #[test]
    fn one_observation_per_read_per_writer() {
        let mut b = TestTraceBuilder::new();
        for s in 1..=4u32 {
            b.write(A0, t(s as i64 * 10), t(s as i64 * 10 + 5), s);
        }
        // Misses 1 and 2, sees 3,4: several violating pairs, one observation.
        b.read(A1, t(100), t(110), vec![3, 4]);
        let obs = check(&b.build());
        assert_eq!(obs.len(), 1);
    }

    #[test]
    fn violations_by_two_writers_count_separately() {
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(5), 1u32);
        b.write(A0, t(6), t(10), 2u32);
        b.write(A1, t(0), t(5), 11u32);
        b.write(A1, t(6), t(10), 12u32);
        b.read(A0, t(20), t(30), vec![2, 12]); // misses both writers' first writes
        let obs = check(&b.build());
        assert_eq!(obs.len(), 2);
    }

    #[test]
    fn same_second_reversal_scenario_from_fb_group() {
        // The FB Group phenomenon: M1, M2 written 300 ms apart appear
        // reversed to everyone, consistently.
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(1000), t(1050), 1u32);
        b.write(A0, t(1300), t(1350), 2u32);
        for reader in [A0, A1] {
            b.read(reader, t(2000), t(2100), vec![2, 1]);
        }
        let obs = check(&b.build());
        assert_eq!(obs.len(), 2);
        assert!(obs.iter().all(|o| o.witnesses == vec![1, 2]));
    }
}
