//! Divergence windows — the paper's quantitative metrics (§III.3).
//!
//! *"When a set of clients issue a set of write operations, the divergence
//! window is the amount of time during which the condition that defines the
//! anomaly (either content or order divergence) remains valid, as perceived
//! by the various clients."*
//!
//! The condition is evaluated over each client's **most recent read**: a
//! sweep over the merged, clock-corrected read timeline of an agent pair
//! tracks when the pair's latest views diverge and when they re-converge.
//! The paper's zero-window subtlety falls out naturally: if agent 1 reads
//! (M1) then (M1,M2), and only afterwards agent 2 reads (M2) then (M1,M2),
//! the latest views never diverge simultaneously and the computed window is
//! zero even though a content-divergence anomaly exists.
//!
//! A window that is still open when the trace ends means the pair never
//! re-converged during the test; the paper reports those separately ("These
//! results exclude runs where convergence was not reached during the test")
//! — here exposed as [`WindowAnalysis::open_since`].
//!
//! Both agents' reads are merged by response time (ties broken by trace
//! order), and the condition is evaluated on the pair's latest views after
//! every read. [`crate::analysis::analyze`] sweeps every agent pair in the
//! same pass as the presence checkers.

use crate::trace::{AgentId, Timestamp};

/// Which divergence condition a window measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowKind {
    /// Mutual content difference between the latest views.
    Content,
    /// An inverted common pair between the latest views.
    Order,
}

/// The divergence windows of one agent pair in one test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowAnalysis {
    /// The agent pair (first < second).
    pub pair: (AgentId, AgentId),
    /// Content or order.
    pub kind: WindowKind,
    /// Closed windows `(start, end)` in sweep order.
    pub windows: Vec<(Timestamp, Timestamp)>,
    /// If the condition still held at the last read, when it started.
    pub open_since: Option<Timestamp>,
}

impl WindowAnalysis {
    /// Largest closed window, in nanoseconds.
    pub fn largest_nanos(&self) -> Option<i64> {
        self.windows.iter().map(|(s, e)| e.delta_nanos(*s)).max()
    }

    /// Sum of all closed windows, in nanoseconds.
    pub fn total_nanos(&self) -> i64 {
        self.windows.iter().map(|(s, e)| e.delta_nanos(*s)).sum()
    }

    /// Whether the pair had re-converged by the end of the trace.
    pub fn converged(&self) -> bool {
        self.open_since.is_none()
    }

    /// Whether any divergence (closed or open) was observed at all.
    pub fn any_divergence(&self) -> bool {
        !self.windows.is_empty() || self.open_since.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, CheckerConfig};
    use crate::trace::{EventKey, TestTrace, TestTraceBuilder};

    /// The windows of `kind` between `a` and `b` in the full analysis.
    fn windows<K: EventKey>(
        trace: &TestTrace<K>,
        a: AgentId,
        b: AgentId,
        kind: WindowKind,
    ) -> WindowAnalysis {
        let analysis = analyze(trace, &CheckerConfig::default());
        analysis.pair_windows(kind, a, b).expect("both agents read").clone()
    }

    fn t(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }
    const A0: AgentId = AgentId(0);
    const A1: AgentId = AgentId(1);

    #[test]
    fn simple_content_window() {
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(100), vec![1u32]); // A0 sees M1
        b.read(A1, t(0), t(200), vec![2]); // A1 sees M2 → mutual divergence opens
        b.read(A0, t(300), t(400), vec![1, 3]); // still mutual (3 vs 2)
        b.read(A1, t(500), t(600), vec![1, 2, 3]); // A1 superset → closes
        let w = windows(&b.build(), A0, A1, WindowKind::Content);
        assert_eq!(w.windows, vec![(t(200), t(600))]);
        assert!(w.converged());
        assert_eq!(w.largest_nanos(), Some(400_000_000));
    }

    #[test]
    fn paper_zero_window_example() {
        // agent 1 reads (M1) at t1; (M1,M2) at t2; agent 2 reads (M2) at
        // t3; (M1,M2) at t4 — anomaly exists but the window is zero.
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(10), vec![1u32]);
        b.read(A0, t(20), t(30), vec![1, 2]);
        b.read(A1, t(40), t(50), vec![2]);
        b.read(A1, t(60), t(70), vec![1, 2]);
        let w = windows(&b.build(), A0, A1, WindowKind::Content);
        // Latest views: at t=50 A0 has (1,2), A1 has (2): A1 strictly
        // behind, not mutual divergence — no window at all.
        assert!(w.windows.is_empty());
        assert!(w.converged());
        assert!(!w.any_divergence());
    }

    #[test]
    fn unconverged_window_stays_open() {
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(100), vec![1u32]);
        b.read(A1, t(0), t(200), vec![2]);
        let w = windows(&b.build(), A0, A1, WindowKind::Content);
        assert!(w.windows.is_empty());
        assert_eq!(w.open_since, Some(t(200)));
        assert!(!w.converged());
        assert!(w.any_divergence());
    }

    #[test]
    fn multiple_windows_accumulate() {
        let mut b = TestTraceBuilder::new();
        // Diverge, converge, diverge again, converge again.
        b.read(A0, t(0), t(100), vec![1u32]);
        b.read(A1, t(0), t(200), vec![2]); // open @200
        b.read(A1, t(250), t(300), vec![1]); // A1 now behind-equal → close @300
        b.read(A0, t(350), t(400), vec![1, 3]);
        b.read(A1, t(450), t(500), vec![1, 4]); // mutual again: open @500
        b.read(A0, t(550), t(600), vec![1, 3, 4]); // A0 superset → close @600
        let w = windows(&b.build(), A0, A1, WindowKind::Content);
        assert_eq!(w.windows, vec![(t(200), t(300)), (t(500), t(600))]);
        assert_eq!(w.total_nanos(), 200_000_000);
        assert_eq!(w.largest_nanos(), Some(100_000_000));
    }

    #[test]
    fn order_window_opens_and_closes() {
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(100), vec![1u32, 2]);
        b.read(A1, t(0), t(200), vec![2, 1]); // inverted: open @200
        b.read(A1, t(300), t(400), vec![1, 2]); // canonical: close @400
        let w = windows(&b.build(), A0, A1, WindowKind::Order);
        assert_eq!(w.windows, vec![(t(200), t(400))]);
    }

    #[test]
    fn order_window_requires_common_pair() {
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(100), vec![1u32, 2]);
        b.read(A1, t(0), t(200), vec![3, 4]);
        let w = windows(&b.build(), A0, A1, WindowKind::Order);
        assert!(!w.any_divergence());
    }

    #[test]
    fn pair_order_is_normalized() {
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(10), vec![1u32]);
        b.read(A1, t(0), t(10), vec![2]);
        let trace = b.build();
        let w1 = windows(&trace, A0, A1, WindowKind::Content);
        let w2 = windows(&trace, A1, A0, WindowKind::Content);
        assert_eq!(w1, w2);
        assert_eq!(w1.pair, (A0, A1));
    }

    #[test]
    fn windows_cover_every_pair() {
        let mut b = TestTraceBuilder::new();
        for agent in [AgentId(0), AgentId(1), AgentId(2)] {
            b.read(agent, t(0), t(10), vec![agent.0]);
        }
        let ws = analyze(&b.build(), &CheckerConfig::default()).content_windows;
        assert_eq!(ws.len(), 3);
        assert!(ws.iter().all(|w| w.open_since.is_some()));
    }

    #[test]
    fn windows_use_response_times() {
        // Reads are long: windows must be measured at response, not invoke.
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(1000), vec![1u32]);
        b.read(A1, t(0), t(2000), vec![2]);
        // A0 catching up to a superset view ends the *mutual* divergence.
        b.read(A0, t(2500), t(3000), vec![1, 2]);
        let w = windows(&b.build(), A0, A1, WindowKind::Content);
        assert_eq!(w.windows, vec![(t(2000), t(3000))]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::analysis::{analyze, CheckerConfig};
    use crate::anomaly::AnomalyKind;
    use crate::trace::TestTraceBuilder;
    use conprobe_json::testkit::TestRng;

    /// Random read schedules for two agents over a tiny id space.
    fn gen_reads(rng: &mut TestRng) -> Vec<(u8, Vec<u8>)> {
        let n = rng.range_usize(0, 20);
        (0..n)
            .map(|_| {
                let agent = rng.range(0, 2) as u8;
                let len = rng.range_usize(0, 5);
                let seq: Vec<u8> = (0..len).map(|_| rng.range(0, 6) as u8).collect();
                (agent, seq)
            })
            .collect()
    }

    /// Windows are well-formed: non-negative, non-overlapping,
    /// chronologically ordered, and any open window starts after the
    /// last closed one ends.
    #[test]
    fn windows_are_well_formed() {
        let mut rng = TestRng::new(0x37117D01);
        for case in 0..400 {
            let reads = gen_reads(&mut rng);
            let mut b = TestTraceBuilder::new();
            for (i, (agent, mut seq)) in reads.into_iter().enumerate() {
                seq.dedup();
                let at = Timestamp::from_millis(i as i64 * 10);
                b.read(AgentId(agent as u32), at, at, seq);
            }
            let analysis = analyze(&b.build(), &CheckerConfig::default());
            for w in analysis.content_windows.iter().chain(&analysis.order_windows) {
                let mut prev_end = Timestamp::from_millis(-1);
                for (s, e) in &w.windows {
                    assert!(s <= e, "case {case}: negative window");
                    assert!(*s >= prev_end, "case {case}: overlapping windows");
                    prev_end = *e;
                }
                if let Some(open) = w.open_since {
                    assert!(open >= prev_end, "case {case}");
                }
            }
        }
    }

    /// An order-divergence window implies a content- or order-divergence
    /// anomaly is detectable by the presence checkers.
    #[test]
    fn open_order_window_implies_checker_detection() {
        let mut rng = TestRng::new(0x37117D02);
        for case in 0..400 {
            let reads = gen_reads(&mut rng);
            let mut b = TestTraceBuilder::new();
            for (i, (agent, mut seq)) in reads.into_iter().enumerate() {
                seq.sort();
                seq.dedup();
                let at = Timestamp::from_millis(i as i64 * 10);
                b.read(AgentId(agent as u32), at, at, seq);
            }
            let analysis = analyze(&b.build(), &CheckerConfig::default());
            if analysis.content_windows.iter().any(WindowAnalysis::any_divergence) {
                assert!(
                    analysis.has(AnomalyKind::ContentDivergence),
                    "case {case}: window sweep found divergence the checker missed"
                );
            }
        }
    }
}
