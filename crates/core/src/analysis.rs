//! Whole-test analysis: run every checker, aggregate per test.

use crate::anomaly::{AnomalyKind, Observation};
use crate::checkers::WfrMode;
use crate::stream::StreamingAnalyzer;
use crate::trace::{AgentId, EventKey, TestTrace};
use crate::window::{WindowAnalysis, WindowKind};
use std::collections::BTreeSet;

/// Configuration for [`analyze`].
#[derive(Debug, Clone)]
pub struct CheckerConfig<K> {
    /// Dependency relation for the Writes Follows Reads checker.
    pub wfr_mode: WfrMode<K>,
}

impl<K> Default for CheckerConfig<K> {
    fn default() -> Self {
        CheckerConfig { wfr_mode: WfrMode::General }
    }
}

/// The complete analysis of one test instance's trace.
#[derive(Debug, Clone)]
pub struct TestAnalysis<K> {
    /// Observations of all anomalies, in checker order.
    pub observations: Vec<Observation<K>>,
    /// Content-divergence windows per agent pair.
    pub content_windows: Vec<WindowAnalysis>,
    /// Order-divergence windows per agent pair.
    pub order_windows: Vec<WindowAnalysis>,
}

impl<K: EventKey> TestAnalysis<K> {
    /// Observations of a particular anomaly kind.
    pub fn of_kind(&self, kind: AnomalyKind) -> Vec<&Observation<K>> {
        self.observations.iter().filter(|o| o.kind == kind).collect()
    }

    /// Number of observations of `kind`.
    pub fn count(&self, kind: AnomalyKind) -> usize {
        self.observations.iter().filter(|o| o.kind == kind).count()
    }

    /// Number of observations of `kind` made by `agent` (the reader).
    pub fn count_by_agent(&self, kind: AnomalyKind, agent: AgentId) -> usize {
        self.observations.iter().filter(|o| o.kind == kind && o.agent == agent).count()
    }

    /// Whether any observation of `kind` exists.
    pub fn has(&self, kind: AnomalyKind) -> bool {
        self.observations.iter().any(|o| o.kind == kind)
    }

    /// Whether the trace is anomaly-free.
    pub fn is_clean(&self) -> bool {
        self.observations.is_empty()
    }

    /// The set of agents that observed `kind` (keyed on the reader, as in
    /// the paper's per-location correlation figures). For divergence
    /// anomalies both agents of the pair are included, since both perceive
    /// the divergence.
    pub fn agents_observing(&self, kind: AnomalyKind) -> BTreeSet<AgentId> {
        let mut set = BTreeSet::new();
        for o in self.observations.iter().filter(|o| o.kind == kind) {
            set.insert(o.agent);
            if matches!(kind, AnomalyKind::ContentDivergence | AnomalyKind::OrderDivergence) {
                if let Some(other) = o.other_agent {
                    set.insert(other);
                }
            }
        }
        set
    }

    /// Whether a specific unordered agent pair exhibited `kind`
    /// (divergence anomalies only — session anomalies are per-agent).
    pub fn pair_has(&self, kind: AnomalyKind, a: AgentId, b: AgentId) -> bool {
        let pair = if a <= b { (a, b) } else { (b, a) };
        self.observations.iter().any(|o| {
            o.kind == kind && o.other_agent.is_some() && (o.agent, o.other_agent.unwrap()) == pair
        })
    }

    /// The content or order windows for one pair, if both agents are in
    /// the trace.
    pub fn pair_windows(
        &self,
        kind: WindowKind,
        a: AgentId,
        b: AgentId,
    ) -> Option<&WindowAnalysis> {
        let pair = if a <= b { (a, b) } else { (b, a) };
        let list = match kind {
            WindowKind::Content => &self.content_windows,
            WindowKind::Order => &self.order_windows,
        };
        list.iter().find(|w| w.pair == pair)
    }
}

/// Runs every checker and both window sweeps over `trace`: one pass of the
/// [`StreamingAnalyzer`], each event pushed once. Observations come in
/// checker order (RYW, MW, MR, WFR, content, order).
pub fn analyze<K: EventKey>(trace: &TestTrace<K>, config: &CheckerConfig<K>) -> TestAnalysis<K> {
    StreamingAnalyzer::new(config).replay(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TestTraceBuilder, Timestamp};

    fn t(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }
    const A0: AgentId = AgentId(0);
    const A1: AgentId = AgentId(1);

    /// A strongly consistent execution: all checkers must stay silent.
    #[test]
    fn clean_linearizable_trace() {
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(10), 1u32);
        b.read(A0, t(20), t(30), vec![1]);
        b.read(A1, t(20), t(30), vec![1]);
        b.write(A1, t(40), t(50), 2);
        b.read(A0, t(60), t(70), vec![1, 2]);
        b.read(A1, t(60), t(70), vec![1, 2]);
        let analysis = analyze(&b.build(), &CheckerConfig::default());
        assert!(analysis.is_clean(), "{:?}", analysis.observations);
        assert!(analysis.content_windows.iter().all(|w| !w.any_divergence()));
    }

    /// A deliberately pathological trace that triggers every anomaly kind.
    fn kitchen_sink() -> TestTrace<u32> {
        let mut b = TestTraceBuilder::new();
        // A0 writes 1 then 2.
        b.write(A0, t(0), t(10), 1u32);
        b.write(A0, t(20), t(30), 2);
        // A0's read misses its own write 1 and shows 2 → RYW + MW.
        b.read(A0, t(40), t(50), vec![2]);
        // A0 then sees both; later 2 disappears → MR.
        b.read(A0, t(60), t(70), vec![1, 2]);
        b.read(A0, t(80), t(90), vec![1]);
        // A1 reads 1 (a dependency), writes 3.
        b.read(A1, t(60), t(70), vec![1]);
        b.write(A1, t(80), t(90), 3);
        // A1 sees (2,1) while A0 saw (1,2) → order divergence; A1 sees 3
        // without 1 later → WFR; mutual content difference vs A0's (1).
        b.read(A1, t(100), t(110), vec![2, 1]);
        b.read(A1, t(120), t(130), vec![3, 2]);
        b.build()
    }

    #[test]
    fn kitchen_sink_trace_triggers_everything() {
        let analysis = analyze(&kitchen_sink(), &CheckerConfig::default());
        for kind in AnomalyKind::ALL {
            assert!(analysis.has(kind), "missing {kind}");
        }
        assert!(!analysis.is_clean());
    }

    /// The first observation of each kind, rendered: the lines the engine
    /// printed when it still formatted each observation's prose as it
    /// found it, byte for byte.
    #[test]
    fn kitchen_sink_prose_is_pinned() {
        let analysis = analyze(&kitchen_sink(), &CheckerConfig::default());
        let first = |kind| {
            let obs = analysis.observations.iter().find(|o| o.kind == kind).expect("observed");
            obs.to_string()
        };
        let pinned = [
            "[RYW @ 0.050000s by agent0] read by agent0 misses 1 own completed write(s): [1]",
            "[MW @ 0.050000s by agent0] read by agent0 sees agent0's write 2 but write 1 is \
             missing or ordered after it",
            "[MR @ 0.090000s by agent0] 1 event(s) observed by agent0 disappeared from its next \
             read: [2]",
            "[WFR @ 0.130000s by agent1] read by agent1 sees write(s) without their read \
             dependencies: [1, 3]",
            "[CD @ 0.070000s by agent0] agent0 and agent1 mutually diverge (3 read pair(s)): \
             agent0 alone sees 2, agent1 alone sees 1",
            "[OD @ 0.110000s by agent0] agent0 and agent1 order 1/2 oppositely (1 read pair(s))",
        ];
        for (kind, line) in AnomalyKind::ALL.into_iter().zip(pinned) {
            assert_eq!(first(kind), line);
        }
    }

    #[test]
    fn counts_and_agent_sets() {
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(10), 1u32);
        b.read(A0, t(20), t(30), vec![]);
        b.read(A0, t(40), t(50), vec![]);
        let analysis = analyze(&b.build(), &CheckerConfig::default());
        assert_eq!(analysis.count(AnomalyKind::ReadYourWrites), 2);
        assert_eq!(analysis.count_by_agent(AnomalyKind::ReadYourWrites, A0), 2);
        assert_eq!(analysis.count_by_agent(AnomalyKind::ReadYourWrites, A1), 0);
        let set = analysis.agents_observing(AnomalyKind::ReadYourWrites);
        assert_eq!(set.into_iter().collect::<Vec<_>>(), vec![A0]);
    }

    #[test]
    fn divergence_pair_queries() {
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(10), vec![1u32]);
        b.read(A1, t(0), t(12), vec![2]);
        let analysis = analyze(&b.build(), &CheckerConfig::default());
        assert!(analysis.pair_has(AnomalyKind::ContentDivergence, A0, A1));
        assert!(analysis.pair_has(AnomalyKind::ContentDivergence, A1, A0));
        assert!(!analysis.pair_has(AnomalyKind::OrderDivergence, A0, A1));
        let w = analysis.pair_windows(WindowKind::Content, A1, A0).unwrap();
        assert!(w.any_divergence());
        // Both agents of a divergence pair perceive it.
        let set = analysis.agents_observing(AnomalyKind::ContentDivergence);
        assert_eq!(set.len(), 2);
    }
}
