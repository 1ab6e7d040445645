//! White-box replica probing — the paper's future-work direction
//! ("extend this methodology … also considering white-box testing"),
//! implemented.
//!
//! The test driver reads **every replica**'s authoritative state in place
//! ([`conprobe_services::catalog::replica_state`]) every [`PERIOD`], between
//! world steps, so the black-box run is the un-probed run. Comparing the
//! replica-level divergence against the agents' observations separates
//!
//! * **true replica divergence** — the replicas' states genuinely differ
//!   (weak replication at work), from
//! * **read-path artifacts** — the replicas agree, but caches, secondary
//!   indices or interest ranking make clients *perceive* divergence.
//!
//! The distinction is exactly the paper's explanation for Facebook Feed's
//! near-100 % order divergence ("explained by the semantics of the
//! service"), which our white-box report can now quantify.

use conprobe_core::analysis::{analyze, CheckerConfig};
use conprobe_core::anomaly::AnomalyKind;
use conprobe_core::trace::{AgentId, OpRecord, TestTrace, Timestamp};
use conprobe_core::window::WindowAnalysis;
use conprobe_sim::SimDuration;
use conprobe_store::PostId;

/// The sampling period: every running replica is read at each multiple.
pub const PERIOD: SimDuration = SimDuration::from_millis(100);

/// One white-box sample: which replica, when (true time), what state.
#[derive(Debug, Clone)]
pub struct ReplicaSample {
    /// Index of the replica in the cluster's replica list.
    pub replica: usize,
    /// The sampling instant, in true simulation time (instrumentation may
    /// use true time; only the black-box agents are clock-blind).
    pub at_nanos: u64,
    /// The replica's authoritative snapshot.
    pub seq: std::sync::Arc<[PostId]>,
}

/// Replica-level ground truth derived from white-box samples.
#[derive(Debug, Clone)]
pub struct WhiteboxReport {
    /// Content-divergence windows between replica pairs (simultaneous
    /// divergence of the latest snapshots).
    pub content_windows: Vec<WindowAnalysis>,
    /// Order-divergence windows between replica pairs.
    pub order_windows: Vec<WindowAnalysis>,
    /// Any-pair content divergence between replica snapshots (the same
    /// §III presence semantics the black-box checkers use — divergence can
    /// exist across time even when no two snapshots diverge simultaneously,
    /// the paper's zero-window subtlety).
    pub content_presence: bool,
    /// Any-pair order divergence between replica snapshots.
    pub order_presence: bool,
    /// The samples the report was built from, in sampling order.
    pub samples: Vec<ReplicaSample>,
    /// Number of replicas probed.
    pub replicas: usize,
}

impl WhiteboxReport {
    /// Builds the report from raw samples: each replica is a "client", and
    /// one [`analyze`] pass gives both presence flags and every pair's
    /// windows.
    pub fn from_samples(samples: Vec<ReplicaSample>, replicas: usize) -> Self {
        let ops: Vec<OpRecord<PostId>> = samples
            .iter()
            .map(|s| OpRecord {
                agent: AgentId(s.replica as u32),
                invoke: Timestamp::from_nanos(s.at_nanos as i64),
                response: Timestamp::from_nanos(s.at_nanos as i64),
                kind: conprobe_core::trace::OpKind::Read { seq: s.seq.clone().into() },
            })
            .collect();
        let mut analysis = analyze(&TestTrace::new(ops), &CheckerConfig::default());
        // One instant's samples merge one replica at a time, so replicas
        // that re-sequence alike open and close a window at that instant.
        // A true window spans at least one period: drop zero-length ones.
        for w in analysis.content_windows.iter_mut().chain(&mut analysis.order_windows) {
            w.windows.retain(|(start, end)| start != end);
        }
        WhiteboxReport {
            content_presence: analysis.has(AnomalyKind::ContentDivergence),
            order_presence: analysis.has(AnomalyKind::OrderDivergence),
            content_windows: analysis.content_windows,
            order_windows: analysis.order_windows,
            samples,
            replicas,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(replica: usize, ms: u64, seq: Vec<u32>) -> ReplicaSample {
        ReplicaSample {
            replica,
            at_nanos: ms * 1_000_000,
            seq: seq.into_iter().map(|s| PostId::new(conprobe_store::AuthorId(0), s)).collect(),
        }
    }

    #[test]
    fn replicas_that_re_sequence_alike_at_one_instant_open_no_window() {
        // Both replicas hold [1,2] and, by the next instant, both hold
        // [2,1] (G+ anti-entropy canonicalizing alike): no two
        // simultaneous states ever differ.
        let samples = vec![
            sample(0, 0, vec![1, 2]),
            sample(1, 0, vec![1, 2]),
            sample(0, 100, vec![2, 1]),
            sample(1, 100, vec![2, 1]),
        ];
        let report = WhiteboxReport::from_samples(samples, 2);
        assert_eq!(report.order_windows.len(), 1, "the pair is still reported");
        assert!(report.order_windows[0].windows.is_empty(), "{:?}", report.order_windows);
        assert!(report.order_windows[0].converged());
        assert!(report.order_presence, "the across-time flag still sees the flip");
    }

    #[test]
    fn identical_replicas_show_no_divergence() {
        let samples = vec![sample(0, 100, vec![1, 2]), sample(1, 110, vec![1, 2])];
        let report = WhiteboxReport::from_samples(samples, 2);
        assert!(!report.content_presence);
        assert!(!report.order_presence);
        assert_eq!(report.samples.len(), 2);
    }

    #[test]
    fn diverged_replicas_are_detected() {
        let samples = vec![
            sample(0, 100, vec![1]),
            sample(1, 110, vec![2]),
            sample(0, 500, vec![1, 2]),
            sample(1, 510, vec![1, 2]),
        ];
        let report = WhiteboxReport::from_samples(samples, 2);
        assert!(report.content_presence);
        assert!(report.content_windows[0].converged());
    }

    #[test]
    fn order_flip_across_replicas_is_detected() {
        let samples = vec![sample(0, 100, vec![1, 2]), sample(1, 110, vec![2, 1])];
        let report = WhiteboxReport::from_samples(samples, 2);
        assert!(report.order_presence);
    }
}
