//! White-box replica probing — the paper's future-work direction
//! ("extend this methodology … also considering white-box testing"),
//! implemented.
//!
//! A [`WhiteboxProbe`] node periodically issues `Inspect` operations
//! directly against **every replica** of the service under test, recording
//! each replica's authoritative snapshot. Comparing the replica-level
//! divergence against the agents' black-box observations separates
//!
//! * **true replica divergence** — the replicas' states genuinely differ
//!   (weak replication at work), from
//! * **read-path artifacts** — the replicas agree, but caches, secondary
//!   indices or interest ranking make clients *perceive* divergence.
//!
//! The distinction is exactly the paper's explanation for Facebook Feed's
//! near-100 % order divergence ("explained by the semantics of the
//! service"), which our white-box report can now quantify.

use crate::proto::Msg;
use conprobe_core::analysis::{analyze, CheckerConfig};
use conprobe_core::anomaly::AnomalyKind;
use conprobe_core::trace::{AgentId, OpRecord, TestTrace, Timestamp};
use conprobe_core::window::WindowAnalysis;
use conprobe_services::{ClientOp, NetMsg, OpResult};
use conprobe_sim::{Context, Node, NodeId, SimDuration};
use conprobe_store::PostId;

const TOKEN_TICK: u64 = 1;

/// One white-box sample: which replica, when (true time), what state.
#[derive(Debug, Clone)]
pub struct ReplicaSample {
    /// Index of the replica in the cluster's replica list.
    pub replica: usize,
    /// True simulation time of the snapshot (instrumentation may use true
    /// time; only the black-box agents are clock-blind).
    pub at_nanos: u64,
    /// The replica's authoritative snapshot.
    pub seq: Vec<PostId>,
}

/// A node that snapshots every replica at a fixed period.
pub struct WhiteboxProbe {
    replicas: Vec<NodeId>,
    period: SimDuration,
    pending: std::collections::HashMap<u64, usize>,
    next_req: u64,
    samples: Vec<ReplicaSample>,
}

impl WhiteboxProbe {
    /// Creates a probe over the given replicas.
    pub fn new(replicas: Vec<NodeId>, period: SimDuration) -> Self {
        WhiteboxProbe {
            replicas,
            period,
            pending: std::collections::HashMap::new(),
            next_req: 0,
            samples: Vec::new(),
        }
    }

    /// The collected samples (after the run).
    pub fn samples(&self) -> &[ReplicaSample] {
        &self.samples
    }
}

impl Node<Msg> for WhiteboxProbe {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        ctx.set_timer(SimDuration::ZERO, TOKEN_TICK);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        if let NetMsg::Response { req_id, result: OpResult::ReadOk(seq) } = msg {
            if let Some(replica) = self.pending.remove(&req_id) {
                self.samples.push(ReplicaSample {
                    replica,
                    at_nanos: ctx.true_now().as_nanos(),
                    seq,
                });
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, token: u64) {
        if token != TOKEN_TICK {
            return;
        }
        for (i, replica) in self.replicas.clone().into_iter().enumerate() {
            let req_id = self.next_req;
            self.next_req += 1;
            self.pending.insert(req_id, i);
            ctx.send(replica, NetMsg::Request { req_id, op: ClientOp::Inspect });
        }
        ctx.set_timer(self.period, TOKEN_TICK);
    }
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
    /// Number of samples collected.
    pub samples: usize,
    /// Number of replicas probed.
    pub replicas: usize,
}

impl WhiteboxReport {
    /// Builds the report from raw samples: each replica is a "client", and
    /// one [`analyze`] pass gives both presence flags and every pair's
    /// windows.
    pub fn from_samples(samples: &[ReplicaSample], replicas: usize) -> Self {
        let ops: Vec<OpRecord<PostId>> = samples
            .iter()
            .map(|s| OpRecord {
                agent: AgentId(s.replica as u32),
                invoke: Timestamp::from_nanos(s.at_nanos as i64),
                response: Timestamp::from_nanos(s.at_nanos as i64),
                kind: conprobe_core::trace::OpKind::Read { seq: s.seq.clone() },
            })
            .collect();
        let analysis = analyze(&TestTrace::new(ops), &CheckerConfig::default());
        WhiteboxReport {
            content_presence: analysis.has(AnomalyKind::ContentDivergence),
            order_presence: analysis.has(AnomalyKind::OrderDivergence),
            content_windows: analysis.content_windows,
            order_windows: analysis.order_windows,
            samples: samples.len(),
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
    fn identical_replicas_show_no_divergence() {
        let samples = vec![sample(0, 100, vec![1, 2]), sample(1, 110, vec![1, 2])];
        let report = WhiteboxReport::from_samples(&samples, 2);
        assert!(!report.content_presence);
        assert!(!report.order_presence);
        assert_eq!(report.samples, 2);
    }

    #[test]
    fn diverged_replicas_are_detected() {
        let samples = vec![
            sample(0, 100, vec![1]),
            sample(1, 110, vec![2]),
            sample(0, 500, vec![1, 2]),
            sample(1, 510, vec![1, 2]),
        ];
        let report = WhiteboxReport::from_samples(&samples, 2);
        assert!(report.content_presence);
        assert!(report.content_windows[0].converged());
    }

    #[test]
    fn order_flip_across_replicas_is_detected() {
        let samples = vec![sample(0, 100, vec![1, 2]), sample(1, 110, vec![2, 1])];
        let report = WhiteboxReport::from_samples(&samples, 2);
        assert!(report.order_presence);
    }
}
