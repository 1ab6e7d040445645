//! Consistency verdicts — summarizing a trace's anomaly profile as the set
//! of consistency guarantees it is *compatible with*.
//!
//! The paper deliberately reports anomalies rather than proving consistency
//! levels ("if an anomaly is not observed in our tests, this does not imply
//! that the implementation disallows for its occurrence"). A [`Verdict`]
//! keeps that epistemic stance: each guarantee is reported as **violated**
//! (an anomaly proves the service does not provide it) or **compatible**
//! (no violation surfaced in this trace — not a proof).
//!
//! Composite levels follow Terry et al. \[14\] and the causal-consistency
//! literature the paper cites: PRAM requires RYW+MR+MW; causal additionally
//! requires WFR; single-order additionally requires no order divergence;
//! "strong (compatible)" additionally requires no content divergence.
//!
//! Where every read returns the whole state of the grow-only set, a
//! single order (linearizable or sequential) makes the read results a
//! chain under ⊆, and a content divergence is two results off any chain:
//! there it refutes the single-order rung too. Where reads are a ranked
//! selection (FB Feed's top 25), a divergence refutes nothing below
//! "strong".

use crate::analysis::TestAnalysis;
use crate::anomaly::AnomalyKind;
use crate::trace::EventKey;
use std::fmt;

/// The status of one guarantee in one trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// An anomaly in the trace proves the guarantee does not hold.
    Violated,
    /// No violation surfaced — compatible with, not proof of, the
    /// guarantee.
    Compatible,
}

impl Status {
    fn of(violated: bool) -> Status {
        if violated {
            Status::Violated
        } else {
            Status::Compatible
        }
    }

    /// True when compatible.
    pub fn holds(&self) -> bool {
        matches!(self, Status::Compatible)
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Status::Violated => f.write_str("violated"),
            Status::Compatible => f.write_str("compatible"),
        }
    }
}

/// The guarantee profile derived from a [`TestAnalysis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Read Your Writes session guarantee.
    pub read_your_writes: Status,
    /// Monotonic Reads session guarantee.
    pub monotonic_reads: Status,
    /// Monotonic Writes session guarantee.
    pub monotonic_writes: Status,
    /// Writes Follows Reads session guarantee.
    pub writes_follow_reads: Status,
    /// Agreement on content across clients (no content divergence).
    pub content_agreement: Status,
    /// Agreement on order across clients (no order divergence).
    pub order_agreement: Status,
    /// Whether the arm's reads return its whole state, so that a content
    /// divergence refutes every single-order model.
    pub whole_state_reads: bool,
}

impl Verdict {
    /// Derives the verdict from an analysis of an arm whose reads return
    /// the whole state (`whole_state_reads`) or a selection of it.
    pub fn from_analysis<K: EventKey>(analysis: &TestAnalysis<K>, whole_state_reads: bool) -> Self {
        Verdict {
            read_your_writes: Status::of(analysis.has(AnomalyKind::ReadYourWrites)),
            monotonic_reads: Status::of(analysis.has(AnomalyKind::MonotonicReads)),
            monotonic_writes: Status::of(analysis.has(AnomalyKind::MonotonicWrites)),
            writes_follow_reads: Status::of(analysis.has(AnomalyKind::WritesFollowReads)),
            content_agreement: Status::of(analysis.has(AnomalyKind::ContentDivergence)),
            order_agreement: Status::of(analysis.has(AnomalyKind::OrderDivergence)),
            whole_state_reads,
        }
    }

    /// PRAM / FIFO compatibility: RYW + MR + MW.
    pub fn pram_compatible(&self) -> bool {
        self.read_your_writes.holds()
            && self.monotonic_reads.holds()
            && self.monotonic_writes.holds()
    }

    /// Causal compatibility: PRAM + WFR (the four session guarantees
    /// together are the classic client-centric characterization of causal
    /// consistency).
    pub fn causal_compatible(&self) -> bool {
        self.pram_compatible() && self.writes_follow_reads.holds()
    }

    /// Single-order compatibility: causal + all clients agree on event
    /// order (no order divergence) + on whole-state reads, on content.
    pub fn single_order_compatible(&self) -> bool {
        self.causal_compatible()
            && self.order_agreement.holds()
            && (self.content_agreement.holds() || !self.whole_state_reads)
    }

    /// Compatibility with strong consistency: no anomaly of any kind.
    pub fn strong_compatible(&self) -> bool {
        self.single_order_compatible() && self.content_agreement.holds()
    }

    /// The strongest compatible level as a label, for reports.
    pub fn strongest_level(&self) -> &'static str {
        if self.strong_compatible() {
            "strong (compatible)"
        } else if self.single_order_compatible() {
            "single-order / sequential-like"
        } else if self.causal_compatible() {
            "causal"
        } else if self.pram_compatible() {
            "PRAM"
        } else {
            "weaker than PRAM"
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "RYW {}, MR {}, MW {}, WFR {}, content {}, order {}",
            self.read_your_writes,
            self.monotonic_reads,
            self.monotonic_writes,
            self.writes_follow_reads,
            self.content_agreement,
            self.order_agreement
        )?;
        write!(f, "strongest compatible level: {}", self.strongest_level())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, CheckerConfig};
    use crate::trace::{AgentId, TestTraceBuilder, Timestamp};

    fn t(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn clean_trace_is_strong_compatible() {
        let mut b = TestTraceBuilder::new();
        b.write(AgentId(0), t(0), t(10), 1u32);
        b.read(AgentId(0), t(20), t(30), vec![1]);
        b.read(AgentId(1), t(20), t(30), vec![1]);
        let v = Verdict::from_analysis(&analyze(&b.build(), &CheckerConfig::default()), true);
        assert!(v.strong_compatible());
        assert_eq!(v.strongest_level(), "strong (compatible)");
        assert!(v.to_string().contains("compatible"));
    }

    #[test]
    fn ryw_violation_breaks_pram() {
        let mut b = TestTraceBuilder::new();
        b.write(AgentId(0), t(0), t(10), 1u32);
        b.read(AgentId(0), t(20), t(30), vec![]);
        let v = Verdict::from_analysis(&analyze(&b.build(), &CheckerConfig::default()), true);
        assert_eq!(v.read_your_writes, Status::Violated);
        assert!(!v.pram_compatible());
        assert_eq!(v.strongest_level(), "weaker than PRAM");
    }

    /// Two agents see mutually different content but no session guarantee
    /// is broken.
    fn diverging_reads() -> TestAnalysis<u32> {
        let mut b = TestTraceBuilder::new();
        b.read(AgentId(0), t(0), t(10), vec![1u32]);
        b.read(AgentId(1), t(0), t(10), vec![2]);
        analyze(&b.build(), &CheckerConfig::default())
    }

    #[test]
    fn a_divergence_of_whole_state_reads_refutes_single_order() {
        // {1} and {2} are no chain: no single order of the two writes
        // yields both reads.
        let v = Verdict::from_analysis(&diverging_reads(), true);
        assert!(v.causal_compatible());
        assert!(!v.single_order_compatible());
        assert!(!v.strong_compatible());
        assert_eq!(v.strongest_level(), "causal");
    }

    #[test]
    fn divergence_without_session_violations_is_causal() {
        // On ranked reads (a top-k that may omit either post from either
        // read) the divergence refutes only "strong".
        let v = Verdict::from_analysis(&diverging_reads(), false);
        assert!(v.single_order_compatible());
        assert!(!v.strong_compatible());
        assert_eq!(v.strongest_level(), "single-order / sequential-like");
    }

    #[test]
    fn order_divergence_breaks_single_order() {
        let mut b = TestTraceBuilder::new();
        b.read(AgentId(0), t(0), t(10), vec![1u32, 2]);
        b.read(AgentId(1), t(0), t(10), vec![2, 1]);
        let v = Verdict::from_analysis(&analyze(&b.build(), &CheckerConfig::default()), true);
        assert!(v.causal_compatible());
        assert!(!v.single_order_compatible());
        assert_eq!(v.strongest_level(), "causal");
    }

    #[test]
    fn level_hierarchy_is_monotone() {
        // strong ⇒ single-order ⇒ causal ⇒ PRAM for every combination of
        // statuses.
        for bits in 0..128u32 {
            let s = |i: u32| Status::of(bits & (1 << i) != 0);
            let v = Verdict {
                read_your_writes: s(0),
                monotonic_reads: s(1),
                monotonic_writes: s(2),
                writes_follow_reads: s(3),
                content_agreement: s(4),
                order_agreement: s(5),
                whole_state_reads: bits & (1 << 6) != 0,
            };
            if v.strong_compatible() {
                assert!(v.single_order_compatible());
            }
            if v.single_order_compatible() {
                assert!(v.causal_compatible());
            }
            if v.causal_compatible() {
                assert!(v.pram_compatible());
            }
        }
    }
}
