//! Anomaly taxonomy and observation records.

use crate::trace::{AgentId, Timestamp};
use std::fmt;

/// The six anomalies of the paper's §III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AnomalyKind {
    /// A client's completed write is missing from its own later read.
    ReadYourWrites,
    /// A client's writes appear partially or out of issue order.
    MonotonicWrites,
    /// An event observed by a client disappears from its later read.
    MonotonicReads,
    /// A write is visible without the events its author had read before
    /// issuing it.
    WritesFollowReads,
    /// Two clients each see an event the other does not.
    ContentDivergence,
    /// Two clients see a pair of events in opposite orders.
    OrderDivergence,
}

impl AnomalyKind {
    /// All anomaly kinds, in the paper's presentation order.
    pub const ALL: [AnomalyKind; 6] = [
        AnomalyKind::ReadYourWrites,
        AnomalyKind::MonotonicWrites,
        AnomalyKind::MonotonicReads,
        AnomalyKind::WritesFollowReads,
        AnomalyKind::ContentDivergence,
        AnomalyKind::OrderDivergence,
    ];

    /// The four session-guarantee anomalies (§III.1).
    pub const SESSION: [AnomalyKind; 4] = [
        AnomalyKind::ReadYourWrites,
        AnomalyKind::MonotonicWrites,
        AnomalyKind::MonotonicReads,
        AnomalyKind::WritesFollowReads,
    ];

    /// The two divergence anomalies (§III.2).
    pub const DIVERGENCE: [AnomalyKind; 2] =
        [AnomalyKind::ContentDivergence, AnomalyKind::OrderDivergence];

    /// Short label used in figures ("RYW", "MW", …).
    pub fn short(&self) -> &'static str {
        match self {
            AnomalyKind::ReadYourWrites => "RYW",
            AnomalyKind::MonotonicWrites => "MW",
            AnomalyKind::MonotonicReads => "MR",
            AnomalyKind::WritesFollowReads => "WFR",
            AnomalyKind::ContentDivergence => "CD",
            AnomalyKind::OrderDivergence => "OD",
        }
    }
}

impl fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AnomalyKind::ReadYourWrites => "read your writes",
            AnomalyKind::MonotonicWrites => "monotonic writes",
            AnomalyKind::MonotonicReads => "monotonic reads",
            AnomalyKind::WritesFollowReads => "writes follows reads",
            AnomalyKind::ContentDivergence => "content divergence",
            AnomalyKind::OrderDivergence => "order divergence",
        };
        f.write_str(name)
    }
}

/// One detected instance of an anomaly.
///
/// It holds data, not prose: [`Observation::detail`] renders the
/// explanation from the fields when something displays it, so a pass
/// that only counts or compares observations never formats one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation<K> {
    /// Which anomaly.
    pub kind: AnomalyKind,
    /// The agent that observed it (the reader whose view is anomalous). For
    /// divergence anomalies, the first agent of the pair.
    pub agent: AgentId,
    /// The second agent of a divergence pair, or the writer of a monotonic
    /// writes violation.
    pub other_agent: Option<AgentId>,
    /// Response time of the read at which the anomaly was observed.
    pub at: Timestamp,
    /// The events witnessing the violation (e.g. the missing write, or the
    /// inverted pair).
    pub witnesses: Vec<K>,
    /// For a divergence, how many read pairs of the two agents diverge;
    /// 0 for the session anomalies.
    pub read_pairs: usize,
}

impl<K: fmt::Debug> Observation<K> {
    /// The human-readable explanation. A slot that a hand-built
    /// observation leaves empty (a missing witness or other agent) reads
    /// `?`.
    pub fn detail(&self) -> String {
        let mut out = String::new();
        self.write_detail(&mut out).expect("a String takes every write");
        out
    }

    fn write_detail(&self, f: &mut impl fmt::Write) -> fmt::Result {
        let (a, b, w, pairs) =
            (self.agent, Slot(self.other_agent), &self.witnesses, self.read_pairs);
        let (x, y, n) = (Slot(w.first()), Slot(w.get(1)), w.len());
        match self.kind {
            AnomalyKind::ReadYourWrites => {
                write!(f, "read by {a} misses {n} own completed write(s): {w:?}")
            }
            AnomalyKind::MonotonicWrites => write!(
                f,
                "read by {a} sees {b}'s write {y:?} but write {x:?} is missing or ordered after it"
            ),
            AnomalyKind::MonotonicReads => {
                write!(f, "{n} event(s) observed by {a} disappeared from its next read: {w:?}")
            }
            AnomalyKind::WritesFollowReads => {
                write!(f, "read by {a} sees write(s) without their read dependencies: {w:?}")
            }
            AnomalyKind::ContentDivergence => write!(
                f,
                "{a} and {b} mutually diverge ({pairs} read pair(s)): \
                 {a} alone sees {x:?}, {b} alone sees {y:?}"
            ),
            AnomalyKind::OrderDivergence => {
                write!(f, "{a} and {b} order {x:?}/{y:?} oppositely ({pairs} read pair(s))")
            }
        }
    }
}

impl<K: fmt::Debug> fmt::Display for Observation<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} @ {} by {}] ", self.kind.short(), self.at, self.agent)?;
        self.write_detail(f)
    }
}

/// An optional part of the prose: the value, or `?` when it is absent.
struct Slot<T>(Option<T>);

impl<T: fmt::Display> fmt::Display for Slot<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(v) => v.fmt(f),
            None => f.write_str("?"),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Slot<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(v) => v.fmt(f),
            None => f.write_str("?"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_sizes() {
        assert_eq!(AnomalyKind::ALL.len(), 6);
        assert_eq!(AnomalyKind::SESSION.len(), 4);
        assert_eq!(AnomalyKind::DIVERGENCE.len(), 2);
        // SESSION ∪ DIVERGENCE = ALL, disjoint.
        let mut all: Vec<_> =
            AnomalyKind::SESSION.iter().chain(AnomalyKind::DIVERGENCE.iter()).collect();
        all.sort();
        let mut expect: Vec<_> = AnomalyKind::ALL.iter().collect();
        expect.sort();
        assert_eq!(all, expect);
    }

    #[test]
    fn labels_are_unique() {
        let shorts: std::collections::HashSet<_> =
            AnomalyKind::ALL.iter().map(|k| k.short()).collect();
        assert_eq!(shorts.len(), 6);
        assert_eq!(AnomalyKind::ReadYourWrites.to_string(), "read your writes");
    }

    #[test]
    fn observation_display() {
        let obs = Observation {
            kind: AnomalyKind::MonotonicReads,
            agent: AgentId(2),
            other_agent: None,
            at: Timestamp::from_millis(1500),
            witnesses: vec![7u32],
            read_pairs: 0,
        };
        assert_eq!(
            obs.to_string(),
            "[MR @ 1.500000s by agent2] 1 event(s) observed by agent2 disappeared from its next \
             read: [7]"
        );
    }

    /// Every kind renders from fewer witnesses than it normally carries,
    /// and without the other agent, marking the gaps instead of panicking.
    #[test]
    fn detail_renders_a_short_hand_built_observation() {
        for kind in AnomalyKind::ALL {
            for witnesses in [vec![], vec![4u32]] {
                let obs = Observation {
                    kind,
                    agent: AgentId(0),
                    other_agent: None,
                    at: Timestamp::from_millis(0),
                    witnesses,
                    read_pairs: 0,
                };
                let detail = obs.detail();
                assert!(!detail.is_empty(), "{kind}");
                assert!(obs.to_string().ends_with(&detail), "{kind}");
            }
        }
        let od = Observation {
            kind: AnomalyKind::OrderDivergence,
            agent: AgentId(0),
            other_agent: None,
            at: Timestamp::from_millis(0),
            witnesses: vec![4u32],
            read_pairs: 2,
        };
        assert_eq!(od.detail(), "agent0 and ? order 4/? oppositely (2 read pair(s))");
    }
}
