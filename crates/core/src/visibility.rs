//! Write-visibility latency — a quantitative staleness metric.
//!
//! The paper's related work (Bailis et al.'s probabilistically bounded
//! staleness, Yu & Vahdat's conits) quantifies *how stale* weakly
//! consistent reads are; the paper itself only quantifies divergence
//! windows. This module adds the complementary measurement the same traces
//! support: for every write, how long until each agent first observed it —
//! the end-to-end visibility latency distribution, per (writer, reader)
//! pair.
//!
//! Latency is measured from the write's **response** (the service
//! acknowledged it) to the **response of the first read** by the observing
//! agent that contains the event. A write the agent never observed within
//! the trace is reported as [`Visibility::Never`] (right-censored).

use crate::trace::{AgentId, EventKey, TestTrace, Timestamp};
use conprobe_json::FastMap;
use std::collections::BTreeMap;

/// When (if ever) an agent first observed a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// First observed this many nanoseconds after the write's
    /// acknowledgement (negative values are clamped to zero: the read that
    /// revealed the event may straddle the write's completion).
    After(i64),
    /// Never observed within the trace (right-censored at trace end).
    Never,
}

impl Visibility {
    /// The latency in seconds, if observed.
    pub fn secs(&self) -> Option<f64> {
        match self {
            Visibility::After(ns) => Some(*ns as f64 / 1e9),
            Visibility::Never => None,
        }
    }
}

/// The visibility of one write at one observing agent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VisibilityRecord<K> {
    /// The observed write.
    pub event: K,
    /// The agent that issued the write.
    pub writer: AgentId,
    /// The observing agent.
    pub reader: AgentId,
    /// Acknowledgement time of the write.
    pub written_at: Timestamp,
    /// Outcome.
    pub visibility: Visibility,
}

/// Computes the visibility latency of every write at every agent.
///
/// Agents with no reads contribute no records.
pub fn visibility<K: EventKey>(trace: &TestTrace<K>) -> Vec<VisibilityRecord<K>> {
    // One pass over the reads: each reading agent's earliest response
    // that contained each key it ever read.
    let mut first_seen: BTreeMap<AgentId, FastMap<&K, Timestamp>> = BTreeMap::new();
    for op in trace.ops() {
        let Some(seq) = op.read_seq() else { continue };
        let seen = first_seen.entry(op.agent).or_default();
        for key in seq {
            let at = seen.entry(key).or_insert(op.response);
            *at = (*at).min(op.response);
        }
    }
    let mut out = Vec::new();
    for (wop, id) in trace.writes() {
        for (&reader, seen) in &first_seen {
            let visibility = match seen.get(id) {
                Some(at) => Visibility::After(at.delta_nanos(wop.response).max(0)),
                None => Visibility::Never,
            };
            out.push(VisibilityRecord {
                event: id.clone(),
                writer: wop.agent,
                reader,
                written_at: wop.response,
                visibility,
            });
        }
    }
    out
}

/// The trace's inherent staleness bound: the smallest Δ such that no read
/// in the trace ever missed a write acknowledged more than Δ before the
/// read's invocation — Bailis et al.'s t-visibility, measured a posteriori.
///
/// `None` when some write was *never* observed by some reading agent (the
/// bound is right-censored and no finite Δ holds); `Some(0)` for a trace
/// where every read reflected every completed write.
pub fn staleness_bound_nanos<K: EventKey>(trace: &TestTrace<K>) -> Option<i64> {
    let mut bound = 0i64;
    let writes = trace.writes();
    for agent in trace.agents() {
        let reads = trace.reads_by(agent);
        if reads.is_empty() {
            continue;
        }
        for (wop, id) in &writes {
            // The worst miss: the latest read that still lacked this write.
            let mut observed_eventually = false;
            for r in &reads {
                let seq = r.read_seq().expect("read");
                if seq.contains(id) {
                    observed_eventually = true;
                } else if r.invoke > wop.response {
                    bound = bound.max(r.invoke.delta_nanos(wop.response));
                }
            }
            if !observed_eventually && reads.last().expect("non-empty").invoke > wop.response {
                return None; // censored: never observed
            }
        }
    }
    Some(bound)
}

/// Summary statistics of a set of visibility records.
///
/// The percentile fields are `None` when no pair was observed — a
/// distribution with no samples has no percentiles, and reporting `0.0`
/// would be indistinguishable from genuine zero-latency visibility.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisibilitySummary {
    /// Number of (write, reader) pairs considered.
    pub total: usize,
    /// Pairs where the write was eventually observed.
    pub observed: usize,
    /// Median latency over observed pairs, seconds (`None` if none).
    pub median_secs: Option<f64>,
    /// 95th percentile latency over observed pairs, seconds (`None` if
    /// none).
    pub p95_secs: Option<f64>,
    /// Maximum observed latency, seconds (`None` if none).
    pub max_secs: Option<f64>,
}

/// Summarizes records (optionally restricted with a filter first).
pub fn summarize<K>(records: &[VisibilityRecord<K>]) -> VisibilitySummary {
    let mut lat: Vec<f64> = records.iter().filter_map(|r| r.visibility.secs()).collect();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pick = |q: f64| {
        if lat.is_empty() {
            None
        } else {
            Some(lat[((q * (lat.len() - 1) as f64).round() as usize).min(lat.len() - 1)])
        }
    };
    VisibilitySummary {
        total: records.len(),
        observed: lat.len(),
        median_secs: pick(0.5),
        p95_secs: pick(0.95),
        max_secs: lat.last().copied(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TestTraceBuilder;

    fn t(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }
    const A0: AgentId = AgentId(0);
    const A1: AgentId = AgentId(1);

    #[test]
    fn measures_first_observation_latency() {
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(100), 1u32);
        b.read(A1, t(200), t(300), vec![]); // not yet
        b.read(A1, t(400), t(500), vec![1]); // first seen
        b.read(A1, t(600), t(700), vec![1]); // later sighting ignored
        let recs = visibility(&b.build());
        let to_a1 = recs.iter().find(|r| r.reader == A1).unwrap();
        assert_eq!(to_a1.visibility, Visibility::After(400_000_000));
        assert_eq!(to_a1.writer, A0);
        assert_eq!(to_a1.written_at, t(100));
    }

    #[test]
    fn never_observed_is_censored() {
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(100), 1u32);
        b.read(A1, t(200), t(300), vec![]);
        let recs = visibility(&b.build());
        let to_a1 = recs.iter().find(|r| r.reader == A1).unwrap();
        assert_eq!(to_a1.visibility, Visibility::Never);
        assert_eq!(to_a1.visibility.secs(), None);
    }

    #[test]
    fn own_writes_count_too() {
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(100), 1u32);
        b.read(A0, t(150), t(200), vec![1]);
        let recs = visibility(&b.build());
        assert_eq!(recs.len(), 1, "only agents with reads are counted");
        assert_eq!(recs[0].visibility, Visibility::After(100_000_000));
    }

    #[test]
    fn read_straddling_the_write_clamps_to_zero() {
        // The read started before the write completed but returned it.
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(500), 1u32);
        b.read(A1, t(100), t(400), vec![1]);
        let recs = visibility(&b.build());
        assert_eq!(recs[0].visibility, Visibility::After(0));
    }

    #[test]
    fn summary_statistics() {
        let recs: Vec<VisibilityRecord<u32>> = vec![
            VisibilityRecord {
                event: 1,
                writer: A0,
                reader: A1,
                written_at: t(0),
                visibility: Visibility::After(1_000_000_000),
            },
            VisibilityRecord {
                event: 2,
                writer: A0,
                reader: A1,
                written_at: t(0),
                visibility: Visibility::After(3_000_000_000),
            },
            VisibilityRecord {
                event: 3,
                writer: A0,
                reader: A1,
                written_at: t(0),
                visibility: Visibility::Never,
            },
        ];
        let s = summarize(&recs);
        assert_eq!(s.total, 3);
        assert_eq!(s.observed, 2);
        // Quantile indices round half away from zero: the even-count
        // median resolves to the upper value.
        assert_eq!(s.median_secs, Some(3.0));
        assert_eq!(s.max_secs, Some(3.0));
    }

    #[test]
    fn staleness_bound_of_fresh_trace_is_zero() {
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(10), 1u32);
        b.read(A1, t(20), t(30), vec![1]);
        assert_eq!(staleness_bound_nanos(&b.build()), Some(0));
    }

    #[test]
    fn staleness_bound_measures_worst_miss() {
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(100), 1u32);
        b.read(A1, t(500), t(600), vec![]); // missed at age 400 ms
        b.read(A1, t(900), t(1000), vec![1]); // finally visible
        assert_eq!(staleness_bound_nanos(&b.build()), Some(400_000_000));
    }

    #[test]
    fn staleness_bound_censored_when_never_observed() {
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(100), 1u32);
        b.read(A1, t(500), t(600), vec![]);
        assert_eq!(staleness_bound_nanos(&b.build()), None);
    }

    #[test]
    fn empty_summary_has_no_percentiles() {
        let s = summarize::<u32>(&[]);
        assert_eq!(s.total, 0);
        assert_eq!(s.observed, 0);
        assert_eq!(s.median_secs, None);
        assert_eq!(s.p95_secs, None);
        assert_eq!(s.max_secs, None);
    }

    #[test]
    fn all_censored_summary_has_no_percentiles() {
        // observed == 0 with total > 0 must be distinguishable from
        // genuine zero-latency visibility.
        let recs: Vec<VisibilityRecord<u32>> = vec![VisibilityRecord {
            event: 1,
            writer: A0,
            reader: A1,
            written_at: t(0),
            visibility: Visibility::Never,
        }];
        let s = summarize(&recs);
        assert_eq!((s.total, s.observed), (1, 0));
        assert_eq!(s.median_secs, None);
        assert_eq!(s.p95_secs, None);
        assert_eq!(s.max_secs, None);
    }

    #[test]
    fn staleness_bound_write_after_agents_last_read_is_uncensored() {
        // The write completes after A1's last read *invoked*: A1 never had
        // a chance to observe it, so the missing observation neither
        // censors the bound nor widens it.
        let mut b = TestTraceBuilder::new();
        b.read(A1, t(0), t(50), vec![]);
        b.write(A0, t(100), t(200), 1u32);
        assert_eq!(staleness_bound_nanos(&b.build()), Some(0));
    }

    #[test]
    fn staleness_bound_read_straddling_write_completion_does_not_count() {
        // The read invoked before the write's response: missing it says
        // nothing about staleness (the write may not have existed yet),
        // and a later read observes it — bound stays zero.
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(500), 1u32);
        b.read(A1, t(100), t(600), vec![]); // invoked mid-write
        b.read(A1, t(700), t(800), vec![1]);
        assert_eq!(staleness_bound_nanos(&b.build()), Some(0));
    }

    #[test]
    fn staleness_bound_straddling_last_read_never_observed_is_uncensored() {
        // The only read missing the write straddles its completion, and no
        // read ever invoked after the write completed: not censored.
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(500), 1u32);
        b.read(A1, t(100), t(600), vec![]);
        assert_eq!(staleness_bound_nanos(&b.build()), Some(0));
    }

    #[test]
    fn hoisted_read_lists_match_per_pair_derivation() {
        // Multi-writer, multi-reader trace: the hoisted per-agent read
        // lists must classify exactly as the original per-pair lookups.
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(100), 1u32);
        b.write(A1, t(50), t(150), 2u32);
        b.read(A0, t(200), t(250), vec![1]);
        b.read(A0, t(400), t(450), vec![1, 2]);
        b.read(A1, t(300), t(350), vec![1, 2]);
        let recs = visibility(&b.build());
        assert_eq!(recs.len(), 4, "2 writes × 2 reading agents");
        let find = |w: AgentId, r: AgentId| {
            recs.iter().find(|x| x.writer == w && x.reader == r).unwrap().visibility
        };
        assert_eq!(find(A0, A0), Visibility::After(150_000_000)); // t=250 - t=100
        assert_eq!(find(A0, A1), Visibility::After(250_000_000)); // t=350 - t=100
        assert_eq!(find(A1, A0), Visibility::After(300_000_000)); // t=450 - t=150
        assert_eq!(find(A1, A1), Visibility::After(200_000_000)); // t=350 - t=150
    }
}
