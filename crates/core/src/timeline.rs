//! ASCII timeline rendering of a test trace — the quickest way to *see*
//! what a test did and where the anomalies sit.
//!
//! One row per agent; time flows left to right over a fixed-width canvas.
//! `w` marks a write invocation, `r` a read, `!` a read at which at least
//! one anomaly was observed (for a divergence, the pair's later read,
//! whichever agent made it). A trailing legend lists the anomalies in
//! chronological order.

use crate::anomaly::{AnomalyKind, Observation};
use crate::trace::{EventKey, TestTrace, Timestamp};
use std::collections::HashSet;
use std::fmt::Write as _;

/// Renders `trace` (and optionally the observations from an analysis) to a
/// fixed-width ASCII timeline.
///
/// `width` is the number of time columns (clamped to at least 10).
pub fn render<K: EventKey>(
    trace: &TestTrace<K>,
    observations: &[Observation<K>],
    width: usize,
) -> String {
    let width = width.max(10);
    let mut out = String::new();
    if trace.is_empty() {
        return "(empty trace)\n".to_string();
    }
    let start = trace.ops().iter().map(|o| o.invoke).min().expect("non-empty");
    let end = trace.ops().iter().map(|o| o.response).max().expect("non-empty");
    let span = (end.delta_nanos(start)).max(1) as f64;
    let col = |at: Timestamp| -> usize {
        (((at.delta_nanos(start)) as f64 / span) * (width - 1) as f64).round() as usize
    };

    // Anomalous read positions: (agent, response time). A divergence is
    // exposed at the later read of its pair, which may be either agent's.
    let marks: HashSet<(u32, i64)> = observations
        .iter()
        .flat_map(|o| {
            let other = o.other_agent.filter(|_| AnomalyKind::DIVERGENCE.contains(&o.kind));
            [Some(o.agent), other].into_iter().flatten().map(|a| (a.0, o.at.as_nanos()))
        })
        .collect();

    for agent in trace.agents() {
        let mut row = vec![b'.'; width];
        for op in trace.ops().iter().filter(|o| o.agent == agent) {
            let c = col(op.response);
            let glyph = if op.is_write() {
                b'w'
            } else if marks.contains(&(agent.0, op.response.as_nanos())) {
                b'!'
            } else {
                b'r'
            };
            // Writes and anomalies win over plain reads on collisions.
            if row[c] == b'.' || glyph != b'r' {
                row[c] = glyph;
            }
        }
        let _ = writeln!(out, "{:<8}|{}|", agent.to_string(), String::from_utf8(row).unwrap());
    }
    let _ = writeln!(out, "{:<8} {}..{}  (w=write, r=read, !=anomalous read)", "time", start, end);
    if !observations.is_empty() {
        let _ = writeln!(out, "anomalies ({}):", observations.len());
        let mut sorted: Vec<&Observation<K>> = observations.iter().collect();
        sorted.sort_by_key(|o| o.at);
        for o in sorted.iter().take(20) {
            let _ = writeln!(out, "  {o}");
        }
        if sorted.len() > 20 {
            let _ = writeln!(out, "  … and {} more", sorted.len() - 20);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{AgentId, TestTraceBuilder};

    fn t(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        let trace: TestTrace<u32> = TestTrace::new(vec![]);
        assert_eq!(render(&trace, &[], 40), "(empty trace)\n");
    }

    #[test]
    fn writes_and_reads_are_plotted_per_agent() {
        let mut b = TestTraceBuilder::new();
        b.write(AgentId(0), t(0), t(0), 1u32);
        b.read(AgentId(1), t(500), t(500), vec![1]);
        b.read(AgentId(1), t(1000), t(1000), vec![1]);
        let s = render(&b.build(), &[], 21);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("agent0"));
        assert!(lines[0].contains("|w"), "{s}");
        assert!(lines[1].starts_with("agent1"));
        assert_eq!(lines[1].matches('r').count(), 2, "{s}");
        // The second agent's last read lands in the final column.
        assert!(lines[1].trim_end().ends_with("r|"), "{s}");
    }

    #[test]
    fn anomalous_reads_are_highlighted() {
        let mut b = TestTraceBuilder::new();
        b.write(AgentId(0), t(0), t(10), 1u32);
        b.read(AgentId(0), t(500), t(600), vec![]);
        let trace = b.build();
        let obs = crate::analyze(&trace, &crate::CheckerConfig::default()).observations;
        assert_eq!(obs.len(), 1);
        let s = render(&trace, &obs, 30);
        assert!(s.contains('!'), "{s}");
        assert!(s.contains("anomalies (1):"), "{s}");
        assert!(s.contains("RYW"), "{s}");
    }

    /// Agent 0 reads `[1]` at 100 ms and agent 1 reads `[2]` at 500 ms: the
    /// content divergence is exposed by agent 1's read, the pair's later
    /// one, though the observation names agent 0 first.
    #[test]
    fn a_divergence_marks_the_read_that_exposed_it() {
        let mut b = TestTraceBuilder::new();
        b.read(AgentId(0), t(0), t(100), vec![1u32]);
        b.read(AgentId(1), t(400), t(500), vec![2]);
        let trace = b.build();
        let obs = crate::analyze(&trace, &crate::CheckerConfig::default()).observations;
        assert_eq!(obs.len(), 1);
        assert_eq!((obs[0].agent, obs[0].at), (AgentId(0), t(500)));
        let s = render(&trace, &obs, 21);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "agent0  |....r................|", "{s}");
        assert_eq!(lines[1], "agent1  |....................!|", "{s}");
        assert!(s.contains("[CD @ 0.500000s by agent0]"), "{s}");
    }

    #[test]
    fn width_is_clamped() {
        let mut b = TestTraceBuilder::new();
        b.read(AgentId(0), t(0), t(0), vec![1u32]);
        let s = render(&b.build(), &[], 1);
        // 10-column minimum.
        assert!(s.lines().next().unwrap().len() >= 12, "{s}");
    }

    #[test]
    fn long_observation_lists_are_truncated() {
        let mut b = TestTraceBuilder::new();
        b.write(AgentId(0), t(0), t(5), 1u32);
        for i in 0..30 {
            b.read(AgentId(0), t(10 + i * 10), t(15 + i * 10), vec![]);
        }
        let trace = b.build();
        let obs = crate::analyze(&trace, &crate::CheckerConfig::default()).observations;
        assert_eq!(obs.len(), 30);
        let s = render(&trace, &obs, 60);
        assert!(s.contains("… and 10 more"), "{s}");
    }
}
