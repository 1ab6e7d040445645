//! Soundness and completeness properties of the §III checkers.
//!
//! Strategy: generate a *linearizable execution* — a global log of writes
//! with every read returning the exact current prefix — which by
//! construction admits none of the paper's anomalies. All checkers must
//! stay silent on it (soundness: no false positives). Then plant a specific
//! corruption (drop a client's own write, reverse a pair, make an event
//! vanish, …) and assert the corresponding checker fires (completeness for
//! the planted class).
//!
//! Schedules are drawn from a seeded [`TestRng`] so every case replays
//! exactly (the offline build has no property-testing framework).

use conprobe_core::analysis::{analyze, CheckerConfig};
use conprobe_core::anomaly::{AnomalyKind, Observation};
use conprobe_core::trace::{AgentId, OpKind, OpRecord, TestTrace, Timestamp};
use conprobe_json::testkit::TestRng;

type K = (u32, u32); // (author, seq)

/// A schedule of interleaved writes/reads for `agents` agents.
#[derive(Debug, Clone)]
enum Step {
    Write(u32),
    Read(u32),
}

fn gen_schedule(rng: &mut TestRng, agents: u32) -> Vec<Step> {
    let len = rng.range_usize(1, 40);
    (0..len)
        .map(|_| {
            let a = rng.range(0, u64::from(agents)) as u32;
            if rng.chance(0.5) {
                Step::Write(a)
            } else {
                Step::Read(a)
            }
        })
        .collect()
}

/// Builds a linearizable trace: operations execute instantaneously in
/// schedule order, each read returning the full current write sequence.
fn linearizable_trace(schedule: &[Step]) -> TestTrace<K> {
    let mut log: Vec<K> = Vec::new();
    let mut seqs = std::collections::HashMap::<u32, u32>::new();
    let mut ops = Vec::new();
    for (i, step) in schedule.iter().enumerate() {
        let at = Timestamp::from_millis(i as i64 * 10);
        match step {
            Step::Write(a) => {
                let seq = seqs.entry(*a).or_insert(0);
                *seq += 1;
                let id = (*a, *seq);
                log.push(id);
                ops.push(OpRecord {
                    agent: AgentId(*a),
                    invoke: at,
                    response: at,
                    kind: OpKind::Write { id },
                });
            }
            Step::Read(a) => {
                ops.push(OpRecord {
                    agent: AgentId(*a),
                    invoke: at,
                    response: at,
                    kind: OpKind::Read { seq: log.clone().into() },
                });
            }
        }
    }
    TestTrace::new(ops)
}

const CASES: usize = 300;

/// The observations of `kind` in the full analysis of `trace`.
fn observations(trace: &TestTrace<K>, kind: AnomalyKind) -> Vec<Observation<K>> {
    let analysis = analyze(trace, &CheckerConfig::default());
    analysis.observations.into_iter().filter(|o| o.kind == kind).collect()
}

/// Soundness: a linearizable execution triggers no checker at all.
#[test]
fn linearizable_executions_are_clean() {
    let mut rng = TestRng::new(0xC8EC_0001);
    for case in 0..CASES {
        let trace = linearizable_trace(&gen_schedule(&mut rng, 3));
        let analysis = analyze(&trace, &CheckerConfig::default());
        assert!(analysis.is_clean(), "case {case}: {:?}", analysis.observations);
        for w in analysis.content_windows.iter().chain(&analysis.order_windows) {
            assert!(!w.any_divergence(), "case {case}");
        }
    }
}

/// Completeness (RYW): erase one of a client's own completed writes
/// from one of its later reads — the RYW checker must fire.
#[test]
fn planted_ryw_is_found() {
    let mut rng = TestRng::new(0xC8EC_0002);
    let mut exercised = 0;
    for case in 0..CASES {
        let trace = linearizable_trace(&gen_schedule(&mut rng, 3));
        // Find a read whose agent has a previous write in it.
        let candidates: Vec<usize> = trace
            .ops()
            .iter()
            .enumerate()
            .filter(|(_, op)| {
                op.read_seq().map(|s| s.iter().any(|(a, _)| *a == op.agent.0)).unwrap_or(false)
            })
            .map(|(i, _)| i)
            .collect();
        if candidates.is_empty() {
            continue;
        }
        exercised += 1;
        let victim = candidates[rng.range_usize(0, candidates.len())];
        let mut ops = trace.ops().to_vec();
        let agent = ops[victim].agent;
        if let OpKind::Read { seq } = &mut ops[victim].kind {
            let pos = seq.iter().position(|(a, _)| *a == agent.0).unwrap();
            let mut edited = seq.to_vec();
            edited.remove(pos);
            *seq = edited.into();
        }
        let mutated = TestTrace::new(ops);
        let obs = observations(&mutated, AnomalyKind::ReadYourWrites);
        assert!(!obs.is_empty(), "case {case}: erased own write not detected");
        assert!(obs.iter().any(|o| o.agent == agent), "case {case}");
    }
    assert!(exercised > CASES / 4, "too few exercised cases: {exercised}");
}

/// Completeness (MW): reverse the first two same-author events inside
/// one read — the MW checker must fire.
#[test]
fn planted_mw_is_found() {
    let mut rng = TestRng::new(0xC8EC_0003);
    let mut exercised = 0;
    for case in 0..CASES {
        let trace = linearizable_trace(&gen_schedule(&mut rng, 2));
        let candidates: Vec<usize> = trace
            .ops()
            .iter()
            .enumerate()
            .filter(|(_, op)| {
                op.read_seq()
                    .map(|s| {
                        // Two events by the same author present?
                        s.iter().filter(|(a, _)| *a == 0).count() >= 2
                    })
                    .unwrap_or(false)
            })
            .map(|(i, _)| i)
            .collect();
        if candidates.is_empty() {
            continue;
        }
        exercised += 1;
        let victim = candidates[rng.range_usize(0, candidates.len())];
        let mut ops = trace.ops().to_vec();
        if let OpKind::Read { seq } = &mut ops[victim].kind {
            let idx: Vec<usize> = seq
                .iter()
                .enumerate()
                .filter(|(_, (a, _))| *a == 0)
                .map(|(i, _)| i)
                .take(2)
                .collect();
            let mut edited = seq.to_vec();
            edited.swap(idx[0], idx[1]);
            *seq = edited.into();
        }
        let mutated = TestTrace::new(ops);
        assert!(
            !observations(&mutated, AnomalyKind::MonotonicWrites).is_empty(),
            "case {case}: reversed same-author pair not detected"
        );
    }
    assert!(exercised > CASES / 4, "too few exercised cases: {exercised}");
}

/// Completeness (MR): drop any event from a read that is not the
/// agent's last — the *next* read still shows everything, so instead
/// drop from the last read; the event was visible in the previous read
/// by the same agent, so MR fires.
#[test]
fn planted_mr_is_found() {
    let mut rng = TestRng::new(0xC8EC_0004);
    let mut exercised = 0;
    for case in 0..CASES {
        let trace = linearizable_trace(&gen_schedule(&mut rng, 2));
        // Find an agent with ≥2 reads whose earlier read is non-empty.
        let mut target: Option<(AgentId, usize)> = None;
        for agent in trace.agents() {
            let reads: Vec<usize> = trace
                .ops()
                .iter()
                .enumerate()
                .filter(|(_, op)| op.agent == agent && op.is_read())
                .map(|(i, _)| i)
                .collect();
            if reads.len() >= 2 {
                let first_len = trace.ops()[reads[reads.len() - 2]].read_seq().unwrap().len();
                if first_len > 0 {
                    target = Some((agent, *reads.last().unwrap()));
                    break;
                }
            }
        }
        let Some((agent, last_read)) = target else { continue };
        let mut ops = trace.ops().to_vec();
        if let OpKind::Read { seq } = &mut ops[last_read].kind {
            if seq.is_empty() {
                continue;
            }
            *seq = seq[1..].into();
        }
        exercised += 1;
        let mutated = TestTrace::new(ops);
        let obs = observations(&mutated, AnomalyKind::MonotonicReads);
        assert!(!obs.is_empty(), "case {case}: vanished event not detected");
        assert!(obs.iter().any(|o| o.agent == agent), "case {case}");
    }
    assert!(exercised > CASES / 4, "too few exercised cases: {exercised}");
}

/// Completeness (content divergence): give two agents' overlapping
/// reads disjoint suffixes — the checker must fire for that pair.
#[test]
fn planted_content_divergence_is_found() {
    let mut rng = TestRng::new(0xC8EC_0005);
    let mut exercised = 0;
    for case in 0..CASES {
        let trace = linearizable_trace(&gen_schedule(&mut rng, 2));
        let r0: Vec<usize> = trace
            .ops()
            .iter()
            .enumerate()
            .filter(|(_, op)| op.agent == AgentId(0) && op.is_read())
            .map(|(i, _)| i)
            .collect();
        let r1: Vec<usize> = trace
            .ops()
            .iter()
            .enumerate()
            .filter(|(_, op)| op.agent == AgentId(1) && op.is_read())
            .map(|(i, _)| i)
            .collect();
        if r0.is_empty() || r1.is_empty() {
            continue;
        }
        exercised += 1;
        let mut ops = trace.ops().to_vec();
        if let OpKind::Read { seq } = &mut ops[r0[0]].kind {
            *seq = seq.iter().copied().chain([(90, 1)]).collect(); // phantom event only agent 0 sees
        }
        if let OpKind::Read { seq } = &mut ops[r1[0]].kind {
            *seq = seq.iter().copied().chain([(91, 1)]).collect(); // phantom event only agent 1 sees
        }
        let mutated = TestTrace::new(ops);
        assert!(
            !observations(&mutated, AnomalyKind::ContentDivergence).is_empty(),
            "case {case}: disjoint suffixes not detected"
        );
    }
    assert!(exercised > CASES / 4, "too few exercised cases: {exercised}");
}

/// Divergence-window sweep agrees with the presence checker whenever
/// the reads overlap in time (simultaneous divergence ⇒ presence).
#[test]
fn window_divergence_implies_presence() {
    let mut rng = TestRng::new(0xC8EC_0006);
    for case in 0..CASES {
        let analysis =
            analyze(&linearizable_trace(&gen_schedule(&mut rng, 3)), &Default::default());
        if analysis.content_windows.iter().any(|w| w.any_divergence()) {
            assert!(analysis.has(AnomalyKind::ContentDivergence), "case {case}");
        }
    }
}
