//! Streaming-equals-batch property suite.
//!
//! The shipped `analyze()` is a one-pass replay through the incremental
//! [`StreamingAnalyzer`](conprobe_core::stream::StreamingAnalyzer), the
//! only checker engine, so there is nothing else in the crate to compare it
//! against. The oracle in
//! [`reference`] is instead a frozen copy of the original whole-trace
//! checker implementations, exactly as they stood before the engine went
//! incremental — an independent second implementation of §III.
//!
//! Randomized *chaotic* traces drive both sides: overlapping operation
//! intervals (including zero-duration ops and exact `response == invoke`
//! boundary ties, the cases the streaming watermark machinery defers on),
//! stale read prefixes, vanished events, inverted pairs and phantom
//! events that seed every anomaly class. Schedules come from a seeded
//! [`TestRng`] so each case replays exactly.
//!
//! A second generator, [`duplicate_heavy_trace`], polls a handful of
//! sequences a hundred times over — the shape of a real Test 2 trace, and
//! the one on which the engine's comparison *per distinct view* (a view
//! standing for every read that returned it) does all the counting. A
//! third, [`probe_stress_trace`], is shaped for how the engine probes a
//! view rather than for the anomalies it holds: keys repeated inside a
//! read, keys first interned by the read being compared, and views whose
//! key ids lie hundreds apart. A fourth, [`summary_mix_trace`], mixes
//! views the engine decides by word summaries with views it must walk or
//! search, in one trace. The same properties are checked on all four.
//!
//! Alongside exact equivalence, the suite pins the two streaming-only
//! contracts: [`live_counts`](StreamingAnalyzer::live_counts) grows
//! monotonically and lands on the final analysis, and
//! [`retained_bytes`](StreamingAnalyzer::retained_bytes) stays far below
//! the raw trace size when keys are wide (the interning guarantee) and
//! grows by a fixed summary for a read whose sequence was seen before.

use conprobe_core::analysis::{analyze, CheckerConfig, TestAnalysis};
use conprobe_core::checkers::WfrMode;
use conprobe_core::stream::StreamingAnalyzer;
use conprobe_core::trace::{AgentId, OpKind, OpRecord, TestTrace, Timestamp};
use conprobe_json::testkit::TestRng;

type K = (u32, u32); // (author, seq)

/// Frozen pre-streaming batch checkers.
///
/// Verbatim copies (modulo paths) of the last whole-trace revision of
/// `checkers::{ryw,mw,mr,wfr,content,order}` and the `window` sweep; each
/// observation's prose is built beside it and checked by `noted`.
/// They must never be "fixed" to track the shipped engine — their whole
/// value is staying an independent implementation of the paper's
/// definitions.
mod reference {
    use conprobe_core::anomaly::{AnomalyKind, Observation};
    use conprobe_core::checkers::WfrMode;
    use conprobe_core::index::{ReadView, TraceIndex};
    use conprobe_core::trace::{EventKey, Timestamp};
    use conprobe_core::window::{WindowAnalysis, WindowKind};

    /// An observation the frozen checker built beside its own prose: the
    /// engine's rendering of the observation must be that text.
    fn noted<K: EventKey>(obs: Observation<K>, detail: String) -> Observation<K> {
        assert_eq!(obs.detail(), detail, "{obs:?}");
        obs
    }

    pub fn ryw<K: EventKey>(index: &TraceIndex<'_, K>) -> Vec<Observation<K>> {
        let mut out = Vec::new();
        for &agent in index.agents() {
            let writes = index.writes_of(agent);
            for read in index.reads_of(agent) {
                let missing: Vec<K> = writes
                    .iter()
                    .filter(|w| w.op.response <= read.op.invoke && !read.contains(w.key))
                    .map(|w| w.id.clone())
                    .collect();
                if !missing.is_empty() {
                    let detail = format!(
                        "read by {agent} misses {} own completed write(s): {missing:?}",
                        missing.len()
                    );
                    out.push(noted(
                        Observation {
                            kind: AnomalyKind::ReadYourWrites,
                            agent,
                            other_agent: None,
                            at: read.op.response,
                            witnesses: missing,
                            read_pairs: 0,
                        },
                        detail,
                    ));
                }
            }
        }
        out
    }

    pub fn mw<K: EventKey>(index: &TraceIndex<'_, K>) -> Vec<Observation<K>> {
        let mut out = Vec::new();
        for read in index.reads() {
            for &writer in index.agents() {
                let w: Vec<_> = index
                    .writes_of(writer)
                    .iter()
                    .filter(|w| w.op.response <= read.op.invoke)
                    .collect();
                'pairs: for (i, x) in w.iter().enumerate() {
                    for y in &w[i + 1..] {
                        let violation = match (read.position(x.key), read.position(y.key)) {
                            (None, Some(_)) => true,
                            (Some(px), Some(py)) => py < px,
                            _ => false,
                        };
                        if violation {
                            let (x, y) = (x.id, y.id);
                            let detail = format!(
                                "read by {} sees {writer}'s write {y:?} but write {x:?} \
                                 is missing or ordered after it",
                                read.op.agent
                            );
                            out.push(noted(
                                Observation {
                                    kind: AnomalyKind::MonotonicWrites,
                                    agent: read.op.agent,
                                    other_agent: Some(writer),
                                    at: read.op.response,
                                    witnesses: vec![x.clone(), y.clone()],
                                    read_pairs: 0,
                                },
                                detail,
                            ));
                            break 'pairs;
                        }
                    }
                }
            }
        }
        out
    }

    pub fn mr<K: EventKey>(index: &TraceIndex<'_, K>) -> Vec<Observation<K>> {
        let mut out = Vec::new();
        for &agent in index.agents() {
            let reads: Vec<_> = index.reads_of_by_response(agent).collect();
            for pair in reads.windows(2) {
                let (r1, r2) = (pair[0], pair[1]);
                let vanished: Vec<K> = r1
                    .keys()
                    .iter()
                    .zip(r1.seq)
                    .filter(|(&k, _)| !r2.contains(k))
                    .map(|(_, x)| x.clone())
                    .collect();
                if !vanished.is_empty() {
                    let detail = format!(
                        "{} event(s) observed by {agent} disappeared from its next read: \
                         {vanished:?}",
                        vanished.len()
                    );
                    out.push(noted(
                        Observation {
                            kind: AnomalyKind::MonotonicReads,
                            agent,
                            other_agent: None,
                            at: r2.op.response,
                            witnesses: vanished,
                            read_pairs: 0,
                        },
                        detail,
                    ));
                }
            }
        }
        out
    }

    struct Dep<'m, K> {
        dep: &'m K,
        write: &'m K,
        dep_key: u32,
        write_key: u32,
    }

    fn general_dependencies<'m, K: EventKey>(index: &'m TraceIndex<'_, K>) -> Vec<Dep<'m, K>> {
        let mut deps = Vec::new();
        for &agent in index.agents() {
            for w in index.writes_of(agent) {
                let mut seen = vec![false; index.key_count()];
                for r in index.reads_of(agent) {
                    if r.op.response > w.op.invoke {
                        continue;
                    }
                    for (&k, x) in r.keys().iter().zip(r.seq) {
                        if k != w.key && !seen[k as usize] {
                            seen[k as usize] = true;
                            deps.push(Dep { dep: x, write: w.id, dep_key: k, write_key: w.key });
                        }
                    }
                }
            }
        }
        deps
    }

    pub fn wfr<K: EventKey>(index: &TraceIndex<'_, K>, mode: &WfrMode<K>) -> Vec<Observation<K>> {
        let deps: Vec<Dep<'_, K>> = match mode {
            WfrMode::TriggerPairs(pairs) => pairs
                .iter()
                .filter_map(|(dep, w)| {
                    let write_key = index.key_id(w)?;
                    let dep_key = index.key_id(dep).unwrap_or(u32::MAX);
                    Some(Dep { dep, write: w, dep_key, write_key })
                })
                .collect(),
            WfrMode::General => general_dependencies(index),
        };
        let mut out = Vec::new();
        for read in index.reads() {
            let mut witnesses = Vec::new();
            for d in &deps {
                if read.contains(d.write_key) && !read.contains(d.dep_key) {
                    witnesses.push(d.dep.clone());
                    witnesses.push(d.write.clone());
                }
            }
            if !witnesses.is_empty() {
                let detail = format!(
                    "read by {} sees write(s) without their read dependencies: {witnesses:?}",
                    read.op.agent
                );
                out.push(noted(
                    Observation {
                        kind: AnomalyKind::WritesFollowReads,
                        agent: read.op.agent,
                        other_agent: None,
                        at: read.op.response,
                        witnesses,
                        read_pairs: 0,
                    },
                    detail,
                ));
            }
        }
        out
    }

    fn first_only_in<'t, K>(a: &ReadView<'t, K>, b: &ReadView<'t, K>) -> Option<&'t K> {
        a.keys().iter().zip(a.seq).find(|(&k, _)| !b.contains(k)).map(|(_, x)| x)
    }

    pub fn content<K: EventKey>(index: &TraceIndex<'_, K>) -> Vec<Observation<K>> {
        let agents = index.agents();
        let mut out = Vec::new();
        for (i, &a) in agents.iter().enumerate() {
            for &b in &agents[i + 1..] {
                let reads_a: Vec<_> = index.reads_of(a).collect();
                let reads_b: Vec<_> = index.reads_of(b).collect();
                let mut first_witness: Option<(K, K, Timestamp)> = None;
                let mut pair_count = 0usize;
                for ra in &reads_a {
                    for rb in &reads_b {
                        let x = first_only_in(ra, rb);
                        let y = first_only_in(rb, ra);
                        if let (Some(x), Some(y)) = (x, y) {
                            pair_count += 1;
                            let at = ra.op.response.max(rb.op.response);
                            if first_witness.is_none() {
                                first_witness = Some((x.clone(), y.clone(), at));
                            }
                        }
                    }
                }
                if let Some((x, y, at)) = first_witness {
                    let detail = format!(
                        "{a} and {b} mutually diverge ({pair_count} read pair(s)): \
                         {a} alone sees {x:?}, {b} alone sees {y:?}"
                    );
                    out.push(noted(
                        Observation {
                            kind: AnomalyKind::ContentDivergence,
                            agent: a,
                            other_agent: Some(b),
                            at,
                            witnesses: vec![x, y],
                            read_pairs: pair_count,
                        },
                        detail,
                    ));
                }
            }
        }
        out
    }

    fn inversion_between<'t, K>(
        a: &ReadView<'t, K>,
        b: &ReadView<'t, K>,
    ) -> Option<(&'t K, &'t K)> {
        let mut prev: Option<(&'t K, u32)> = None;
        for (&k, x) in a.keys().iter().zip(a.seq) {
            if let Some(p2) = b.position(k) {
                if let Some((px, pp2)) = prev {
                    if p2 < pp2 {
                        return Some((px, x));
                    }
                }
                prev = Some((x, p2));
            }
        }
        None
    }

    pub fn order<K: EventKey>(index: &TraceIndex<'_, K>) -> Vec<Observation<K>> {
        let agents = index.agents();
        let mut out = Vec::new();
        for (i, &a) in agents.iter().enumerate() {
            for &b in &agents[i + 1..] {
                let reads_a: Vec<_> = index.reads_of(a).collect();
                let reads_b: Vec<_> = index.reads_of(b).collect();
                let mut first: Option<(K, K, Timestamp)> = None;
                let mut pair_count = 0usize;
                for ra in &reads_a {
                    for rb in &reads_b {
                        if let Some((x, y)) = inversion_between(ra, rb) {
                            pair_count += 1;
                            if first.is_none() {
                                first = Some((
                                    x.clone(),
                                    y.clone(),
                                    ra.op.response.max(rb.op.response),
                                ));
                            }
                        }
                    }
                }
                if let Some((x, y, at)) = first {
                    let detail = format!(
                        "{a} and {b} order {x:?}/{y:?} oppositely \
                         ({pair_count} read pair(s))"
                    );
                    out.push(noted(
                        Observation {
                            kind: AnomalyKind::OrderDivergence,
                            agent: a,
                            other_agent: Some(b),
                            at,
                            witnesses: vec![x, y],
                            read_pairs: pair_count,
                        },
                        detail,
                    ));
                }
            }
        }
        out
    }

    fn content_diverged<K>(a: &ReadView<'_, K>, b: &ReadView<'_, K>) -> bool {
        a.keys().iter().any(|&x| !b.contains(x)) && b.keys().iter().any(|&y| !a.contains(y))
    }

    fn pair_windows<K: EventKey>(
        index: &TraceIndex<'_, K>,
        a: conprobe_core::trace::AgentId,
        b: conprobe_core::trace::AgentId,
        kind: WindowKind,
    ) -> WindowAnalysis {
        let pair = if a <= b { (a, b) } else { (b, a) };
        let reads =
            index.reads_by_response().filter(|r| r.op.agent == pair.0 || r.op.agent == pair.1);

        let mut last_a: Option<&ReadView<'_, K>> = None;
        let mut last_b: Option<&ReadView<'_, K>> = None;
        let mut open: Option<Timestamp> = None;
        let mut closed = Vec::new();

        for r in reads {
            if r.op.agent == pair.0 {
                last_a = Some(r);
            } else {
                last_b = Some(r);
            }
            let diverged = match (last_a, last_b) {
                (Some(ra), Some(rb)) => match kind {
                    WindowKind::Content => content_diverged(ra, rb),
                    WindowKind::Order => inversion_between(ra, rb).is_some(),
                },
                _ => false,
            };
            match (diverged, open) {
                (true, None) => open = Some(r.op.response),
                (false, Some(start)) => {
                    closed.push((start, r.op.response));
                    open = None;
                }
                _ => {}
            }
        }

        WindowAnalysis { pair, kind, windows: closed, open_since: open }
    }

    pub fn every_pair_windows<K: EventKey>(
        index: &TraceIndex<'_, K>,
        kind: WindowKind,
    ) -> Vec<WindowAnalysis> {
        let agents = index.agents();
        let mut out = Vec::new();
        for (i, &a) in agents.iter().enumerate() {
            for &b in &agents[i + 1..] {
                out.push(pair_windows(index, a, b, kind));
            }
        }
        out
    }

    /// The whole original `analyze()` pipeline: all six checkers in the
    /// historical order plus both window sweeps, off one shared index.
    pub fn analyze<K: EventKey>(
        trace: &conprobe_core::trace::TestTrace<K>,
        mode: &WfrMode<K>,
    ) -> (Vec<Observation<K>>, Vec<WindowAnalysis>, Vec<WindowAnalysis>) {
        let index = TraceIndex::new(trace);
        let mut obs = Vec::new();
        obs.extend(ryw(&index));
        obs.extend(mw(&index));
        obs.extend(mr(&index));
        obs.extend(wfr(&index, mode));
        obs.extend(content(&index));
        obs.extend(order(&index));
        let cw = every_pair_windows(&index, WindowKind::Content);
        let ow = every_pair_windows(&index, WindowKind::Order);
        (obs, cw, ow)
    }
}

/// A chaotic trace: overlapping intervals, stale views, corruption.
///
/// Writes append to a global log; each read returns a *corrupted* stale
/// prefix of it — possibly missing an event (RYW/MR/MW food), with an
/// adjacent pair swapped (MW/order food), or with a phantom event only
/// this agent ever sees (content-divergence food). Invoke times may tie
/// across agents and durations overlap freely, so the streaming
/// watermark/heap deferrals are exercised on every boundary case.
fn chaotic_trace(rng: &mut TestRng, agents: u32) -> TestTrace<K> {
    let len = rng.range_usize(6, 40);
    let mut log: Vec<K> = Vec::new();
    let mut seqs = std::collections::HashMap::<u32, u32>::new();
    let mut ops = Vec::new();
    let mut now = 0i64;
    for _ in 0..len {
        now += rng.range(0, 15) as i64; // sometimes stands still: invoke ties
        let a = rng.range(0, u64::from(agents)) as u32;
        let invoke = Timestamp::from_millis(now);
        let response = Timestamp::from_millis(now + rng.range(0, 40) as i64);
        if rng.chance(0.4) {
            let seq = seqs.entry(a).or_insert(0);
            *seq += 1;
            let id = (a, *seq);
            log.push(id);
            ops.push(OpRecord { agent: AgentId(a), invoke, response, kind: OpKind::Write { id } });
        } else {
            let upto = rng.range_usize(0, log.len() + 1);
            let mut seq: Vec<K> = log[..upto].to_vec();
            if !seq.is_empty() && rng.chance(0.35) {
                seq.remove(rng.range_usize(0, seq.len()));
            }
            if seq.len() >= 2 && rng.chance(0.35) {
                let i = rng.range_usize(0, seq.len() - 1);
                seq.swap(i, i + 1);
            }
            if rng.chance(0.15) {
                seq.push((900 + a, rng.range(1, 4) as u32));
            }
            ops.push(OpRecord {
                agent: AgentId(a),
                invoke,
                response,
                kind: OpKind::Read { seq: seq.into() },
            });
        }
    }
    TestTrace::new(ops)
}

/// A duplicate-heavy trace: three agents poll 100–130 times and get one
/// of at most four sequences, mostly the one they got last time.
///
/// The four are drawn from variants of one base sequence that differ the
/// ways views can: another order of the same set, a key repeated inside
/// the sequence, a key swapped for one nobody else sees, one key more or
/// fewer. The first read of a sequence by an agent is slow, so it
/// *arrives* first but a later read of the same sequence *responds*
/// first. A write lands midway so general WFR has dependencies to check
/// against views that repeat before and after it. `flip` relabels agent
/// `a` as `2 - a`: the same schedule then meets its first divergence with
/// the pair's agents in the other order.
fn duplicate_heavy_trace(rng: &mut TestRng, flip: bool) -> TestTrace<K> {
    let agent = |a: u32| AgentId(if flip { 2 - a } else { a });
    let (late, phantom): (K, K) = ((0, 2), (900, 1));
    let base: Vec<K> = vec![(0, 1), (1, 1), (2, 1)];
    let edit = |f: &dyn Fn(&mut Vec<K>)| {
        let mut seq = base.clone();
        f(&mut seq);
        seq
    };
    let mut variants = vec![
        base.clone(),
        edit(&|s| s.swap(0, 1)),
        edit(&|s| s.swap(1, 2)),
        edit(&|s| s.push(s[0])),
        edit(&|s| s[1] = phantom),
        edit(&|s| s.push(late)),
        edit(&|s| s.truncate(2)),
    ];
    while variants.len() > 4 {
        variants.remove(rng.range_usize(0, variants.len()));
    }

    let mut ops = Vec::new();
    for (a, &id) in base.iter().enumerate() {
        let (invoke, response) = (a as i64, a as i64 + 5);
        ops.push(OpRecord {
            agent: agent(a as u32),
            invoke: Timestamp::from_millis(invoke),
            response: Timestamp::from_millis(response),
            kind: OpKind::Write { id },
        });
    }
    let reads = rng.range_usize(100, 131);
    let late_write_at = rng.range_usize(30, 70);
    let mut now = 10i64;
    let mut latest = [0usize; 3];
    let mut polled = [[false; 4]; 3];
    for i in 0..reads {
        now += rng.range(0, 10) as i64;
        let a = rng.range_usize(0, 3);
        if i == late_write_at {
            ops.push(OpRecord {
                agent: agent(a as u32),
                invoke: Timestamp::from_millis(now),
                response: Timestamp::from_millis(now + 5),
                kind: OpKind::Write { id: late },
            });
        }
        if i == 0 || rng.chance(0.2) {
            latest[a] = rng.range_usize(0, variants.len());
        }
        let took = if polled[a][latest[a]] { rng.range(0, 40) } else { rng.range(100, 150) };
        polled[a][latest[a]] = true;
        ops.push(OpRecord {
            agent: agent(a as u32),
            invoke: Timestamp::from_millis(now),
            response: Timestamp::from_millis(now + took as i64),
            kind: OpKind::Read { seq: variants[latest[a]].clone().into() },
        });
    }
    TestTrace::new(ops)
}

/// The generator keeps its promises: many reads, few sequences, and a
/// first-arrived read of some (agent, sequence) that is not the first of
/// them to respond.
#[test]
fn duplicate_heavy_traces_have_the_advertised_shape() {
    let mut rng = TestRng::new(0x57EA_0006);
    for case in 0..20 {
        let trace = duplicate_heavy_trace(&mut rng, case % 2 == 1);
        let reads: Vec<_> = trace.ops().iter().filter(|op| op.read_seq().is_some()).collect();
        let sequences: std::collections::HashSet<_> =
            reads.iter().map(|op| op.read_seq().unwrap()).collect();
        assert!(reads.len() >= 100 && sequences.len() <= 4, "case {case}");
        let overtaken = reads.iter().enumerate().any(|(i, first)| {
            let same =
                |op: &&&OpRecord<K>| op.agent == first.agent && op.read_seq() == first.read_seq();
            !reads[..i].iter().any(|op| same(&op))
                && reads[i + 1..].iter().any(|op| same(&op) && op.response < first.response)
        });
        assert!(overtaken, "case {case}: every first arrival also responds first");
    }
}

const CASES: usize = 250;

fn assert_full_pass_matches_the_oracle(trace: &TestTrace<K>, case: &str) -> TestAnalysis<K> {
    let config = CheckerConfig::default();
    let got = analyze(trace, &config);
    let (want_obs, want_cw, want_ow) = reference::analyze(trace, &config.wfr_mode);
    assert_eq!(got.observations, want_obs, "case {case}: observations diverge");
    assert_eq!(got.content_windows, want_cw, "case {case}: content windows diverge");
    assert_eq!(got.order_windows, want_ow, "case {case}: order windows diverge");
    got
}

/// The tentpole equivalence: a full streaming pass over a chaotic trace
/// produces *identical* observations (kind, agent, timestamps, witnesses,
/// read-pair counts — `Observation` is `PartialEq` on all of it — whose
/// rendered prose equals the oracle's own, see `reference::noted`) and
/// identical window sweeps to the frozen batch oracle.
#[test]
fn full_streaming_pass_equals_the_frozen_batch_oracle() {
    let mut rng = TestRng::new(0x57EA_0001);
    let mut anomalies_seen = 0usize;
    for case in 0..CASES {
        let agents = rng.range(2, 5) as u32;
        let trace = chaotic_trace(&mut rng, agents);
        anomalies_seen +=
            assert_full_pass_matches_the_oracle(&trace, &case.to_string()).observations.len();
    }
    // The generator must actually feed the checkers, or the equivalence
    // above is vacuous.
    assert!(anomalies_seen > CASES, "generator too tame: {anomalies_seen} observations");
}

/// Same equivalence under `WfrMode::TriggerPairs`, with pairs sampled
/// from the trace's own writes plus an occasionally-nonexistent key.
#[test]
fn trigger_pair_wfr_matches_the_oracle() {
    let mut rng = TestRng::new(0x57EA_0002);
    for case in 0..CASES {
        let trace = chaotic_trace(&mut rng, 3);
        let keys: Vec<K> = trace
            .ops()
            .iter()
            .filter_map(|op| match &op.kind {
                OpKind::Write { id } => Some(*id),
                OpKind::Read { .. } => None,
            })
            .collect();
        let mut pairs = Vec::new();
        for _ in 0..rng.range_usize(1, 4) {
            if keys.is_empty() {
                break;
            }
            let dep = if rng.chance(0.2) {
                (777, 1) // never written: any read showing `write` fires
            } else {
                keys[rng.range_usize(0, keys.len())]
            };
            let write = keys[rng.range_usize(0, keys.len())];
            pairs.push((dep, write));
        }
        let mode = WfrMode::TriggerPairs(pairs);
        let config = CheckerConfig { wfr_mode: mode.clone() };
        let got = analyze(&trace, &config);
        let (want_obs, _, _) = reference::analyze(&trace, &mode);
        assert_eq!(got.observations, want_obs, "case {case}");
    }
}

/// The per-view exactness argument, on the traces it is about: with a
/// hundred reads over four sequences nearly every read pair is counted
/// through a view's multiplicity and every witness comes from a view's
/// first-arrived read, in both agent orientations — and counts,
/// witnesses, `at` and prose still equal the oracle's.
#[test]
fn duplicate_heavy_traces_equal_the_oracle_in_both_orientations() {
    use conprobe_core::anomaly::AnomalyKind;
    let mut rng = TestRng::new(0x57EA_0005);
    let mut divergences = [0usize; 2];
    for case in 0..60 {
        // Each schedule twice: as generated, and with the agents relabelled.
        let schedule = rng.clone();
        for flip in [false, true] {
            rng = schedule.clone();
            let trace = duplicate_heavy_trace(&mut rng, flip);
            let case = format!("{case} flip {flip}");
            let analysis = assert_full_pass_matches_the_oracle(&trace, &case);
            divergences[0] += analysis.count(AnomalyKind::ContentDivergence);
            divergences[1] += analysis.count(AnomalyKind::OrderDivergence);
        }
    }
    assert!(divergences.iter().all(|&n| n > 60), "generator too tame: {divergences:?}");
}

/// A pair's earliest diverging read pair by ordinal key can arrive after
/// a later one was counted: agent 0's second read diverges from agent 1's
/// first at key `(1, 0)`, then agent 1's second read diverges from agent
/// 0's first at `(0, 1)` — met with the pair's agents the other way round
/// (the new read's agent is the larger). Both kinds must take the second
/// arrival's witness and `at`, and count every diverging pair.
#[test]
fn an_earlier_ordinal_pair_that_arrives_later_supplies_the_witness() {
    use conprobe_core::anomaly::AnomalyKind;
    let read = |agent: u32, at: i64, seq: &[u32]| OpRecord {
        agent: AgentId(agent),
        invoke: Timestamp::from_millis(at),
        response: Timestamp::from_millis(at + 5),
        kind: OpKind::Read { seq: seq.iter().map(|&s| (9, s)).collect() },
    };
    let trace = TestTrace::new(vec![
        read(1, 0, &[1, 2, 4]),  // agent 1, ordinal 0
        read(0, 10, &[1, 2, 4]), // agent 0, ordinal 0: the same view
        read(0, 20, &[2, 1, 3]), // key (1, 0): 3 vs 4, and 2/1 swapped
        read(1, 30, &[5, 2, 1]), // key (0, 1): 4 vs 5, and 1/2 swapped
    ]);
    let analysis = assert_full_pass_matches_the_oracle(&trace, "late earliest pair");
    let of = |kind| analysis.observations.iter().find(|o| o.kind == kind).expect("observed");
    let content = of(AnomalyKind::ContentDivergence);
    assert_eq!(content.witnesses, [(9, 4), (9, 5)]);
    assert_eq!(content.at, Timestamp::from_millis(35));
    assert!(content.detail().contains("(3 read pair(s))"), "{}", content.detail());
    let order = of(AnomalyKind::OrderDivergence);
    assert_eq!(order.witnesses, [(9, 1), (9, 2)]);
    assert_eq!(order.at, Timestamp::from_millis(35));
    assert!(order.detail().contains("(2 read pair(s))"), "{}", order.detail());
}

/// A probe-stress trace: three agents, 30–60 ops after one wide read.
///
/// * The wide read comes first and carries 100–300 keys nobody writes, so
///   they take the low ids and every written key's id lies above them; a
///   later read that mixes one of them with written keys spans ids
///   hundreds apart.
/// * A read may carry one of its keys twice, so a view's *last* position
///   and an in-order witness walk, duplicates included, both decide
///   verdicts.
/// * A read may carry a key no earlier op carried: the analyzer interns
///   it while pushing the very read it then compares.
/// * Adjacent swaps make order food. `flip` relabels agent `a` as `2 - a`,
///   so each schedule also runs with every pair's agents the other way
///   round.
fn probe_stress_trace(rng: &mut TestRng, flip: bool) -> TestTrace<K> {
    fn insert_anywhere(rng: &mut TestRng, seq: &mut Vec<K>, key: K) {
        let at = rng.range_usize(0, seq.len() + 1);
        seq.insert(at, key);
    }
    let op = |a: u32, at: i64, took: u64, kind| OpRecord {
        agent: AgentId(if flip { 2 - a } else { a }),
        invoke: Timestamp::from_millis(at),
        response: Timestamp::from_millis(at + took as i64),
        kind,
    };
    let wide: Vec<K> = (0..rng.range(100, 301) as u32).map(|s| (950, s)).collect();
    let mut ops = vec![op(0, 0, 5, OpKind::Read { seq: wide.clone().into() })];
    let (mut log, mut written, mut fresh, mut now) = (Vec::new(), [0u32; 3], 0, 0i64);
    for _ in 0..rng.range_usize(30, 61) {
        now += rng.range(0, 12) as i64;
        let a = rng.range(0, 3) as u32;
        let took = rng.range(0, 30);
        if rng.chance(0.3) {
            written[a as usize] += 1;
            let id = (a, written[a as usize]);
            log.push(id);
            ops.push(op(a, now, took, OpKind::Write { id }));
            continue;
        }
        let mut seq: Vec<K> = log[..rng.range_usize(0, log.len() + 1)].to_vec();
        if rng.chance(0.4) {
            let far = wide[rng.range_usize(0, wide.len())];
            insert_anywhere(rng, &mut seq, far);
        }
        if !seq.is_empty() && rng.chance(0.5) {
            let again = seq[rng.range_usize(0, seq.len())];
            insert_anywhere(rng, &mut seq, again);
        }
        if seq.len() >= 2 && rng.chance(0.4) {
            let i = rng.range_usize(0, seq.len() - 1);
            seq.swap(i, i + 1);
        }
        if rng.chance(0.35) {
            fresh += 1;
            insert_anywhere(rng, &mut seq, (800 + a, fresh));
        }
        ops.push(op(a, now, took, OpKind::Read { seq: seq.into() }));
    }
    TestTrace::new(ops)
}

/// The generator keeps its promises, judged on key ids assigned the way
/// the analyzer interns them (first appearance in trace order): a read
/// with a repeated key, a read spanning ids at least 50 apart, and a read
/// carrying a key no earlier op carried after another agent has read.
#[test]
fn probe_stress_traces_have_the_advertised_shape() {
    let mut rng = TestRng::new(0x57EA_0008);
    for case in 0..20 {
        let trace = probe_stress_trace(&mut rng, case % 2 == 1);
        let mut ids = std::collections::HashMap::<K, usize>::new();
        let mut readers = std::collections::HashSet::new();
        let (mut repeated, mut spread, mut fresh_compared) = (false, 0, false);
        for op in trace.ops() {
            let keys = match &op.kind {
                OpKind::Write { id } => std::slice::from_ref(id),
                OpKind::Read { seq } => seq.as_slice(),
            };
            let unseen = keys.iter().any(|k| !ids.contains_key(k));
            for &k in keys {
                let next = ids.len();
                ids.entry(k).or_insert(next);
            }
            if let OpKind::Read { seq } = &op.kind {
                repeated |= (1..seq.len()).any(|i| seq[..i].contains(&seq[i]));
                let of = |k: &K| ids[k];
                if let (Some(lo), Some(hi)) = (seq.iter().map(of).min(), seq.iter().map(of).max()) {
                    // The wide read itself does not count.
                    if seq.len() < 50 {
                        spread = spread.max(hi - lo);
                    }
                }
                fresh_compared |= unseen && readers.iter().any(|&r| r != op.agent);
                readers.insert(op.agent);
            }
        }
        assert!(repeated && spread >= 50 && fresh_compared, "case {case}: {repeated} {spread}");
    }
}

/// The probe-table guards: on probe-stress traces in both orientations,
/// the full pass and trigger-pair WFR equal the frozen oracle. Trigger
/// pairs come from the trace's own keys — so a pair's key may first be
/// interned mid-stream — plus the first wide key and a key no op carries.
#[test]
fn probe_stress_traces_equal_the_oracle_in_both_orientations() {
    use conprobe_core::anomaly::AnomalyKind;
    let mut rng = TestRng::new(0x57EA_0007);
    let mut found = [0usize; 4];
    for case in 0..80 {
        let schedule = rng.clone();
        for flip in [false, true] {
            rng = schedule.clone();
            let trace = probe_stress_trace(&mut rng, flip);
            let case = format!("{case} flip {flip}");
            let analysis = assert_full_pass_matches_the_oracle(&trace, &case);
            for (n, kind) in found.iter_mut().zip([
                AnomalyKind::MonotonicWrites,
                AnomalyKind::WritesFollowReads,
                AnomalyKind::ContentDivergence,
                AnomalyKind::OrderDivergence,
            ]) {
                *n += analysis.count(kind);
            }

            let mut keys: Vec<K> = trace
                .ops()
                .iter()
                .flat_map(|op| match &op.kind {
                    OpKind::Write { id } => vec![*id],
                    OpKind::Read { seq } => seq.to_vec(),
                })
                .filter(|k| k.0 != 950)
                .chain([(950, 0), (777, 1)])
                .collect();
            keys.sort_unstable();
            keys.dedup();
            let mut pick = || keys[rng.range_usize(0, keys.len())];
            let pairs: Vec<(K, K)> = (0..4).map(|_| (pick(), pick())).collect();
            let mode = WfrMode::TriggerPairs(pairs);
            let config = CheckerConfig { wfr_mode: mode.clone() };
            let (want, _, _) = reference::analyze(&trace, &mode);
            assert_eq!(analyze(&trace, &config).observations, want, "case {case}: trigger pairs");
        }
    }
    assert!(found.iter().all(|&n| n > 80), "generator too tame: {found:?}");
}

/// A summary-mix trace: three agents, about 90 writes of distinct keys,
/// and reads of which some views have a word summary (ids below 64, none
/// repeated, at most four inverted pairs) and some do not, in one trace.
///
/// Writes come 40 up front, then three in ten steps, on a strictly rising
/// clock, so a key's id is its place in the write log and a read in log
/// order inverts nothing. A read takes a sorted random subset of the log
/// so far and one of four shapes:
/// * tidy: keys among the first 64 written, up to three adjacent swaps
///   (a summary);
/// * reversed: the same, newest first (more than four inversions once it
///   holds six keys);
/// * late: one of the keys past the 64th too (an id of 64 or more);
/// * doubled: a tidy read with one key repeated.
///
/// `flip` relabels agent `a` as `2 - a`.
fn summary_mix_trace(rng: &mut TestRng, flip: bool) -> TestTrace<K> {
    let op = |a: u32, at: i64, took: u64, kind| OpRecord {
        agent: AgentId(if flip { 2 - a } else { a }),
        invoke: Timestamp::from_millis(at),
        response: Timestamp::from_millis(at + took as i64),
        kind,
    };
    let (mut ops, mut log, mut now) = (Vec::new(), Vec::<K>::new(), 0i64);
    for step in 0..rng.range(190, 221) {
        now += rng.range(1, 8) as i64;
        let a = rng.range(0, 3) as u32;
        if step >= 40 && rng.chance(0.7) {
            let tidy = log.len().min(64);
            let mut picked: Vec<usize> =
                (0..rng.range(1, 11)).map(|_| rng.range_usize(0, tidy)).collect();
            let shape = rng.range(0, 4);
            if shape == 2 && log.len() > 64 {
                picked.push(rng.range_usize(64, log.len()));
            }
            picked.sort_unstable();
            picked.dedup();
            let mut seq: Vec<K> = picked.iter().map(|&i| log[i]).collect();
            match shape {
                1 => seq.reverse(),
                3 => seq
                    .insert(rng.range_usize(0, seq.len() + 1), seq[rng.range_usize(0, seq.len())]),
                _ => {
                    for _ in 0..rng.range(0, 4).min(seq.len().saturating_sub(1) as u64) {
                        let i = rng.range_usize(0, seq.len() - 1);
                        seq.swap(i, i + 1);
                    }
                }
            }
            ops.push(op(a, now, rng.range(0, 30), OpKind::Read { seq: seq.into() }));
        } else {
            let id = (a, log.len() as u32);
            log.push(id);
            ops.push(op(a, now, rng.range(0, 10), OpKind::Write { id }));
        }
    }
    TestTrace::new(ops)
}

/// The generator keeps its promises, judged on key ids assigned the way
/// the analyzer interns them: every trace has reads whose views have a
/// summary and reads whose views lack one for each cause alone — an id
/// of 64 or more, a repeated id, more than four inverted pairs.
#[test]
fn summary_mix_traces_have_the_advertised_shape() {
    let mut rng = TestRng::new(0x57EA_000A);
    for case in 0..20 {
        let trace = summary_mix_trace(&mut rng, case % 2 == 1);
        let mut ids = std::collections::HashMap::<K, usize>::new();
        // Summarized reads, then reads refused for one cause alone.
        let mut met = [0usize; 4];
        for op in trace.ops() {
            let keys = match &op.kind {
                OpKind::Write { id } => std::slice::from_ref(id),
                OpKind::Read { seq } => seq.as_slice(),
            };
            for &k in keys {
                let next = ids.len();
                ids.entry(k).or_insert(next);
            }
            if let OpKind::Read { seq } = &op.kind {
                let of: Vec<usize> = seq.iter().map(|k| ids[k]).collect();
                let repeats = (1..of.len()).any(|i| of[..i].contains(&of[i]));
                let low = of.iter().all(|&i| i < 64);
                let flips = (0..of.len())
                    .flat_map(|i| (i + 1..of.len()).map(move |j| (i, j)))
                    .filter(|&(i, j)| of[i] > of[j])
                    .count();
                let few = flips <= 4;
                for (n, alone) in met.iter_mut().zip([
                    !repeats && low && few,
                    !repeats && !low && few,
                    repeats && low,
                    !repeats && low && !few,
                ]) {
                    *n += usize::from(alone);
                }
            }
        }
        assert!(met.iter().all(|&n| n > 0), "case {case}: {met:?}");
    }
}

/// The summary verdict and the walk side by side: on summary-mix traces
/// in both orientations, where view pairs are decided by words, by the
/// walk, or by the searches within one trace, the full pass equals the
/// frozen oracle.
#[test]
fn summary_mix_traces_equal_the_oracle_in_both_orientations() {
    use conprobe_core::anomaly::AnomalyKind;
    let mut rng = TestRng::new(0x57EA_0009);
    let mut divergences = [0usize; 2];
    for case in 0..40 {
        let schedule = rng.clone();
        for flip in [false, true] {
            rng = schedule.clone();
            let trace = summary_mix_trace(&mut rng, flip);
            let analysis = assert_full_pass_matches_the_oracle(&trace, &format!("{case} {flip}"));
            divergences[0] += analysis.count(AnomalyKind::ContentDivergence);
            divergences[1] += analysis.count(AnomalyKind::OrderDivergence);
        }
    }
    assert!(divergences.iter().all(|&n| n > 80), "generator too tame: {divergences:?}");
}

/// The long run of the two probe guards: 2,000 summary-mix and 2,000
/// probe-stress traces, each schedule in both orientations, against the
/// frozen oracle. Run it with `cargo test --release -p conprobe-core --
/// --ignored`.
#[test]
#[ignore = "long run: 4,000 traces in both orientations"]
fn summary_mix_and_probe_stress_traces_equal_the_oracle_at_length() {
    type Generator = fn(&mut TestRng, bool) -> TestTrace<K>;
    let generators: [(u64, Generator); 2] =
        [(0x57EA_000B, summary_mix_trace), (0x57EA_000C, probe_stress_trace)];
    for (seed, generate) in generators {
        let mut rng = TestRng::new(seed);
        for case in 0..2000 {
            let schedule = rng.clone();
            for flip in [false, true] {
                rng = schedule.clone();
                let trace = generate(&mut rng, flip);
                assert_full_pass_matches_the_oracle(&trace, &format!("{seed:#x} {case} {flip}"));
            }
        }
    }
}

/// Mid-stream telemetry: `live_counts` never decreases in any component
/// as events arrive, `events_pushed` tracks exactly, and every count is
/// a *lower bound* on the per-kind observation count of the finished
/// analysis — the documented contract is that mid-stream counts lag
/// `finish()` by at most the still-pending (watermark-deferred) tail,
/// which drains when the stream ends. Content/order components count
/// diverging *pairs*, which is one observation per pair.
#[test]
fn live_counts_grow_monotonically_onto_the_final_analysis() {
    use conprobe_core::anomaly::AnomalyKind;
    let mut rng = TestRng::new(0x57EA_0004);
    for case in 0..120 {
        // The last twenty are duplicate-heavy: WFR and divergence counts
        // there move by a whole view's reads at a time.
        let trace = if case < 100 {
            chaotic_trace(&mut rng, 3)
        } else {
            duplicate_heavy_trace(&mut rng, case % 2 == 1)
        };
        let config = CheckerConfig::default();
        let mut s = StreamingAnalyzer::new(&config);
        let mut prev = [0usize; 6];
        for (i, op) in trace.ops().iter().enumerate() {
            s.push_event(op);
            assert_eq!(s.events_pushed(), (i + 1) as u64, "case {case}");
            let now = s.live_counts();
            for (c, (n, p)) in now.iter().zip(&prev).enumerate() {
                assert!(n >= p, "case {case}: live_counts[{c}] shrank {p} -> {n}");
            }
            prev = now;
        }
        // A write by a fresh agent, invoked after every response, drains
        // each deferred check and can add no observation of its own: the
        // counts now are what `finish` must report.
        let end = trace.ops().iter().map(|op| op.response).max().unwrap();
        let after = Timestamp::from_nanos(end.as_nanos() + 1);
        s.push_event(&OpRecord {
            agent: AgentId(99),
            invoke: after,
            response: after,
            kind: OpKind::Write { id: (999, 1) },
        });
        let drained = s.live_counts();
        let analysis = s.finish();
        let count =
            |kind: AnomalyKind| analysis.observations.iter().filter(|o| o.kind == kind).count();
        let finished = [
            count(AnomalyKind::ReadYourWrites),
            count(AnomalyKind::MonotonicWrites),
            count(AnomalyKind::MonotonicReads),
            count(AnomalyKind::WritesFollowReads),
            count(AnomalyKind::ContentDivergence),
            count(AnomalyKind::OrderDivergence),
        ];
        for (c, (live, fin)) in prev.iter().zip(&finished).enumerate() {
            assert!(
                live <= fin,
                "case {case}: live_counts[{c}] = {live} overshot the finished analysis ({fin})"
            );
        }
        assert_eq!(drained, finished, "case {case}: drained live counts are the final ones");
    }
}

/// The memory contract with wide keys: the analyzer interns each
/// distinct key once, so on a trace whose reads carry kilobytes of
/// 256-byte string keys the retained working state stays a small
/// fraction of the raw bytes that flowed through `push_event`.
#[test]
fn retained_state_stays_bounded_on_wide_keys() {
    let wide = |a: u32, s: u32| format!("{a:03}-{s:05}-{}", "k".repeat(246));
    let mut ops: Vec<OpRecord<String>> = Vec::new();
    let mut log: Vec<String> = Vec::new();
    let mut now = 0i64;
    for round in 0..60u32 {
        for a in 0..3u32 {
            now += 5;
            let invoke = Timestamp::from_millis(now);
            let response = Timestamp::from_millis(now + 3);
            if round % 3 == 0 {
                let id = wide(a, round);
                log.push(id.clone());
                ops.push(OpRecord {
                    agent: AgentId(a),
                    invoke,
                    response,
                    kind: OpKind::Write { id },
                });
            } else {
                // Everyone reads the whole log so far — wide keys repeat
                // in read after read, which is exactly what interning is
                // supposed to collapse.
                ops.push(OpRecord {
                    agent: AgentId(a),
                    invoke,
                    response,
                    kind: OpKind::Read { seq: log.clone().into() },
                });
            }
        }
    }
    let trace = TestTrace::new(ops);
    let raw_bytes: usize = trace
        .ops()
        .iter()
        .map(|op| match &op.kind {
            OpKind::Write { id } => id.len(),
            OpKind::Read { seq } => seq.iter().map(String::len).sum(),
        })
        .sum();
    let mut s = StreamingAnalyzer::new(&CheckerConfig::default());
    for op in trace.ops() {
        s.push_event(op);
    }
    let retained = s.retained_bytes();
    assert!(retained > 0);
    assert!(
        retained < raw_bytes / 4,
        "retained {retained} bytes vs {raw_bytes} raw bytes: interning is not collapsing \
         wide keys"
    );
    // And the finished analysis is still the oracle's, wide keys or not.
    let analysis = s.finish();
    let (want_obs, _, _) = reference::analyze(&trace, &WfrMode::General);
    assert_eq!(analysis.observations, want_obs);
}

/// A read whose sequence was seen before — by any agent — adds a
/// fixed-size summary and nothing that grows with the sequence: the view
/// is retained once. The first read by a *new* agent also files the view
/// under that agent, once.
#[test]
fn identical_reads_retain_one_view() {
    let seq: Vec<K> = (0..200).map(|s| (0, s)).collect();
    let read = |agent: u32, at: i64| OpRecord {
        agent: AgentId(agent),
        invoke: Timestamp::from_millis(at),
        response: Timestamp::from_millis(at + 3),
        kind: OpKind::Read { seq: seq.clone().into() },
    };
    let mut s = StreamingAnalyzer::new(&CheckerConfig::default());
    let mut growth = Vec::new();
    for i in 0..300i64 {
        let before = s.retained_bytes();
        s.push_event(&read(u32::from(i >= 150), i * 5));
        growth.push(s.retained_bytes() - before);
    }
    let summary = growth[1];
    assert!(growth[0] > seq.len() * 12, "the first read pays for the view: {}", growth[0]);
    assert!(summary > 0 && summary <= 64, "per-read summary of {summary} bytes");
    for (i, &g) in growth.iter().enumerate().skip(1) {
        if i == 150 {
            assert!(g > summary && g <= summary + 32, "agent 1 files the view once: {g}");
        } else {
            assert_eq!(g, summary, "read {i} is another copy of the one view");
        }
    }
}
