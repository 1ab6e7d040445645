//! A linearizability and sequential-consistency oracle for whole-state
//! reads of a grow-only set with unique write ids, and a brute-force
//! permutation search that vouches for it on small histories.
//!
//! Unique ids make reads-from known, and with reads-from known the check
//! is polynomial (Gibbons and Korach, "Testing shared memories", SIAM J.
//! Comput. 1997):
//!
//! 1. every read holds only written ids, and the distinct read results
//!    form a chain C₁ ⊂ … ⊂ C_k under ⊆;
//! 2. the chain forces the block order W₁ B₁ W₂ B₂ … W_k B_k W_{k+1}, where
//!    W_i holds the writes of C_i ∖ C_{i−1}, B_i the reads that returned
//!    C_i, and W_{k+1} the writes no read saw; ops inside a block commute;
//! 3. linearizability: walk the blocks with a frontier T, giving each op
//!    the point max(T, invoke); the history is refused if a point falls
//!    past its op's response. After a block, T is its largest point.
//!    Earliest points are optimal by an exchange argument, so this is exact;
//! 4. sequential consistency: the trace is sequentially consistent iff no
//!    agent's op falls in an earlier block than an op the same agent had
//!    already completed when it invoked this one.
//!
//! A write never acknowledged has no response (`NEVER`): it precedes
//! nothing, and it may take effect at any point after its invocation.

use conprobe::core::{AgentId, EventKey, OpKind, OpRecord, TestTrace, Timestamp};
use conprobe::harness::proto::TestKind;
use conprobe::harness::runner::{run_one_test, TestConfig};
use conprobe::json::testkit::TestRng;
use conprobe::services::ServiceKind;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The response of a write never acknowledged.
const NEVER: i64 = i64::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Kind {
    Write(u32),
    Read(BTreeSet<u32>),
}

#[derive(Debug, Clone)]
struct Op {
    agent: u32,
    invoke: i64,
    response: i64,
    kind: Kind,
}

/// Why a history has no single order; `op` indexes the history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Refusal {
    /// A read returned an id that no write created.
    Unwritten { op: usize },
    /// Two reads returned sets neither of which holds the other.
    NotAChain { a: usize, b: usize },
    /// The op's interval ends before its block's frontier.
    RealTime { block: usize, op: usize },
    /// The op falls in an earlier block than one its agent completed
    /// before invoking it.
    ProgramOrder { op: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outcome {
    linearizable: Result<(), Refusal>,
    sequential: Result<(), Refusal>,
}

/// Steps 1 and 2: each op's block, numbered W₁ = 0, B₁ = 1, W₂ = 2, …
fn blocks(h: &[Op]) -> Result<Vec<usize>, Refusal> {
    let written: BTreeSet<u32> = h
        .iter()
        .filter_map(|op| match op.kind {
            Kind::Write(id) => Some(id),
            Kind::Read(_) => None,
        })
        .collect();
    let mut results: Vec<(usize, &BTreeSet<u32>, usize)> = Vec::new();
    for (i, op) in h.iter().enumerate() {
        if let Kind::Read(set) = &op.kind {
            if !set.is_subset(&written) {
                return Err(Refusal::Unwritten { op: i });
            }
            results.push((set.len(), set, i));
        }
    }
    results.sort();
    results.dedup_by(|b, a| a.1 == b.1);
    for pair in results.windows(2) {
        if !pair[0].1.is_subset(pair[1].1) {
            return Err(Refusal::NotAChain { a: pair[0].2, b: pair[1].2 });
        }
    }
    let chain: BTreeMap<&BTreeSet<u32>, usize> =
        results.iter().enumerate().map(|(j, &(_, set, _))| (set, j)).collect();
    // A write's block is the first chain link that holds it.
    let mut first_seen: HashMap<u32, usize> = HashMap::new();
    for (j, &(_, set, _)) in results.iter().enumerate().rev() {
        for &id in set {
            first_seen.insert(id, 2 * j);
        }
    }
    Ok(h.iter()
        .map(|op| match &op.kind {
            Kind::Write(id) => first_seen.get(id).copied().unwrap_or(2 * results.len()),
            Kind::Read(set) => 2 * chain[set] + 1,
        })
        .collect())
}

/// Step 3: the greedy real-time walk over the blocks.
fn real_time_walk(h: &[Op], block: &[usize]) -> Result<(), Refusal> {
    let mut order: Vec<usize> = (0..h.len()).collect();
    order.sort_by_key(|&i| block[i]);
    let (mut frontier, mut latest, mut current) = (i64::MIN, i64::MIN, None);
    for i in order {
        if current != Some(block[i]) {
            (frontier, current) = (latest, Some(block[i]));
        }
        let point = frontier.max(h[i].invoke);
        if point > h[i].response {
            return Err(Refusal::RealTime { block: block[i], op: i });
        }
        latest = latest.max(point);
    }
    Ok(())
}

/// Step 4: block ranks never fall along an agent's completed ops.
fn program_order(h: &[Op], block: &[usize]) -> Result<(), Refusal> {
    let agents: BTreeSet<u32> = h.iter().map(|op| op.agent).collect();
    for agent in agents {
        let mine: Vec<usize> = (0..h.len()).filter(|&i| h[i].agent == agent).collect();
        let mut by_response = mine.clone();
        by_response.sort_by_key(|&i| h[i].response);
        let mut by_invoke = mine;
        by_invoke.sort_by_key(|&i| h[i].invoke);
        // The highest block among the agent's ops that responded before
        // the current invocation.
        let (mut done, mut highest) = (0, 0);
        for i in by_invoke {
            while done < by_response.len() && h[by_response[done]].response < h[i].invoke {
                highest = highest.max(block[by_response[done]]);
                done += 1;
            }
            if block[i] < highest {
                return Err(Refusal::ProgramOrder { op: i });
            }
        }
    }
    Ok(())
}

/// The oracle: steps 1–4.
fn check(h: &[Op]) -> Outcome {
    match blocks(h) {
        Ok(block) => Outcome {
            linearizable: real_time_walk(h, &block),
            sequential: program_order(h, &block),
        },
        Err(refusal) => Outcome { linearizable: Err(refusal), sequential: Err(refusal) },
    }
}

/// Whether some total order of all ops replays every read as the whole
/// set written so far and puts `a` before `b` whenever `precedes(a, b)`.
fn some_order(h: &[Op], precedes: &dyn Fn(&Op, &Op) -> bool) -> bool {
    fn extend(
        h: &[Op],
        precedes: &dyn Fn(&Op, &Op) -> bool,
        placed: &mut Vec<bool>,
        state: &mut BTreeSet<u32>,
    ) -> bool {
        if placed.iter().all(|&p| p) {
            return true;
        }
        for i in 0..h.len() {
            let ready =
                !placed[i] && (0..h.len()).all(|j| placed[j] || j == i || !precedes(&h[j], &h[i]));
            if !ready {
                continue;
            }
            let fits = match &h[i].kind {
                Kind::Read(set) => set == state,
                Kind::Write(_) => true,
            };
            if !fits {
                continue;
            }
            placed[i] = true;
            if let Kind::Write(id) = h[i].kind {
                state.insert(id);
            }
            let found = extend(h, precedes, placed, state);
            if let Kind::Write(id) = h[i].kind {
                state.remove(&id);
            }
            placed[i] = false;
            if found {
                return true;
            }
        }
        false
    }
    extend(h, precedes, &mut vec![false; h.len()], &mut BTreeSet::new())
}

/// The brute-force verdicts, `(linearizable, sequential)`, by search over
/// every order of at most seven ops.
fn brute_force(h: &[Op]) -> (bool, bool) {
    assert!(h.len() <= 7, "the search is factorial");
    let real_time = |a: &Op, b: &Op| a.response < b.invoke;
    let program = |a: &Op, b: &Op| a.agent == b.agent && a.response < b.invoke;
    (some_order(h, &real_time), some_order(h, &program))
}

/// A trace as a history: ids interned, each op's interval widened by
/// `slack(agent)` nanoseconds on both sides.
fn history<K: EventKey>(trace: &TestTrace<K>, slack: &dyn Fn(AgentId) -> i64) -> Vec<Op> {
    let mut ids: HashMap<K, u32> = HashMap::new();
    let mut intern = |k: &K| {
        let next = ids.len() as u32;
        *ids.entry(k.clone()).or_insert(next)
    };
    trace
        .ops()
        .iter()
        .map(|op| Op {
            agent: op.agent.0,
            invoke: op.invoke.as_nanos() - slack(op.agent),
            response: op.response.as_nanos() + slack(op.agent),
            kind: match &op.kind {
                OpKind::Write { id } => Kind::Write(intern(id)),
                OpKind::Read { seq } => Kind::Read(seq.iter().map(&mut intern).collect()),
            },
        })
        .collect()
}

/// A random history of at most seven ops over three agents, each agent's
/// ops back to back. Most are drawn from a linearizable execution (each op
/// takes effect at a point inside its interval) and then perturbed: a
/// read returns an older state, loses or gains an id, or reads an id never
/// written, or a write is never acknowledged.
fn random_history(rng: &mut TestRng) -> Vec<Op> {
    let n = rng.range_usize(1, 8);
    let mut clock = [0i64; 3];
    let mut ops: Vec<(i64, Op)> = Vec::new();
    let mut next_id = 0;
    for _ in 0..n {
        let agent = rng.range(0, 3) as u32;
        let invoke = clock[agent as usize] + rng.range(0, 4) as i64;
        let response = invoke + rng.range(0, 6) as i64;
        clock[agent as usize] = response + 1;
        let point = rng.range(invoke as u64, response as u64 + 1) as i64;
        let kind = if rng.chance(0.5) {
            next_id += 1;
            Kind::Write(next_id)
        } else {
            Kind::Read(BTreeSet::new())
        };
        ops.push((point, Op { agent, invoke, response, kind }));
    }
    // Replay in point order: each read returns the state at its point,
    // or now and then one it had earlier.
    ops.sort_by_key(|(point, _)| *point);
    let mut states = vec![BTreeSet::new()];
    for (_, op) in &mut ops {
        match &mut op.kind {
            Kind::Write(id) => {
                let mut next = states[states.len() - 1].clone();
                next.insert(*id);
                states.push(next);
            }
            Kind::Read(set) => {
                let back = if rng.chance(0.2) { rng.range_usize(0, states.len()) } else { 0 };
                set.clone_from(&states[states.len() - 1 - back]);
            }
        }
    }
    let mut h: Vec<Op> = ops.into_iter().map(|(_, op)| op).collect();
    for op in &mut h {
        if !rng.chance(0.15) {
            continue;
        }
        match &mut op.kind {
            Kind::Write(_) => op.response = NEVER,
            Kind::Read(set) => {
                match rng.range(0, 3) {
                    0 => set.pop_first(),
                    1 => set.replace(rng.range(1, u64::from(next_id) + 2) as u32),
                    _ => set.replace(99),
                };
            }
        }
    }
    h
}

#[test]
fn the_oracle_agrees_with_the_brute_force_search() {
    let mut rng = TestRng::new(0x11_4EA2);
    let mut seen = BTreeMap::new();
    for case in 0..20_000 {
        let h = random_history(&mut rng);
        let outcome = check(&h);
        let verdicts = (outcome.linearizable.is_ok(), outcome.sequential.is_ok());
        assert_eq!(verdicts, brute_force(&h), "case {case}: {outcome:?} on {h:#?}");
        *seen.entry(verdicts).or_insert(0) += 1;
    }
    // Every verdict pair that can occur did, often.
    for verdicts in [(true, true), (false, true), (false, false)] {
        assert!(seen.get(&verdicts).copied().unwrap_or(0) >= 300, "{verdicts:?}: {seen:?}");
    }
    assert!(!seen.contains_key(&(true, false)), "linearizable implies sequential: {seen:?}");
}

/// `checker_properties.rs`'s generator: operations execute instantly in
/// schedule order, each read returning the whole write log so far.
fn linearizable_trace(rng: &mut TestRng, agents: u32) -> TestTrace<(u32, u32)> {
    let mut log = Vec::new();
    let mut seqs = HashMap::<u32, u32>::new();
    let mut ops = Vec::new();
    for i in 0..rng.range_usize(1, 40) {
        let a = rng.range(0, u64::from(agents)) as u32;
        let write = rng.chance(0.5);
        let at = Timestamp::from_millis(i as i64 * 10);
        let kind = if write {
            let seq = seqs.entry(a).or_insert(0);
            *seq += 1;
            log.push((a, *seq));
            OpKind::Write { id: (a, *seq) }
        } else {
            OpKind::Read { seq: log.clone().into() }
        };
        ops.push(OpRecord { agent: AgentId(a), invoke: at, response: at, kind });
    }
    TestTrace::new(ops)
}

#[test]
fn every_generated_linearizable_trace_is_accepted() {
    for (seed, agents) in (0xC8EC_0001..=0xC8EC_0006).zip([3, 3, 2, 2, 2, 3]) {
        let mut rng = TestRng::new(seed);
        for case in 0..300 {
            let h = history(&linearizable_trace(&mut rng, agents), &|_| 0);
            let outcome = check(&h);
            assert_eq!(
                outcome,
                Outcome { linearizable: Ok(()), sequential: Ok(()) },
                "case {case}"
            );
        }
    }
}

/// Drift slack on top of an agent's measured clock error: the runner's
/// `clock_error_is_within_claimed_uncertainty_scale` allows 20 ms.
const DRIFT_SLACK_NANOS: i64 = 20_000_000;

/// Test 2 of `service` at `seed` as a history whose intervals are widened
/// by each agent's clock error, so a refusal stays sound.
fn test2_history(service: ServiceKind, seed: u64) -> Vec<Op> {
    let r = run_one_test(&TestConfig::paper(service, TestKind::Test2), seed);
    assert!(r.completed, "{service} seed {seed} completes");
    let slack = |a: AgentId| r.clock_error_nanos[a.0 as usize].abs() + DRIFT_SLACK_NANOS;
    history(&r.trace, &slack)
}

#[test]
fn strong_and_single_copy_arms_pass_on_sixty_seeds() {
    for service in [ServiceKind::Pbft, ServiceKind::Blogger, ServiceKind::FacebookGroup] {
        for seed in 0..60 {
            let outcome = check(&test2_history(service, seed));
            assert_eq!(
                outcome,
                Outcome { linearizable: Ok(()), sequential: Ok(()) },
                "{service} Test 2 seed {seed}"
            );
        }
    }
}

#[test]
fn quorum_divergences_break_the_chain() {
    for seed in [9, 19, 22, 39] {
        let outcome = check(&test2_history(ServiceKind::Quorum, seed));
        assert!(
            matches!(outcome.linearizable, Err(Refusal::NotAChain { .. })),
            "quorum seed {seed}: {outcome:?}"
        );
        assert_eq!(outcome.sequential, outcome.linearizable, "quorum seed {seed}");
    }
}

fn write(agent: u32, invoke: i64, response: i64, id: u32) -> Op {
    Op { agent, invoke, response, kind: Kind::Write(id) }
}

fn read(agent: u32, invoke: i64, response: i64, ids: &[u32]) -> Op {
    Op { agent, invoke, response, kind: Kind::Read(ids.iter().copied().collect()) }
}

#[test]
fn a_stale_read_after_an_acknowledged_write_is_refused_in_real_time_only() {
    // ∅ ⊂ {1} is a chain, and agent 1 may read before agent 0 writes in a
    // sequential order; but the write was acknowledged at 10 and the read
    // began at 20, so no linearization exists.
    let h = [write(0, 0, 10, 1), read(1, 20, 30, &[]), read(0, 40, 50, &[1])];
    let outcome = check(&h);
    assert_eq!(outcome.linearizable, Err(Refusal::RealTime { block: 2, op: 0 }));
    assert_eq!(outcome.sequential, Ok(()));
    assert_eq!(brute_force(&h), (false, true));
}

#[test]
fn a_read_that_misses_its_own_earlier_write_is_refused() {
    // Agent 0's read misses the write it completed before invoking the
    // read, while agent 1 saw that write: no single order is legal.
    let h = [write(0, 0, 10, 1), read(0, 20, 30, &[]), read(1, 5, 15, &[1])];
    let outcome = check(&h);
    assert_eq!(outcome.sequential, Err(Refusal::ProgramOrder { op: 1 }));
    assert!(outcome.linearizable.is_err());
    assert_eq!(brute_force(&h), (false, false));
}

#[test]
fn unacknowledged_writes_and_unwritten_ids() {
    // A write never acknowledged may take effect late; one nobody saw
    // need not take effect before any read.
    let seen_late = [write(0, 0, NEVER, 1), read(1, 50, 60, &[]), read(1, 70, 80, &[1])];
    assert_eq!(check(&seen_late), Outcome { linearizable: Ok(()), sequential: Ok(()) });
    // A read of an id no write created refutes both.
    let h = [write(0, 0, 10, 1), read(1, 20, 30, &[1, 7])];
    assert_eq!(check(&h).sequential, Err(Refusal::Unwritten { op: 1 }));
    assert_eq!(brute_force(&h), (false, false));
}
