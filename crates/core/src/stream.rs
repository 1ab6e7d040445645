//! Streaming (incremental) anomaly checking.
//!
//! The batch checkers in [`crate::checkers`] analyze a complete
//! [`crate::trace::TestTrace`] after the fact. That caps campaign scale:
//! the whole trace (every `K` event key of every read sequence) must sit
//! in memory before the first anomaly can be counted, and a live probe
//! can say nothing until it finishes. [`StreamingAnalyzer`] converts all
//! six checkers and both divergence-window sweeps into **streaming
//! operators**: events are pushed one at a time in trace order
//! (nondecreasing invocation time — exactly the order
//! [`crate::trace::TestTrace::new`] sorts into), anomaly counts update as
//! events arrive ([`StreamingAnalyzer::live_counts`]), and
//! [`StreamingAnalyzer::finish`] produces a
//! [`TestAnalysis`] **identical** — observation order, witness order,
//! detail strings, window boundaries — to what the batch pipeline
//! produces on the same trace. The batch entry points are themselves
//! rewritten as thin wrappers that replay `trace.ops()` through this
//! engine, so there is one implementation of the paper's semantics.
//!
//! # Memory contract
//!
//! The analyzer never buffers `OpRecord`s or raw `K` sequences. Each
//! event key is interned once (one owned `K` per *distinct* key); reads
//! and writes are retained as compact summaries of dense `u32` ids (a
//! read costs `~12·|seq|` bytes regardless of how wide `K` is, a write
//! costs a fixed few words). Pairwise divergence counting is inherently
//! `O(reads²)` in *time*, but the per-event *space* is a small constant
//! — the property [`StreamingAnalyzer::retained_bytes`] accounts for and
//! the streaming-equivalence suite pins. On a million-event trace of
//! wide string keys this is the difference between gigabytes and tens of
//! megabytes.
//!
//! # Exactness machinery
//!
//! Matching the batch output *exactly* from a one-pass stream needs
//! three deferral devices, each justified by the trace-order invariant
//! (`invoke` is nondecreasing, so every op not yet pushed has
//! `invoke ≥ watermark`):
//!
//! * **Invoke watermark** (RYW, MW, WFR dependencies): a read may only be
//!   judged against writes with `response ≤ read.invoke`. Once the
//!   watermark passes `read.invoke`, any such write has
//!   `invoke ≤ response ≤ read.invoke < watermark` and is therefore
//!   already pushed — including the zero-duration write pushed *after*
//!   the read it ties with. The same argument finalizes a write's WFR
//!   dependency set (reads with `response ≤ write.invoke`).
//! * **Response-order heap** (MR, windows): monotonic reads and the
//!   window sweeps consume reads in *response* order. A pending read
//!   with `response ≤ v` can be finalized as soon as an op with
//!   `invoke = v` arrives: every future read has `response ≥ invoke ≥ v`,
//!   and an equal-response future read has a larger trace sequence, so
//!   the stable tie-break is preserved.
//! * **Pair-state lattice** (divergence): per unordered agent pair the
//!   analyzer keeps only the diverging-read-pair count, the
//!   lexicographically first witness, and the open/closed window state —
//!   each new read is compared against the other agents' retained read
//!   summaries exactly once, so every unordered read pair is evaluated
//!   exactly once, in either order, and the batch iteration order is
//!   reconstructed from `(read ordinal, read ordinal)` sort keys.

use crate::analysis::{CheckerConfig, TestAnalysis};
use crate::anomaly::{AnomalyKind, Observation};
use crate::checkers::WfrMode;
use crate::trace::{AgentId, EventKey, OpRecord, TestTrace, Timestamp};
use crate::window::{WindowAnalysis, WindowKind};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};

/// One streaming operator, for running a single checker (or window
/// sweep) incrementally. [`StreamingAnalyzer::new`] runs all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamPart {
    /// The Read Your Writes checker.
    ReadYourWrites,
    /// The Monotonic Writes checker.
    MonotonicWrites,
    /// The Monotonic Reads checker.
    MonotonicReads,
    /// The Writes Follows Reads checker (mode from the config).
    WritesFollowReads,
    /// The Content Divergence checker.
    ContentDivergence,
    /// The Order Divergence checker.
    OrderDivergence,
    /// The content-divergence window sweep (all agent pairs).
    ContentWindows,
    /// The order-divergence window sweep (all agent pairs).
    OrderWindows,
}

/// Which operators are active.
#[derive(Debug, Clone, Copy, Default)]
struct Parts {
    ryw: bool,
    mw: bool,
    mr: bool,
    wfr: bool,
    content: bool,
    order: bool,
    win_content: bool,
    win_order: bool,
}

impl Parts {
    fn needs_read_finalize(&self) -> bool {
        self.mr || self.win_content || self.win_order
    }
}

/// A retained read: the interned sequence plus a sorted `(key, last
/// position)` table for O(log n) membership/position probes. This is the
/// only per-read state the engine keeps — no `K` values, no `OpRecord`.
#[derive(Debug)]
struct ReadState {
    agent: AgentId,
    invoke: Timestamp,
    response: Timestamp,
    /// Dense key ids in sequence order, duplicates kept.
    keys: Vec<u32>,
    /// Sorted by key; position is the *last* occurrence, matching
    /// [`crate::index::ReadView::position`].
    by_key: Vec<(u32, u32)>,
    /// Ordinal among this agent's reads (arrival = trace order).
    ord_in_agent: u32,
}

impl ReadState {
    fn contains(&self, key: u32) -> bool {
        self.by_key.binary_search_by_key(&key, |&(k, _)| k).is_ok()
    }

    fn position(&self, key: u32) -> Option<u32> {
        self.by_key.binary_search_by_key(&key, |&(k, _)| k).ok().map(|i| self.by_key[i].1)
    }
}

/// A retained write: fixed-size, id-only.
#[derive(Debug, Clone, Copy)]
struct WriteRec {
    key: u32,
    invoke: Timestamp,
    response: Timestamp,
}

#[derive(Debug, Default)]
struct AgentState {
    /// Writes in issue (arrival) order.
    writes: Vec<WriteRec>,
    /// Indices into `reads`, arrival order.
    read_ids: Vec<u32>,
    /// The agent's most recently *finalized* (response-ordered) read —
    /// both the MR predecessor and the agent's latest view for the
    /// window sweeps.
    last_finalized: Option<u32>,
}

/// A finalized WFR dependency `(dep, write)` with the sort key that
/// reconstructs the batch dependency order: agent ascending, then write
/// issue order, then dependency discovery order within the write.
#[derive(Debug, Clone, Copy)]
struct DepRec {
    dep_key: u32,
    write_key: u32,
    sort: (AgentId, u32, u32),
}

/// One `(read, dependency)` WFR violation.
#[derive(Debug, Clone, Copy)]
struct MatchRec {
    read: u32,
    sort: (AgentId, u32, u32),
    dep_key: u32,
    write_key: u32,
}

/// A Test 1 trigger pair with lazily resolved interned ids. An
/// unresolved id means the key has not appeared in the stream yet — and
/// a key that never appeared is contained in no read, which is exactly
/// the batch semantics for absent trigger keys.
#[derive(Debug)]
struct TriggerPair<K> {
    dep: K,
    write: K,
    dep_id: Option<u32>,
    write_id: Option<u32>,
}

/// Divergence state for one unordered agent pair.
#[derive(Debug)]
struct PairState<K> {
    content_count: usize,
    /// `((first ordinal, second ordinal), x, y, at)` for the
    /// lexicographically earliest diverging read pair.
    content_best: Option<((u32, u32), K, K, Timestamp)>,
    order_count: usize,
    order_best: Option<((u32, u32), K, K, Timestamp)>,
    content_open: Option<Timestamp>,
    content_closed: Vec<(Timestamp, Timestamp)>,
    order_open: Option<Timestamp>,
    order_closed: Vec<(Timestamp, Timestamp)>,
}

impl<K> Default for PairState<K> {
    fn default() -> Self {
        PairState {
            content_count: 0,
            content_best: None,
            order_count: 0,
            order_best: None,
            content_open: None,
            content_closed: Vec::new(),
            order_open: None,
            order_closed: Vec::new(),
        }
    }
}

type KeyedObs<K> = Vec<((AgentId, u32), Observation<K>)>;

/// The streaming analysis engine. See the module docs for the contract.
#[derive(Debug)]
pub struct StreamingAnalyzer<K: EventKey> {
    parts: Parts,
    general_wfr: bool,
    triggers: Vec<TriggerPair<K>>,

    /// Interner: `K` → dense id, plus the id → `K` table for witness
    /// reconstruction (the only owned `K` copies the engine keeps).
    key_ids: HashMap<K, u32>,
    keys: Vec<K>,

    agents: BTreeMap<AgentId, AgentState>,
    reads: Vec<ReadState>,
    /// `(agent, ordinal)` of every write, arrival order — the WFR
    /// finalization queue.
    write_log: Vec<(AgentId, u32)>,

    watermark: Option<Timestamp>,
    /// Reads `0..rw_cursor` have had their RYW/MW evaluation.
    rw_cursor: usize,
    /// Writes `0..write_cursor` of `write_log` have finalized WFR deps.
    write_cursor: usize,
    /// Pending reads awaiting response-order finalization.
    finalize_heap: BinaryHeap<Reverse<(Timestamp, u32)>>,
    mr_seq: u32,

    events: u64,
    retained: usize,

    ryw_obs: KeyedObs<K>,
    mw_obs: Vec<((u32, AgentId), Observation<K>)>,
    mr_obs: KeyedObs<K>,
    /// Trigger-mode WFR observations, keyed by read index.
    wfr_obs: Vec<(u32, Observation<K>)>,
    deps: Vec<DepRec>,
    wfr_matches: Vec<MatchRec>,
    wfr_reads_hit: HashSet<u32>,
    pairs: BTreeMap<(AgentId, AgentId), PairState<K>>,
}

impl<K: EventKey> StreamingAnalyzer<K> {
    /// A full analyzer: all six checkers, plus both window sweeps when
    /// `config.compute_windows` is set — the streaming equivalent of
    /// [`crate::analysis::analyze`].
    pub fn new(config: &CheckerConfig<K>) -> Self {
        let parts = Parts {
            ryw: true,
            mw: true,
            mr: true,
            wfr: true,
            content: true,
            order: true,
            win_content: config.compute_windows,
            win_order: config.compute_windows,
        };
        Self::with_parts(&config.wfr_mode, parts)
    }

    /// An analyzer running a single operator — what the batch
    /// `checkers::*::check` and `window` entry points are built on.
    pub fn single(config: &CheckerConfig<K>, part: StreamPart) -> Self {
        let mut parts = Parts::default();
        match part {
            StreamPart::ReadYourWrites => parts.ryw = true,
            StreamPart::MonotonicWrites => parts.mw = true,
            StreamPart::MonotonicReads => parts.mr = true,
            StreamPart::WritesFollowReads => parts.wfr = true,
            StreamPart::ContentDivergence => parts.content = true,
            StreamPart::OrderDivergence => parts.order = true,
            StreamPart::ContentWindows => parts.win_content = true,
            StreamPart::OrderWindows => parts.win_order = true,
        }
        Self::with_parts(&config.wfr_mode, parts)
    }

    fn with_parts(mode: &WfrMode<K>, parts: Parts) -> Self {
        let (general_wfr, triggers) = match mode {
            WfrMode::General => (true, Vec::new()),
            WfrMode::TriggerPairs(pairs) => (
                false,
                pairs
                    .iter()
                    .map(|(dep, write)| TriggerPair {
                        dep: dep.clone(),
                        write: write.clone(),
                        dep_id: None,
                        write_id: None,
                    })
                    .collect(),
            ),
        };
        StreamingAnalyzer {
            parts,
            general_wfr,
            triggers,
            key_ids: HashMap::new(),
            keys: Vec::new(),
            agents: BTreeMap::new(),
            reads: Vec::new(),
            write_log: Vec::new(),
            watermark: None,
            rw_cursor: 0,
            write_cursor: 0,
            finalize_heap: BinaryHeap::new(),
            mr_seq: 0,
            events: 0,
            retained: 0,
            ryw_obs: Vec::new(),
            mw_obs: Vec::new(),
            mr_obs: Vec::new(),
            wfr_obs: Vec::new(),
            deps: Vec::new(),
            wfr_matches: Vec::new(),
            wfr_reads_hit: HashSet::new(),
            pairs: BTreeMap::new(),
        }
    }

    /// Number of events pushed so far.
    pub fn events_pushed(&self) -> u64 {
        self.events
    }

    /// Approximate bytes of retained analysis state (read/write
    /// summaries, interner, dependency sets) — the figure the
    /// memory-bounded contract is about. Deliberately excludes produced
    /// observations, which are output, not working state.
    pub fn retained_bytes(&self) -> usize {
        self.retained
    }

    /// Anomaly counts confirmed so far, in [`AnomalyKind::ALL`] order
    /// (RYW, MW, MR, WFR, CD, OD). Counts are monotonically
    /// nondecreasing as events are pushed; watermark-deferred checks
    /// (a read's RYW/MW verdict, an unconverged window) appear once the
    /// stream passes the point that makes them final, so mid-stream
    /// counts lag [`StreamingAnalyzer::finish`] by at most the
    /// still-pending tail.
    pub fn live_counts(&self) -> [usize; 6] {
        [
            self.ryw_obs.len(),
            self.mw_obs.len(),
            self.mr_obs.len(),
            if self.general_wfr { self.wfr_reads_hit.len() } else { self.wfr_obs.len() },
            self.pairs.values().filter(|p| p.content_count > 0).count(),
            self.pairs.values().filter(|p| p.order_count > 0).count(),
        ]
    }

    fn intern(&mut self, key: &K) -> u32 {
        if let Some(&id) = self.key_ids.get(key) {
            return id;
        }
        let id = self.keys.len() as u32;
        self.keys.push(key.clone());
        self.key_ids.insert(key.clone(), id);
        self.retained += 2 * std::mem::size_of::<K>() + std::mem::size_of::<u32>() * 2;
        id
    }

    /// Pushes the next operation. Ops MUST arrive in trace order
    /// (nondecreasing `invoke` — the order `TestTrace::new` sorts into
    /// and live agents' merged logs naturally produce).
    ///
    /// # Panics
    ///
    /// Panics if `op.invoke` is earlier than a previously pushed op's.
    pub fn push_event(&mut self, op: &OpRecord<K>) {
        let v = op.invoke;
        if let Some(w) = self.watermark {
            assert!(v >= w, "push_event: ops must arrive in nondecreasing invoke order");
        }
        // Everything decided strictly before `v` is now final.
        self.release_reads(Some(v));
        self.finalize_write_deps(Some(v));
        self.finalize_responded_reads(Some(v));
        self.watermark = Some(v);
        self.events += 1;

        if let Some(id) = op.write_id() {
            let key = self.intern(id);
            let st = self.agents.entry(op.agent).or_default();
            let ord = st.writes.len() as u32;
            st.writes.push(WriteRec { key, invoke: op.invoke, response: op.response });
            self.write_log.push((op.agent, ord));
            self.retained += std::mem::size_of::<WriteRec>() + 8;
        } else if let Some(seq) = op.read_seq() {
            self.push_read(op, seq);
        }
    }

    fn push_read(&mut self, op: &OpRecord<K>, seq: &[K]) {
        let keys: Vec<u32> = seq.iter().map(|k| self.intern(k)).collect();
        let mut by_key: Vec<(u32, u32)> =
            keys.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
        by_key.sort_unstable();
        // Last occurrence wins, matching `ReadView::position`.
        by_key.dedup_by(|curr, prev| {
            if curr.0 == prev.0 {
                prev.1 = curr.1;
                true
            } else {
                false
            }
        });
        let idx = self.reads.len() as u32;
        let ord_in_agent = self.agents.entry(op.agent).or_default().read_ids.len() as u32;
        let read = ReadState {
            agent: op.agent,
            invoke: op.invoke,
            response: op.response,
            keys,
            by_key,
            ord_in_agent,
        };
        self.retained +=
            std::mem::size_of::<ReadState>() + read.keys.len() * 4 + read.by_key.len() * 8 + 8;

        if self.parts.content || self.parts.order {
            self.divergence_scan(&read);
        }
        if self.parts.wfr {
            if self.general_wfr {
                for i in 0..self.deps.len() {
                    let d = self.deps[i];
                    if read.contains(d.write_key) && !read.contains(d.dep_key) {
                        self.wfr_matches.push(MatchRec {
                            read: idx,
                            sort: d.sort,
                            dep_key: d.dep_key,
                            write_key: d.write_key,
                        });
                        self.wfr_reads_hit.insert(idx);
                        self.retained += std::mem::size_of::<MatchRec>();
                    }
                }
            } else {
                self.trigger_scan(idx, &read);
            }
        }
        if self.parts.needs_read_finalize() {
            self.finalize_heap.push(Reverse((read.response, idx)));
        }
        self.agents.get_mut(&op.agent).expect("created above").read_ids.push(idx);
        self.reads.push(read);
    }

    /// Compares a newly pushed read against every retained read of every
    /// other agent, updating the per-pair divergence counters and best
    /// witnesses. Each unordered read pair is seen exactly once.
    fn divergence_scan(&mut self, read: &ReadState) {
        // (pair, is_content, ordkey, x id, y id, at)
        type PairUpdate = ((AgentId, AgentId), bool, (u32, u32), u32, u32, Timestamp);
        let a = read.agent;
        let mut updates: Vec<PairUpdate> = Vec::new();
        for (&b, bst) in &self.agents {
            if b == a {
                continue;
            }
            for &rb_idx in &bst.read_ids {
                let rb = &self.reads[rb_idx as usize];
                let at = read.response.max(rb.response);
                // Canonical orientation: `first` is the pair's smaller
                // agent's read.
                let (pair, ordkey, first, second) = if a < b {
                    ((a, b), (read.ord_in_agent, rb.ord_in_agent), read, rb)
                } else {
                    ((b, a), (rb.ord_in_agent, read.ord_in_agent), rb, read)
                };
                if self.parts.content {
                    if let (Some(x), Some(y)) =
                        (first_only_in(first, second), first_only_in(second, first))
                    {
                        updates.push((pair, true, ordkey, x, y, at));
                    }
                }
                if self.parts.order {
                    if let Some((x, y)) = inversion_ids(first, second) {
                        updates.push((pair, false, ordkey, x, y, at));
                    }
                }
            }
        }
        for (pair, is_content, ordkey, x, y, at) in updates {
            let st = self.pairs.entry(pair).or_default();
            let (count, best) = if is_content {
                (&mut st.content_count, &mut st.content_best)
            } else {
                (&mut st.order_count, &mut st.order_best)
            };
            *count += 1;
            if best.as_ref().is_none_or(|(k, ..)| ordkey < *k) {
                *best = Some((
                    ordkey,
                    self.keys[x as usize].clone(),
                    self.keys[y as usize].clone(),
                    at,
                ));
            }
        }
    }

    /// Evaluates the Test 1 trigger pairs against one read, emitting the
    /// (final, timeless) WFR observation immediately.
    fn trigger_scan(&mut self, idx: u32, read: &ReadState) {
        let mut witnesses: Vec<K> = Vec::new();
        for t in &mut self.triggers {
            if t.write_id.is_none() {
                t.write_id = self.key_ids.get(&t.write).copied();
            }
            if t.dep_id.is_none() {
                t.dep_id = self.key_ids.get(&t.dep).copied();
            }
            let write_seen = t.write_id.is_some_and(|id| read.contains(id));
            let dep_seen = t.dep_id.is_some_and(|id| read.contains(id));
            if write_seen && !dep_seen {
                witnesses.push(t.dep.clone());
                witnesses.push(t.write.clone());
            }
        }
        if !witnesses.is_empty() {
            let agent = read.agent;
            self.wfr_obs.push((
                idx,
                Observation {
                    kind: AnomalyKind::WritesFollowReads,
                    agent,
                    other_agent: None,
                    at: read.response,
                    detail: format!(
                        "read by {agent} sees write(s) without their read dependencies: \
                         {witnesses:?}"
                    ),
                    witnesses,
                },
            ));
        }
    }

    /// RYW + MW evaluation for reads whose invoke watermark has passed
    /// (`invoke < bound`; `None` = end of stream).
    fn release_reads(&mut self, bound: Option<Timestamp>) {
        if !(self.parts.ryw || self.parts.mw) {
            return;
        }
        while self.rw_cursor < self.reads.len() {
            let r_idx = self.rw_cursor;
            if let Some(b) = bound {
                if self.reads[r_idx].invoke >= b {
                    break;
                }
            }
            self.rw_cursor += 1;
            if self.parts.ryw {
                self.eval_ryw(r_idx);
            }
            if self.parts.mw {
                self.eval_mw(r_idx);
            }
        }
    }

    fn eval_ryw(&mut self, r_idx: usize) {
        let r = &self.reads[r_idx];
        let agent = r.agent;
        let Some(st) = self.agents.get(&agent) else { return };
        let missing: Vec<K> = st
            .writes
            .iter()
            .filter(|w| w.response <= r.invoke && !r.contains(w.key))
            .map(|w| self.keys[w.key as usize].clone())
            .collect();
        if !missing.is_empty() {
            let obs = Observation {
                kind: AnomalyKind::ReadYourWrites,
                agent,
                other_agent: None,
                at: r.response,
                detail: format!(
                    "read by {agent} misses {} own completed write(s): {missing:?}",
                    missing.len()
                ),
                witnesses: missing,
            };
            self.ryw_obs.push(((agent, r.ord_in_agent), obs));
        }
    }

    fn eval_mw(&mut self, r_idx: usize) {
        let r = &self.reads[r_idx];
        for (&writer, wst) in &self.agents {
            let w: Vec<&WriteRec> = wst.writes.iter().filter(|w| w.response <= r.invoke).collect();
            'pairs: for (i, x) in w.iter().enumerate() {
                for y in &w[i + 1..] {
                    let violation = match (r.position(x.key), r.position(y.key)) {
                        (None, Some(_)) => true,
                        (Some(px), Some(py)) => py < px,
                        _ => false,
                    };
                    if violation {
                        let (xk, yk) = (&self.keys[x.key as usize], &self.keys[y.key as usize]);
                        self.mw_obs.push((
                            (r_idx as u32, writer),
                            Observation {
                                kind: AnomalyKind::MonotonicWrites,
                                agent: r.agent,
                                other_agent: Some(writer),
                                at: r.response,
                                witnesses: vec![xk.clone(), yk.clone()],
                                detail: format!(
                                    "read by {} sees {writer}'s write {yk:?} but write {xk:?} \
                                     is missing or ordered after it",
                                    r.agent
                                ),
                            },
                        ));
                        break 'pairs;
                    }
                }
            }
        }
    }

    /// Finalizes WFR dependency sets for writes whose invoke watermark
    /// has passed, then checks every new dependency against all retained
    /// reads (the mirror of the per-read scan in `push_read`).
    fn finalize_write_deps(&mut self, bound: Option<Timestamp>) {
        if !(self.parts.wfr && self.general_wfr) {
            return;
        }
        while self.write_cursor < self.write_log.len() {
            let (agent, ord) = self.write_log[self.write_cursor];
            let w = self.agents[&agent].writes[ord as usize];
            if let Some(b) = bound {
                if w.invoke >= b {
                    break;
                }
            }
            self.write_cursor += 1;

            let mut seen: HashSet<u32> = HashSet::new();
            let mut dep_idx = 0u32;
            let mut new_deps: Vec<DepRec> = Vec::new();
            let st = &self.agents[&agent];
            for &ri in &st.read_ids {
                let r = &self.reads[ri as usize];
                if r.response > w.invoke {
                    continue;
                }
                for &k in &r.keys {
                    if k != w.key && seen.insert(k) {
                        new_deps.push(DepRec {
                            dep_key: k,
                            write_key: w.key,
                            sort: (agent, ord, dep_idx),
                        });
                        dep_idx += 1;
                    }
                }
            }
            for d in new_deps {
                for (ri, r) in self.reads.iter().enumerate() {
                    if r.contains(d.write_key) && !r.contains(d.dep_key) {
                        self.wfr_matches.push(MatchRec {
                            read: ri as u32,
                            sort: d.sort,
                            dep_key: d.dep_key,
                            write_key: d.write_key,
                        });
                        self.wfr_reads_hit.insert(ri as u32);
                        self.retained += std::mem::size_of::<MatchRec>();
                    }
                }
                self.deps.push(d);
                self.retained += std::mem::size_of::<DepRec>();
            }
        }
    }

    /// MR + window finalization for reads whose response the stream has
    /// passed (`response ≤ bound`; `None` = end of stream). Pops in
    /// `(response, trace seq)` order — the batch response order with its
    /// stable tie-break.
    fn finalize_responded_reads(&mut self, bound: Option<Timestamp>) {
        if !self.parts.needs_read_finalize() {
            return;
        }
        while let Some(&Reverse((resp, idx))) = self.finalize_heap.peek() {
            if let Some(b) = bound {
                if resp > b {
                    break;
                }
            }
            self.finalize_heap.pop();
            let a = self.reads[idx as usize].agent;
            let prev = self.agents[&a].last_finalized;

            if self.parts.mr {
                if let Some(p_idx) = prev {
                    let p = &self.reads[p_idx as usize];
                    let r = &self.reads[idx as usize];
                    let vanished: Vec<K> = p
                        .keys
                        .iter()
                        .filter(|&&k| !r.contains(k))
                        .map(|&k| self.keys[k as usize].clone())
                        .collect();
                    if !vanished.is_empty() {
                        let obs = Observation {
                            kind: AnomalyKind::MonotonicReads,
                            agent: a,
                            other_agent: None,
                            at: r.response,
                            detail: format!(
                                "{} event(s) observed by {a} disappeared from its next read: \
                                 {vanished:?}",
                                vanished.len()
                            ),
                            witnesses: vanished,
                        };
                        self.mr_obs.push(((a, self.mr_seq), obs));
                        self.mr_seq += 1;
                    }
                }
            }
            self.agents.get_mut(&a).expect("read's agent exists").last_finalized = Some(idx);

            if self.parts.win_content || self.parts.win_order {
                self.window_step(a, idx);
            }
        }
    }

    /// One step of the per-pair window sweeps: agent `a`'s latest view
    /// just became read `idx`; re-evaluate every pair involving `a` at
    /// this read's response time.
    fn window_step(&mut self, a: AgentId, idx: u32) {
        let r_resp = self.reads[idx as usize].response;
        for (&b, bst) in &self.agents {
            if b == a {
                continue;
            }
            let Some(other_idx) = bst.last_finalized else { continue };
            let pair = if a < b { (a, b) } else { (b, a) };
            let (first, second) = if a < b {
                (&self.reads[idx as usize], &self.reads[other_idx as usize])
            } else {
                (&self.reads[other_idx as usize], &self.reads[idx as usize])
            };
            let st = self.pairs.entry(pair).or_default();
            if self.parts.win_content {
                let diverged = content_diverged(first, second);
                match (diverged, st.content_open) {
                    (true, None) => st.content_open = Some(r_resp),
                    (false, Some(start)) => {
                        st.content_closed.push((start, r_resp));
                        st.content_open = None;
                    }
                    _ => {}
                }
            }
            if self.parts.win_order {
                let diverged = inversion_ids(first, second).is_some();
                match (diverged, st.order_open) {
                    (true, None) => st.order_open = Some(r_resp),
                    (false, Some(start)) => {
                        st.order_closed.push((start, r_resp));
                        st.order_open = None;
                    }
                    _ => {}
                }
            }
        }
    }

    /// Pushes every op of `trace` and finishes: the whole batch façade.
    pub(crate) fn replay(mut self, trace: &TestTrace<K>) -> TestAnalysis<K> {
        for op in trace.ops() {
            self.push_event(op);
        }
        self.finish()
    }

    /// Drains every deferred evaluation and assembles the final
    /// [`TestAnalysis`] — byte-identical to the batch pipeline's output
    /// on the same event stream.
    pub fn finish(mut self) -> TestAnalysis<K> {
        self.release_reads(None);
        self.finalize_write_deps(None);
        self.finalize_responded_reads(None);

        let mut observations = Vec::new();

        self.ryw_obs.sort_by_key(|(k, _)| *k);
        observations.extend(self.ryw_obs.into_iter().map(|(_, o)| o));

        self.mw_obs.sort_by_key(|(k, _)| *k);
        observations.extend(self.mw_obs.into_iter().map(|(_, o)| o));

        self.mr_obs.sort_by_key(|(k, _)| *k);
        observations.extend(self.mr_obs.into_iter().map(|(_, o)| o));

        if self.general_wfr {
            self.wfr_matches.sort_by_key(|m| (m.read, m.sort));
            let mut i = 0;
            while i < self.wfr_matches.len() {
                let read_idx = self.wfr_matches[i].read;
                let mut witnesses: Vec<K> = Vec::new();
                while i < self.wfr_matches.len() && self.wfr_matches[i].read == read_idx {
                    let m = &self.wfr_matches[i];
                    witnesses.push(self.keys[m.dep_key as usize].clone());
                    witnesses.push(self.keys[m.write_key as usize].clone());
                    i += 1;
                }
                let r = &self.reads[read_idx as usize];
                let agent = r.agent;
                observations.push(Observation {
                    kind: AnomalyKind::WritesFollowReads,
                    agent,
                    other_agent: None,
                    at: r.response,
                    detail: format!(
                        "read by {agent} sees write(s) without their read dependencies: \
                         {witnesses:?}"
                    ),
                    witnesses,
                });
            }
        } else {
            self.wfr_obs.sort_by_key(|(k, _)| *k);
            observations.extend(self.wfr_obs.into_iter().map(|(_, o)| o));
        }

        let agent_list: Vec<AgentId> = self.agents.keys().copied().collect();

        if self.parts.content {
            for (i, &a) in agent_list.iter().enumerate() {
                for &b in &agent_list[i + 1..] {
                    let Some(st) = self.pairs.get(&(a, b)) else { continue };
                    if let Some((_, x, y, at)) = &st.content_best {
                        let pair_count = st.content_count;
                        observations.push(Observation {
                            kind: AnomalyKind::ContentDivergence,
                            agent: a,
                            other_agent: Some(b),
                            at: *at,
                            detail: format!(
                                "{a} and {b} mutually diverge ({pair_count} read pair(s)): \
                                 {a} alone sees {x:?}, {b} alone sees {y:?}"
                            ),
                            witnesses: vec![x.clone(), y.clone()],
                        });
                    }
                }
            }
        }
        if self.parts.order {
            for (i, &a) in agent_list.iter().enumerate() {
                for &b in &agent_list[i + 1..] {
                    let Some(st) = self.pairs.get(&(a, b)) else { continue };
                    if let Some((_, x, y, at)) = &st.order_best {
                        let pair_count = st.order_count;
                        observations.push(Observation {
                            kind: AnomalyKind::OrderDivergence,
                            agent: a,
                            other_agent: Some(b),
                            at: *at,
                            detail: format!(
                                "{a} and {b} order {x:?}/{y:?} oppositely \
                                 ({pair_count} read pair(s))"
                            ),
                            witnesses: vec![x.clone(), y.clone()],
                        });
                    }
                }
            }
        }

        let mut content_windows = Vec::new();
        let mut order_windows = Vec::new();
        for (i, &a) in agent_list.iter().enumerate() {
            for &b in &agent_list[i + 1..] {
                let st = self.pairs.get(&(a, b));
                if self.parts.win_content {
                    content_windows.push(WindowAnalysis {
                        pair: (a, b),
                        kind: WindowKind::Content,
                        windows: st.map(|s| s.content_closed.clone()).unwrap_or_default(),
                        open_since: st.and_then(|s| s.content_open),
                    });
                }
                if self.parts.win_order {
                    order_windows.push(WindowAnalysis {
                        pair: (a, b),
                        kind: WindowKind::Order,
                        windows: st.map(|s| s.order_closed.clone()).unwrap_or_default(),
                        open_since: st.and_then(|s| s.order_open),
                    });
                }
            }
        }

        TestAnalysis { observations, content_windows, order_windows }
    }
}

/// The dense id of the first element of `a`'s sequence that `b` lacks —
/// the id-level mirror of the batch checker's `first_only_in`.
fn first_only_in(a: &ReadState, b: &ReadState) -> Option<u32> {
    a.keys.iter().find(|&&k| !b.contains(k)).copied()
}

/// Mutual content difference between two retained reads.
fn content_diverged(a: &ReadState, b: &ReadState) -> bool {
    a.keys.iter().any(|&x| !b.contains(x)) && b.keys.iter().any(|&y| !a.contains(y))
}

/// Id-level mirror of [`crate::checkers::order::inversion_between`]:
/// a witness pair `(x, y)` with `x` before `y` in `a` but `y` before `x`
/// in `b`, if any.
fn inversion_ids(a: &ReadState, b: &ReadState) -> Option<(u32, u32)> {
    let mut prev: Option<(u32, u32)> = None;
    for &k in &a.keys {
        if let Some(p2) = b.position(k) {
            if let Some((px, pp2)) = prev {
                if p2 < pp2 {
                    return Some((px, k));
                }
            }
            prev = Some((k, p2));
        }
    }
    None
}
