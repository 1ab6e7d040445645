//! The checker engine: the six §III checkers and both divergence-window
//! sweeps, run together as one streaming pass.
//!
//! [`StreamingAnalyzer::new`] is the only way in ([`crate::analysis::analyze`]
//! replays a whole trace through it), and every pass runs all eight
//! operators. Events are pushed one at a time in trace order
//! (nondecreasing invocation time — the order
//! [`crate::trace::TestTrace::new`] sorts into), anomaly counts update as
//! they arrive ([`StreamingAnalyzer::live_counts`]), and
//! [`StreamingAnalyzer::finish`] produces a [`TestAnalysis`] **identical**
//! — observation order, witness order, read-pair counts, window boundaries —
//! to what the paper's whole-trace (batch) definitions give on the same
//! trace; the streaming-equivalence suite keeps a frozen batch
//! implementation as its oracle.
//!
//! # Memory contract
//!
//! The analyzer never buffers `OpRecord`s or raw `K` sequences. Each
//! event key is interned once (one owned `K` per *distinct* key), and so
//! is each read *result*: a read's sequence of dense `u32` ids is a
//! **view**, stored once per *distinct* sequence (`~4·|seq|` bytes
//! regardless of how wide `K` is), with no index of its own: all views
//! share two position tables of a fixed few words per distinct key (see
//! *Probes*). A read is retained as a fixed-size record — agent, times,
//! ordinal, view id — and a write as a fixed few words, so a thousand
//! polls that return the same five posts cost one view plus a thousand
//! records. A view's word summary (see *Probes*), five words and a count,
//! is part of the view and so is paid once per distinct view. Each agent
//! also keeps one `(view, multiplicity, first-arrived read)` entry per
//! distinct view it has read. Pairwise divergence counting is
//! `O(reads × distinct views)` in *time*, but the per-event *space* is a
//! small constant — the property [`StreamingAnalyzer::retained_bytes`]
//! accounts for and the streaming-equivalence suite pins. On a million-event trace of wide
//! string keys this is the difference between gigabytes and tens of
//! megabytes.
//!
//! # Probes
//!
//! A position table is indexed by key id, and each slot is a `(generation,
//! last position)` pair. Marking a view writes its ids in sequence order
//! under a new generation, so a repeated key keeps its *last* position
//! (the batch checkers' rule) and a slot left by any earlier generation
//! reads as absent; the generation is a `u64` and never wraps back onto a
//! stale mark. Then "does the view contain `k`" and "at which position"
//! are one load each. A check of one view (RYW, MW, MR, WFR) marks it
//! once. A pairwise comparison (divergence, windows) marks the new read's
//! view and walks each view it is compared with once, probing: when
//! neither repeats a key, they content-diverge iff `common < |mine|` and
//! `common < |theirs|` (`common` counts the walked keys found), and
//! order-diverge iff the found positions descend somewhere along the
//! walk. Whether a view repeats a key is settled when it is first marked;
//! a pair with such a view, or one whose witness is wanted (see
//! *Pair-state lattice*), marks the compared view in the second table and
//! runs the witness searches, which walk the sequences in order,
//! duplicates included.
//!
//! A view whose ids are all below 64, none repeated, also gets a
//! **summary** when it is interned, if it inverts at most four pairs (a
//! pair is inverted when the larger id comes first): a `u64` mask of its
//! ids and each inverted pair as a two-bit mask. Two summarized views are
//! decided without a walk. Content: each mask has a bit the other lacks,
//! which is `common < |mine|` and `common < |theirs|` on sets. Order: two
//! views order a common pair oppositely iff exactly one of them inverts
//! it, so they order-diverge iff some inverted pair of one view lies in
//! the common mask and is not among the other's inverted pairs. Every
//! pair either view inverts is listed, so the verdict is exact. A pair in
//! which either view lacks a summary is walked as above.
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
//!   lexicographically first witness, and the open/closed window state.
//!   Whether two reads diverge, and on which witness keys, depends on
//!   their two sequences alone, so each new read is compared against the
//!   other agents' *distinct views* exactly once: a view held by `m`
//!   earlier reads of an agent stands for `m` read pairs with one shared
//!   verdict, and adds `m` to the count. Every unordered read pair is
//!   still accounted exactly once (when its later read arrives). Of the
//!   `m` pairs the batch iteration meets first the one with the view's
//!   first-arrived read — the smallest ordinal, on whichever side of the
//!   `(read ordinal, read ordinal)` sort key that agent sits — so that
//!   read alone supplies the candidate witness and its `at`. Only the
//!   pair with the smallest key the pair has met so far can hold the
//!   witness, and keys do not arrive in order (a later read of the
//!   smaller agent meets the larger agent's early reads), so the
//!   searches run for a diverging view pair only when its key beats the
//!   kept one; any other diverging view pair just adds its `m`.
//!
//! The other operators lean on views the same way, with no deferral
//! involved: a read that repeats its agent's previous view loses no key
//! (MR) and leaves every pair's latest views, hence its window state, as
//! the last step left them; and a `(read, dependency)` general-WFR verdict
//! is a `(view, dependency)` verdict, evaluated once per view and expanded
//! to the view's reads in `finish`.

use crate::analysis::{CheckerConfig, TestAnalysis};
use crate::anomaly::{AnomalyKind, Observation};
use crate::checkers::WfrMode;
use crate::trace::{AgentId, EventKey, OpRecord, TestTrace, Timestamp};
use crate::window::{WindowAnalysis, WindowKind};
use conprobe_json::{FastMap, FastState};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hash::BuildHasher;
use std::mem::size_of;
use std::sync::Arc;

/// A distinct read result: the interned id sequence. Every read that
/// returned this sequence shares it — no `K` values, no `OpRecord`, and
/// no index: it is probed through [`Marks`].
#[derive(Debug)]
struct View {
    /// Dense key ids in sequence order, duplicates kept. The allocation is
    /// shared with the [`ViewTable`] index, so it exists once.
    keys: Arc<[u32]>,
    /// Reads, of any agent, that returned this view.
    reads: u32,
    /// Whether the view violates some general-mode WFR dependency.
    wfr_hit: bool,
    /// Whether the sequence repeats a key, set when the view is first
    /// marked: the one-walk verdict is exact only between views that do
    /// not (see *Probes* in the module docs).
    dups: bool,
    /// The view as words, when it has one (see [`Summary::of`]).
    summary: Option<Summary>,
}

impl View {
    fn retained_bytes(&self) -> usize {
        // The struct (its summary included), the shared sequence with its
        // two `Arc` counters, and the index entry that points back here.
        size_of::<View>()
            + self.keys.len() * size_of::<u32>()
            + 2 * size_of::<usize>()
            + size_of::<(Arc<[u32]>, u32)>()
    }
}

/// A view as words: the set of ids it holds and the pairs of them it
/// holds larger id first (see *Probes* in the module docs).
#[derive(Debug, Clone, Copy)]
struct Summary {
    /// Bit `k` is set iff the view holds id `k`.
    ids: u64,
    /// Each inverted pair as a two-bit mask; the first `flipped` are used.
    flips: [u64; Summary::MAX_FLIPS],
    flipped: u8,
}

impl Summary {
    const MAX_FLIPS: usize = 4;

    /// The summary of `seq`, if every id is below 64, none repeats, and
    /// at most [`Summary::MAX_FLIPS`] pairs are inverted.
    fn of(seq: &[u32]) -> Option<Summary> {
        let mut s = Summary { ids: 0, flips: [0; Summary::MAX_FLIPS], flipped: 0 };
        for &k in seq {
            let bit = 1u64.checked_shl(k)?;
            if s.ids & bit != 0 {
                return None;
            }
            // Every larger id already seen makes an inverted pair with `k`.
            let mut larger = s.ids & !(bit | (bit - 1));
            while larger != 0 {
                *s.flips.get_mut(usize::from(s.flipped))? = bit | (larger & larger.wrapping_neg());
                s.flipped += 1;
                larger &= larger - 1;
            }
            s.ids |= bit;
        }
        Some(s)
    }

    fn flips(&self) -> &[u64] {
        &self.flips[..usize::from(self.flipped)]
    }

    /// Whether some pair this view inverts lies in `common` and `other`
    /// does not invert it, i.e. holds it the other way round.
    fn flips_alone(&self, other: &Summary, common: u64) -> bool {
        self.flips().iter().any(|&p| p & common == p && !other.flips().contains(&p))
    }

    /// The verdict `(content, order)` of two summarized views, by word
    /// operations: they content-diverge iff each holds an id the other
    /// lacks, and order-diverge iff one inverts a common pair that the
    /// other does not.
    fn verdict(&self, other: &Summary) -> (bool, bool) {
        let common = self.ids & other.ids;
        let content = self.ids != common && other.ids != common;
        (content, self.flips_alone(other, common) || other.flips_alone(self, common))
    }
}

/// The verdict `(content, order)` of a view pair that needs no search:
/// from the summaries when both views have one, else from the one walk of
/// `theirs` against the marked `mine`; `None` when a repeated id leaves
/// it to the searches.
fn quick_verdict(mine: Marked<'_>, my_view: &View, their_view: &View) -> Option<(bool, bool)> {
    match (&my_view.summary, &their_view.summary) {
        (Some(m), Some(t)) => Some(m.verdict(t)),
        _ if my_view.dups || their_view.dups => None,
        _ => Some(mine.verdict(&their_view.keys)),
    }
}

/// A position table (see *Probes* in the module docs). Only a marked view
/// is probed.
#[derive(Debug, Default)]
struct Marks {
    generation: u64,
    slots: Vec<(u64, u32)>,
}

impl Marks {
    /// Marks `seq` under a new generation, in sequence order so that a
    /// repeated id keeps its last position (as
    /// [`crate::index::ReadView::position`] does).
    fn mark<'a>(&'a mut self, seq: &'a [u32]) -> Marked<'a> {
        self.generation += 1;
        for (i, &k) in seq.iter().enumerate() {
            self.slots[k as usize] = (self.generation, i as u32);
        }
        Marked { seq, marks: self }
    }

    /// Adds `key` to the marked set (position 0); whether it was absent.
    fn insert(&mut self, key: u32) -> bool {
        let absent = !self.contains(key);
        self.slots[key as usize] = (self.generation, 0);
        absent
    }

    fn contains(&self, key: u32) -> bool {
        self.slots[key as usize].0 == self.generation
    }

    fn position(&self, key: u32) -> Option<u32> {
        let (generation, at) = self.slots[key as usize];
        (generation == self.generation).then_some(at)
    }
}

/// A view's id sequence beside the table it is marked in.
#[derive(Clone, Copy)]
struct Marked<'a> {
    seq: &'a [u32],
    marks: &'a Marks,
}

impl Marked<'_> {
    /// Whether the sequence repeats an id: a repeated id's slot keeps a
    /// later position than its first occurrence.
    fn repeats(self) -> bool {
        self.seq.iter().enumerate().any(|(i, &k)| self.marks.slots[k as usize].1 != i as u32)
    }

    /// The one-walk verdict `(content, order)` of `other` against this
    /// marked sequence, exact when neither repeats an id: they
    /// content-diverge iff each holds an id outside the `common` ones, and
    /// order-diverge iff this sequence's positions descend somewhere
    /// along `other`.
    fn verdict(self, other: &[u32]) -> (bool, bool) {
        let (mut common, mut prev, mut inverted) = (0, 0, false);
        for &k in other {
            if let Some(p) = self.marks.position(k) {
                common += 1;
                inverted |= p < prev;
                prev = p;
            }
        }
        (common < self.seq.len() && common < other.len(), inverted)
    }

    /// The verdict by the exact searches, with `self` as the pair's first
    /// view; it holds for sequences that repeat an id too.
    fn searched_verdict(self, second: Marked<'_>) -> (bool, bool) {
        let content = self.first_not_in(second).is_some() && second.first_not_in(self).is_some();
        (content, self.inversion(second).is_some())
    }

    /// The first id of this sequence, in order, that `other` lacks — the
    /// id-level mirror of the batch checker's `first_only_in`.
    fn first_not_in(self, other: Marked<'_>) -> Option<u32> {
        self.seq.iter().copied().find(|&k| !other.marks.contains(k))
    }

    /// The order-divergence witness: the first adjacent descent of
    /// `other`'s positions over the ids both hold, walking this sequence —
    /// `(x, y)` with `x` before `y` here but `y` before `x` there. Any
    /// inverted common pair implies such an adjacent one.
    fn inversion(self, other: Marked<'_>) -> Option<(u32, u32)> {
        let mut prev: Option<(u32, u32)> = None;
        for &k in self.seq {
            if let Some(p2) = other.marks.position(k) {
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
}

/// The view interner. The index is keyed by the whole id sequence, so two
/// sequences are one view only if they are equal element for element —
/// same set in another order, or with a key repeated, is another view —
/// whatever their hashes do (`S` is a parameter so a test can make every
/// sequence collide).
#[derive(Debug, Default)]
struct ViewTable<S = FastState> {
    ids: HashMap<Arc<[u32]>, u32, S>,
    views: Vec<View>,
}

impl<S: BuildHasher> ViewTable<S> {
    /// The id of the view `keys` spells, and whether this call created it.
    fn intern(&mut self, keys: &[u32]) -> (u32, bool) {
        if let Some(&id) = self.ids.get(keys) {
            return (id, false);
        }
        let id = self.views.len() as u32;
        let keys: Arc<[u32]> = keys.into();
        self.ids.insert(Arc::clone(&keys), id);
        let summary = Summary::of(&keys);
        self.views.push(View { keys, reads: 0, wfr_hit: false, dups: false, summary });
        (id, true)
    }

    fn get(&self, id: u32) -> &View {
        &self.views[id as usize]
    }
}

/// A retained read: a fixed-size record pointing at its [`View`].
#[derive(Debug)]
struct ReadState {
    agent: AgentId,
    invoke: Timestamp,
    response: Timestamp,
    view: u32,
    /// Ordinal among this agent's reads (arrival = trace order).
    ord_in_agent: u32,
}

/// A retained write: fixed-size, id-only.
#[derive(Debug, Clone, Copy)]
struct WriteRec {
    key: u32,
    invoke: Timestamp,
    response: Timestamp,
}

/// One distinct view among an agent's reads — what another agent's new
/// read is compared against, in place of every read that returned it.
#[derive(Debug, Clone, Copy)]
struct AgentView {
    view: u32,
    /// How many of the agent's reads returned it.
    count: u32,
    /// Index of the first of them to arrive: the smallest `ord_in_agent`.
    first_read: u32,
}

#[derive(Debug, Default)]
struct AgentState {
    /// Writes in issue (arrival) order.
    writes: Vec<WriteRec>,
    /// Indices into `reads`, arrival order.
    read_ids: Vec<u32>,
    /// The agent's distinct views, in order of first arrival.
    views: Vec<AgentView>,
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

/// One `(view, dependency)` WFR violation — shared by every read that
/// returned the view.
#[derive(Debug, Clone, Copy)]
struct MatchRec {
    view: u32,
    dep: DepRec,
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

/// One kind of divergence (content or order) for one unordered agent
/// pair: the presence checker's count and witness, and the window sweep.
#[derive(Debug, Default)]
struct Divergence {
    /// Diverging read pairs so far.
    count: usize,
    /// `((first ordinal, second ordinal), x id, y id, at)` for the
    /// lexicographically earliest diverging read pair.
    best: Option<((u32, u32), u32, u32, Timestamp)>,
    open: Option<Timestamp>,
    closed: Vec<(Timestamp, Timestamp)>,
}

impl Divergence {
    /// Accounts `pairs` diverging read pairs that share the witness
    /// `(x, y)`; `ordkey` and `at` belong to the earliest of them.
    fn record(&mut self, pairs: u32, ordkey: (u32, u32), (x, y): (u32, u32), at: Timestamp) {
        self.count += pairs as usize;
        if self.best.is_none_or(|(k, ..)| ordkey < k) {
            self.best = Some((ordkey, x, y, at));
        }
    }

    /// Accounts `pairs` read pairs keyed `ordkey` on their one-walk
    /// verdict (`None`: a repeated id leaves it to the exact search);
    /// whether the exact search must still run, for the verdict or for a
    /// witness that would beat `best`.
    fn needs_search(&mut self, pairs: u32, ordkey: (u32, u32), diverged: Option<bool>) -> bool {
        match diverged {
            Some(false) => false,
            Some(true) if self.best.is_some_and(|(k, ..)| k < ordkey) => {
                self.count += pairs as usize;
                false
            }
            _ => true,
        }
    }

    /// One window-sweep step: the pair's latest views do or do not
    /// diverge as of `at`.
    fn sweep(&mut self, diverged: bool, at: Timestamp) {
        match (diverged, self.open) {
            (true, None) => self.open = Some(at),
            (false, Some(start)) => {
                self.closed.push((start, at));
                self.open = None;
            }
            _ => {}
        }
    }

    fn window(&self, pair: (AgentId, AgentId), kind: WindowKind) -> WindowAnalysis {
        WindowAnalysis { pair, kind, windows: self.closed.clone(), open_since: self.open }
    }
}

/// Divergence state for one unordered agent pair.
#[derive(Debug, Default)]
struct PairState {
    content: Divergence,
    order: Divergence,
}

type KeyedObs<K> = Vec<((AgentId, u32), Observation<K>)>;

/// The streaming analysis engine. See the module docs for the contract.
#[derive(Debug)]
pub struct StreamingAnalyzer<K: EventKey> {
    general_wfr: bool,
    triggers: Vec<TriggerPair<K>>,

    /// Interner: `K` → dense id, plus the id → `K` table for witness
    /// reconstruction. Both point at the one owned copy of each key.
    key_ids: FastMap<Arc<K>, u32>,
    keys: Vec<Arc<K>>,
    views: ViewTable,
    /// The id sequence of the read being pushed; kept for its capacity.
    seq_scratch: Vec<u32>,
    /// The two position tables: `[0]` for the view under check (the new
    /// read's, in a pairwise comparison), `[1]` for the view compared
    /// with it.
    marks: [Marks; 2],

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
    /// Reads whose view has a general-mode WFR match.
    wfr_reads_hit: usize,
    pairs: BTreeMap<(AgentId, AgentId), PairState>,
}

impl<K: EventKey> StreamingAnalyzer<K> {
    /// An analyzer running every checker and both window sweeps under
    /// `config` — the engine behind [`crate::analysis::analyze`].
    pub fn new(config: &CheckerConfig<K>) -> Self {
        let (general_wfr, triggers) = match &config.wfr_mode {
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
            general_wfr,
            triggers,
            key_ids: FastMap::default(),
            keys: Vec::new(),
            views: ViewTable::default(),
            seq_scratch: Vec::new(),
            marks: Default::default(),
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
            wfr_reads_hit: 0,
            pairs: BTreeMap::new(),
        }
    }

    /// Number of events pushed so far.
    pub fn events_pushed(&self) -> u64 {
        self.events
    }

    /// Approximate bytes of retained analysis state (read/write records,
    /// distinct views, interner, dependency sets) — the figure
    /// the memory-bounded contract is about. Deliberately excludes
    /// produced observations, which are output, not working state.
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
            if self.general_wfr { self.wfr_reads_hit } else { self.wfr_obs.len() },
            self.pairs.values().filter(|p| p.content.count > 0).count(),
            self.pairs.values().filter(|p| p.order.count > 0).count(),
        ]
    }

    fn intern(&mut self, key: &K) -> u32 {
        if let Some(&id) = self.key_ids.get(key) {
            return id;
        }
        let id = self.keys.len() as u32;
        let key = Arc::new(key.clone());
        self.keys.push(Arc::clone(&key));
        self.key_ids.insert(key, id);
        self.marks.iter_mut().for_each(|marks| marks.slots.push((0, 0)));
        // One `K` with its two `Arc` counters, two pointers to it, the id
        // and its slot in each position table.
        self.retained += size_of::<K>()
            + 2 * size_of::<usize>()
            + 2 * size_of::<Arc<K>>()
            + size_of::<u32>()
            + self.marks.len() * size_of::<(u64, u32)>();
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
            self.retained += size_of::<WriteRec>() + size_of::<(AgentId, u32)>();
        } else if let Some(seq) = op.read_seq() {
            self.push_read(op, seq);
        }
    }

    fn push_read(&mut self, op: &OpRecord<K>, seq: &[K]) {
        let mut ids = std::mem::take(&mut self.seq_scratch);
        ids.clear();
        ids.extend(seq.iter().map(|k| self.intern(k)));
        let (view, new_view) = self.views.intern(&ids);
        self.seq_scratch = ids;
        let v = &mut self.views.views[view as usize];
        v.reads += 1;
        if new_view {
            self.retained += v.retained_bytes();
        }

        let idx = self.reads.len() as u32;
        let st = self.agents.entry(op.agent).or_default();
        let ord_in_agent = st.read_ids.len() as u32;
        st.read_ids.push(idx);
        self.reads.push(ReadState {
            agent: op.agent,
            invoke: op.invoke,
            response: op.response,
            view,
            ord_in_agent,
        });
        self.retained += size_of::<ReadState>() + size_of::<u32>();

        if new_view {
            let dups = self.marks[0].mark(&self.views.get(view).keys).repeats();
            self.views.views[view as usize].dups = dups;
        }
        self.divergence_scan(idx);
        if !self.general_wfr {
            self.trigger_scan(idx);
        } else if new_view {
            self.marks[0].mark(&self.views.get(view).keys);
            for i in 0..self.deps.len() {
                let (dep, marks) = (self.deps[i], &self.marks[0]);
                // The view shows the write without its dependency.
                if marks.contains(dep.write_key) && !marks.contains(dep.dep_key) {
                    self.record_wfr_match(view, dep);
                }
            }
        } else if self.views.get(view).wfr_hit {
            self.wfr_reads_hit += 1;
        }
        self.finalize_heap.push(Reverse((op.response, idx)));
    }

    /// Compares the newly pushed read `idx` against every distinct view
    /// of every other agent, updating the per-pair divergence counters
    /// and best witnesses, then files it under its own agent's views. A
    /// view stands for all the reads that returned it (see the module
    /// docs), so each unordered read pair is accounted exactly once. One
    /// walk decides each view pair; the exact searches run only where a
    /// repeated id leaves that walk inexact or a witness could win.
    fn divergence_scan(&mut self, idx: u32) {
        let read = &self.reads[idx as usize];
        let a = read.agent;
        let [my_marks, their_marks] = &mut self.marks;
        let my_view = self.views.get(read.view);
        let mine = my_marks.mark(&my_view.keys);
        for (&b, bst) in &self.agents {
            if b == a || bst.views.is_empty() {
                continue;
            }
            let st = self.pairs.entry(if a < b { (a, b) } else { (b, a) }).or_default();
            for theirs in &bst.views {
                let rb = &self.reads[theirs.first_read as usize];
                let ordkey = if a < b {
                    (read.ord_in_agent, rb.ord_in_agent)
                } else {
                    (rb.ord_in_agent, read.ord_in_agent)
                };
                let their_view = self.views.get(theirs.view);
                let walked = quick_verdict(mine, my_view, their_view);
                let content = st.content.needs_search(theirs.count, ordkey, walked.map(|v| v.0));
                let order = st.order.needs_search(theirs.count, ordkey, walked.map(|v| v.1));
                if !content && !order {
                    continue;
                }
                let at = read.response.max(rb.response);
                let other = their_marks.mark(&their_view.keys);
                // Canonical orientation: `first` is the pair's smaller
                // agent's view.
                let (first, second) = if a < b { (mine, other) } else { (other, mine) };
                if content {
                    if let (Some(x), Some(y)) =
                        (first.first_not_in(second), second.first_not_in(first))
                    {
                        st.content.record(theirs.count, ordkey, (x, y), at);
                    }
                }
                if order {
                    if let Some(xy) = first.inversion(second) {
                        st.order.record(theirs.count, ordkey, xy, at);
                    }
                }
            }
        }
        let own = &mut self.agents.get_mut(&a).expect("created by push_read").views;
        match own.iter_mut().find(|v| v.view == read.view) {
            Some(seen) => seen.count += 1,
            None => {
                own.push(AgentView { view: read.view, count: 1, first_read: idx });
                self.retained += size_of::<AgentView>();
            }
        }
    }

    /// Files a general-mode WFR violation of `view`.
    fn record_wfr_match(&mut self, view: u32, dep: DepRec) {
        self.wfr_matches.push(MatchRec { view, dep });
        self.retained += size_of::<MatchRec>();
        let v = &mut self.views.views[view as usize];
        if !v.wfr_hit {
            v.wfr_hit = true;
            self.wfr_reads_hit += v.reads as usize;
        }
    }

    /// Evaluates the Test 1 trigger pairs against one read, emitting the
    /// (final, timeless) WFR observation immediately.
    fn trigger_scan(&mut self, idx: u32) {
        let read = &self.reads[idx as usize];
        let view = self.marks[0].mark(&self.views.get(read.view).keys).marks;
        let mut witnesses: Vec<K> = Vec::new();
        for t in &mut self.triggers {
            if t.write_id.is_none() {
                t.write_id = self.key_ids.get(&t.write).copied();
            }
            if t.dep_id.is_none() {
                t.dep_id = self.key_ids.get(&t.dep).copied();
            }
            let write_seen = t.write_id.is_some_and(|id| view.contains(id));
            let dep_seen = t.dep_id.is_some_and(|id| view.contains(id));
            if write_seen && !dep_seen {
                witnesses.push(t.dep.clone());
                witnesses.push(t.write.clone());
            }
        }
        if !witnesses.is_empty() {
            self.wfr_obs.push((idx, wfr_observation(read, witnesses)));
        }
    }

    /// RYW + MW evaluation for reads whose invoke watermark has passed
    /// (`invoke < bound`; `None` = end of stream).
    fn release_reads(&mut self, bound: Option<Timestamp>) {
        while self.rw_cursor < self.reads.len() {
            let r_idx = self.rw_cursor;
            if let Some(b) = bound {
                if self.reads[r_idx].invoke >= b {
                    break;
                }
            }
            self.rw_cursor += 1;
            self.eval_ryw(r_idx);
            self.eval_mw(r_idx);
        }
    }

    fn key(&self, id: u32) -> K {
        K::clone(&self.keys[id as usize])
    }

    fn eval_ryw(&mut self, r_idx: usize) {
        let r = &self.reads[r_idx];
        let agent = r.agent;
        let Some(st) = self.agents.get(&agent) else { return };
        self.marks[0].mark(&self.views.get(r.view).keys);
        let view = &self.marks[0];
        let missing: Vec<K> = st
            .writes
            .iter()
            .filter(|w| w.response <= r.invoke && !view.contains(w.key))
            .map(|w| self.key(w.key))
            .collect();
        if !missing.is_empty() {
            let obs = Observation {
                kind: AnomalyKind::ReadYourWrites,
                agent,
                other_agent: None,
                at: r.response,
                witnesses: missing,
                read_pairs: 0,
            };
            self.ryw_obs.push(((agent, r.ord_in_agent), obs));
        }
    }

    fn eval_mw(&mut self, r_idx: usize) {
        let r = &self.reads[r_idx];
        self.marks[0].mark(&self.views.get(r.view).keys);
        let view = &self.marks[0];
        let completed = |w: &&WriteRec| w.response <= r.invoke;
        for (&writer, wst) in &self.agents {
            'pairs: for (i, x) in wst.writes.iter().enumerate().filter(|(_, w)| completed(w)) {
                for y in wst.writes[i + 1..].iter().filter(completed) {
                    let violation = match (view.position(x.key), view.position(y.key)) {
                        (None, Some(_)) => true,
                        (Some(px), Some(py)) => py < px,
                        _ => false,
                    };
                    if violation {
                        let (xk, yk) = (self.key(x.key), self.key(y.key));
                        self.mw_obs.push((
                            (r_idx as u32, writer),
                            Observation {
                                kind: AnomalyKind::MonotonicWrites,
                                agent: r.agent,
                                other_agent: Some(writer),
                                at: r.response,
                                witnesses: vec![xk, yk],
                                read_pairs: 0,
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
    /// views (the mirror of the new-view scan in `push_read`).
    fn finalize_write_deps(&mut self, bound: Option<Timestamp>) {
        if !self.general_wfr {
            return;
        }
        while self.write_cursor < self.write_log.len() {
            let (agent, ord) = self.write_log[self.write_cursor];
            let st = &self.agents[&agent];
            let w = st.writes[ord as usize];
            if let Some(b) = bound {
                if w.invoke >= b {
                    break;
                }
            }
            self.write_cursor += 1;

            // The keys already among the write's deps, and its own key,
            // which never is one.
            let seen = &mut self.marks[0];
            seen.mark(&[w.key]);
            let first_new = self.deps.len();
            for &ri in &st.read_ids {
                let r = &self.reads[ri as usize];
                if r.response > w.invoke {
                    continue;
                }
                for &k in self.views.get(r.view).keys.iter() {
                    if seen.insert(k) {
                        let dep_idx = (self.deps.len() - first_new) as u32;
                        self.deps.push(DepRec {
                            dep_key: k,
                            write_key: w.key,
                            sort: (agent, ord, dep_idx),
                        });
                    }
                }
            }
            self.retained += (self.deps.len() - first_new) * size_of::<DepRec>();
            for view in 0..self.views.views.len() as u32 {
                // Every new dependency is on the same write.
                if !self.marks[0].mark(&self.views.get(view).keys).marks.contains(w.key) {
                    continue;
                }
                for i in first_new..self.deps.len() {
                    let dep = self.deps[i];
                    if !self.marks[0].contains(dep.dep_key) {
                        self.record_wfr_match(view, dep);
                    }
                }
            }
        }
    }

    /// MR + window finalization for reads whose response the stream has
    /// passed (`response ≤ bound`; `None` = end of stream). Pops in
    /// `(response, trace seq)` order — the batch response order with its
    /// stable tie-break.
    fn finalize_responded_reads(&mut self, bound: Option<Timestamp>) {
        while let Some(&Reverse((resp, idx))) = self.finalize_heap.peek() {
            if let Some(b) = bound {
                if resp > b {
                    break;
                }
            }
            self.finalize_heap.pop();
            let r = &self.reads[idx as usize];
            let a = r.agent;
            let latest = &mut self.agents.get_mut(&a).expect("read's agent exists").last_finalized;
            let prev = latest.replace(idx).map(|p| &self.reads[p as usize]);
            // A repeat of the agent's latest view: nothing vanished, and
            // every pair's latest views are those of its last window step.
            if prev.is_some_and(|p| p.view == r.view) {
                continue;
            }

            if let Some(p) = prev {
                self.marks[0].mark(&self.views.get(r.view).keys);
                let now = &self.marks[0];
                let vanished: Vec<K> = self
                    .views
                    .get(p.view)
                    .keys
                    .iter()
                    .filter(|&&k| !now.contains(k))
                    .map(|&k| self.key(k))
                    .collect();
                if !vanished.is_empty() {
                    let obs = Observation {
                        kind: AnomalyKind::MonotonicReads,
                        agent: a,
                        other_agent: None,
                        at: r.response,
                        witnesses: vanished,
                        read_pairs: 0,
                    };
                    self.mr_obs.push(((a, self.mr_seq), obs));
                    self.mr_seq += 1;
                }
            }
            self.window_step(a, idx);
        }
    }

    /// One step of the per-pair window sweeps: agent `a`'s latest view
    /// just became read `idx`; re-evaluate every pair involving `a` at
    /// this read's response time.
    fn window_step(&mut self, a: AgentId, idx: u32) {
        let read = &self.reads[idx as usize];
        let [my_marks, their_marks] = &mut self.marks;
        let my_view = self.views.get(read.view);
        let mine = my_marks.mark(&my_view.keys);
        for (&b, bst) in &self.agents {
            if b == a {
                continue;
            }
            let Some(other_idx) = bst.last_finalized else { continue };
            let their_view = self.views.get(self.reads[other_idx as usize].view);
            let (content, order) = quick_verdict(mine, my_view, their_view).unwrap_or_else(|| {
                let theirs = their_marks.mark(&their_view.keys);
                if a < b {
                    mine.searched_verdict(theirs)
                } else {
                    theirs.searched_verdict(mine)
                }
            });
            let st = self.pairs.entry(if a < b { (a, b) } else { (b, a) }).or_default();
            st.content.sweep(content, read.response);
            st.order.sweep(order, read.response);
        }
    }

    /// Pushes every op of `trace` and finishes — what
    /// [`crate::analysis::analyze`] runs.
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
        observations.extend(self.ryw_obs.drain(..).map(|(_, o)| o));

        self.mw_obs.sort_by_key(|(k, _)| *k);
        observations.extend(self.mw_obs.drain(..).map(|(_, o)| o));

        self.mr_obs.sort_by_key(|(k, _)| *k);
        observations.extend(self.mr_obs.drain(..).map(|(_, o)| o));

        if self.general_wfr {
            // Per view, its matches in batch dependency order; then one
            // observation per read of a matched view, in trace order.
            self.wfr_matches.sort_by_key(|m| (m.view, m.dep.sort));
            let mut matches_of: Vec<&[MatchRec]> = vec![&[]; self.views.views.len()];
            for of_view in self.wfr_matches.chunk_by(|a, b| a.view == b.view) {
                matches_of[of_view[0].view as usize] = of_view;
            }
            for r in &self.reads {
                let matches = matches_of[r.view as usize];
                if !matches.is_empty() {
                    let witnesses = matches
                        .iter()
                        .flat_map(|m| [self.key(m.dep.dep_key), self.key(m.dep.write_key)])
                        .collect();
                    observations.push(wfr_observation(r, witnesses));
                }
            }
        } else {
            self.wfr_obs.sort_by_key(|(k, _)| *k);
            observations.extend(self.wfr_obs.drain(..).map(|(_, o)| o));
        }

        // Pairs in batch order: `a` ascending, then `b > a` ascending —
        // the `BTreeMap` order of the canonical `(smaller, larger)` keys.
        let agent_list: Vec<AgentId> = self.agents.keys().copied().collect();
        let all_pairs = agent_list
            .iter()
            .enumerate()
            .flat_map(|(i, &a)| agent_list[i + 1..].iter().map(move |&b| (a, b)));

        for (&(a, b), st) in &self.pairs {
            if let Some((_, x, y, at)) = st.content.best {
                observations.push(Observation {
                    kind: AnomalyKind::ContentDivergence,
                    agent: a,
                    other_agent: Some(b),
                    at,
                    witnesses: vec![self.key(x), self.key(y)],
                    read_pairs: st.content.count,
                });
            }
        }
        for (&(a, b), st) in &self.pairs {
            if let Some((_, x, y, at)) = st.order.best {
                observations.push(Observation {
                    kind: AnomalyKind::OrderDivergence,
                    agent: a,
                    other_agent: Some(b),
                    at,
                    witnesses: vec![self.key(x), self.key(y)],
                    read_pairs: st.order.count,
                });
            }
        }

        let mut content_windows = Vec::new();
        let mut order_windows = Vec::new();
        let quiet = PairState::default();
        for pair in all_pairs {
            let st = self.pairs.get(&pair).unwrap_or(&quiet);
            content_windows.push(st.content.window(pair, WindowKind::Content));
            order_windows.push(st.order.window(pair, WindowKind::Order));
        }

        TestAnalysis { observations, content_windows, order_windows }
    }
}

/// The (general- or trigger-mode) WFR observation of one read.
fn wfr_observation<K: EventKey>(read: &ReadState, witnesses: Vec<K>) -> Observation<K> {
    Observation {
        kind: AnomalyKind::WritesFollowReads,
        agent: read.agent,
        other_agent: None,
        at: read.response,
        witnesses,
        read_pairs: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::OpKind;
    use conprobe_json::testkit::TestRng;
    use std::hash::{BuildHasherDefault, Hasher};

    /// Hashes everything to 0: every lookup lands in one bucket.
    #[derive(Default)]
    struct Collide;

    impl Hasher for Collide {
        fn finish(&self) -> u64 {
            0
        }
        fn write(&mut self, _: &[u8]) {}
    }

    /// Equal as sets, different as sequences: another order, a key
    /// repeated inside the sequence, a prefix.
    const SEQUENCES: [&[u32]; 6] =
        [&[1, 2, 3], &[2, 1, 3], &[1, 2, 3, 1], &[1, 2, 3, 3], &[1, 2], &[]];

    fn each_sequence_is_its_own_view<S: BuildHasher + Default>() {
        let mut table = ViewTable::<S>::default();
        for (i, seq) in SEQUENCES.iter().enumerate() {
            assert_eq!(table.intern(seq), (i as u32, true), "{seq:?} is a new view");
        }
        for (i, seq) in SEQUENCES.iter().enumerate() {
            assert_eq!(table.intern(seq), (i as u32, false), "{seq:?} is found again");
            assert_eq!(&*table.get(i as u32).keys, *seq);
        }
        assert_eq!(table.views.len(), SEQUENCES.len());
    }

    #[test]
    fn views_are_whole_sequences_not_sets() {
        each_sequence_is_its_own_view::<FastState>();
    }

    /// View identity is full-vector equality, never the hash: with every
    /// sequence colliding they still stay apart and are still found.
    #[test]
    fn colliding_sequences_stay_distinct_views() {
        each_sequence_is_its_own_view::<BuildHasherDefault<Collide>>();
    }

    /// Views marked one after another, across the point where a 32-bit
    /// generation would wrap to the 0 that unmarked slots carry: every
    /// probe sees the current view alone — its keys at their last
    /// position, no other view's keys, no never-marked key.
    #[test]
    fn a_view_marked_after_many_generations_reads_no_stale_marks() {
        let mut marks = Marks { generation: u64::from(u32::MAX) - 2, slots: vec![(0, 0); 8] };
        // Keys 6 and 7 are never marked.
        let views: [&[u32]; 6] = [&[0, 1, 2], &[2, 3, 2], &[4], &[], &[5, 0, 5], &[1]];
        for (i, seq) in views.iter().enumerate() {
            let marked = marks.mark(seq);
            for k in 0..8u32 {
                let last = seq.iter().rposition(|&x| x == k).map(|p| p as u32);
                assert_eq!(marked.marks.position(k), last, "view {i}, key {k}");
                assert_eq!(marked.marks.contains(k), last.is_some(), "view {i}, key {k}");
            }
        }
        assert!(marks.generation > u64::from(u32::MAX));
    }

    /// On views that repeat no id, the one walk of the compared view
    /// decides exactly what the searches decide — content iff each side
    /// holds an id the other lacks, order iff either side's walk finds an
    /// inversion — and a view is checked for repeats when first marked.
    /// Where both views have a summary, its word verdict decides the same;
    /// a view has one iff its ids are below 64, distinct, and invert at
    /// most four pairs. Ids are drawn on both sides of 64, and views from
    /// sorted runs with a few adjacent swaps as well as from shuffles.
    #[test]
    fn the_one_walk_verdict_equals_the_searches_on_duplicate_free_views() {
        let mut rng = TestRng::new(0x0E_3A1C);
        let fresh = || Marks { generation: 0, slots: vec![(0, 0); 72] };
        let [mut left, mut right] = [fresh(), fresh()];
        let mut met = [[0; 2]; 2];
        // Summarized pairs: by verdict, and order decided by one side's
        // inversions alone (either side).
        let (mut summed, mut one_sided) = ([[0; 2]; 2], [0; 2]);
        // Views refused a summary for one cause alone: an id of 64 or
        // more, a repeated id, a fifth inverted pair.
        let mut refused = [0; 3];
        let inversions = |seq: &[u32]| {
            (0..seq.len())
                .flat_map(|i| (i + 1..seq.len()).map(move |j| (i, j)))
                .filter(|&(i, j)| seq[i] > seq[j])
                .count()
        };
        for case in 0..6000 {
            let base = if rng.chance(0.5) { 0 } else { 56 };
            let mut draw = || {
                let mut ids: Vec<u32> = (base..base + 12).collect();
                if rng.chance(0.3) {
                    for i in (1..ids.len()).rev() {
                        ids.swap(i, rng.range_usize(0, i + 1));
                    }
                    ids.truncate(rng.range_usize(0, 9));
                } else {
                    ids.retain(|_| rng.chance(0.6));
                    for _ in 0..rng.range(0, 6).min(ids.len().saturating_sub(1) as u64) {
                        let i = rng.range_usize(0, ids.len() - 1);
                        ids.swap(i, i + 1);
                    }
                }
                if !ids.is_empty() && rng.chance(0.05) {
                    ids.insert(
                        rng.range_usize(0, ids.len() + 1),
                        ids[rng.range_usize(0, ids.len())],
                    );
                }
                ids
            };
            let (a, b) = (draw(), draw());
            let (sa, sb) = (Summary::of(&a), Summary::of(&b));
            let (mine, theirs) = (left.mark(&a), right.mark(&b));
            for (seq, summary, marked) in [(&a, sa, mine), (&b, sb, theirs)] {
                let mut distinct = seq.clone();
                distinct.sort_unstable();
                distinct.dedup();
                let repeats = distinct.len() < seq.len();
                assert_eq!(marked.repeats(), repeats, "case {case}: {seq:?}");
                let (low, flips) = (seq.iter().all(|&k| k < 64), inversions(seq));
                let summarizable = !repeats && low && flips <= 4;
                assert_eq!(summary.is_some(), summarizable, "case {case}: {seq:?}");
                for (n, alone) in refused.iter_mut().zip([
                    !repeats && !low && flips <= 4,
                    repeats && low,
                    !repeats && low && flips == 5,
                ]) {
                    *n += usize::from(alone);
                }
            }
            if mine.repeats() || theirs.repeats() {
                continue;
            }
            let content =
                mine.first_not_in(theirs).is_some() && theirs.first_not_in(mine).is_some();
            let order = mine.inversion(theirs).is_some();
            assert_eq!(theirs.inversion(mine).is_some(), order, "case {case}: {a:?} {b:?}");
            assert_eq!(mine.verdict(&b), (content, order), "case {case}: {a:?} {b:?}");
            met[usize::from(content)][usize::from(order)] += 1;
            if let (Some(sa), Some(sb)) = (sa, sb) {
                assert_eq!(sa.verdict(&sb), (content, order), "case {case}: {a:?} {b:?}");
                assert_eq!(sb.verdict(&sa), (content, order), "case {case}: {b:?} {a:?}");
                summed[usize::from(content)][usize::from(order)] += 1;
                let common = sa.ids & sb.ids;
                match (sa.flips_alone(&sb, common), sb.flips_alone(&sa, common)) {
                    (true, false) => one_sided[0] += 1,
                    (false, true) => one_sided[1] += 1,
                    _ => {}
                }
            }
        }
        assert!(met.iter().flatten().all(|&n| n > 100), "too tame: {met:?}");
        assert!(summed.iter().flatten().all(|&n| n > 100), "too few summaries: {summed:?}");
        assert!(one_sided.iter().all(|&n| n > 100), "too few one-sided inversions: {one_sided:?}");
        assert!(refused.iter().all(|&n| n > 20), "too few refusals: {refused:?}");
    }

    /// A repeated id keeps its last position, so one walk can miss the
    /// inversion the exact search finds: the view is flagged when first
    /// pushed and its pairs take the searches, in the scan and the sweep.
    #[test]
    fn a_view_that_repeats_an_id_defers_to_the_searches() {
        let (twice, once): (&[u32], &[u32]) = (&[2, 1, 2], &[1, 2]);
        let fresh = || Marks { generation: 0, slots: vec![(0, 0); 3] };
        let [mut left, mut right] = [fresh(), fresh()];
        let (mine, theirs) = (left.mark(twice), right.mark(once));
        assert!(mine.repeats() && !theirs.repeats());
        assert_eq!(mine.verdict(once), (false, false), "the walk alone misses it");
        assert_eq!(mine.searched_verdict(theirs), (false, true));

        // Agent 1 reads the plain view first, so agent 0's read of the
        // repeating one is the new read, marked in the first table.
        let read = |agent: u32, at: i64, seq: &[u32]| OpRecord {
            agent: AgentId(agent),
            invoke: Timestamp::from_millis(at),
            response: Timestamp::from_millis(at + 1),
            kind: OpKind::Read { seq: seq.into() },
        };
        let mut s = StreamingAnalyzer::new(&CheckerConfig::default());
        s.push_event(&read(1, 0, once));
        s.push_event(&read(0, 10, twice));
        assert_eq!(s.views.views.iter().map(|v| v.dups).collect::<Vec<_>>(), [false, true]);
        let analysis = s.finish();
        let order: Vec<_> = analysis
            .observations
            .iter()
            .filter(|o| o.kind == AnomalyKind::OrderDivergence)
            .map(|o| o.witnesses.clone())
            .collect();
        assert_eq!(order, [vec![2, 1]]);
        assert_eq!(analysis.order_windows[0].open_since, Some(Timestamp::from_millis(11)));
    }
}
