//! PBFT-style ordered-log replica — the second strong-consistency
//! control arm, where partitions and crashes force **view changes**
//! instead of quorum waits.
//!
//! Every [`PbftReplica`] is both a front door and a log replica. Client
//! operations — writes *and* reads — are forwarded to the current
//! view's leader, sequenced into a single totally-ordered log, and run
//! through the classic three-phase exchange over op digests:
//!
//! * **pre-prepare** — the leader assigns the next slot, stamps the
//!   canonical record (server timestamp + arrival index = slot), and
//!   broadcasts the typed [`LogOp`] with its [`LogOp::digest`];
//! * **prepare** — backups that accept the leader's binding broadcast a
//!   prepare vote; a slot is *prepared* once a certificate quorum
//!   (`max(2f+1, ⌈n/2⌉+1)`, `f = ⌊(n−1)/3⌋`) has vouched for the digest;
//! * **commit** — prepared replicas broadcast commit votes; at a
//!   certificate quorum the slot is committed into the persistent
//!   consensus backlog and applied strictly in slot order to the
//!   [`ReplicaCore`].
//!
//! Reads are ordered through the same log, so every response is a
//! prefix-consistent snapshot: the arm is linearizable by construction;
//! not yet checked by a linearizability oracle (ROADMAP item 2). All six
//! checkers must come back clean under every fault plan.
//!
//! **View changes.** Each front door tracks its pending operations; when
//! one stalls past a seeded suspicion timeout and this replica is not
//! the leader, it votes `ViewChange(v+1)` carrying its *prepared
//! backlog* (every slot it ever prepared, op included). A replica
//! seeing `f+1` votes for a higher view joins them; the deterministic
//! next leader (`leader = view mod n`) installs the view at a
//! certificate quorum of votes and broadcasts `NewView`, re-issuing the
//! union of all prepared slots (highest view wins per slot) and
//! noop-filling sequence gaps, so nothing committed is ever lost and
//! nothing uncommitted can dodge re-ordering. Clients never see any of
//! this: their front door simply re-forwards pending ops to the new
//! leader.
//!
//! **Crash recovery** is the quorum arm's state-transfer round (one
//! implementation, shared) applied to the log: a recovering replica
//! broadcasts [`PbftMsg::StateReq`] and peers stream their committed
//! backlog as `cpj1` length-prefixed checksummed records (one
//! `{slot, op}` entry per frame — the campaign journal's format, and the
//! only place an op is text) plus their apply watermark. The recovering
//! replica decodes and verifies each whole stream before applying any of
//! it — a slot at or past the responder's watermark plus `LOG_WINDOW`
//! refuses the stream — and serves **no client operations**
//! until it has heard `n − quorum + 1` peers (every commit quorum misses
//! at most `n − quorum` replicas, so this fence intersects all of them —
//! the same intersection argument as `quorum.rs`) *and* caught up past
//! the highest watermark heard. Committed-but-unapplied slots replay from
//! the backlog the instant their predecessors arrive.
//!
//! The node is [`FaultDriver`](crate::fault_driver::FaultDriver)-aware
//! through the same front-door shell as the other arms (crash, restart,
//! brownout), so `conprobe chaos` drives it unchanged.

use crate::api::{ClientOp, NetMsg, OpResult, ReplMsg};
use crate::quorum::{stored_post_from_payload, stored_post_to_payload};
use crate::shell::{
    metric_prefix, Catchup, FrontDoor, Hosted, Transfers, Transition, TOKEN_CATCHUP_RETRY,
};
use conprobe_json::{
    frame, missing, read_members, FastMap, FromJson, JsonError, JsonReader, JsonWriter,
};
use conprobe_obs::{Counter, Gauge, Histogram, Severity};
use conprobe_sim::{Context, Node, NodeId, SimDuration, SimTime};
use conprobe_store::{OrderingPolicy, Post, PostId, ReplicaCore, StoredPost};
use std::collections::{BTreeMap, HashMap};

/// Fixed timer token: the periodic pulse (re-forwarding, leader
/// retransmission, suspicion, gap repair). Re-armed while not crashed.
/// ([`TOKEN_CATCHUP_RETRY`] is 0; the front door's counter starts at 2.)
const TOKEN_PULSE: u64 = 1;

/// Pulse period: the protocol's retry/suspicion heartbeat.
const PULSE: SimDuration = SimDuration::from_millis(200);
/// Re-forward a pending client op to the leader after this long without
/// progress (lost `Propose`, lost votes, or a view change in between).
const FORWARD_RETRY: SimDuration = SimDuration::from_millis(600);
/// Base leader-suspicion timeout; each replica adds seeded jitter drawn
/// in `on_start` so suspicion is staggered, not synchronized.
const SUSPICION_BASE: SimDuration = SimDuration::from_millis(1_200);
/// Ask the leader for the missing committed prefix after a sequence gap
/// has blocked `next_apply` this long.
const GAP_REPAIR: SimDuration = SimDuration::from_millis(600);

/// The view every replica boots in. Starting at 1 (not 0) puts the
/// initial leader at replica index `1 mod n` — the replica the default
/// chaos plans crash — so an unchanged level-3 sweep forces a real view
/// change.
const INITIAL_VIEW: u64 = 1;

/// The log holds slots below `next_apply + LOG_WINDOW`, PBFT's high
/// watermark. Far above what the front doors can hold in flight
/// (n × [`MAX_WAITING_OPS`](crate::shell::MAX_WAITING_OPS)); a message
/// for a slot above it is dropped.
const LOG_WINDOW: u64 = 1 << 16;

/// One consensus message, carried inside [`ReplMsg::Pbft`] so the
/// generic [`NetMsg`] plumbing (agents, fault driver, weak replicas)
/// needs no changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PbftMsg {
    /// Front door → leader: please sequence this operation.
    Propose(ProposeOp),
    /// Leader → all: slot assignment with the op.
    PrePrepare {
        /// The view this assignment belongs to.
        view: u64,
        /// The assigned log slot.
        slot: u64,
        /// [`LogOp::digest`] of `payload`.
        digest: u64,
        /// The op.
        payload: LogOp,
    },
    /// Backup → all: I accept the leader's digest binding for this slot.
    Prepare {
        /// The voter's view.
        view: u64,
        /// The slot voted on.
        slot: u64,
        /// The digest vouched for.
        digest: u64,
    },
    /// Replica → all: this slot is prepared at my quorum; commit it.
    Commit {
        /// The voter's view.
        view: u64,
        /// The slot voted on.
        slot: u64,
        /// The digest vouched for.
        digest: u64,
    },
    /// A leader-suspicion vote, carrying the voter's prepared backlog.
    ViewChange {
        /// The view the voter wants to move to.
        new_view: u64,
        /// Every slot the voter ever prepared, ops included.
        prepared: Vec<PreparedProof>,
    },
    /// The new leader's installation broadcast: the full re-issued log
    /// prefix (committed history, re-issued prepared slots, noop fills).
    NewView {
        /// The installed view.
        view: u64,
        /// Re-issued pre-prepares, one per slot `0..=max`.
        pre_prepares: Vec<PreparedProof>,
    },
    /// State-transfer request from a recovering (or gap-blocked) replica.
    StateReq {
        /// Correlation token identifying one transfer round.
        token: u64,
    },
    /// State-transfer response: the responder's committed backlog as
    /// `cpj1` checksummed frames, plus its apply watermark and view.
    StateResp {
        /// The echoed correlation token.
        token: u64,
        /// The responder's current view (the recoverer adopts the max).
        view: u64,
        /// The responder's apply watermark (`next_apply`).
        watermark: u64,
        /// Framed `{slot, op}` records (`conprobe_json::frame` encoding).
        frames: Vec<String>,
    },
}

/// A client operation en route to the leader for sequencing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProposeOp {
    /// Sequence this write; `origin` (a replica index) answers the
    /// client when the slot applies.
    Write {
        /// The forwarding front door's replica index.
        origin: usize,
        /// The client's post.
        post: Post,
    },
    /// Sequence this read (reads are log ops, so the arm is linearizable
    /// by construction; not yet checked by a linearizability oracle
    /// (ROADMAP item 2)); `origin` answers from its snapshot at apply.
    Read {
        /// The forwarding front door's replica index.
        origin: usize,
        /// The front door's local read sequence number.
        seq: u64,
    },
}

/// One slot's worth of view-change evidence: enough to re-issue the
/// pre-prepare verbatim in a later view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedProof {
    /// The slot.
    pub slot: u64,
    /// The view the slot was (pre-)prepared in.
    pub view: u64,
    /// [`LogOp::digest`] of `payload`.
    pub digest: u64,
    /// The op.
    pub payload: LogOp,
}

/// One log op — the only in-process form of what a slot holds (text
/// exists only inside a state-transfer frame, `backlog_record`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogOp {
    /// A client write, answered by `origin` at apply.
    Write {
        /// The forwarding front door's replica index.
        origin: usize,
        /// The post as the leader stamped it once (server timestamp =
        /// pre-prepare instant, arrival index = slot): every replica
        /// applies this one value and shares its content allocation.
        stored: StoredPost,
    },
    /// An ordered read, answered by `origin` from its snapshot at apply.
    Read {
        /// The forwarding front door's replica index.
        origin: usize,
        /// The front door's local read sequence number.
        seq: u64,
    },
    /// A sequence-gap filler (the slot makes the digest unique).
    Noop {
        /// The filled slot.
        slot: u64,
    },
}

impl LogOp {
    /// FNV-64 over a variant tag and every field in a fixed order, the
    /// content length-prefixed. Votes carry it; it is only ever compared
    /// for equality.
    pub fn digest(&self) -> u64 {
        let fold = |h, ws: &[u64]| ws.iter().fold(h, |h, w| frame::fnv64_fold(h, &w.to_le_bytes()));
        match self {
            LogOp::Write { origin, stored: StoredPost { post, server_ts, arrival_index } } => {
                let (id, content) = (post.id, post.content.as_bytes());
                let head =
                    [0, *origin as u64, id.author.0.into(), id.seq.into(), content.len() as u64];
                let h = frame::fnv64_fold(fold(frame::FNV64_BASIS, &head), content);
                fold(h, &[post.client_ts.as_nanos() as u64, server_ts.as_nanos(), *arrival_index])
            }
            LogOp::Read { origin, seq } => fold(frame::FNV64_BASIS, &[1, *origin as u64, *seq]),
            LogOp::Noop { slot } => fold(frame::FNV64_BASIS, &[2, *slot]),
        }
    }

    /// Parses the op text of a [`backlog_record`] — the one decoder, used
    /// only by [`PbftReplica::decode_backlog_frame`].
    fn decode(text: &str) -> Result<LogOp, JsonError> {
        let r = &mut JsonReader::new(text);
        read_members!(r => kind; origin, post, seq, slot);
        r.finish()?;
        let origin = origin.ok_or_else(|| missing("origin"));
        match String::as_str(&kind) {
            "write" => {
                let post: String = post.ok_or_else(|| missing("post"))?;
                Ok(LogOp::Write { origin: origin?, stored: stored_post_from_payload(&post)? })
            }
            "read" => Ok(LogOp::Read { origin: origin?, seq: seq.ok_or_else(|| missing("seq"))? }),
            "noop" => Ok(LogOp::Noop { slot: slot.ok_or_else(|| missing("slot"))? }),
            other => Err(JsonError::schema(format!("unknown log op kind {other:?}"))),
        }
    }
}

/// One committed slot as the payload of a state-transfer frame — the one
/// place an op is encoded.
fn backlog_record(slot: u64, op: &LogOp) -> String {
    let op = JsonWriter::object(|w| match op {
        LogOp::Write { origin, stored } => {
            w.member("kind", "write");
            w.member("origin", origin);
            w.member("post", &stored_post_to_payload(stored));
        }
        LogOp::Read { origin, seq } => {
            w.member("kind", "read");
            w.member("origin", origin);
            w.member("seq", seq);
        }
        LogOp::Noop { slot } => {
            w.member("kind", "noop");
            w.member("slot", slot);
        }
    });
    JsonWriter::object(|w| {
        w.member("slot", &slot);
        w.member("op", &op);
    })
}

/// One log slot's protocol state.
struct Slot {
    /// The view of the latest accepted pre-prepare for this slot.
    view: u64,
    /// The digest this replica is counting votes for.
    digest: u64,
    /// The op, once a pre-prepare delivered it.
    payload: Option<LogOp>,
    /// Bit `i` set: replica `i`'s prepare (or pre-prepare) vote arrived.
    prepares: u64,
    /// Bit `i` set: replica `i`'s commit vote arrived.
    commits: u64,
    prepared: bool,
    committed: bool,
    /// When the leader (re-)broadcast this slot's pre-prepare last —
    /// drives pulse retransmission under message loss.
    retransmitted_at: SimTime,
}

impl Slot {
    fn new(view: u64, digest: u64, now: SimTime) -> Self {
        Slot {
            view,
            digest,
            payload: None,
            prepares: 0,
            commits: 0,
            prepared: false,
            committed: false,
            retransmitted_at: now,
        }
    }

    /// Voids the votes collected for a superseded digest.
    fn rebind(&mut self, digest: u64) {
        self.digest = digest;
        self.payload = None;
        self.prepares = 0;
        self.commits = 0;
        self.prepared = false;
    }
}

/// A client write waiting for its slot to commit and apply.
struct PendingWrite {
    /// The original client bytes, kept for leader-change re-forwarding.
    post: Post,
    /// `(client, req_id)` pairs to acknowledge (RPC retransmits stack).
    waiters: Vec<(NodeId, u64)>,
    /// When the op first went pending — the suspicion clock and the
    /// commit-latency measurement origin.
    first_at: SimTime,
    /// When the op was last forwarded to a leader.
    last_forward: SimTime,
}

/// A client read waiting for its slot to apply at this front door.
struct PendingRead {
    client: NodeId,
    req_id: u64,
    first_at: SimTime,
    last_forward: SimTime,
}

/// This arm's own metrics, next to the [`FrontDoor`]'s common ones.
/// Instrumentation only: behaviour is identical without a sink.
struct PbftObs {
    fenced: Gauge,
    state_transfers: Counter,
    protocol_anomalies: Counter,
    /// Shared across the replica group: completed view installations.
    view_changes: Counter,
    /// Shared: slots committed (counted at each replica).
    commits: Counter,
    /// Shared: the current leader's replica index.
    leader: Gauge,
    /// Shared: client-write commit latency (pending → applied at origin).
    commit_latency: Histogram,
}

/// A PBFT-style ordered-log replica (see the module docs for the
/// protocol).
pub struct PbftReplica {
    core: ReplicaCore,
    /// The full member list (self included), in replica-index order.
    replicas: Vec<NodeId>,
    my_index: usize,
    /// Crash flag, brownout gate, request counters, timer tokens and the
    /// common metrics — the shell shared with the other replica types.
    door: FrontDoor,
    /// The current view; `leader = view mod n`.
    view: u64,
    /// Per-slot protocol state, indexed by slot number, below the high
    /// watermark `next_apply + LOG_WINDOW` (never garbage-collected — the
    /// retained history doubles as the view-change proof store; see
    /// DESIGN §15).
    slots: Vec<Option<Slot>>,
    /// The persistent consensus backlog: committed ops by slot.
    committed: BTreeMap<u64, LogOp>,
    /// The leader's next slot to assign.
    next_slot: u64,
    /// The first slot not yet applied to `core`.
    next_apply: u64,
    /// Leader-reign write dedupe: post id → assigned slot.
    proposed_writes: HashMap<PostId, u64>, // RandomState: a serve client picks post ids
    /// Leader-reign read dedupe: `(origin, seq)` → assigned slot.
    proposed_reads: FastMap<(usize, u64), u64>,
    /// Front-door write tracking by post id.
    pending_writes: HashMap<PostId, PendingWrite>, // RandomState: a serve client picks post ids
    /// Front-door read tracking by local read sequence number.
    pending_reads: FastMap<u64, PendingRead>,
    /// RPC-retransmit dedupe: `(client, req_id)` → read seq.
    read_reqs: FastMap<(NodeId, u64), u64>,
    next_read_seq: u64,
    /// View-change votes: target view → voter index → proofs.
    view_votes: FastMap<u64, FastMap<usize, Vec<PreparedProof>>>,
    /// The highest view this replica has voted for (≤ `view` when not
    /// currently suspicious).
    voted_view: u64,
    voted_at: SimTime,
    /// Highest target view seen in any vote — suspicion converges here.
    max_view_heard: u64,
    /// The `NewView` this replica installed as leader (laggard resend).
    last_new_view: Option<(u64, Vec<PreparedProof>)>,
    /// Per-replica seeded suspicion timeout (base + jitter).
    suspicion: SimDuration,
    /// The read fence: `Some` while recovering, cleared on completion.
    catchup: Option<Catchup<(u64, LogOp)>>,
    /// Highest view heard from any responder of the current catch-up
    /// round (adopted on completion).
    catchup_view: u64,
    /// An outstanding gap-repair round (fetch missing committed prefix).
    gap_token: Option<u64>,
    /// When the current sequence gap was first observed.
    gap_since: Option<SimTime>,
    /// Client ops queued behind the read fence.
    fenced_requests: Vec<(NodeId, u64, ClientOp)>,
    /// Malformed/inconsistent peer messages ignored (never panicked on).
    anomalies: u64,
    /// Completed view installations/adoptions at this replica.
    views_entered: u64,
    transfers: Transfers,
    obs: Option<PbftObs>,
}

impl std::fmt::Debug for PbftReplica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PbftReplica")
            .field("index", &self.my_index)
            .field("view", &self.view)
            .field("applied", &self.core.len())
            .field("next_apply", &self.next_apply)
            .field("fenced", &self.is_fenced())
            .field("stats", &self.door.stats())
            .finish()
    }
}

impl Default for PbftReplica {
    fn default() -> Self {
        Self::new()
    }
}

impl PbftReplica {
    /// Creates a replica with no members (install them with
    /// [`PbftReplica::set_members`] once ids are known).
    pub fn new() -> Self {
        PbftReplica {
            core: ReplicaCore::new(OrderingPolicy::exact_timestamp()),
            replicas: Vec::new(),
            my_index: 0,
            // Replies ride the FIFO link: a read's content is pinned at
            // its log slot, so two answers to one client must arrive in
            // slot order — an old-content answer leapfrogging a newer one
            // would read as a monotonic-reads violation at the probe even
            // though the log itself is linear.
            door: FrontDoor::new(2, true),
            view: INITIAL_VIEW,
            slots: Vec::new(),
            committed: BTreeMap::new(),
            next_slot: 0,
            next_apply: 0,
            proposed_writes: HashMap::new(),
            proposed_reads: FastMap::default(),
            pending_writes: HashMap::new(),
            pending_reads: FastMap::default(),
            read_reqs: FastMap::default(),
            next_read_seq: 0,
            view_votes: FastMap::default(),
            voted_view: 0,
            voted_at: SimTime::ZERO,
            max_view_heard: 0,
            last_new_view: None,
            suspicion: SUSPICION_BASE,
            catchup: None,
            catchup_view: 0,
            gap_token: None,
            gap_since: None,
            fenced_requests: Vec::new(),
            anomalies: 0,
            views_entered: 0,
            transfers: Transfers::default(),
            obs: None,
        }
    }

    /// Installs the full member list (self included) and this replica's
    /// index into it.
    ///
    /// # Panics
    ///
    /// Panics if `my_index` is out of range, or with more than 64
    /// members (a slot's votes are a `u64` bitset over replica indices).
    pub fn set_members(&mut self, replicas: Vec<NodeId>, my_index: usize) {
        assert!(my_index < replicas.len(), "my_index must address the member list");
        assert!(replicas.len() <= 64, "at most 64 members");
        self.replicas = replicas;
        self.my_index = my_index;
    }

    /// Number of posts applied at this replica (diagnostics).
    pub fn applied(&self) -> usize {
        self.core.len()
    }

    /// Whether the replica is currently crashed (fault injection).
    pub fn is_crashed(&self) -> bool {
        self.door.is_crashed()
    }

    /// The replica's applied state in policy order (diagnostics).
    pub fn snapshot(&self) -> std::sync::Arc<[PostId]> {
        self.core.snapshot()
    }

    /// Whether the recovery fence is up (no client service until caught
    /// up).
    pub fn is_fenced(&self) -> bool {
        self.catchup.is_some()
    }

    /// The current view number.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Whether this replica leads the current view.
    pub fn is_leader(&self) -> bool {
        self.leader_index(self.view) == self.my_index
    }

    /// Views this replica installed or adopted (initial view excluded).
    pub fn views_entered(&self) -> u64 {
        self.views_entered
    }

    /// `(writes, reads, throttled)` request counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        self.door.stats()
    }

    /// Malformed or inconsistent peer messages ignored-and-counted.
    pub fn protocol_anomalies(&self) -> u64 {
        self.anomalies
    }

    /// Completed state transfers as `(frames, watermark, stream_hash)`
    /// tuples, in completion order — the byte-determinism witness.
    pub fn state_transfers(&self) -> &[(u64, u64, u64)] {
        &self.transfers.records
    }

    fn n(&self) -> usize {
        self.replicas.len()
    }

    /// Certificate quorum: `max(2f+1, ⌈n/2⌉+1)` with `f = ⌊(n−1)/3⌋` —
    /// the PBFT certificate size, floored at a majority so tiny groups
    /// (n < 4, f = 0) still intersect.
    fn cert_quorum(&self) -> usize {
        let f = (self.n().saturating_sub(1)) / 3;
        (2 * f + 1).max(self.n() / 2 + 1)
    }

    /// Suspicion join threshold: `f+1` votes prove at least one correct
    /// replica is suspicious, so joining is safe.
    fn join_quorum(&self) -> usize {
        (self.n().saturating_sub(1)) / 3 + 1
    }

    /// Peers a recovering replica must hear before the fence lifts:
    /// every commit quorum misses at most `n − cert_quorum` replicas, so
    /// `n − cert_quorum + 1` peers intersect all of them.
    fn catchup_quorum(&self) -> usize {
        (self.n() - self.cert_quorum() + 1).max(1)
    }

    fn leader_index(&self, view: u64) -> usize {
        (view % self.n() as u64) as usize
    }

    fn leader_id(&self, view: u64) -> NodeId {
        self.replicas[self.leader_index(view)]
    }

    fn sender_index(&self, from: NodeId) -> Option<usize> {
        self.replicas.iter().position(|r| *r == from)
    }

    /// The log index of `slot`, or `None` at or above the high watermark.
    fn log_index(&self, slot: u64) -> Option<usize> {
        if slot >= self.next_apply.saturating_add(LOG_WINDOW) {
            return None;
        }
        usize::try_from(slot).ok()
    }

    /// The log entry for `slot`, opened as `Slot::new(view, digest, now)`
    /// on first touch; `None` (the message is dropped) above the window.
    fn slot_entry(&mut self, slot: u64, view: u64, digest: u64, now: SimTime) -> Option<&mut Slot> {
        let i = self.log_index(slot)?;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        Some(self.slots[i].get_or_insert_with(|| Slot::new(view, digest, now)))
    }

    fn slot_mut(&mut self, slot: u64) -> Option<&mut Slot> {
        self.slots.get_mut(usize::try_from(slot).ok()?)?.as_mut()
    }

    fn note_anomaly(&mut self) {
        self.anomalies += 1;
        if let Some(obs) = &self.obs {
            obs.protocol_anomalies.inc();
        }
    }

    fn broadcast<A>(&self, ctx: &mut Context<'_, NetMsg<A>>, msg: PbftMsg, ordered: bool) {
        for (i, &peer) in self.replicas.iter().enumerate() {
            if i == self.my_index {
                continue;
            }
            if ordered {
                ctx.send_ordered(peer, NetMsg::Repl(ReplMsg::Pbft(msg.clone())));
            } else {
                ctx.send(peer, NetMsg::Repl(ReplMsg::Pbft(msg.clone())));
            }
        }
    }

    // ------------------------------------------------------------------
    // Client front door
    // ------------------------------------------------------------------

    /// Serves one client request (or queues it behind the recovery
    /// fence). Called on receipt, when a brownout hold expires, and when
    /// the fence lifts.
    fn handle_request<A>(
        &mut self,
        ctx: &mut Context<'_, NetMsg<A>>,
        from: NodeId,
        req_id: u64,
        op: ClientOp,
    ) {
        // Everything behind the fence, reads and writes not yet applied.
        let held =
            self.fenced_requests.len() + self.pending_reads.len() + self.pending_writes.len();
        if self.door.refuse_if_full(ctx, held, from, req_id) {
            return;
        }
        if self.is_fenced() {
            // No client service until caught up past the rejoin
            // watermark; RPC retransmits collapse onto one queue entry.
            if !self.fenced_requests.iter().any(|(c, r, _)| *c == from && *r == req_id) {
                self.fenced_requests.push((from, req_id, op));
            }
            return;
        }
        let now = ctx.true_now();
        match op {
            ClientOp::Write(post) => {
                self.door.count_write();
                let id = post.id;
                if self.core.contains(id) {
                    // Already committed and applied (an RPC retransmit
                    // after a lost response): re-acknowledge, and release
                    // any waiters a lost commit round left behind.
                    if let Some(w) = self.pending_writes.remove(&id) {
                        for (client, req) in w.waiters {
                            self.door.respond(ctx, client, req, OpResult::WriteAck(id));
                        }
                    }
                    self.door.respond(ctx, from, req_id, OpResult::WriteAck(id));
                    return;
                }
                if let Some(w) = self.pending_writes.get_mut(&id) {
                    if !w.waiters.contains(&(from, req_id))
                        && !self.door.refuse_if_full(ctx, w.waiters.len(), from, req_id)
                    {
                        w.waiters.push((from, req_id));
                    }
                    return;
                }
                self.pending_writes.insert(
                    id,
                    PendingWrite {
                        post: post.clone(),
                        waiters: vec![(from, req_id)],
                        first_at: now,
                        last_forward: now,
                    },
                );
                let op = ProposeOp::Write { origin: self.my_index, post };
                self.forward_to_leader(ctx, op);
            }
            ClientOp::Read => {
                self.door.count_read();
                if self.read_reqs.contains_key(&(from, req_id)) {
                    return; // retransmit of an in-flight ordered read
                }
                let seq = self.next_read_seq;
                self.next_read_seq += 1;
                self.pending_reads.insert(
                    seq,
                    PendingRead { client: from, req_id, first_at: now, last_forward: now },
                );
                self.read_reqs.insert((from, req_id), seq);
                let op = ProposeOp::Read { origin: self.my_index, seq };
                self.forward_to_leader(ctx, op);
            }
        }
    }

    fn forward_to_leader<A>(&mut self, ctx: &mut Context<'_, NetMsg<A>>, op: ProposeOp) {
        if self.is_leader() {
            self.leader_propose(ctx, op);
        } else {
            let leader = self.leader_id(self.view);
            ctx.send_ordered(leader, NetMsg::Repl(ReplMsg::Pbft(PbftMsg::Propose(op))));
        }
    }

    // ------------------------------------------------------------------
    // Leader: sequencing
    // ------------------------------------------------------------------

    fn leader_propose<A>(&mut self, ctx: &mut Context<'_, NetMsg<A>>, op: ProposeOp) {
        if !self.is_leader() || self.is_fenced() || self.log_index(self.next_slot).is_none() {
            return; // stale forward or a full log; the origin's pulse will retry
        }
        match op {
            ProposeOp::Write { origin, post } => {
                if let Some(&slot) = self.proposed_writes.get(&post.id) {
                    // Already sequenced this reign: a lost vote round is
                    // repaired by re-broadcasting the assignment (peers
                    // re-vote idempotently; committed peers re-affirm).
                    self.rebroadcast_slot(ctx, slot);
                    return;
                }
                let slot = self.next_slot;
                self.proposed_writes.insert(post.id, slot);
                let stored = StoredPost { post, server_ts: ctx.true_now(), arrival_index: slot };
                self.start_slot(ctx, slot, LogOp::Write { origin, stored });
            }
            ProposeOp::Read { origin, seq } => {
                if let Some(&slot) = self.proposed_reads.get(&(origin, seq)) {
                    self.rebroadcast_slot(ctx, slot);
                    return;
                }
                let slot = self.next_slot;
                self.proposed_reads.insert((origin, seq), slot);
                self.start_slot(ctx, slot, LogOp::Read { origin, seq });
            }
        }
    }

    /// Opens a new slot as leader: record it, count our own implicit
    /// prepare, broadcast the pre-prepare.
    fn start_slot<A>(&mut self, ctx: &mut Context<'_, NetMsg<A>>, slot: u64, payload: LogOp) {
        debug_assert_eq!(slot, self.next_slot);
        self.next_slot += 1;
        let digest = payload.digest();
        let view = self.view;
        let mut opened = Slot::new(view, digest, ctx.true_now());
        opened.payload = Some(payload.clone());
        opened.prepares = 1 << self.my_index;
        // A stray vote may have opened this slot already; the leader's
        // binding replaces it.
        let entry = self.slot_entry(slot, view, digest, opened.retransmitted_at);
        *entry.expect("leader_propose checked the window") = opened;
        self.broadcast(ctx, PbftMsg::PrePrepare { view, slot, digest, payload }, true);
    }

    /// Re-broadcasts an assigned slot's pre-prepare (vote-loss repair).
    /// Peers that already committed it answer with fresh commit votes,
    /// so even a front door that missed the whole commit round recovers.
    fn rebroadcast_slot<A>(&mut self, ctx: &mut Context<'_, NetMsg<A>>, slot: u64) {
        let now = ctx.true_now();
        let Some(s) = self.slot_mut(slot) else { return };
        let Some(payload) = s.payload.clone() else { return };
        s.retransmitted_at = now;
        let (view, digest) = (s.view, s.digest);
        self.broadcast(ctx, PbftMsg::PrePrepare { view, slot, digest, payload }, true);
    }

    // ------------------------------------------------------------------
    // Three-phase exchange
    // ------------------------------------------------------------------

    fn on_pre_prepare<A>(
        &mut self,
        ctx: &mut Context<'_, NetMsg<A>>,
        from_idx: usize,
        p: PreparedProof,
    ) {
        let view = p.view;
        if view < self.view {
            return; // stale reign
        }
        if view > self.view {
            // Evidence of a newer view we missed: petition its leader,
            // who re-sends the NewView to laggards.
            self.note_higher_view(ctx, view);
            return;
        }
        if from_idx != self.leader_index(view) {
            self.note_anomaly(); // only the leader assigns slots
            return;
        }
        self.adopt_binding(ctx, from_idx, view, p, false);
    }

    /// Adopts leader `from_idx`'s binding of `p.slot` in `view` — a
    /// pre-prepare, or one slot a `NewView` re-issues (`reissue`) — and
    /// echoes `Prepare`; a committed slot re-affirms its `Commit` instead.
    fn adopt_binding<A>(
        &mut self,
        ctx: &mut Context<'_, NetMsg<A>>,
        from_idx: usize,
        view: u64,
        p: PreparedProof,
        reissue: bool,
    ) {
        let PreparedProof { slot, digest, payload, .. } = p;
        if payload.digest() != digest {
            self.note_anomaly(); // digest does not match the op
            return;
        }
        if let Some(committed) = self.committed.get(&slot) {
            if committed.digest() == digest {
                // Re-affirm so replicas missing the commit round hear it.
                self.broadcast(ctx, PbftMsg::Commit { view, slot, digest }, false);
            } else {
                self.note_anomaly(); // conflicts with committed state
            }
            return;
        }
        let my_index = self.my_index;
        let Some(entry) = self.slot_entry(slot, view, digest, ctx.true_now()) else { return };
        if entry.digest != digest {
            if (entry.committed || entry.prepared) && !reissue {
                self.note_anomaly(); // equivocating assignment
                return;
            }
            // The legitimate leader's binding (a new view's, even over a
            // prepared slot) supersedes votes collected for another digest.
            entry.rebind(digest);
        }
        entry.view = view;
        entry.payload.get_or_insert(payload);
        entry.prepares |= (1 << from_idx) | (1 << my_index);
        self.next_slot = self.next_slot.max(slot + 1);
        self.broadcast(ctx, PbftMsg::Prepare { view, slot, digest }, false);
        self.check_slot(ctx, slot);
    }

    fn on_vote<A>(
        &mut self,
        ctx: &mut Context<'_, NetMsg<A>>,
        from_idx: usize,
        view: u64,
        slot: u64,
        digest: u64,
        is_commit: bool,
    ) {
        if view > self.view {
            self.note_higher_view(ctx, view);
            // Still count the vote: in the crash-fault model a vote for
            // this digest is valid evidence regardless of the view tag.
        }
        // Every applied slot is in `committed`.
        if slot < self.next_apply || self.committed.contains_key(&slot) {
            return; // settled; late votes are expected under loss
        }
        let Some(entry) = self.slot_entry(slot, view, digest, ctx.true_now()) else { return };
        if entry.digest != digest {
            self.note_anomaly(); // vote for a conflicting digest
            return;
        }
        entry.prepares |= 1 << from_idx;
        if is_commit {
            // A commit vote implies the sender prepared the slot.
            entry.commits |= 1 << from_idx;
        }
        self.check_slot(ctx, slot);
    }

    /// Runs the prepared → committed transitions for one slot.
    fn check_slot<A>(&mut self, ctx: &mut Context<'_, NetMsg<A>>, slot: u64) {
        let quorum = self.cert_quorum();
        let my_index = self.my_index;
        let Some(s) = self.slot_mut(slot) else { return };
        if s.committed {
            return;
        }
        let mut announce_commit = None;
        if !s.prepared && s.payload.is_some() && s.prepares.count_ones() as usize >= quorum {
            s.prepared = true;
            s.commits |= 1 << my_index;
            announce_commit = Some((s.view, s.digest));
        }
        let newly_committed =
            s.prepared && s.payload.is_some() && s.commits.count_ones() as usize >= quorum;
        if newly_committed {
            s.committed = true;
            let payload = s.payload.clone().expect("checked payload.is_some() above");
            self.committed.insert(slot, payload);
            if let Some(obs) = &self.obs {
                obs.commits.inc();
            }
        }
        if let Some((view, digest)) = announce_commit {
            self.broadcast(ctx, PbftMsg::Commit { view, slot, digest }, false);
        }
        if newly_committed {
            self.try_apply(ctx);
        }
    }

    /// Applies the committed prefix in strict slot order, answering this
    /// front door's clients as their ops apply.
    fn try_apply<A>(&mut self, ctx: &mut Context<'_, NetMsg<A>>) {
        let now = ctx.true_now();
        while let Some(op) = self.committed.get(&self.next_apply).cloned() {
            self.next_apply += 1;
            match op {
                LogOp::Write { origin, stored } => {
                    let id = stored.post.id;
                    self.core.apply_replicated(stored);
                    if origin == self.my_index {
                        if let Some(w) = self.pending_writes.remove(&id) {
                            if let Some(obs) = &self.obs {
                                obs.commit_latency
                                    .record(now.saturating_since(w.first_at).as_nanos());
                            }
                            for (client, req_id) in w.waiters {
                                self.door.respond(ctx, client, req_id, OpResult::WriteAck(id));
                            }
                        }
                    }
                }
                LogOp::Read { origin, seq } => {
                    if origin == self.my_index {
                        if let Some(r) = self.pending_reads.remove(&seq) {
                            self.read_reqs.remove(&(r.client, r.req_id));
                            let view = self.core.snapshot().into();
                            self.door.respond(ctx, r.client, r.req_id, OpResult::ReadOk(view));
                        }
                    }
                }
                LogOp::Noop { .. } => {}
            }
        }
        self.gap_since = None;
        // A merged backlog (state transfer, gap repair) may extend past
        // every locally opened slot; a future leader reign must never
        // re-assign a committed slot number.
        if let Some((&last, _)) = self.committed.iter().next_back() {
            self.next_slot = self.next_slot.max(last + 1);
        }
        self.door.set_applied(self.core.len());
    }

    // ------------------------------------------------------------------
    // View changes
    // ------------------------------------------------------------------

    /// This replica's full prepared backlog (committed slots included):
    /// the view-change proof set. Carrying the whole history — not just
    /// committed-but-unapplied slots — is what makes noop-filling safe:
    /// a slot prepared anywhere in the vote quorum is always re-issued,
    /// never overwritten by a noop.
    fn prepared_proofs(&self) -> Vec<PreparedProof> {
        let mut proofs: BTreeMap<u64, PreparedProof> = BTreeMap::new();
        for (slot, s) in (0u64..).zip(&self.slots) {
            if let Some(Slot { prepared: true, payload: Some(payload), view, digest, .. }) = s {
                let (view, digest, payload) = (*view, *digest, payload.clone());
                proofs.insert(slot, PreparedProof { slot, view, digest, payload });
            }
        }
        for (&slot, op) in &self.committed {
            let proof =
                || PreparedProof { slot, view: 0, digest: op.digest(), payload: op.clone() };
            proofs.entry(slot).or_insert_with(proof);
        }
        proofs.into_values().collect()
    }

    fn send_view_change<A>(&mut self, ctx: &mut Context<'_, NetMsg<A>>, new_view: u64) {
        let now = ctx.true_now();
        self.voted_view = new_view;
        self.voted_at = now;
        let proofs = self.prepared_proofs();
        self.view_votes.entry(new_view).or_default().insert(self.my_index, proofs.clone());
        let (node, leader) = (ctx.node_id(), self.leader_index(new_view));
        self.door.event(now, Severity::Warn, || {
            format!("replica {node} suspects leader; voting view change to view {new_view} (leader n{leader})")
        });
        self.broadcast(ctx, PbftMsg::ViewChange { new_view, prepared: proofs }, true);
        self.maybe_install(ctx, new_view);
    }

    fn on_view_change<A>(
        &mut self,
        ctx: &mut Context<'_, NetMsg<A>>,
        from: NodeId,
        from_idx: usize,
        new_view: u64,
        prepared: Vec<PreparedProof>,
    ) {
        self.max_view_heard = self.max_view_heard.max(new_view);
        if new_view <= self.view {
            // Stale vote — from a replica that missed the installation.
            // If we installed the current view, re-send it the NewView.
            if let Some((view, pre_prepares)) = &self.last_new_view {
                if *view == self.view {
                    let msg = PbftMsg::NewView { view: *view, pre_prepares: pre_prepares.clone() };
                    ctx.send_ordered(from, NetMsg::Repl(ReplMsg::Pbft(msg)));
                }
            }
            return;
        }
        self.view_votes.entry(new_view).or_default().insert(from_idx, prepared);
        let votes = self.view_votes.get(&new_view).map_or(0, FastMap::len);
        if new_view > self.voted_view && votes >= self.join_quorum() {
            // f+1 distinct suspicions prove a correct replica is stuck:
            // join even if our own clients are happy.
            self.send_view_change(ctx, new_view);
            return;
        }
        self.maybe_install(ctx, new_view);
    }

    /// Installs `new_view` if this replica is its leader and holds a
    /// certificate quorum of view-change votes.
    fn maybe_install<A>(&mut self, ctx: &mut Context<'_, NetMsg<A>>, new_view: u64) {
        if new_view <= self.view || self.leader_index(new_view) != self.my_index {
            return;
        }
        let votes = self.view_votes.get(&new_view).map_or(0, FastMap::len);
        if votes < self.cert_quorum() {
            return;
        }
        let now = ctx.true_now();
        // Union the prepared backlogs (our own included), highest view
        // winning per slot.
        let mut chosen: FastMap<u64, PreparedProof> = FastMap::default();
        let mut vote_proofs: Vec<PreparedProof> = self
            .view_votes
            .get(&new_view)
            .expect("quorum checked")
            .values()
            .flatten()
            .cloned()
            .collect();
        vote_proofs.extend(self.prepared_proofs());
        for proof in vote_proofs {
            match chosen.get(&proof.slot) {
                Some(existing) if existing.view >= proof.view => {}
                _ => {
                    chosen.insert(proof.slot, proof);
                }
            }
        }
        let max_slot = chosen
            .keys()
            .copied()
            .chain(self.committed.keys().copied())
            .chain(self.next_slot.checked_sub(1))
            .max();
        // The full re-issued prefix: committed history verbatim, the
        // chosen proof where one exists, a noop filler otherwise. The
        // complete prefix (not just the backlog) lets a backup that
        // missed earlier commit rounds rebuild without a state transfer.
        let mut pre_prepares = Vec::new();
        if let Some(max_slot) = max_slot {
            for slot in 0..=max_slot {
                let payload = (self.committed.get(&slot).cloned())
                    .or_else(|| chosen.remove(&slot).map(|proof| proof.payload))
                    .unwrap_or(LogOp::Noop { slot });
                let digest = payload.digest();
                pre_prepares.push(PreparedProof { slot, view: new_view, digest, payload });
            }
            self.next_slot = max_slot + 1;
        }
        self.enter_view(ctx, new_view);
        // Adopt the re-issued bindings locally (committed slots stand).
        for p in &pre_prepares {
            if self.committed.contains_key(&p.slot) {
                continue;
            }
            let (now, my_index) = (ctx.true_now(), self.my_index);
            let Some(entry) = self.slot_entry(p.slot, new_view, p.digest, now) else { continue };
            if entry.digest != p.digest {
                entry.rebind(p.digest);
            }
            entry.view = new_view;
            entry.payload.get_or_insert_with(|| p.payload.clone());
            entry.prepares |= 1 << my_index;
            entry.retransmitted_at = now;
        }
        self.last_new_view = Some((new_view, pre_prepares.clone()));
        if let Some(obs) = &self.obs {
            obs.view_changes.inc();
        }
        self.broadcast(ctx, PbftMsg::NewView { view: new_view, pre_prepares }, true);
        let node = ctx.node_id();
        self.door.event(now, Severity::Info, || {
            format!(
                "replica {node} view change installed: leading view {new_view} with re-issued log prefix"
            )
        });
        let open: Vec<u64> = (0u64..)
            .zip(&self.slots)
            .filter(|(_, s)| s.as_ref().is_some_and(|s| !s.committed))
            .map(|(slot, _)| slot)
            .collect();
        for slot in open {
            self.check_slot(ctx, slot);
        }
    }

    fn on_new_view<A>(
        &mut self,
        ctx: &mut Context<'_, NetMsg<A>>,
        from_idx: usize,
        view: u64,
        pre_prepares: Vec<PreparedProof>,
    ) {
        if view <= self.view {
            return; // already there (duplicate or stale)
        }
        if from_idx != self.leader_index(view) {
            self.note_anomaly(); // only the new leader installs
            return;
        }
        self.enter_view(ctx, view);
        for p in pre_prepares {
            self.adopt_binding(ctx, from_idx, view, p, true);
        }
    }

    /// Common view-adoption bookkeeping for leaders and backups.
    fn enter_view<A>(&mut self, ctx: &mut Context<'_, NetMsg<A>>, view: u64) {
        let now = ctx.true_now();
        self.view = view;
        self.voted_view = self.voted_view.max(view);
        self.views_entered += 1;
        self.view_votes.retain(|v, _| *v > view);
        self.proposed_writes.clear();
        self.proposed_reads.clear();
        // Restart the suspicion clock against the new leader and make
        // the next pulse re-forward every pending op immediately.
        for w in self.pending_writes.values_mut() {
            w.first_at = now;
            w.last_forward = SimTime::ZERO;
        }
        for r in self.pending_reads.values_mut() {
            r.first_at = now;
            r.last_forward = SimTime::ZERO;
        }
        let leader = self.leader_index(view);
        if let Some(obs) = &self.obs {
            obs.leader.set(leader as f64);
        }
        let node = ctx.node_id();
        self.door.event(now, Severity::Info, || {
            format!("replica {node} view change: entering view {view}, leader n{leader}")
        });
    }

    /// Reacts to evidence of a view newer than ours: petition its leader
    /// with our vote so it re-sends us the `NewView`.
    fn note_higher_view<A>(&mut self, ctx: &mut Context<'_, NetMsg<A>>, view: u64) {
        self.max_view_heard = self.max_view_heard.max(view);
        if view <= self.view || self.voted_view >= view {
            return;
        }
        self.send_view_change(ctx, view);
    }

    // ------------------------------------------------------------------
    // State transfer
    // ------------------------------------------------------------------

    /// Serializes the committed backlog as `cpj1` frames, slot order.
    fn backlog_frames(&self) -> Vec<String> {
        self.committed
            .iter()
            .map(|(slot, op)| frame::encode_record(&backlog_record(*slot, op)))
            .collect()
    }

    /// Decodes one state-transfer frame to its typed entry, once.
    fn decode_backlog_frame(line: &str) -> Result<(u64, LogOp), String> {
        let payload = frame::decode_record(line).map_err(|e| e.to_string())?;
        let record = |r: &mut JsonReader<'_>| -> Result<(u64, LogOp), JsonError> {
            read_members!(r => slot, op: String::read_json);
            r.finish()?;
            Ok((slot, LogOp::decode(&op)?))
        };
        record(&mut JsonReader::new(payload)).map_err(|e| e.to_string())
    }

    /// Refuses an entry at or above the responder's high watermark: no
    /// honest replica commits a slot outside its log window. Both the
    /// catch-up and the gap-repair stream run every entry through it.
    fn in_window(entry: (u64, LogOp), watermark: u64) -> Result<(u64, LogOp), String> {
        let slot = entry.0;
        let window = watermark.saturating_add(LOG_WINDOW);
        (slot < window)
            .then_some(entry)
            .ok_or_else(|| format!("slot {slot} is past window {window}"))
    }

    /// Asks every peer that has not streamed its backlog yet (all of them
    /// when the round begins), and re-arms the retry timer.
    fn solicit_catchup<A>(&self, ctx: &mut Context<'_, NetMsg<A>>) {
        if let Some(round) = &self.catchup {
            let me = self.replicas[self.my_index];
            let peers = self.replicas.iter().copied().filter(|peer| *peer != me);
            round.solicit(ctx, peers, |token| ReplMsg::Pbft(PbftMsg::StateReq { token }));
        }
    }

    fn on_state_resp<A>(
        &mut self,
        ctx: &mut Context<'_, NetMsg<A>>,
        from: NodeId,
        token: u64,
        peer_view: u64,
        watermark: u64,
        frames: Vec<String>,
    ) {
        let gap_repair = self.catchup.is_none();
        let stream = match self.catchup.as_mut() {
            Some(round) => round.accept(&self.door, ctx, from, token, watermark, &frames),
            // Not recovering: this may answer an outstanding gap-repair
            // round (fetching a committed prefix the commit rounds
            // skipped past us).
            None if self.gap_token == Some(token) => {
                self.gap_token = None;
                let decode = |line| Self::in_window(Self::decode_backlog_frame(line)?, watermark);
                Some(frames.iter().map(|line| decode(line)).collect())
            }
            None => None,
        };
        let entries = match stream {
            Some(Ok(entries)) => entries,
            Some(Err(_)) => return self.note_anomaly(), // refused whole
            None => return,
        };
        for (slot, op) in entries {
            self.committed.entry(slot).or_insert(op);
        }
        if gap_repair {
            if peer_view > self.view {
                self.enter_view(ctx, peer_view);
            }
            self.try_apply(ctx);
            return;
        }
        self.catchup_view = self.catchup_view.max(peer_view);
        self.try_apply(ctx);
        let (quorum, local) = (self.catchup_quorum(), self.next_apply);
        let Some(round) = self.catchup.take_if(|r| r.caught_up(quorum, local)) else { return };
        if self.catchup_view > self.view {
            self.enter_view(ctx, self.catchup_view);
        }
        let applied = self.next_apply;
        self.transfers.push(round.finish(&self.door, ctx, || format!("{applied} slot(s) applied")));
        if let Some(obs) = &self.obs {
            obs.fenced.set(0.0);
            obs.state_transfers.inc();
        }
        // The fence is down: serve everything queued behind it.
        for (client, req_id, op) in std::mem::take(&mut self.fenced_requests) {
            self.handle_request(ctx, client, req_id, op);
        }
    }

    /// Follows up a crash or restart the [`FrontDoor`] just recorded.
    fn on_transition<A>(&mut self, ctx: &mut Context<'_, NetMsg<A>>, transition: Transition) {
        match transition {
            Transition::Crashed => {
                // Volatile state is lost wholesale; the brownout is
                // external overload and survives, like the other arms.
                self.core = ReplicaCore::new(OrderingPolicy::exact_timestamp());
                self.view = INITIAL_VIEW;
                self.slots.clear();
                self.committed.clear();
                self.next_slot = 0;
                self.next_apply = 0;
                self.proposed_writes.clear();
                self.proposed_reads.clear();
                self.pending_writes.clear();
                self.pending_reads.clear();
                self.read_reqs.clear();
                self.view_votes.clear();
                self.voted_view = 0;
                self.max_view_heard = 0;
                self.last_new_view = None;
                self.catchup = None;
                self.gap_token = None;
                self.gap_since = None;
                self.fenced_requests.clear();
                if let Some(obs) = &self.obs {
                    obs.fenced.set(0.0);
                }
            }
            Transition::Recovered => {
                // The pulse died with the crash; re-arm it. Then raise
                // the fence and ask every peer for a checksummed backlog
                // stream.
                ctx.set_timer(PULSE, TOKEN_PULSE);
                let token = self.door.fresh_token(0);
                let round = Catchup::new(token, Self::decode_backlog_frame);
                self.catchup = Some(round.admitting(Self::in_window));
                self.catchup_view = self.view;
                if let Some(obs) = &self.obs {
                    obs.fenced.set(1.0);
                }
                self.solicit_catchup(ctx);
            }
        }
    }

    // ------------------------------------------------------------------
    // Pulse: retries, suspicion, gap repair
    // ------------------------------------------------------------------

    fn on_pulse<A>(&mut self, ctx: &mut Context<'_, NetMsg<A>>) {
        let now = ctx.true_now();
        if self.is_fenced() {
            return; // recovery has its own retry timer
        }
        // Leader: re-broadcast stalled open slots (vote-loss repair).
        if self.is_leader() {
            let stalled: Vec<u64> = (self.next_apply..)
                .zip(self.slots.iter().skip(self.next_apply as usize))
                .filter(|(_, s)| {
                    s.as_ref().is_some_and(|s| {
                        !s.committed && now.saturating_since(s.retransmitted_at) >= FORWARD_RETRY
                    })
                })
                .map(|(slot, _)| slot)
                .collect();
            for slot in stalled {
                self.rebroadcast_slot(ctx, slot);
            }
        }
        // Front door: resolve writes that committed behind our back,
        // re-forward stalled ops, and clock leader suspicion.
        let mut resolved: Vec<PostId> =
            self.pending_writes.keys().copied().filter(|id| self.core.contains(*id)).collect();
        resolved.sort_unstable(); // deterministic send order
        for id in resolved {
            if let Some(w) = self.pending_writes.remove(&id) {
                for (client, req_id) in w.waiters {
                    self.door.respond(ctx, client, req_id, OpResult::WriteAck(id));
                }
            }
        }
        let mut oldest: Option<SimTime> = None;
        for w in self.pending_writes.values() {
            oldest = Some(oldest.map_or(w.first_at, |t| t.min(w.first_at)));
        }
        for r in self.pending_reads.values() {
            oldest = Some(oldest.map_or(r.first_at, |t| t.min(r.first_at)));
        }
        let ops = self.pending_ops_to_forward(now);
        for op in ops {
            self.forward_to_leader(ctx, op);
        }
        // Leader suspicion: a pending op outlived the timeout and we are
        // not the leader ourselves.
        if let Some(first_at) = oldest {
            let stuck = now.saturating_since(first_at) >= self.suspicion;
            if stuck && !self.is_leader() {
                if self.voted_view <= self.view {
                    let target = (self.view + 1).max(self.max_view_heard);
                    self.send_view_change(ctx, target);
                } else if now.saturating_since(self.voted_at) >= self.suspicion {
                    // The vote itself stalled: escalate past it.
                    let target = (self.voted_view + 1).max(self.max_view_heard);
                    self.send_view_change(ctx, target);
                }
            }
        }
        // Gap repair: committed slots exist above a hole the commit
        // rounds skipped past us; fetch the missing prefix.
        let gapped = !self.committed.contains_key(&self.next_apply)
            && self.committed.keys().next_back().is_some_and(|last| *last > self.next_apply);
        if gapped {
            let since = *self.gap_since.get_or_insert(now);
            if now.saturating_since(since) >= GAP_REPAIR {
                self.gap_since = Some(now);
                let token = self.door.fresh_token(0);
                self.gap_token = Some(token);
                let leader = self.leader_id(self.view);
                if leader != ctx.node_id() {
                    ctx.send(leader, NetMsg::Repl(ReplMsg::Pbft(PbftMsg::StateReq { token })));
                }
            }
        } else {
            self.gap_since = None;
        }
    }

    /// The pending ops due for re-forwarding, with their original bytes.
    fn pending_ops_to_forward(&mut self, now: SimTime) -> Vec<ProposeOp> {
        let mut ops = Vec::new();
        let origin = self.my_index;
        // Id-sorted iteration: the re-forward order (and with it the
        // network schedule) must not depend on hash-map layout.
        let mut write_ids: Vec<PostId> = self.pending_writes.keys().copied().collect();
        write_ids.sort_unstable();
        for id in write_ids {
            let w = self.pending_writes.get_mut(&id).expect("key just listed");
            if now.saturating_since(w.last_forward) >= FORWARD_RETRY {
                w.last_forward = now;
                ops.push(ProposeOp::Write { origin, post: w.post.clone() });
            }
        }
        let mut read_seqs: Vec<u64> = self.pending_reads.keys().copied().collect();
        read_seqs.sort_unstable();
        for seq in read_seqs {
            let r = self.pending_reads.get_mut(&seq).expect("key just listed");
            if now.saturating_since(r.last_forward) >= FORWARD_RETRY {
                r.last_forward = now;
                ops.push(ProposeOp::Read { origin, seq });
            }
        }
        ops
    }

    fn on_pbft<A>(&mut self, ctx: &mut Context<'_, NetMsg<A>>, from: NodeId, msg: PbftMsg) {
        // Consensus traffic must come from a group member.
        let from_idx = match self.sender_index(from) {
            Some(idx) => idx,
            None => {
                self.note_anomaly();
                return;
            }
        };
        match msg {
            PbftMsg::Propose(op) => self.leader_propose(ctx, op),
            PbftMsg::PrePrepare { view, slot, digest, payload } => {
                self.on_pre_prepare(ctx, from_idx, PreparedProof { slot, view, digest, payload });
            }
            PbftMsg::Prepare { view, slot, digest } => {
                self.on_vote(ctx, from_idx, view, slot, digest, false);
            }
            PbftMsg::Commit { view, slot, digest } => {
                self.on_vote(ctx, from_idx, view, slot, digest, true);
            }
            PbftMsg::ViewChange { new_view, prepared } => {
                self.on_view_change(ctx, from, from_idx, new_view, prepared);
            }
            PbftMsg::NewView { view, pre_prepares } => {
                self.on_new_view(ctx, from_idx, view, pre_prepares);
            }
            PbftMsg::StateReq { token } => {
                // Only a caught-up replica streams its backlog; a fenced
                // one stays silent and the requester retries.
                if !self.is_fenced() {
                    let (view, watermark, frames) =
                        (self.view, self.next_apply, self.backlog_frames());
                    let resp = PbftMsg::StateResp { token, view, watermark, frames };
                    ctx.send_ordered(from, NetMsg::Repl(ReplMsg::Pbft(resp)));
                }
            }
            PbftMsg::StateResp { token, view, watermark, frames } => {
                self.on_state_resp(ctx, from, token, view, watermark, frames);
            }
        }
    }
}

impl Hosted for PbftReplica {
    fn applied(&self) -> usize {
        self.core.len()
    }

    fn transfers(&self) -> &Transfers {
        &self.transfers
    }

    fn view_status(&self) -> Option<(u64, usize, u64)> {
        let status = (self.view, self.leader_index(self.view), self.views_entered);
        (!self.is_crashed()).then_some(status)
    }
}

impl<A: Send + 'static> Node<NetMsg<A>> for PbftReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg<A>>) {
        self.door.start(ctx);
        self.obs = ctx.obs().map(|sink| {
            let prefix = metric_prefix(ctx.node_id());
            let m = &sink.metrics;
            PbftObs {
                fenced: m.gauge(&format!("{prefix}.fenced")),
                state_transfers: m.counter(&format!("{prefix}.state_transfers")),
                protocol_anomalies: m.counter(&format!("{prefix}.protocol_anomalies")),
                view_changes: m.counter("services.pbft.view_changes"),
                commits: m.counter("services.pbft.commits"),
                leader: m.gauge("services.pbft.leader"),
                commit_latency: m.log_histogram("services.pbft.commit_latency_nanos"),
            }
        });
        // Stagger suspicion deterministically per seed/node so replicas
        // do not stampede the same target view at the same instant.
        let jitter = ctx.rng().gen_range(0..400u64);
        self.suspicion = SUSPICION_BASE + SimDuration::from_millis(jitter);
        if let Some(obs) = &self.obs {
            obs.leader.set(self.leader_index(self.view) as f64);
        }
        ctx.set_timer(PULSE, TOKEN_PULSE);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, NetMsg<A>>, from: NodeId, msg: NetMsg<A>) {
        // Fault-injection control is handled even while crashed (the
        // recover signal must get through).
        if let NetMsg::Control(control) = &msg {
            if let Some(t) = self.door.on_control(ctx, control, "; state transfer begun") {
                self.on_transition(ctx, t);
            }
            return;
        }
        if self.door.is_crashed() {
            return; // a crashed process answers nothing
        }
        match msg {
            NetMsg::Request { req_id, op } => {
                if let Some(op) = self.door.admit(ctx, from, req_id, op) {
                    self.handle_request(ctx, from, req_id, op);
                }
            }
            NetMsg::Repl(ReplMsg::Pbft(pbft)) => self.on_pbft(ctx, from, pbft),
            // The weak arms' replication and the quorum arm's protocols
            // are not addressed to an ordered-log replica.
            NetMsg::Repl(_) | NetMsg::Response { .. } | NetMsg::App(_) | NetMsg::Control(_) => {}
        }
        self.door.set_applied(self.core.len());
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, NetMsg<A>>, token: u64) {
        if self.door.is_crashed() {
            return; // timers die with the process (re-armed on recover)
        }
        if token == TOKEN_PULSE {
            self.on_pulse(ctx);
            ctx.set_timer(PULSE, TOKEN_PULSE);
            return;
        }
        if token == TOKEN_CATCHUP_RETRY {
            self.solicit_catchup(ctx);
            return;
        }
        if let Some((client, req_id, op)) = self.door.release(token) {
            self.handle_request(ctx, client, req_id, op);
        }
        self.door.set_applied(self.core.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ControlMsg;
    use crate::testkit::{at, post, req, run, Msg, Script};
    use conprobe_sim::net::Region;
    use conprobe_sim::{LocalClock, LocalTime, World, WorldConfig};
    use conprobe_store::AuthorId;
    use std::sync::Arc;

    /// A four-replica group (`n = 3f+1`, `f = 1`): the catalog's regions,
    /// with Virginia as the client-less witness. The initial view is 1,
    /// so replica 1 (Tokyo) leads at boot.
    fn build_cluster(world: &mut World<Msg>) -> Vec<NodeId> {
        let regions = [Region::Oregon, Region::Tokyo, Region::Ireland, Region::Virginia];
        let ids: Vec<NodeId> = regions
            .iter()
            .map(|region| {
                world.add_node_with_clock(
                    *region,
                    LocalClock::perfect(),
                    Box::new(PbftReplica::new()),
                )
            })
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            world.node_as_mut::<PbftReplica>(id).unwrap().set_members(ids.clone(), i);
        }
        ids
    }

    #[test]
    fn write_is_ordered_through_the_log_and_read_sees_it() {
        let mut world: World<Msg> = World::new(WorldConfig::default(), 31);
        let replicas = build_cluster(&mut world);
        let client = world.add_node(
            Region::Virginia,
            Box::new(Script::new(vec![
                (at(10), replicas[0], req(0, ClientOp::Write(post(1, 1)))),
                (at(800), replicas[2], req(1, ClientOp::Read)),
            ])),
        );
        run(&mut world, at(2_000));
        let script = world.node_as::<Script>(client).unwrap();
        assert_eq!(script.responses.len(), 2);
        assert_eq!(script.responses[0].1, OpResult::WriteAck(PostId::new(AuthorId(1), 1)));
        match &script.responses[1].1 {
            OpResult::ReadOk(ids) => assert_eq!(ids, &[PostId::new(AuthorId(1), 1)]),
            other => panic!("expected ReadOk, got {other:?}"),
        }
        // The write applied at every replica, not just a quorum — the
        // commit broadcast reaches the whole group.
        for &id in &replicas {
            assert_eq!(world.node_as::<PbftReplica>(id).unwrap().applied(), 1);
        }
    }

    #[test]
    fn duplicate_write_is_idempotent_and_reacked() {
        let mut world: World<Msg> = World::new(WorldConfig::default(), 32);
        let replicas = build_cluster(&mut world);
        let client = world.add_node(
            Region::Virginia,
            Box::new(Script::new(vec![
                (at(10), replicas[0], req(0, ClientOp::Write(post(1, 1)))),
                // A retransmit of the same write (same post id, new
                // req_id) must be re-acknowledged, not sequenced twice.
                (at(600), replicas[0], req(1, ClientOp::Write(post(1, 1)))),
                (at(1_200), replicas[2], req(2, ClientOp::Read)),
            ])),
        );
        run(&mut world, at(3_000));
        let script = world.node_as::<Script>(client).unwrap();
        assert_eq!(script.responses.len(), 3, "both write deliveries are acknowledged");
        assert_eq!(world.node_as::<PbftReplica>(replicas[0]).unwrap().applied(), 1);
        match &script.responses[2].1 {
            OpResult::ReadOk(ids) => assert_eq!(ids, &[PostId::new(AuthorId(1), 1)]),
            other => panic!("expected ReadOk, got {other:?}"),
        }
    }

    #[test]
    fn leader_crash_forces_a_view_change_and_ops_still_complete() {
        let mut world: World<Msg> = World::new(WorldConfig::default(), 33);
        let replicas = build_cluster(&mut world);
        // Replica 1 (Tokyo) leads view 1; crash it before any traffic.
        // Two front doors then accumulate pending writes, suspect the
        // dead leader, and the witness joins on f+1 votes — view 2
        // installs at replica 2 and both writes commit there.
        let client = world.add_node(
            Region::Virginia,
            Box::new(Script::new(vec![
                (at(10), replicas[1], NetMsg::Control(ControlMsg::Crash)),
                (at(100), replicas[0], req(0, ClientOp::Write(post(1, 1)))),
                (at(120), replicas[2], req(1, ClientOp::Write(post(2, 1)))),
                (at(5_000), replicas[0], req(2, ClientOp::Read)),
            ])),
        );
        run(&mut world, at(7_000));
        let script = world.node_as::<Script>(client).unwrap();
        let acks: Vec<_> =
            script.responses.iter().filter(|(_, r)| matches!(r, OpResult::WriteAck(_))).collect();
        assert_eq!(acks.len(), 2, "both writes survive the leader crash: {:?}", script.responses);
        match &script.responses.iter().find(|(id, _)| *id == 2).expect("read answered").1 {
            OpResult::ReadOk(ids) => assert_eq!(ids.len(), 2),
            other => panic!("expected ReadOk, got {other:?}"),
        }
        for &i in &[0usize, 2, 3] {
            let rep = world.node_as::<PbftReplica>(replicas[i]).unwrap();
            assert!(rep.view() > INITIAL_VIEW, "replica {i} moved past the crashed leader's view");
            assert!(rep.views_entered() >= 1);
            assert!(!rep.is_leader() || i == rep.view() as usize % 4);
        }
    }

    #[test]
    fn crash_wipes_state_and_recovery_transfers_the_log_back() {
        let mut world: World<Msg> = World::new(WorldConfig::default(), 34);
        let replicas = build_cluster(&mut world);
        let faulty = replicas[2];
        world.add_node(
            Region::Virginia,
            Box::new(Script::new(vec![
                (at(10), replicas[0], req(0, ClientOp::Write(post(1, 1)))),
                (at(20), replicas[0], req(1, ClientOp::Write(post(2, 1)))),
                (at(900), faulty, NetMsg::Control(ControlMsg::Crash)),
                (at(1_500), faulty, NetMsg::Control(ControlMsg::Recover)),
            ])),
        );
        run(&mut world, at(1_200));
        assert!(world.node_as::<PbftReplica>(faulty).unwrap().is_crashed());
        assert_eq!(world.node_as::<PbftReplica>(faulty).unwrap().applied(), 0);

        run(&mut world, at(5_000));
        let rep = world.node_as::<PbftReplica>(faulty).unwrap();
        assert!(!rep.is_crashed());
        assert!(!rep.is_fenced(), "catch-up must complete");
        assert_eq!(rep.applied(), 2, "state transfer replays the committed log");
        assert_eq!(rep.state_transfers().len(), 1);
        let (frames, watermark, _) = rep.state_transfers()[0];
        assert_eq!(watermark, 2, "two committed write slots");
        assert!(frames >= 2, "peers stream the full backlog");
    }

    #[test]
    fn state_transfer_stream_hash_is_deterministic() {
        let run_once = || {
            let mut world: World<Msg> = World::new(WorldConfig::default(), 35);
            let replicas = build_cluster(&mut world);
            world.add_node(
                Region::Virginia,
                Box::new(Script::new(vec![
                    (at(10), replicas[0], req(0, ClientOp::Write(post(1, 1)))),
                    (at(20), replicas[0], req(1, ClientOp::Write(post(2, 1)))),
                    (at(900), replicas[2], NetMsg::Control(ControlMsg::Crash)),
                    (at(1_500), replicas[2], NetMsg::Control(ControlMsg::Recover)),
                ])),
            );
            run(&mut world, at(5_000));
            world.node_as::<PbftReplica>(replicas[2]).unwrap().state_transfers().to_vec()
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.len(), 1, "exactly one completed transfer");
        assert_eq!(a, b, "same seed, same backlog stream bytes");
    }

    #[test]
    fn fenced_replica_queues_client_ops_until_caught_up() {
        let mut world: World<Msg> = World::new(WorldConfig::default(), 36);
        let replicas = build_cluster(&mut world);
        let faulty = replicas[2];
        let client = world.add_node(
            Region::Virginia,
            Box::new(Script::new(vec![
                (at(10), replicas[0], req(0, ClientOp::Write(post(1, 1)))),
                (at(20), replicas[0], req(1, ClientOp::Write(post(1, 2)))),
                (at(900), faulty, NetMsg::Control(ControlMsg::Crash)),
                (at(1_000), faulty, NetMsg::Control(ControlMsg::Recover)),
                // Sent right as `faulty` recovers: the answer must carry
                // the complete post set, never the empty post-crash
                // state. Retransmitted like the agent RPC layer would;
                // the fence queue collapses duplicates.
                (at(1_001), faulty, req(4, ClientOp::Read)),
                (at(1_051), faulty, req(4, ClientOp::Read)),
            ])),
        );
        run(&mut world, at(6_000));
        let script = world.node_as::<Script>(client).unwrap();
        let reads: Vec<_> = script.responses.iter().filter(|(id, _)| *id == 4).collect();
        assert!(!reads.is_empty(), "the fenced read must eventually be answered");
        for read in reads {
            match &read.1 {
                OpResult::ReadOk(ids) => assert_eq!(
                    ids,
                    &[PostId::new(AuthorId(1), 1), PostId::new(AuthorId(1), 2)],
                    "a fenced read must wait for full catch-up"
                ),
                other => panic!("expected ReadOk, got {other:?}"),
            }
        }
        assert_eq!(world.node_as::<PbftReplica>(faulty).unwrap().state_transfers().len(), 1);
    }

    #[test]
    fn forged_consensus_traffic_from_a_non_member_is_counted_not_fatal() {
        let mut world: World<Msg> = World::new(WorldConfig::default(), 37);
        let replicas = build_cluster(&mut world);
        let client = world.add_node(
            Region::Virginia,
            Box::new(Script::new(vec![
                // A commit vote from outside the member list must be
                // dropped and counted, never panicked on or tallied.
                (
                    at(10),
                    replicas[0],
                    NetMsg::Repl(ReplMsg::Pbft(PbftMsg::Commit { view: 1, slot: 0, digest: 7 })),
                ),
                (at(100), replicas[0], req(0, ClientOp::Write(post(1, 1)))),
            ])),
        );
        run(&mut world, at(2_000));
        let rep = world.node_as::<PbftReplica>(replicas[0]).unwrap();
        assert_eq!(rep.protocol_anomalies(), 1, "the forged frame is counted");
        let script = world.node_as::<Script>(client).unwrap();
        assert_eq!(
            script.responses[0].1,
            OpResult::WriteAck(PostId::new(AuthorId(1), 1)),
            "service continues unharmed"
        );
    }

    #[test]
    #[should_panic(expected = "at most 64 members")]
    fn a_group_wider_than_the_vote_bitset_is_refused() {
        let members: Vec<NodeId> = (0..65).map(NodeId).collect();
        PbftReplica::new().set_members(members, 0);
    }

    #[test]
    fn a_slot_beyond_the_log_window_is_dropped() {
        let mut world: World<Msg> = World::new(WorldConfig::default(), 38);
        let replicas = build_cluster(&mut world);
        world.add_node(
            Region::Virginia,
            Box::new(Script::new(vec![(at(10), replicas[0], req(0, ClientOp::Write(post(1, 1))))])),
        );
        run(&mut world, at(2_000));
        let (target, leader) = (replicas[0], replicas[1]);
        let state = |w: &World<Msg>| {
            let r = w.node_as::<PbftReplica>(target).unwrap();
            (r.slots.len(), r.next_apply, r.applied(), r.protocol_anomalies(), r.view())
        };
        let was = state(&world);
        assert_eq!((was.1, was.4), (1, INITIAL_VIEW), "the write applied in the boot view");
        let payload = LogOp::Noop { slot: 0 };
        let digest = payload.digest();
        for slot in [u64::MAX, was.1 + LOG_WINDOW] {
            // From the view-1 leader, well formed: only the window drops it.
            let pre = PbftMsg::PrePrepare { view: 1, slot, digest, payload: payload.clone() };
            let prepare = PbftMsg::Prepare { view: 1, slot, digest };
            let commit = PbftMsg::Commit { view: 1, slot, digest };
            for msg in [pre, prepare, commit] {
                world.post(leader, target, NetMsg::Repl(ReplMsg::Pbft(msg)));
            }
        }
        run(&mut world, at(4_000));
        assert_eq!(state(&world), was);
        // The last slot below the window is still one the log holds.
        let slot = was.1 + LOG_WINDOW - 1;
        let prepare = PbftMsg::Prepare { view: 1, slot, digest };
        world.post(leader, target, NetMsg::Repl(ReplMsg::Pbft(prepare)));
        run(&mut world, at(6_000));
        assert_eq!(state(&world).0 as u64, slot + 1);
    }

    #[test]
    fn corrupt_backlog_frame_is_refused() {
        let stored =
            StoredPost { post: post(1, 1), server_ts: SimTime::from_nanos(5), arrival_index: 0 };
        let good = frame::encode_record(&backlog_record(0, &LogOp::Write { origin: 0, stored }));
        assert!(PbftReplica::decode_backlog_frame(&good).is_ok());
        // Flip payload bytes: the cpj1 checksum no longer matches.
        let corrupt = good.replace("post", "pXst");
        assert!(PbftReplica::decode_backlog_frame(&corrupt).is_err());
        // A checksummed frame whose embedded op is garbage is refused
        // at decode time too, never deferred to apply time.
        let junk = frame::encode_record(r#"{"slot":0,"op":"{\"kind\":\"evil\"}"}"#);
        assert!(PbftReplica::decode_backlog_frame(&junk).is_err());
    }

    #[test]
    fn single_byte_mutations_of_a_backlog_stream_are_refused_whole() {
        let stored =
            StoredPost { post: post(1, 1), server_ts: SimTime::from_nanos(5), arrival_index: 0 };
        let frames =
            [(0, LogOp::Write { origin: 0, stored }), (1, LogOp::Read { origin: 2, seq: 9 })]
                .map(|(slot, op)| frame::encode_record(&backlog_record(slot, &op)));
        crate::shell::tests::damaged_streams_are_refused_whole(
            PbftReplica::decode_backlog_frame,
            &frames,
        );
    }

    /// Value mode on a backlog stream, down both paths that take one. The
    /// catch-up round refuses a hostile stream whole or admits it whole;
    /// the same stream answering a running replica's gap-repair round is
    /// refused (one protocol anomaly) exactly when the round refused it,
    /// and the replica runs on within a step budget, without a panic.
    #[test]
    fn hostile_values_in_a_backlog_stream_are_refused_whole_or_admitted() {
        const STEPS: usize = 50_000;
        let stored =
            StoredPost { post: post(1, 1), server_ts: SimTime::from_nanos(5), arrival_index: 0 };
        let frames =
            [(0, LogOp::Write { origin: 0, stored }), (1, LogOp::Read { origin: 2, seq: 9 })]
                .map(|(slot, op)| frame::encode_record(&backlog_record(slot, &op)));
        let mut round =
            Catchup::new(1, PbftReplica::decode_backlog_frame).admitting(PbftReplica::in_window);
        let verdicts =
            crate::shell::tests::hostile_values_are_refused_whole_or_admitted(&mut round, &frames);
        for (frames, verdict) in verdicts {
            let mut world: World<Msg> = World::new(WorldConfig::default(), 41);
            let ids = build_cluster(&mut world);
            world.node_as_mut::<PbftReplica>(ids[0]).unwrap().gap_token = Some(77);
            let resp = PbftMsg::StateResp { token: 77, view: INITIAL_VIEW, watermark: 0, frames };
            world.post(ids[1], ids[0], NetMsg::Repl(ReplMsg::Pbft(resp)));
            let deadline = SimTime::ZERO + at(500);
            let steps = (0..STEPS).take_while(|_| world.now() < deadline && world.step()).count();
            assert!(steps < STEPS, "the run kept stepping past its budget");
            let anomalies = world.node_as::<PbftReplica>(ids[0]).unwrap().protocol_anomalies();
            assert_eq!(anomalies, u64::from(verdict.is_err()), "{verdict:?}");
        }
    }

    /// A member that answers every state-transfer request with `frames`.
    struct Liar(Vec<String>);

    impl Node<Msg> for Liar {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
            if let NetMsg::Repl(ReplMsg::Pbft(PbftMsg::StateReq { token })) = msg {
                let frames = self.0.clone();
                let resp = PbftMsg::StateResp { token, view: INITIAL_VIEW, watermark: 0, frames };
                ctx.send(from, NetMsg::Repl(ReplMsg::Pbft(resp)));
            }
        }

        fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, _token: u64) {}
    }

    #[test]
    fn an_out_of_window_backlog_slot_is_refused_whole() {
        let noop = |slot| frame::encode_record(&backlog_record(slot, &LogOp::Noop { slot }));
        // Watermark 0: the responder's window is slots 0..LOG_WINDOW.
        for bad in [u64::MAX, LOG_WINDOW] {
            let frames = vec![noop(0), noop(bad)];
            let mut world: World<Msg> = World::new(WorldConfig::default(), 39);
            let regions = [Region::Oregon, Region::Tokyo, Region::Ireland];
            let mut ids: Vec<NodeId> = regions
                .iter()
                .map(|region| world.add_node(*region, Box::new(PbftReplica::new())))
                .collect();
            let liar = world.add_node(Region::Virginia, Box::new(Liar(frames.clone())));
            ids.push(liar);
            for i in 0..3 {
                world.node_as_mut::<PbftReplica>(ids[i]).unwrap().set_members(ids.clone(), i);
            }
            // Gap repair: a stream answering replica 0's outstanding round.
            world.node_as_mut::<PbftReplica>(ids[0]).unwrap().gap_token = Some(77);
            let resp = PbftMsg::StateResp { token: 77, view: INITIAL_VIEW, watermark: 0, frames };
            world.post(liar, ids[0], NetMsg::Repl(ReplMsg::Pbft(resp)));
            run(&mut world, at(500));
            let r = world.node_as::<PbftReplica>(ids[0]).unwrap();
            assert_eq!(r.protocol_anomalies(), 1, "slot {bad}");
            assert_eq!((r.committed.len(), r.next_apply, r.next_slot), (0, 0, 0), "slot {bad}");
            // Catch-up: replica 2 recovers; the liar's stream is refused
            // whole and the two honest peers carry the transfer.
            world.add_node(
                Region::Virginia,
                Box::new(Script::new(vec![
                    (at(10), ids[0], req(0, ClientOp::Write(post(1, 1)))),
                    (at(20), ids[0], req(1, ClientOp::Write(post(2, 1)))),
                    (at(900), ids[2], NetMsg::Control(ControlMsg::Crash)),
                    (at(1_500), ids[2], NetMsg::Control(ControlMsg::Recover)),
                ])),
            );
            run(&mut world, at(5_500));
            let r = world.node_as::<PbftReplica>(ids[2]).unwrap();
            assert!(!r.is_fenced(), "slot {bad}: catch-up completes");
            assert_eq!((r.applied(), r.next_apply), (2, 2), "slot {bad}: both writes, no noop");
            assert_eq!(r.protocol_anomalies(), 1, "slot {bad}");
            assert_eq!(r.transfers.donors, 2, "slot {bad}: the liar is not heard");
        }
    }

    #[test]
    fn a_write_is_one_content_allocation_at_every_replica() {
        let mut world: World<Msg> = World::new(WorldConfig::default(), 31);
        let replicas = build_cluster(&mut world);
        world.add_node(
            Region::Virginia,
            Box::new(Script::new(vec![(at(10), replicas[0], req(0, ClientOp::Write(post(1, 1))))])),
        );
        run(&mut world, at(2_000));
        let contents: Vec<Arc<str>> = replicas
            .iter()
            .map(|&id| {
                let posts = world.node_as::<PbftReplica>(id).unwrap().core.snapshot_posts();
                assert_eq!(posts.len(), 1);
                Arc::clone(&posts[0].post.content)
            })
            .collect();
        assert!(contents.iter().all(|content| Arc::ptr_eq(content, &contents[0])));
    }

    #[test]
    fn every_field_moves_the_digest() {
        let stored = StoredPost {
            post: Post::new(PostId::new(AuthorId(7), 3), "body", LocalTime::from_nanos(-42)),
            server_ts: SimTime::from_nanos(5),
            arrival_index: 9,
        };
        let write = |origin, edit: fn(&mut StoredPost)| {
            let mut stored = stored.clone();
            edit(&mut stored);
            LogOp::Write { origin, stored }
        };
        let base = write(2, |_| {});
        assert_eq!(base.digest(), write(2, |_| {}).digest());
        let moved = [
            (LogOp::Read { origin: 2, seq: 3 }, "variant"),
            (write(1, |_| {}), "origin"),
            (write(2, |s| s.post.id.author = AuthorId(8)), "author"),
            (write(2, |s| s.post.id.seq = 4), "seq"),
            (write(2, |s| s.post.content = "bodz".into()), "content"),
            (write(2, |s| s.post.client_ts = LocalTime::from_nanos(-41)), "client_ts"),
            (write(2, |s| s.server_ts = SimTime::from_nanos(6)), "server_ts"),
            (write(2, |s| s.arrival_index = 10), "arrival_index"),
        ];
        for (op, field) in moved {
            assert_ne!(op.digest(), base.digest(), "{field}");
        }
        let read = LogOp::Read { origin: 0, seq: 4 };
        assert_ne!(read.digest(), LogOp::Read { origin: 1, seq: 4 }.digest(), "read origin");
        assert_ne!(read.digest(), LogOp::Read { origin: 0, seq: 5 }.digest(), "read seq");
        assert_ne!(read.digest(), LogOp::Noop { slot: 4 }.digest(), "read vs noop");
        assert_ne!(LogOp::Noop { slot: 3 }.digest(), LogOp::Noop { slot: 4 }.digest(), "noop slot");
    }

    #[test]
    fn log_op_payloads_round_trip() {
        let stored = StoredPost {
            post: Post::new(
                PostId::new(AuthorId(7), 3),
                "body with spaces and \"quotes\"",
                LocalTime::from_nanos(-42),
            ),
            server_ts: SimTime::from_nanos(123_456_789),
            arrival_index: 9,
        };
        let ops = [
            LogOp::Write { origin: 2, stored },
            LogOp::Read { origin: 1, seq: 44 },
            LogOp::Noop { slot: 3 },
        ];
        for (slot, op) in (7u64..).zip(ops) {
            let line = frame::encode_record(&backlog_record(slot, &op));
            assert_eq!(PbftReplica::decode_backlog_frame(&line), Ok((slot, op)));
        }
        // The frame text is the state-transfer stream hash's input.
        assert_eq!(
            backlog_record(1, &LogOp::Read { origin: 2, seq: 9 }),
            r#"{"slot":1,"op":"{\"kind\":\"read\",\"origin\":2,\"seq\":9}"}"#
        );
        assert_eq!(
            backlog_record(4, &LogOp::Noop { slot: 4 }),
            r#"{"slot":4,"op":"{\"kind\":\"noop\",\"slot\":4}"}"#
        );
    }
}
