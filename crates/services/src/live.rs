//! The catalog's services on wall-clock time.
//!
//! The wire subsystem (`conprobe-wire`) serves concurrent TCP clients the
//! semantics the simulator runs on virtual time. [`LiveCluster`] is that
//! bridge: a thread-safe, I/O-free cluster whose notion of "now" is
//! whatever nanosecond count the caller passes in. The TCP server feeds
//! it wall-clock nanoseconds (and ticks it from its event loop); unit tests feed
//! it hand-picked instants and get fully deterministic behaviour — the
//! same trick the sim plays, inverted.
//!
//! **Two drivers, one shell.** The ring, the region affinity, the `down`
//! flags and the operator surface exist once. An arm whose protocol *is*
//! its message exchange is *hosted*: the sim's own nodes on a `World` fed
//! real time ([`crate::hosted`]). The rest are *stored*, driven by this
//! module — [`ReplicaCore`]s behind mutexes, a replication queue and an
//! anti-entropy schedule, which is all a weak arm is. The rest of this
//! page describes the stored driver.
//!
//! **Keyspace sharding.** The cluster hosts [`LiveConfig::shards`]
//! independent copies of the service topology, one per keyspace shard,
//! with a consistent-hash [`ShardRing`] mapping every `u32` key onto a
//! shard (see [`crate::shard`]). Shards never share a lock; within a
//! shard every key is its own object (a [`ReplicaCore`] per replica, or a
//! hosted group, created on first touch) with exactly the single-object
//! semantics the paper measures — a write to one key is never visible
//! to readers of another, even when the ring co-locates them. Key 0 is
//! the paper's single-object workload.
//!
//! **Background work.** A weak-arm write is applied at its origin and
//! enqueued once per live peer on the shard's min-heap of pending pushes,
//! ordered by `(deliver_at, enqueue order)`; origin, pushes and peers all
//! hold the same post body. [`LiveCluster::tick`] is one atomic load until
//! the earliest push or anti-entropy round falls due; the sweep then pops
//! only what is due, visits the replicas of a shard only when that shard's
//! own anti-entropy instant (kept beside its queue) has come, and
//! reconciles two replicas by reading each core's id set in place.
//!
//! Fidelity note: the stored driver reuses the catalog's per-replica
//! [`OrderingPolicy`](conprobe_store::OrderingPolicy), replication-delay
//! distribution, anti-entropy period, and canonicalization flags, but
//! serves every read from the policy-ordered snapshot (the sim's
//! front-end caches, secondary indexes and ranking pipelines stay
//! sim-only). For live experiments that must *exhibit* staleness on
//! demand, [`LiveConfig::stale_window`] pins one replica behind a
//! bounded-lag read cache — a deliberately seeded anomaly window the
//! probe pipeline is expected to detect. The pin applies to that replica
//! in *every* shard, so a probe sees the same anomaly at every key.

use crate::api::{ClientOp, OpResult};
use crate::catalog::{topology, ServiceKind};
use crate::hosted::HostedShard;
use crate::replica_node::DelayDist;
use crate::shard::ShardRing;
use conprobe_core::ReadView;
use conprobe_json::frame;
use conprobe_sim::net::Region;
use conprobe_sim::{SimDuration, SimRng, SimTime};
use conprobe_store::{
    AffinityMap, OrderingPolicy, Post, PostId, ReadCache, ReplicaCore, StoredPost,
};
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A deliberately seeded staleness window: the chosen replica serves
/// reads from a snapshot refreshed at most once per `lag_nanos`, so a
/// quick read-after-write against it misses the write — a bounded,
/// reproducible read-your-writes/monotonic-reads anomaly source.
#[derive(Debug, Clone, Copy)]
pub struct StaleWindow {
    /// Index of the replica to pin (into the catalog topology's order).
    pub replica: usize,
    /// Maximum snapshot age before a read refreshes it.
    pub lag_nanos: u64,
}

/// Configuration for a live (wall-clock) service deployment.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Which catalog service to host.
    pub kind: ServiceKind,
    /// Seed for the replication-delay sampling stream.
    pub seed: u64,
    /// Optional seeded staleness window (see [`StaleWindow`]). It pins a
    /// *stored* snapshot; a hosted arm refuses it.
    pub stale_window: Option<StaleWindow>,
    /// Keyspace shards (independent replica groups); clamped to ≥ 1, and
    /// at most [`MAX_SHARDS`](crate::shard::MAX_SHARDS).
    pub shards: usize,
}

/// The cluster's answer to one client operation ([`LiveCluster::serve`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiveReply {
    /// The read result — the serving replica's shared view, uncopied.
    Read(ReadView<PostId>),
    /// The write is acknowledged.
    Acked(PostId),
    /// A hosted arm cannot answer at this instant: no reachable quorum, a
    /// fenced door, or a dead leader no view change has replaced yet.
    /// Retryable, like a throttle.
    Unavailable,
}

/// What a crashed replica's rejoin accomplished (see
/// [`LiveCluster::recover_replica`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejoinReport {
    /// Verified `cpj1` catch-up frames applied across all peers/shards.
    pub frames: u64,
    /// Peers that contributed a verified stream; 0 on a strong arm means
    /// no transfer completed and the replica is still read-fenced.
    pub peers: u64,
    /// Highest peer commit watermark (applied-post count) heard.
    pub watermark: u64,
    /// Posts newly applied at the recovering replica.
    pub applied: u64,
    /// Running FNV-1a over every verified frame line in stream order (a
    /// hosted arm: over its groups' stream hashes, in shard then key
    /// order) — the byte-determinism witness (same seed, same hash).
    pub stream_hash: u64,
    /// True for a weak-arm cold rejoin: no state transfer ran, the
    /// replica restarts empty and reconverges via replication pushes
    /// and anti-entropy.
    pub cold: bool,
}

/// One replication push in flight between replicas of one shard, due at
/// `deliver_at` nanoseconds on the caller's clock. Ordered *descending*
/// on `(deliver_at, seq)` so that `BinaryHeap`, a max-heap, pops the
/// earliest push first and pushes due at one instant in the order they
/// were enqueued.
struct PendingRepl {
    deliver_at: u64,
    /// Enqueue order within the shard ([`ReplQueue::enqueued`]).
    seq: u64,
    target: usize,
    key: u32,
    post: StoredPost,
}

impl Ord for PendingRepl {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.deliver_at, other.seq).cmp(&(self.deliver_at, self.seq))
    }
}

impl PartialOrd for PendingRepl {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for PendingRepl {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for PendingRepl {}

/// One shard's background work, everything [`LiveCluster::tick`] needs to
/// decide whether the shard has any: the sweep takes this one lock and,
/// when nothing is due, no replica lock at all.
struct ReplQueue {
    /// Replication pushes waiting out their sampled WAN delay, earliest
    /// on top.
    pushes: BinaryHeap<PendingRepl>,
    /// Pushes ever enqueued — the next push's `seq`.
    enqueued: u64,
    /// Earliest `next_anti_entropy` among the shard's replicas
    /// (`u64::MAX` when none runs anti-entropy). Replica schedules only
    /// move forward, so a stale value here is early, never late.
    next_anti_entropy: u64,
}

impl ReplQueue {
    /// The earliest instant this shard has work.
    fn next_due(&self) -> u64 {
        self.pushes.peek().map_or(u64::MAX, |p| p.deliver_at).min(self.next_anti_entropy)
    }
}

struct LiveReplica {
    /// One deterministic core per keyspace key this replica has seen,
    /// created on first touch with the replica's ordering policy. Keys
    /// are isolated objects: cores never exchange posts.
    cores: HashMap<u32, ReplicaCore>, // RandomState: a serve client picks keys
    ordering: OrderingPolicy,
    repl_delay: DelayDist,
    anti_entropy_nanos: Option<u64>,
    canonicalize_on_anti_entropy: bool,
    next_anti_entropy: u64,
    /// Per-key read caches for a stale-pinned replica (`None` when the
    /// replica is not pinned).
    stale_cache: Option<HashMap<u32, ReadCache>>, // RandomState: a serve client picks keys
}

impl LiveReplica {
    fn core_mut(&mut self, key: u32) -> &mut ReplicaCore {
        let ordering = self.ordering;
        self.cores.entry(key).or_insert_with(|| ReplicaCore::new(ordering))
    }
}

/// One keyspace shard: a full replica group with its own replication
/// queue. Shards never share locks, so keyed traffic scales across them.
struct ShardState {
    replicas: Vec<Mutex<LiveReplica>>,
    queue: Mutex<ReplQueue>,
}

/// A hosted shard's groups, locked for one pump.
fn lock_hosted(shard: &Mutex<HostedShard>) -> MutexGuard<'_, HostedShard> {
    shard.lock().expect("a hosted shard's lock is only poisoned by a panicked pump")
}

/// A thread-safe wall-clock replica group hosting one catalog service
/// over a consistent-hash-sharded keyspace.
///
/// All methods take `now_nanos` — nanoseconds on the caller's clock
/// (monotonic since server start, or fabricated in tests). Methods are
/// safe to call from many threads; internal locks are held only for the
/// duration of one storage operation, and the common no-work
/// [`LiveCluster::tick`] is a single atomic load.
pub struct LiveCluster {
    regions: Vec<Region>,
    affinity: AffinityMap,
    /// The keyspace shards: [`LiveCluster::new`] populates exactly one of
    /// `shards` (stored) and `hosted`; sweeping the other sweeps nothing.
    shards: Vec<ShardState>,
    hosted: Vec<Mutex<HostedShard>>,
    ring: ShardRing,
    rng: Mutex<SimRng>,
    stale: Option<StaleWindow>,
    /// Which replicas are currently down.
    down: Vec<AtomicBool>,
    /// Earliest instant at which any shard has deliverable work (a due
    /// replication push or anti-entropy round). The hot-path `tick`
    /// compares against this and returns without taking any lock when
    /// nothing is due — the sharded serving path calls `tick` on every
    /// operation, so this check is the difference between an atomic load
    /// and a full queue sweep per request. A hosted cluster holds this at
    /// 0: its groups keep their own timers, and every `tick` reaches them.
    next_due_nanos: AtomicU64,
    /// Shared empty snapshot served for keys with no traffic yet — the
    /// common case when a load sweep cycles more keys than were seeded.
    empty: Arc<[PostId]>,
}

impl LiveCluster {
    /// Deploys `config.kind`'s catalog topology onto wall-clock time,
    /// once per keyspace shard.
    ///
    /// # Panics
    /// If a [`StaleWindow`] is configured for a hosted arm or for a
    /// replica the topology lacks.
    pub fn new(config: &LiveConfig) -> Self {
        let topo = topology(config.kind);
        if let Some(w) = config.stale_window {
            let replicas = topo.replicas.len();
            assert!(
                w.replica < replicas,
                "no replica {} to pin in a {replicas}-replica group",
                w.replica
            );
        }
        let ring = ShardRing::new(config.shards.max(1));
        let (shard_count, hosted_count) =
            if config.kind.hosted_live() { (0, ring.shards()) } else { (ring.shards(), 0) };
        let mut hosted: Vec<HostedShard> =
            (0..hosted_count).map(|_| HostedShard::new(config.kind, config.seed)).collect();
        // Key 0 exists from the start, so an idle server's rejoin still
        // runs a real state-transfer round.
        if let Some(shard) = hosted.get_mut(ring.shard_for_key(0)) {
            assert!(config.stale_window.is_none(), "a hosted arm has no stored snapshot to pin");
            shard.open(0, std::iter::empty());
        }
        // Every shard deploys the same topology, so they all start on the
        // same anti-entropy schedule.
        let first_anti_entropy = topo
            .replicas
            .iter()
            .filter_map(|(_, params)| params.anti_entropy.map(|d| d.as_nanos()))
            .min()
            .unwrap_or(u64::MAX);
        let shards = (0..shard_count)
            .map(|_| {
                let replicas = topo
                    .replicas
                    .iter()
                    .enumerate()
                    .map(|(i, (_, params))| {
                        let pinned = config.stale_window.is_some_and(|w| w.replica == i);
                        let anti = params.anti_entropy.map(|d| d.as_nanos());
                        Mutex::new(LiveReplica {
                            cores: HashMap::new(),
                            ordering: params.ordering,
                            repl_delay: params.repl_delay.clone(),
                            anti_entropy_nanos: anti,
                            canonicalize_on_anti_entropy: params.canonicalize_on_anti_entropy,
                            next_anti_entropy: anti.unwrap_or(0),
                            stale_cache: pinned.then(HashMap::new),
                        })
                    })
                    .collect();
                let queue = ReplQueue {
                    pushes: BinaryHeap::new(),
                    enqueued: 0,
                    next_anti_entropy: first_anti_entropy,
                };
                ShardState { replicas, queue: Mutex::new(queue) }
            })
            .collect();
        let replica_count = topo.replicas.len();
        LiveCluster {
            regions: topo.replicas.iter().map(|(r, _)| *r).collect(),
            affinity: topo.affinity,
            shards,
            hosted: hosted.into_iter().map(Mutex::new).collect(),
            ring,
            rng: Mutex::new(SimRng::new(config.seed).split("live.repl")),
            stale: config.stale_window,
            down: (0..replica_count).map(|_| AtomicBool::new(false)).collect(),
            next_due_nanos: AtomicU64::new(if hosted_count > 0 { 0 } else { first_anti_entropy }),
            empty: Arc::from(Vec::new()),
        }
    }

    /// Number of replicas per shard.
    pub fn replica_count(&self) -> usize {
        self.regions.len()
    }

    /// Number of keyspace shards.
    pub fn shard_count(&self) -> usize {
        self.ring.shards()
    }

    /// The shard owning `key` — deterministic consistent hashing, the
    /// same map every client and server computes.
    pub fn shard_for_key(&self, key: u32) -> usize {
        self.ring.shard_for_key(key)
    }

    /// The region hosting replica `idx` (of every shard).
    pub fn replica_region(&self, idx: usize) -> Region {
        self.regions[idx]
    }

    /// The replica index a client in `region` is routed to — the same
    /// affinity the sim's front doors use.
    pub fn replica_for(&self, region: Region) -> usize {
        self.affinity.replica_for(region)
    }

    /// Serves one client operation on `key` through `region`'s front door:
    /// the server's one entry point. A stored arm always answers; a hosted
    /// group that cannot, at `now_nanos`, is [`LiveReply::Unavailable`].
    pub fn serve(&self, region: Region, key: u32, op: ClientOp, now_nanos: u64) -> LiveReply {
        let shard_idx = self.ring.shard_for_key(key);
        let Some(shard) = self.hosted.get(shard_idx) else {
            return match op {
                ClientOp::Write(post) => {
                    LiveReply::Acked(self.write_at(shard_idx, region, key, post, now_nanos))
                }
                ClientOp::Read => {
                    LiveReply::Read(self.read_at(shard_idx, region, key, now_nanos).into())
                }
            };
        };
        let down = (0..self.down.len()).filter(|idx| self.is_down(*idx));
        match lock_hosted(shard).open(key, down).request(region, op, now_nanos) {
            Some(OpResult::ReadOk(ids)) => LiveReply::Read(ids),
            Some(OpResult::WriteAck(id)) => LiveReply::Acked(id),
            Some(OpResult::Throttled) | None => LiveReply::Unavailable,
        }
    }

    /// Accepts a write for `key` at `region`'s replica of the owning
    /// stored shard (a hosted arm has none; see [`LiveCluster::serve`]):
    /// acknowledged locally, with an asynchronous replication push to
    /// every peer after a per-peer sampled delay. A down replica receives
    /// nothing: what it missed comes back through anti-entropy.
    pub fn write_keyed(&self, region: Region, key: u32, post: Post, now_nanos: u64) -> PostId {
        self.write_at(self.ring.shard_for_key(key), region, key, post, now_nanos)
    }

    /// [`LiveCluster::write_keyed`] on stored shard `shard_idx`, which owns `key`.
    fn write_at(
        &self,
        shard_idx: usize,
        region: Region,
        key: u32,
        post: Post,
        now_nanos: u64,
    ) -> PostId {
        self.tick(now_nanos);
        let shard = &self.shards[shard_idx];
        let origin = self.replica_for(region);
        let id = post.id;
        let (stored, repl_delay) = {
            let mut rep = shard.replicas[origin].lock().unwrap();
            let stored = rep.core_mut(key).apply_new(post, SimTime::from_nanos(now_nanos)).cloned();
            (stored, rep.repl_delay.clone())
        };
        // A duplicate was replicated when it was first accepted.
        let Some(stored) = stored else { return id };
        let live_peers = (0..shard.replicas.len()).filter(|t| *t != origin && !self.is_down(*t));
        let mut earliest = u64::MAX;
        {
            // Delays are drawn and enqueued under both locks so the seeded
            // stream and the enqueue order agree; nothing takes them in
            // the other order.
            let mut rng = self.rng.lock().unwrap();
            let mut queue = shard.queue.lock().unwrap();
            for target in live_peers {
                let delay = repl_delay.sample(&mut rng).as_nanos();
                let deliver_at = now_nanos.saturating_add(delay);
                earliest = earliest.min(deliver_at);
                let seq = queue.enqueued;
                queue.enqueued += 1;
                queue.pushes.push(PendingRepl {
                    deliver_at,
                    seq,
                    target,
                    key,
                    post: stored.clone(),
                });
            }
        }
        self.next_due_nanos.fetch_min(earliest, Ordering::AcqRel);
        id
    }

    /// Serves a read for `key` at `region`'s replica of the owning stored
    /// shard, from the policy-ordered snapshot — or, for a stale-pinned
    /// replica, from its bounded-age cached snapshot. The result is the
    /// replica's shared `Arc` slice: no copy on the serving hot path.
    pub fn read_keyed(&self, region: Region, key: u32, now_nanos: u64) -> Arc<[PostId]> {
        self.read_at(self.ring.shard_for_key(key), region, key, now_nanos)
    }

    /// [`LiveCluster::read_keyed`] on stored shard `shard_idx`, which owns `key`.
    fn read_at(&self, shard_idx: usize, region: Region, key: u32, now_nanos: u64) -> Arc<[PostId]> {
        self.tick(now_nanos);
        let shard = &self.shards[shard_idx];
        let idx = self.replica_for(region);
        let mut guard = shard.replicas[idx].lock().unwrap();
        let LiveReplica { cores, stale_cache, .. } = &mut *guard;
        let snapshot = || cores.get(&key).map_or_else(|| Arc::clone(&self.empty), |c| c.snapshot());
        match (stale_cache, self.stale) {
            (Some(caches), Some(w)) => {
                // Per-key cache: primed empty at cluster-start age, so
                // the first in-window reads of a key serve the cached
                // (empty) snapshot.
                let cache = caches.entry(key).or_insert_with(|| {
                    let mut cache = ReadCache::new(SimDuration::from_nanos(w.lag_nanos));
                    cache.refresh(Arc::clone(&self.empty), SimTime::ZERO);
                    cache
                });
                cache.refresh_if_stale(SimTime::from_nanos(now_nanos), snapshot);
                Arc::clone(cache.read())
            }
            _ => snapshot(),
        }
    }

    /// Delivers due replication pushes and runs due anti-entropy rounds
    /// on every shard (for a hosted group, its due timers). Idempotent;
    /// safe to call from every serving loop *and* inline from reads/writes
    /// (each stored operation calls it so single-threaded tests never need
    /// a periodic tick). When nothing is due — the overwhelmingly common case on
    /// a serving hot path — this is one atomic load.
    pub fn tick(&self, now_nanos: u64) {
        if now_nanos < self.next_due_nanos.load(Ordering::Acquire) {
            return;
        }
        self.tick_full(now_nanos);
    }

    /// The sweep behind [`LiveCluster::tick`]. Per shard it pops exactly
    /// the pushes that are due off the queue's top, in
    /// `(deliver_at, enqueue order)`, and reads the shard's next horizon
    /// off what is left; a shard with nothing due costs one queue lock
    /// and no replica lock.
    fn tick_full(&self, now_nanos: u64) {
        if !self.hosted.is_empty() {
            return self.hosted.iter().for_each(|shard| lock_hosted(shard).tick(now_nanos));
        }
        // Park the horizon at MAX while sweeping; concurrent writers
        // `fetch_min` their new push's instant, so a push scheduled
        // mid-sweep can lower it again and is never lost.
        self.next_due_nanos.store(u64::MAX, Ordering::Release);
        let mut horizon = u64::MAX;
        for (shard_idx, shard) in self.shards.iter().enumerate() {
            let mut due = Vec::new();
            let anti_entropy_due = {
                let mut queue = shard.queue.lock().unwrap();
                while queue.pushes.peek().is_some_and(|p| p.deliver_at <= now_nanos) {
                    due.extend(queue.pushes.pop());
                }
                let anti_entropy_due = queue.next_anti_entropy <= now_nanos;
                if !anti_entropy_due {
                    horizon = horizon.min(queue.next_due());
                }
                anti_entropy_due
            };
            // A push addressed to a process that has since died dies too.
            for push in due.into_iter().filter(|p| !self.is_down(p.target)) {
                let mut rep = shard.replicas[push.target].lock().unwrap();
                rep.core_mut(push.key).apply_replicated(push.post);
            }
            if !anti_entropy_due {
                continue;
            }
            // Anti-entropy: pairwise digest exchange, exactly the sim's
            // protocol but executed synchronously at the due instant.
            let mut next = u64::MAX;
            for idx in 0..shard.replicas.len() {
                let due = {
                    let rep = shard.replicas[idx].lock().unwrap();
                    rep.anti_entropy_nanos.is_some() && rep.next_anti_entropy <= now_nanos
                };
                if due {
                    self.anti_entropy_round(shard_idx, idx, now_nanos);
                }
                let rep = shard.replicas[idx].lock().unwrap();
                if rep.anti_entropy_nanos.is_some() {
                    next = next.min(rep.next_anti_entropy);
                }
            }
            let mut queue = shard.queue.lock().unwrap();
            queue.next_anti_entropy = next;
            horizon = horizon.min(queue.next_due());
        }
        self.next_due_nanos.fetch_min(horizon, Ordering::AcqRel);
    }

    /// One anti-entropy round initiated by replica `idx` of one shard:
    /// exchange digests with every peer, pull what's missing locally and
    /// push what the peer lacks.
    fn anti_entropy_round(&self, shard_idx: usize, idx: usize, now_nanos: u64) {
        let shard = &self.shards[shard_idx];
        // A down replica neither initiates nor answers an exchange; its
        // schedule still advances so the sweep horizon keeps moving.
        let idle = self.is_down(idx);
        for peer in 0..shard.replicas.len() {
            if peer == idx || idle || self.is_down(peer) {
                continue;
            }
            // Lock in index order to rule out deadlock between
            // concurrent rounds.
            let (lo, hi) = if idx < peer { (idx, peer) } else { (peer, idx) };
            let mut first = shard.replicas[lo].lock().unwrap();
            let mut second = shard.replicas[hi].lock().unwrap();
            let (me, other) =
                if lo == idx { (&mut *first, &mut *second) } else { (&mut *second, &mut *first) };
            // Reconcile key by key over the union of both keyspaces —
            // cores belonging to different keys never exchange posts.
            let mut keys: Vec<u32> = me.cores.keys().copied().collect();
            for k in other.cores.keys() {
                if !me.cores.contains_key(k) {
                    keys.push(*k);
                }
            }
            for key in keys {
                let (mine, theirs) = (me.core_mut(key), other.core_mut(key));
                // Both diffs are taken before either side applies, against
                // the cores' own id sets — no digest is copied.
                let for_me = theirs.missing_from(mine.digest());
                // Nothing of theirs is new to me and we hold equally many:
                // the sets are equal, the usual case between two rounds.
                if for_me.is_empty() && mine.len() == theirs.len() {
                    continue;
                }
                let for_them = mine.missing_from(theirs.digest());
                for post in for_me {
                    mine.apply_replicated(post);
                }
                for post in for_them {
                    theirs.apply_replicated(post);
                }
            }
        }
        let mut rep = shard.replicas[idx].lock().unwrap();
        if rep.canonicalize_on_anti_entropy {
            for core in rep.cores.values_mut() {
                core.resequence_canonical();
            }
        }
        if let Some(period) = rep.anti_entropy_nanos {
            // Schedule from "now" so missed rounds (sparse traffic, no
            // ticker) don't replay in a burst.
            rep.next_anti_entropy = now_nanos.saturating_add(period);
        }
    }

    /// A replica index from outside the cluster is the caller's to check;
    /// one that gets this far is a bug, reported before any state moves.
    fn assert_replica(&self, idx: usize) {
        assert!(idx < self.replica_count(), "no replica {idx} in a {} group", self.replica_count());
    }

    fn is_down(&self, idx: usize) -> bool {
        self.down[idx].load(Ordering::Acquire)
    }

    /// Crashes replica `idx`: its in-memory state is wiped in every
    /// shard (a process crash loses everything), along with any stale
    /// read caches, and replication pushes still in flight *to* it are
    /// dropped — they were addressed to a process that no longer
    /// exists: a real divergence source, healed only where anti-entropy
    /// runs. (Hosted: `ControlMsg::Crash` to every group, whose protocol
    /// repairs the loss wholesale at rejoin.)
    ///
    /// # Panics
    /// If the topology has no replica `idx` — callers validate operator
    /// input first (`WireServer::kill_replica` answers `UnknownReplica`).
    pub fn crash_replica(&self, idx: usize) {
        self.assert_replica(idx);
        // Flag first: a hosted group born from here on is born with `idx`
        // crashed, and one born earlier is in its shard for the sweep.
        self.down[idx].store(true, Ordering::SeqCst);
        self.hosted.iter().for_each(|shard| lock_hosted(shard).crash(idx));
        for shard in &self.shards {
            {
                let mut rep = shard.replicas[idx].lock().unwrap();
                rep.cores.clear();
                if let Some(caches) = &mut rep.stale_cache {
                    caches.clear();
                }
            }
            shard.queue.lock().unwrap().pushes.retain(|p| p.target != idx);
        }
    }

    /// The consensus view of key 0's group (the paper's single object) as
    /// `(view, leader, views entered)`: the highest view installed at a
    /// running replica. `None` on an arm without views. Every key's group
    /// is its own consensus instance and changes view on its own traffic.
    pub fn view_status(&self) -> Option<(u64, usize, u64)> {
        lock_hosted(self.hosted.get(self.ring.shard_for_key(0))?).view_status(0)
    }

    /// Rejoins a crashed replica. On a hosted arm this is
    /// `ControlMsg::Recover` to every group: the arm's own fenced catch-up
    /// round, complete inside the call when a catch-up quorum of peers is
    /// up. When none is, the replica stays fenced — for good, by design,
    /// if a majority crashed with amnesia: nobody can vouch for what it
    /// held. A stored replica rejoins cold: empty, it reconverges through
    /// the ordinary replication and anti-entropy machinery, leaving
    /// exactly the anomaly window the probes are built to observe.
    ///
    /// # Panics
    /// If the topology has no replica `idx`, on every arm — see
    /// [`LiveCluster::crash_replica`].
    pub fn recover_replica(&self, idx: usize) -> RejoinReport {
        self.assert_replica(idx);
        self.down[idx].store(false, Ordering::SeqCst);
        let mut report = RejoinReport {
            frames: 0,
            peers: 0,
            watermark: 0,
            applied: 0,
            stream_hash: frame::FNV64_BASIS,
            cold: self.hosted.is_empty(),
        };
        self.hosted.iter().for_each(|shard| lock_hosted(shard).recover(idx, &mut report));
        report
    }

    /// Total posts held by replica `idx`, summed across shards and keys
    /// (diagnostics).
    pub fn replica_len(&self, idx: usize) -> usize {
        let hosted: usize = self.hosted.iter().map(|s| lock_hosted(s).replica_len(idx)).sum();
        self.shards
            .iter()
            .map(|s| {
                let rep = s.replicas[idx].lock().unwrap();
                rep.cores.values().map(ReplicaCore::len).sum::<usize>()
            })
            .sum::<usize>()
            + hosted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conprobe_sim::LocalTime;
    use conprobe_store::AuthorId;

    fn post(author: u32, seq: u32) -> Post {
        let id = PostId::new(AuthorId(author), seq);
        Post::new(id, format!("post {id}"), LocalTime::from_nanos(0))
    }

    const MS: u64 = 1_000_000;
    const SEC: u64 = 1_000_000_000;

    fn cluster(kind: ServiceKind, stale: Option<StaleWindow>) -> LiveCluster {
        LiveCluster::new(&LiveConfig { kind, seed: 7, stale_window: stale, shards: 1 })
    }

    fn sharded(kind: ServiceKind, shards: usize) -> LiveCluster {
        LiveCluster::new(&LiveConfig { kind, seed: 7, stale_window: None, shards })
    }

    /// Key 0 — the paper's single-object workload — for the tests that
    /// predate the keyspace.
    impl LiveCluster {
        fn write(&self, region: Region, post: Post, now_nanos: u64) -> PostId {
            self.put(region, 0, post, now_nanos)
        }

        fn read(&self, region: Region, now_nanos: u64) -> Vec<PostId> {
            self.get(region, 0, now_nanos)
        }

        /// An acknowledged write through `serve`, on either driver.
        fn put(&self, region: Region, key: u32, post: Post, now_nanos: u64) -> PostId {
            match self.serve(region, key, ClientOp::Write(post), now_nanos) {
                LiveReply::Acked(id) => id,
                other => panic!("write refused: {other:?}"),
            }
        }

        /// An answered read through `serve`, on either driver.
        fn get(&self, region: Region, key: u32, now_nanos: u64) -> Vec<PostId> {
            match self.serve(region, key, ClientOp::Read, now_nanos) {
                LiveReply::Read(ids) => ids.to_vec(),
                other => panic!("read refused: {other:?}"),
            }
        }
    }

    #[test]
    fn blogger_is_read_your_writes_clean() {
        let c = cluster(ServiceKind::Blogger, None);
        for (i, region) in Region::AGENTS.iter().enumerate() {
            let id = c.write(*region, post(i as u32, 1), (i as u64 + 1) * MS);
            let seen = c.read(*region, (i as u64 + 1) * MS + 1);
            assert!(seen.contains(&id), "write must be immediately visible on one replica");
        }
    }

    #[test]
    fn replication_is_delayed_then_delivered() {
        // FB Feed has one replica per agent region (Tokyo is replica 1),
        // with a ≥ 60 ms replication delay floor.
        let c = cluster(ServiceKind::FacebookFeed, None);
        assert_eq!(c.replica_count(), 3);
        let id = c.write(Region::Oregon, post(0, 1), MS);
        let tokyo_now = c.read(Region::Tokyo, 2 * MS);
        assert!(!tokyo_now.contains(&id), "replication should not be instantaneous");
        // Far in the future every sampled delay has elapsed.
        let tokyo_later = c.read(Region::Tokyo, 60 * SEC);
        assert!(tokyo_later.contains(&id), "replication push must eventually deliver");
    }

    #[test]
    fn anti_entropy_reconciles_even_without_pushes() {
        let c = cluster(ServiceKind::GooglePlus, None);
        let id = c.write(Region::Oregon, post(1, 1), MS);
        // Google+ anti-entropy period is 6 s; by 20 s both the delayed
        // push and at least one anti-entropy round have run.
        let ireland = c.read(Region::Ireland, 20 * SEC);
        assert!(ireland.contains(&id));
    }

    #[test]
    fn stale_window_hides_a_fresh_write_then_reveals_it() {
        let c =
            cluster(ServiceKind::Blogger, Some(StaleWindow { replica: 0, lag_nanos: 500 * MS }));
        // Prime the cache at t=1ms (empty snapshot).
        assert!(c.read(Region::Oregon, MS).is_empty());
        let id = c.write(Region::Oregon, post(0, 1), 2 * MS);
        // Within the lag window the cached (empty) snapshot is served:
        // a read-your-writes violation by construction.
        assert!(!c.read(Region::Oregon, 3 * MS).contains(&id));
        // Once the window passes, the refreshed snapshot shows the write.
        assert!(c.read(Region::Oregon, 600 * MS).contains(&id));
    }

    #[test]
    fn quorum_writes_are_synchronously_visible_everywhere() {
        let c = cluster(ServiceKind::Quorum, None);
        assert_eq!(c.replica_count(), 3);
        let id = c.write(Region::Oregon, post(0, 1), MS);
        // No replication window: the ack implies global visibility, so a
        // cross-region read-after-write can never miss (the control-arm
        // property the four measured services lack — compare
        // `replication_is_delayed_then_delivered`).
        assert!(c.read(Region::Tokyo, MS + 1).contains(&id));
        assert!(c.read(Region::Ireland, MS + 2).contains(&id));
    }

    #[test]
    fn same_seed_same_replication_schedule() {
        let run = |seed| {
            let c = LiveCluster::new(&LiveConfig {
                kind: ServiceKind::FacebookFeed,
                seed,
                stale_window: None,
                shards: 1,
            });
            c.write(Region::Oregon, post(0, 1), MS);
            // Probe Tokyo visibility on a 1 ms grid; the delivery instant
            // is a pure function of the seed.
            (0..1_000).map(|i| c.read(Region::Tokyo, MS * i).len()).collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4), "different seeds should move the delivery instant");
    }

    #[test]
    fn keys_route_to_their_own_shards_and_stay_isolated() {
        let c = sharded(ServiceKind::Blogger, 8);
        assert_eq!(c.shard_count(), 8);
        // Find two keys on different shards (the ring is deterministic,
        // so scan until a pair differs — guaranteed by the balance test
        // in `shard.rs`).
        let key_a = 0u32;
        let key_b = (1..1000u32)
            .find(|k| c.shard_for_key(*k) != c.shard_for_key(key_a))
            .expect("some key must land on another shard");
        let id_a = c.write_keyed(Region::Oregon, key_a, post(0, 1), MS);
        let id_b = c.write_keyed(Region::Oregon, key_b, post(1, 1), MS);
        let feed_a = c.read_keyed(Region::Oregon, key_a, 2 * MS);
        let feed_b = c.read_keyed(Region::Oregon, key_b, 2 * MS);
        assert!(feed_a.contains(&id_a) && !feed_a.contains(&id_b), "shard A sees only key A");
        assert!(feed_b.contains(&id_b) && !feed_b.contains(&id_a), "shard B sees only key B");
        // Same key, same shard, across independently built clusters with
        // different seeds: placement is seed-independent.
        let c2 = LiveCluster::new(&LiveConfig {
            kind: ServiceKind::Blogger,
            seed: 999,
            stale_window: None,
            shards: 8,
        });
        for key in 0..500u32 {
            assert_eq!(c.shard_for_key(key), c2.shard_for_key(key), "key {key}");
        }
    }

    #[test]
    fn keys_sharing_a_shard_are_still_isolated_objects() {
        let c = sharded(ServiceKind::Blogger, 4);
        let key_a = 0u32;
        let key_b = (1..10_000u32)
            .find(|k| c.shard_for_key(*k) == c.shard_for_key(key_a))
            .expect("some key must collide onto key 0's shard");
        let id = c.write_keyed(Region::Oregon, key_a, post(0, 1), MS);
        assert!(c.read_keyed(Region::Oregon, key_a, 2 * MS).contains(&id));
        // The co-located key never sees it — not immediately, and not
        // after every replication push and anti-entropy round has run.
        assert!(c.read_keyed(Region::Oregon, key_b, 2 * MS).is_empty());
        assert!(c.read_keyed(Region::Oregon, key_b, 120 * SEC).is_empty());
        assert!(c.read_keyed(Region::Tokyo, key_b, 120 * SEC).is_empty());
    }

    #[test]
    fn keyed_replication_matches_key_zero_semantics_per_shard() {
        // A write to any key of a sharded FB Feed exhibits the same
        // delayed replication key 0 of a single shard shows: each shard
        // is a faithful copy of the topology.
        let c = sharded(ServiceKind::FacebookFeed, 4);
        let key = 42u32;
        let id = c.write_keyed(Region::Oregon, key, post(0, 1), MS);
        assert!(!c.read_keyed(Region::Tokyo, key, 2 * MS).contains(&id));
        assert!(c.read_keyed(Region::Tokyo, key, 60 * SEC).contains(&id));
        // And other shards never saw the write at all.
        let other = (0..1000u32)
            .find(|k| c.shard_for_key(*k) != c.shard_for_key(key))
            .expect("another shard");
        assert!(c.read_keyed(Region::Oregon, other, 60 * SEC).is_empty());
    }

    #[test]
    fn stale_window_pins_the_replica_in_every_shard() {
        let c = LiveCluster::new(&LiveConfig {
            kind: ServiceKind::Blogger,
            seed: 7,
            stale_window: Some(StaleWindow { replica: 0, lag_nanos: 500 * MS }),
            shards: 4,
        });
        for key in [0u32, 7, 19] {
            let t0 = MS + u64::from(key) * SEC;
            assert!(c.read_keyed(Region::Oregon, key, t0).is_empty(), "prime cache for {key}");
            let id = c.write_keyed(Region::Oregon, key, post(key, 1), t0 + MS);
            assert!(
                !c.read_keyed(Region::Oregon, key, t0 + 2 * MS).contains(&id),
                "key {key}: stale cache must hide the fresh write"
            );
            assert!(
                c.read_keyed(Region::Oregon, key, t0 + 600 * MS).contains(&id),
                "key {key}: expired cache must reveal it"
            );
        }
    }

    #[test]
    fn quorum_crash_then_rejoin_transfers_full_state() {
        let c = sharded(ServiceKind::Quorum, 4);
        for key in 0..12u32 {
            c.put(Region::Oregon, key, post(key, 1), MS + u64::from(key));
        }
        let before = c.replica_len(1);
        assert_eq!(before, 12, "every peer acks the push before the client is acked");
        c.crash_replica(1);
        assert_eq!(c.replica_len(1), 0, "a crash loses all in-memory state");
        let report = c.recover_replica(1);
        assert!(!report.cold);
        assert_eq!(report.peers, 2, "both surviving peers streamed");
        assert_eq!(report.applied as usize, before, "state transfer restores every post");
        assert_eq!(report.watermark, 12, "watermark is the peers' applied count");
        assert_eq!(report.frames, 24, "each peer streams all 12 posts");
        assert_eq!(c.replica_len(1), before);
        // Post-rejoin reads at the recovered front door are complete.
        for key in 0..12u32 {
            assert!(!c.get(Region::Tokyo, key, SEC).is_empty(), "key {key} visible after rejoin");
        }
    }

    #[test]
    fn quorum_rejoin_stream_is_deterministic() {
        let run = || {
            let c = sharded(ServiceKind::Quorum, 4);
            for key in 0..8u32 {
                c.put(Region::Oregon, key, post(key, 1), MS + u64::from(key));
            }
            c.crash_replica(2);
            c.recover_replica(2)
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "same writes, same framed stream, same hash");
        // Pinned (each group's own stream hash, folded in (shard, sorted
        // key) order): how a post holds its body must not move one byte
        // of a `cpj1` frame, nor a change of map move the fold order.
        assert_eq!((a.frames, a.stream_hash), (16, 0x49c0_d01c_f749_c9e8));
        assert_ne!(a.stream_hash, frame::FNV64_BASIS, "a non-empty stream moved the hash");
    }

    #[test]
    fn lost_quorum_is_refused() {
        let c = cluster(ServiceKind::Quorum, None);
        c.write(Region::Oregon, post(0, 1), MS);
        c.crash_replica(1);
        c.crash_replica(2);
        // One replica of three is no majority: C over A.
        let refused = ClientOp::Write(post(0, 2));
        assert_eq!(c.serve(Region::Oregon, 0, refused.clone(), 2 * MS), LiveReply::Unavailable);
        assert_eq!(c.serve(Region::Oregon, 0, ClientOp::Read, 3 * MS), LiveReply::Unavailable);
        assert_eq!(c.serve(Region::Tokyo, 0, ClientOp::Read, 4 * MS), LiveReply::Unavailable);
        // The origin holds its own copy of the refused write — unacked,
        // and unreadable until a majority can vouch — and nobody else does.
        assert_eq!((c.replica_len(0), c.replica_len(1), c.replica_len(2)), (2, 0, 0));
        // A restarted replica acks pushes even while read-fenced, so the
        // retry commits, de-duplicated on its `PostId`.
        c.recover_replica(1);
        assert_eq!(
            c.serve(Region::Oregon, 0, refused, 5 * MS),
            LiveReply::Acked(PostId::new(AuthorId(0), 2))
        );
        assert_eq!((c.replica_len(0), c.replica_len(1)), (2, 2));
    }

    #[test]
    fn a_fenced_door_serves_no_read() {
        let c = cluster(ServiceKind::Quorum, None);
        c.write(Region::Oregon, post(0, 1), MS);
        c.crash_replica(1);
        c.crash_replica(2);
        // Replica 1 needs ⌈n/2⌉ = 2 peers to vouch for what committed
        // without it and can hear one: no transfer completes.
        let report = c.recover_replica(1);
        assert_eq!((report.peers, report.frames, report.cold), (0, 0, false));
        // Its own door queues reads behind the fence, and replica 0 finds
        // no unfenced peer to complete a read quorum with.
        assert_eq!(c.serve(Region::Tokyo, 0, ClientOp::Read, 2 * MS), LiveReply::Unavailable);
        assert_eq!(c.serve(Region::Oregon, 0, ClientOp::Read, 3 * MS), LiveReply::Unavailable);
        // Writes commit again on {0, 1}, through either door.
        let id = c.write(Region::Oregon, post(0, 2), 4 * MS);
        assert_eq!(c.write(Region::Tokyo, post(1, 1), 5 * MS), PostId::new(AuthorId(1), 1));
        assert_eq!((c.replica_len(0), c.replica_len(1)), (3, 3));
        // By design a majority that crashed with amnesia stays
        // read-fenced: replica 2 returns, hears one unfenced peer, and
        // joins replica 1 behind the fence — however long the retries run.
        assert_eq!(c.recover_replica(2).peers, 0);
        c.tick(60 * SEC);
        for region in Region::AGENTS {
            assert_eq!(c.serve(region, 0, ClientOp::Read, 61 * SEC), LiveReply::Unavailable);
        }
        assert_eq!(c.write(Region::Ireland, post(2, 1), 62 * SEC), PostId::new(AuthorId(2), 1));
        assert_eq!(id, PostId::new(AuthorId(0), 2));
    }

    #[test]
    fn a_group_born_during_an_outage_is_born_into_it() {
        let c = sharded(ServiceKind::Quorum, 4);
        c.crash_replica(1);
        // Key 9 is first touched now: its Tokyo replica must not exist as
        // a live process that missed the crash.
        c.put(Region::Oregon, 9, post(0, 1), MS);
        assert_eq!(c.replica_len(1), 0);
        assert_eq!(c.serve(Region::Tokyo, 9, ClientOp::Read, 2 * MS), LiveReply::Unavailable);
        assert_eq!(c.recover_replica(1).applied, 1);
        assert_eq!(c.get(Region::Tokyo, 9, 3 * MS).len(), 1);
    }

    #[test]
    #[should_panic(expected = "no stored snapshot to pin")]
    fn a_hosted_arm_refuses_a_stale_window() {
        cluster(ServiceKind::Quorum, Some(StaleWindow { replica: 0, lag_nanos: MS }));
    }

    /// The ordered log's two client doors that survive a kill of its
    /// boot leader (n1, Tokyo's door).
    const SURVIVING_DOORS: [Region; 2] = [Region::Oregon, Region::Ireland];

    /// A pbft cluster holding one committed post, its leader n1 crashed at
    /// `10 * SEC` — the instant the outage tests count from.
    fn pbft_without_its_leader(shards: usize) -> (LiveCluster, u64) {
        let c = sharded(ServiceKind::Pbft, shards);
        assert_eq!(c.view_status(), Some((1, 1, 0)), "boot: view 1, leader n1");
        c.write(Region::Oregon, post(0, 1), SEC);
        assert_eq!(c.read(Region::Tokyo, 2 * SEC).len(), 1);
        // Killing a non-leader and bringing it back moves no view.
        c.crash_replica(3);
        assert!(!c.recover_replica(3).cold);
        c.crash_replica(1);
        assert_eq!(c.view_status(), Some((1, 1, 0)), "a kill alone changes no view");
        (c, 10 * SEC)
    }

    #[test]
    fn a_short_pbft_leader_outage_is_ridden_out_in_view_one() {
        let (c, t) = pbft_without_its_leader(1);
        // Nobody sequences while the leader is away: refused, not acked.
        let stalled = ClientOp::Write(post(0, 2));
        assert_eq!(
            c.serve(Region::Oregon, 0, stalled.clone(), t + 10 * MS),
            LiveReply::Unavailable
        );
        assert_eq!(
            c.serve(Region::Ireland, 0, ClientOp::Read, t + 20 * MS),
            LiveReply::Unavailable
        );
        assert_eq!(c.replica_len(0), 1);
        // Back after 300 ms, well inside the suspicion timeout: the ex-leader
        // rejoins by fenced transfer and still leads view 1.
        c.tick(t + 300 * MS);
        let report = c.recover_replica(1);
        assert!(!report.cold && report.peers >= 2, "{report:?}");
        assert_eq!(report.applied, 1);
        assert_eq!(c.view_status(), Some((1, 1, 0)));
        // Oregon's door re-forwards the stalled write on its next pulse
        // past the 600 ms retry, and the client's retry finds it committed.
        c.tick(t + SEC);
        assert_eq!(c.replica_len(2), 2, "the stalled write committed with no client asking");
        assert_eq!(c.put(Region::Oregon, 0, post(0, 2), t + SEC + MS), PostId::new(AuthorId(0), 2));
        assert_eq!(c.read(Region::Tokyo, t + SEC + 2 * MS).len(), 2);
        c.tick(t + 60 * SEC);
        assert_eq!(c.view_status(), Some((1, 1, 0)), "ridden out: no view change, ever");
    }

    #[test]
    fn a_long_pbft_leader_outage_with_traffic_at_two_doors_installs_view_two() {
        let (c, t) = pbft_without_its_leader(1);
        for at in [t + 10 * MS, t + 600 * MS, t + 1_100 * MS] {
            for (i, door) in SURVIVING_DOORS.into_iter().enumerate() {
                assert_eq!(c.serve(door, 0, ClientOp::Read, at + i as u64), LiveReply::Unavailable);
            }
            assert_eq!(c.view_status(), Some((1, 1, 0)), "not before the suspicion timeout");
        }
        // Both doors' oldest read has stalled past 1.2-1.6 s: two distinct
        // suspicions, a third replica joins them, n2 installs view 2.
        c.tick(t + 1_900 * MS);
        assert_eq!(c.view_status(), Some((2, 2, 1)), "view 2, leader n2, through `NewView`");
        let id = c.put(Region::Oregon, 0, post(0, 2), t + 2 * SEC);
        assert_eq!(
            c.read(Region::Ireland, t + 2 * SEC + MS),
            vec![PostId::new(AuthorId(0), 1), id]
        );
        // The ex-leader comes back a follower of view 2.
        let report = c.recover_replica(1);
        assert!(!report.cold && report.peers >= 2, "{report:?}");
        assert_eq!(report.applied, 2, "the posts committed, before its crash and after");
        assert_eq!(c.read(Region::Tokyo, t + 3 * SEC).len(), 2);
        assert_eq!(c.view_status(), Some((2, 2, 1)));
    }

    #[test]
    fn stalled_operations_at_one_pbft_door_alone_never_move_the_view() {
        let (c, t) = pbft_without_its_leader(1);
        for step in 0..40u64 {
            let at = t + step * 100 * MS;
            assert_eq!(c.serve(Region::Oregon, 0, ClientOp::Read, at), LiveReply::Unavailable);
            assert_eq!(c.view_status(), Some((1, 1, 0)), "one suspicion is not f + 1 at {step}");
        }
    }

    #[test]
    fn pbft_with_two_of_four_down_refuses_everything() {
        let c = cluster(ServiceKind::Pbft, None);
        c.write(Region::Oregon, post(0, 1), MS);
        c.crash_replica(2);
        c.crash_replica(3);
        // The leader is up and sequences, but two replicas are no
        // certificate quorum of three: C over A, on reads as on writes.
        for step in 1..=50u64 {
            let at = step * 100 * MS + 7 * MS;
            let write = ClientOp::Write(post(0, 2));
            assert_eq!(c.serve(Region::Oregon, 0, write, at), LiveReply::Unavailable);
            assert_eq!(c.serve(Region::Tokyo, 0, ClientOp::Read, at + 1), LiveReply::Unavailable);
        }
        assert_eq!((c.replica_len(0), c.replica_len(1)), (1, 1), "nothing was acked or applied");
        // One replica back makes three: the retried write commits.
        assert!(c.recover_replica(2).peers >= 2);
        assert_eq!(c.put(Region::Oregon, 0, post(0, 2), 6 * SEC), PostId::new(AuthorId(0), 2));
    }

    #[test]
    fn a_pbft_group_born_during_a_leader_outage_needs_its_own_two_door_traffic() {
        let (c, t) = pbft_without_its_leader(4);
        let key = (1..1000u32).find(|k| c.shard_for_key(*k) != c.shard_for_key(0)).unwrap();
        // Key 0's group gets its view change; every key is its own
        // consensus instance, so that moves nothing for `key`.
        for door in SURVIVING_DOORS {
            assert_eq!(c.serve(door, 0, ClientOp::Read, t + 10 * MS), LiveReply::Unavailable);
        }
        c.tick(t + 2 * SEC);
        assert_eq!(c.view_status(), Some((2, 2, 1)));
        // `key` is first touched now, into view 1 with its leader down.
        let born = t + 2 * SEC;
        for door in SURVIVING_DOORS {
            assert_eq!(c.serve(door, key, ClientOp::Read, born), LiveReply::Unavailable);
        }
        assert_eq!(c.replica_len(1), 0);
        c.tick(born + 2 * SEC);
        assert_eq!(
            c.put(Region::Oregon, key, post(3, 1), born + 2 * SEC),
            PostId::new(AuthorId(3), 1)
        );
        assert_eq!(c.get(Region::Ireland, key, born + 3 * SEC).len(), 1);
    }

    #[test]
    fn an_arm_without_views_reports_no_view() {
        for kind in [ServiceKind::Quorum, ServiceKind::FacebookFeed] {
            let c = cluster(kind, None);
            c.crash_replica(1);
            assert_eq!(c.view_status(), None, "{kind}");
        }
    }

    #[test]
    fn weak_arm_rejoins_cold_and_reconverges() {
        let c = cluster(ServiceKind::GooglePlus, None);
        let id = c.write(Region::Oregon, post(1, 1), MS);
        // Let replication land everywhere first.
        c.tick(60 * SEC);
        assert!(c.replica_len(1) > 0);
        c.crash_replica(1);
        let report = c.recover_replica(1);
        assert!(report.cold, "weak arms get no state transfer");
        assert_eq!(report.frames, 0);
        assert_eq!(c.replica_len(1), 0, "cold rejoin restarts empty");
        // Anti-entropy (Google+ runs it every 6 s) heals the divergence.
        assert!(c.read(Region::Tokyo, 120 * SEC).contains(&id));
    }

    #[test]
    fn down_replica_receives_nothing_until_it_rejoins() {
        // Weak arm: a write made during Tokyo's outage must not reach it
        // by push or by anti-entropy, however long the outage lasts.
        let c = cluster(ServiceKind::FacebookFeed, None);
        c.crash_replica(1);
        let id = c.write(Region::Oregon, post(0, 1), MS);
        for step in 1..=600u64 {
            c.tick(step * 100 * MS);
            assert_eq!(c.replica_len(1), 0, "a down replica applied traffic at {step}");
        }
        assert_eq!(c.replica_len(0), 1);
        assert_eq!(c.replica_len(2), 1, "the live peers still replicate among themselves");
        // Cold rejoin, then anti-entropy (2 s on FB Feed) heals it.
        assert!(c.recover_replica(1).cold);
        assert_eq!(c.replica_len(1), 0);
        assert!(c.read(Region::Tokyo, 120 * SEC).contains(&id));

        // Quorum arm: the write commits on the live majority only (a
        // crashed process hears no `SyncPush`), and the rejoin's state
        // transfer is what delivers it.
        let c = cluster(ServiceKind::Quorum, None);
        c.crash_replica(1);
        let id = c.write(Region::Oregon, post(0, 1), MS);
        assert_eq!(c.replica_len(1), 0);
        assert_eq!(c.recover_replica(1).applied, 1);
        assert!(c.read(Region::Tokyo, 2 * MS).contains(&id));
    }

    #[test]
    fn crash_drops_in_flight_pushes_to_the_dead_replica() {
        let c = cluster(ServiceKind::FacebookFeed, None);
        let id = c.write(Region::Oregon, post(0, 1), MS);
        // Crash Tokyo (replica 1) while the push is still in flight,
        // then rejoin cold: the push died with the process, so until the
        // next anti-entropy round (2 s on FB Feed) the rejoined replica
        // diverges — exactly the window a live kill/rejoin opens on a
        // weak service.
        c.crash_replica(1);
        assert!(c.recover_replica(1).cold);
        assert!(
            !c.read(Region::Tokyo, 1_900 * MS).contains(&id),
            "the lost push must not redeliver before anti-entropy"
        );
        // The origin replica still serves it, and anti-entropy
        // eventually heals the divergence.
        assert!(c.read(Region::Oregon, 1_900 * MS).contains(&id));
        assert!(c.read(Region::Tokyo, 120 * SEC).contains(&id));
    }

    #[test]
    fn fast_path_tick_still_delivers_on_time() {
        // The atomic-horizon fast path must not postpone a due push: the
        // delivery instant observed on a fine probe grid is identical to
        // a cluster swept at every grid point (which `read` does anyway —
        // the point is that the sweep only *runs* when due).
        let c = cluster(ServiceKind::FacebookFeed, None);
        let id = c.write(Region::Oregon, post(0, 1), MS);
        let mut first_seen = None;
        for i in 0..2_000u64 {
            if c.read(Region::Tokyo, MS * i).contains(&id) {
                first_seen = Some(i);
                break;
            }
        }
        let first_seen = first_seen.expect("push delivered within 2 s");
        // Replay on a fresh cluster, jumping straight to the observed
        // instant: delivery must not depend on intermediate ticks.
        let c2 = cluster(ServiceKind::FacebookFeed, None);
        let id2 = c2.write(Region::Oregon, post(0, 1), MS);
        assert_eq!(id, id2);
        assert!(!c2.read(Region::Tokyo, MS * (first_seen - 1)).contains(&id2));
        assert!(c2.read(Region::Tokyo, MS * first_seen).contains(&id2));
    }

    #[test]
    fn due_pushes_apply_in_delivery_then_enqueue_order() {
        // Google+ orders a 6 ms timestamp bucket by local arrival, so the
        // order in which one sweep applies its due pushes is the order
        // Ireland serves them in.
        let c = cluster(ServiceKind::GooglePlus, None);
        for seq in 1..=5u32 {
            c.write(Region::Oregon, post(0, seq), 12 * MS + u64::from(seq));
        }
        let mut scheduled: Vec<(u64, u64, PostId)> = {
            let queue = c.shards[0].queue.lock().unwrap();
            queue.pushes.iter().map(|p| (p.deliver_at, p.seq, p.post.id())).collect()
        };
        scheduled.sort_unstable();
        let last = scheduled.last().expect("five pushes in flight").0;
        assert!(last < 6 * SEC, "all five land before the first anti-entropy round");
        let expected: Vec<PostId> = scheduled.iter().map(|(_, _, id)| *id).collect();
        let mut as_written = expected.clone();
        as_written.sort_unstable();
        assert_ne!(expected, as_written, "sampled delays reorder the writes");
        // One sweep delivers all five.
        assert_eq!(c.read(Region::Ireland, last), expected);
    }

    #[test]
    fn a_push_scheduled_mid_sweep_is_still_delivered() {
        // The sweep parks the horizon at MAX, finishes shard 0, then
        // stalls on a shard-1 replica this thread holds. A write into
        // shard 0 now lands behind the sweep: only the writer's own
        // `fetch_min` on the parked horizon keeps its pushes due.
        let c = sharded(ServiceKind::FacebookFeed, 2);
        let key = (0..1000u32).find(|k| c.shard_for_key(*k) == 0).expect("a key on shard 0");
        let now = 10 * SEC; // anti-entropy (2 s) is due in both shards
        let id = std::thread::scope(|s| {
            let stall = c.shards[1].replicas[0].lock().unwrap();
            let sweep = s.spawn(|| c.tick(now));
            // Shard 0 is behind the sweep once its anti-entropy is rescheduled.
            while c.shards[0].queue.lock().unwrap().next_anti_entropy <= now {
                std::thread::yield_now();
            }
            assert_eq!(c.next_due_nanos.load(Ordering::Acquire), u64::MAX, "sweep in progress");
            let id = c.write_keyed(Region::Oregon, key, post(0, 1), now);
            drop(stall);
            sweep.join().expect("sweep thread");
            id
        });
        let due: Vec<u64> =
            c.shards[0].queue.lock().unwrap().pushes.iter().map(|p| p.deliver_at).collect();
        let (first, last) = (*due.iter().min().unwrap(), *due.iter().max().unwrap());
        assert_eq!(due.len(), 2, "one push per peer");
        assert!(last < now + 2 * SEC, "both land before anti-entropy could heal a lost push");
        assert_eq!(c.next_due_nanos.load(Ordering::Acquire), first);
        c.tick(last);
        assert!(c.read_keyed(Region::Tokyo, key, last).contains(&id));
        assert!(c.read_keyed(Region::Ireland, key, last).contains(&id));
    }

    #[test]
    fn a_replicated_post_shares_its_body_with_the_origin() {
        let c = cluster(ServiceKind::FacebookFeed, None);
        c.write(Region::Oregon, post(0, 1), MS);
        c.tick(60 * SEC);
        let held =
            |idx: usize| c.shards[0].replicas[idx].lock().unwrap().cores[&0].snapshot_posts();
        let origin = held(0);
        for peer in 1..3 {
            let theirs = held(peer);
            assert_eq!(theirs.len(), 1, "replica {peer} received the write");
            assert!(
                Arc::ptr_eq(&origin[0].post.content, &theirs[0].post.content),
                "replica {peer} holds its own copy of the body"
            );
        }
    }

    #[test]
    #[should_panic(expected = "no replica 3 in a 3 group")]
    fn crash_replica_rejects_an_index_outside_the_topology() {
        cluster(ServiceKind::FacebookFeed, None).crash_replica(3);
    }

    #[test]
    #[should_panic(expected = "no replica 1 in a 1 group")]
    fn recover_replica_rejects_an_index_outside_the_topology_on_a_weak_arm() {
        cluster(ServiceKind::Blogger, None).recover_replica(1);
    }
}
