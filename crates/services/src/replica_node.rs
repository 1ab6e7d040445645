//! The generic service replica node.
//!
//! One configurable [`ReplicaNode`] implements all four service models; the
//! differences are captured by [`ReplicaParams`]:
//!
//! * **write path** — the replica acknowledges a write immediately (the
//!   paper's services all do) and *applies* it after [`ReplicaParams::apply_delay`].
//!   A bimodal delay (fast path + occasional slow path) reproduces Google+'s
//!   sporadic read-your-writes violations, where one slow write is missed by
//!   several consecutive reads.
//! * **replication** — applied posts are pushed to each peer after
//!   [`ReplicaParams::repl_delay`] (on top of network latency); optional
//!   periodic anti-entropy repairs anything a push missed (e.g. during a
//!   partition) and, when [`ReplicaParams::canonicalize_on_anti_entropy`] is
//!   set, re-sequences the log into canonical timestamp order — ending
//!   order-divergence windows the way Google+ visibly converges after
//!   seconds.
//! * **read path** — direct snapshot (Blogger, Facebook Group), stale
//!   front-end caches (Google+), or interest-ranked selection (Facebook
//!   Feed).
//!
//! Service infrastructure timestamps (`server_ts`) use true simulation time:
//! providers run internally synchronized clusters, and the paper's clock
//! problem concerned only the *measurement agents*, which this crate does
//! not model.

use crate::api::{ClientOp, NetMsg, OpResult, ReplMsg};
use crate::shell::{metric_prefix, FrontDoor, Transition, TOKEN_KIND_MASK};
use conprobe_core::ReadView;
use conprobe_json::FastMap;
use conprobe_obs::{Counter, Histogram};
use conprobe_sim::{BrownoutMode, Context, Node, NodeId, SimDuration, SimRng, SimTime};
use conprobe_store::{
    FeedRanker, OrderingPolicy, Post, PostId, RankingConfig, ReadCache, ReplicaCore, StoredPost,
};
use std::sync::Arc;

/// A sampled delay distribution.
#[derive(Debug, Clone)]
pub enum DelayDist {
    /// Always zero.
    Zero,
    /// A constant delay.
    Fixed(SimDuration),
    /// `base + Exp(mean)`.
    Exp {
        /// Minimum delay.
        base: SimDuration,
        /// Mean of the exponential tail.
        mean: SimDuration,
    },
    /// Fast path of `fast`, except with probability `slow_prob` a slow path
    /// of `slow_base + Exp(slow_mean)`.
    Bimodal {
        /// Fast-path delay.
        fast: SimDuration,
        /// Probability of taking the slow path.
        slow_prob: f64,
        /// Slow-path minimum.
        slow_base: SimDuration,
        /// Slow-path exponential mean.
        slow_mean: SimDuration,
    },
}

impl DelayDist {
    /// Draws one delay.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match self {
            DelayDist::Zero => SimDuration::ZERO,
            DelayDist::Fixed(d) => *d,
            DelayDist::Exp { base, mean } => {
                *base + SimDuration::from_nanos(rng.gen_exp(mean.as_nanos() as f64) as u64)
            }
            DelayDist::Bimodal { fast, slow_prob, slow_base, slow_mean } => {
                if rng.gen_bool(*slow_prob) {
                    *slow_base
                        + SimDuration::from_nanos(rng.gen_exp(slow_mean.as_nanos() as f64) as u64)
                } else {
                    *fast
                }
            }
        }
    }
}

/// How reads are served.
#[derive(Debug, Clone)]
pub enum ReadPath {
    /// Directly from the replica's policy-ordered snapshot.
    Snapshot,
    /// Through one of `count` lazily refreshed front-end caches.
    Caches {
        /// Number of caches; each read hits a uniformly random one.
        count: usize,
        /// Cache refresh interval.
        refresh: SimDuration,
    },
    /// Mostly fresh snapshots, but a fraction of reads is served from a
    /// *secondary index* that picks up each post independently after an
    /// exponential per-item lag. Because per-item lags can invert
    /// visibility order, a stale read can show a later post while an
    /// earlier one (or a causal dependency) is still unindexed — the
    /// mechanism behind Google+'s sporadic read-your-writes,
    /// monotonic-reads and writes-follows-reads anomalies.
    SecondaryIndex {
        /// Probability that a read is served from the secondary index.
        stale_prob: f64,
        /// Per-post indexing lag distribution. Indexing is FIFO per author
        /// (a session's posts share a shard), so same-author posts never
        /// invert in the index; rare slow-path items produce the
        /// writes-follows-reads violations.
        lag: DelayDist,
    },
    /// Through the interest-ranking pipeline.
    Ranked(RankingConfig),
}

/// When a write is acknowledged to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriteMode {
    /// Acknowledge as soon as the local replica accepts the write (all the
    /// paper's services behave this way).
    #[default]
    LocalAck,
    /// This replica is a read-only backup: client writes are forwarded to
    /// the primary (peer index 0 by convention of
    /// [`crate::catalog::topology_primary_backup`]), which acknowledges and
    /// replicates back asynchronously. Reads stay local — the classic
    /// primary-backup-with-local-reads design whose only anomaly is
    /// read-your-writes staleness.
    ForwardToPrimary,
}

/// Full configuration of a [`ReplicaNode`].
#[derive(Debug, Clone)]
pub struct ReplicaParams {
    /// Ordering policy for the replica's log.
    pub ordering: OrderingPolicy,
    /// Read path.
    pub read_path: ReadPath,
    /// Ack→apply delay for locally accepted writes.
    pub apply_delay: DelayDist,
    /// Extra per-peer delay before pushing an applied post.
    pub repl_delay: DelayDist,
    /// Anti-entropy period, if enabled.
    pub anti_entropy: Option<SimDuration>,
    /// Re-sequence into canonical timestamp order after each anti-entropy
    /// exchange.
    pub canonicalize_on_anti_entropy: bool,
    /// Re-sequence immediately when replicated posts arrive via push, so a
    /// remote write becomes visible already in canonical position and this
    /// replica never exposes a transient wrong order (the "order authority"
    /// behaviour of the Google+ model's DC-West).
    pub canonicalize_on_push: bool,
    /// Write acknowledgement discipline.
    pub write_mode: WriteMode,
}

impl Default for ReplicaParams {
    /// A strongly consistent single-replica configuration (the Blogger
    /// model): synchronous apply, snapshot reads, no peers needed.
    fn default() -> Self {
        ReplicaParams {
            ordering: OrderingPolicy::Arrival,
            read_path: ReadPath::Snapshot,
            apply_delay: DelayDist::Zero,
            repl_delay: DelayDist::Zero,
            anti_entropy: None,
            canonicalize_on_anti_entropy: false,
            canonicalize_on_push: false,
            write_mode: WriteMode::LocalAck,
        }
    }
}

const TOKEN_ANTI_ENTROPY: u64 = 0;
const TOKEN_KIND_APPLY: u64 = 1 << 62;
const TOKEN_KIND_PUSH: u64 = 2 << 62;

/// A service replica (also the service's front door for its clients).
pub struct ReplicaNode {
    params: ReplicaParams,
    core: ReplicaCore,
    caches: Vec<ReadCache>,
    ranker: Option<FeedRanker>,
    visible_at: FastMap<PostId, SimTime>,
    indexed_at: FastMap<PostId, SimTime>,
    peers: Vec<NodeId>,
    pending_apply: FastMap<u64, (Post, SimTime)>,
    pending_push: FastMap<u64, (NodeId, Vec<conprobe_store::StoredPost>)>,
    last_push_at: FastMap<NodeId, SimTime>,
    /// Crash flag, brownout gate, request counters, timer tokens and the
    /// common metrics (fault injection and telemetry; see [`FrontDoor`]).
    door: FrontDoor,
    /// Writes forwarded to the primary: forwarded req id → (client, its
    /// original req id).
    forwarded_writes: FastMap<u64, (NodeId, u64)>,
    /// Next forwarded request id (disjoint space from client ids).
    next_forward_req: u64,
    /// This arm's own metric handles, resolved in `on_start` when the
    /// world has a sink installed. `None` means telemetry is off.
    obs: Option<ReplicaObs>,
    /// The secondary index's visible ids, gathered here so a stale read
    /// allocates only its view.
    scratch: Vec<PostId>,
}

impl std::fmt::Debug for ReplicaNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaNode")
            .field("posts", &self.core.len())
            .field("peers", &self.peers)
            .field("stats", &self.door.stats())
            .finish()
    }
}

/// The weak arms' own metrics (see `conprobe-obs`), next to the
/// [`FrontDoor`]'s common ones under `services.replica.n<id>.`.
/// Instrumentation only: recording draws no randomness and sends nothing.
struct ReplicaObs {
    anti_entropy_rounds: Counter,
    prop_lag: Histogram,
}

impl ReplicaNode {
    /// Creates a replica with no peers (set them with
    /// [`ReplicaNode::set_peers`] once ids are known).
    pub fn new(params: ReplicaParams) -> Self {
        let caches = match &params.read_path {
            ReadPath::Caches { count, refresh } => {
                assert!(*count > 0, "cache read path needs at least one cache");
                (0..*count).map(|_| ReadCache::new(*refresh)).collect()
            }
            _ => Vec::new(),
        };
        let ranker = match &params.read_path {
            ReadPath::Ranked(cfg) => Some(FeedRanker::new(cfg.clone())),
            _ => None,
        };
        ReplicaNode {
            core: ReplicaCore::new(params.ordering),
            caches,
            ranker,
            params,
            visible_at: FastMap::default(),
            indexed_at: FastMap::default(),
            peers: Vec::new(),
            pending_apply: FastMap::default(),
            pending_push: FastMap::default(),
            last_push_at: FastMap::default(),
            door: FrontDoor::new(1, false),
            forwarded_writes: FastMap::default(),
            next_forward_req: 1 << 48,
            obs: None,
            scratch: Vec::new(),
        }
    }

    /// Installs the peer replica set.
    pub fn set_peers(&mut self, peers: Vec<NodeId>) {
        self.peers = peers;
    }

    /// The configured peer replicas.
    pub fn peers(&self) -> &[NodeId] {
        &self.peers
    }

    /// Number of posts applied at this replica (diagnostics).
    pub fn applied(&self) -> usize {
        self.core.len()
    }

    /// Whether the replica is currently crashed (fault injection).
    pub fn is_crashed(&self) -> bool {
        self.door.is_crashed()
    }

    /// The active front-door brownout, if any (fault injection).
    pub fn brownout(&self) -> Option<BrownoutMode> {
        self.door.brownout()
    }

    /// `(writes, reads, throttled)` request counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        self.door.stats()
    }

    /// The replica's current policy-ordered snapshot (diagnostics).
    /// Shares the replica core's cached view.
    pub fn snapshot(&self) -> Arc<[PostId]> {
        self.core.snapshot()
    }

    fn apply_and_replicate<A>(
        &mut self,
        ctx: &mut Context<'_, NetMsg<A>>,
        post: Post,
        server_ts: SimTime,
    ) {
        let now = ctx.true_now();
        let Some(stored) = self.core.apply_new(post, server_ts).cloned() else {
            return; // duplicate
        };
        self.record_visibility(stored.id(), now, ctx.rng());
        // By index: the loop body mutates `self` (push timers, tokens), so
        // it cannot hold a borrow of `self.peers` — but it doesn't need to
        // clone the peer list every write either.
        for i in 0..self.peers.len() {
            let peer = self.peers[i];
            let delay = self.params.repl_delay.sample(ctx.rng());
            if delay.is_zero() {
                ctx.send_ordered(peer, NetMsg::Repl(ReplMsg::Push(vec![stored.clone()])));
            } else {
                // The replication stream to a peer is a single logical
                // connection: a later post's (randomly shorter) delay must
                // not let it overtake an earlier one still in flight.
                let mut dispatch_at = now + delay;
                let last = self.last_push_at.entry(peer).or_insert(SimTime::ZERO);
                if dispatch_at <= *last {
                    dispatch_at = *last + SimDuration::from_nanos(1);
                }
                *last = dispatch_at;
                let token = self.door.fresh_token(TOKEN_KIND_PUSH);
                self.pending_push.insert(token, (peer, vec![stored.clone()]));
                ctx.set_timer(dispatch_at.saturating_since(now), token);
            }
        }
    }

    /// Records when a post became visible locally and samples its
    /// secondary-index pickup time.
    fn record_visibility(&mut self, id: PostId, now: SimTime, rng: &mut SimRng) {
        self.visible_at.insert(id, now);
        if let ReadPath::SecondaryIndex { lag, .. } = &self.params.read_path {
            let mut at = now + lag.sample(rng);
            // FIFO per author: the index never shows a session's later post
            // before an earlier one.
            if id.seq > 1 {
                if let Some(prev) = self.indexed_at.get(&PostId::new(id.author, id.seq - 1)) {
                    if at <= *prev {
                        at = *prev + SimDuration::from_nanos(1);
                    }
                }
            }
            self.indexed_at.insert(id, at);
        }
    }

    /// Applies posts replicated from a peer, recording visibility and
    /// propagation lag (how long after its origin `server_ts` each became
    /// visible here) for the new ones. Returns whether any was new.
    fn absorb<A>(
        &mut self,
        ctx: &mut Context<'_, NetMsg<A>>,
        posts: Vec<conprobe_store::StoredPost>,
    ) -> bool {
        let now = ctx.true_now();
        let mut applied_any = false;
        for stored in posts {
            let id = stored.id();
            let origin_ts = stored.server_ts;
            if self.core.apply_replicated(stored) {
                self.record_visibility(id, now, ctx.rng());
                if let Some(obs) = &self.obs {
                    obs.prop_lag.record(now.saturating_since(origin_ts).as_nanos());
                }
                applied_any = true;
            }
        }
        applied_any
    }

    /// Serves one client request. Called both on message receipt and when
    /// a brownout-held request's delay expires.
    fn handle_request<A>(
        &mut self,
        ctx: &mut Context<'_, NetMsg<A>>,
        from: NodeId,
        req_id: u64,
        op: ClientOp,
    ) {
        match op {
            ClientOp::Write(post) => {
                self.door.count_write();
                let server_ts = ctx.true_now();
                let id = post.id;
                match self.params.write_mode {
                    WriteMode::LocalAck => {
                        // Acknowledge immediately; visibility follows later.
                        self.door.respond(ctx, from, req_id, OpResult::WriteAck(id));
                        let delay = self.params.apply_delay.sample(ctx.rng());
                        if delay.is_zero() {
                            self.apply_and_replicate(ctx, post, server_ts);
                        } else {
                            let token = self.door.fresh_token(TOKEN_KIND_APPLY);
                            self.pending_apply.insert(token, (post, server_ts));
                            ctx.set_timer(delay, token);
                        }
                    }
                    WriteMode::ForwardToPrimary => {
                        let Some(primary) = self.peers.first().copied() else {
                            // No primary configured: degrade to a local ack
                            // so the client is not left hanging.
                            self.door.respond(ctx, from, req_id, OpResult::WriteAck(id));
                            self.apply_and_replicate(ctx, post, server_ts);
                            return;
                        };
                        let fwd = self.next_forward_req;
                        self.next_forward_req += 1;
                        self.forwarded_writes.insert(fwd, (from, req_id));
                        ctx.send_ordered(
                            primary,
                            NetMsg::Request { req_id: fwd, op: ClientOp::Write(post) },
                        );
                    }
                }
            }
            ClientOp::Read => {
                self.door.count_read();
                let seq = self.serve_read(ctx);
                self.door.respond(ctx, from, req_id, OpResult::ReadOk(seq));
            }
        }
    }

    /// The view a read returns. The snapshot and cache paths share the
    /// replica's cached slice; the index and ranking paths build one view.
    fn serve_read<A>(&mut self, ctx: &mut Context<'_, NetMsg<A>>) -> ReadView<PostId> {
        let now = ctx.true_now();
        match &self.params.read_path {
            ReadPath::Snapshot => self.core.snapshot().into(),
            ReadPath::Caches { count, .. } => {
                let idx = if *count == 1 { 0 } else { ctx.rng().gen_range(0..*count) };
                self.caches[idx].refresh_if_stale(now, || self.core.snapshot());
                Arc::clone(self.caches[idx].read()).into()
            }
            ReadPath::SecondaryIndex { stale_prob, .. } => {
                if *stale_prob > 0.0 && ctx.rng().gen_bool(*stale_prob) {
                    self.scratch.clear();
                    self.scratch.extend(
                        self.core
                            .snapshot_posts()
                            .iter()
                            .filter(|p| {
                                self.indexed_at.get(&p.id()).copied().unwrap_or(p.server_ts) <= now
                            })
                            .map(|p| p.id()),
                    );
                    self.scratch.as_slice().into()
                } else {
                    self.core.snapshot().into()
                }
            }
            ReadPath::Ranked(_) => {
                let ranker = self.ranker.as_ref().expect("ranked path has ranker");
                let visible_at = |stored: &StoredPost| {
                    self.visible_at.get(&stored.id()).copied().unwrap_or(stored.server_ts)
                };
                ranker.read(&self.core.snapshot_posts(), visible_at, now, ctx.rng()).into()
            }
        }
    }
}

impl<A: Send + 'static> Node<NetMsg<A>> for ReplicaNode {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg<A>>) {
        self.door.start(ctx);
        self.obs = ctx.obs().map(|sink| {
            let prefix = metric_prefix(ctx.node_id());
            ReplicaObs {
                anti_entropy_rounds: sink.metrics.counter(&format!("{prefix}.anti_entropy_rounds")),
                prop_lag: sink.metrics.log_histogram(&format!("{prefix}.propagation_lag_nanos")),
            }
        });
        if let Some(period) = self.params.anti_entropy {
            // Random phase so replicas don't exchange in lock-step.
            let phase = SimDuration::from_nanos(ctx.rng().gen_range(0..period.as_nanos().max(1)));
            ctx.set_timer(phase, TOKEN_ANTI_ENTROPY);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, NetMsg<A>>, from: NodeId, msg: NetMsg<A>) {
        if let NetMsg::Control(ctl) = &msg {
            match self.door.on_control(ctx, ctl, "") {
                Some(Transition::Crashed) => {
                    // Volatile state is lost wholesale; in-flight applies
                    // and pushes are dropped with it.
                    self.core = ReplicaCore::new(self.params.ordering);
                    self.visible_at.clear();
                    self.indexed_at.clear();
                    self.pending_apply.clear();
                    self.pending_push.clear();
                }
                // Kick anti-entropy immediately so peers re-fill us
                // without waiting for the next periodic round.
                Some(Transition::Recovered) if self.params.anti_entropy.is_some() => {
                    let digest = self.core.digest();
                    for &peer in &self.peers {
                        ctx.send(peer, NetMsg::Repl(ReplMsg::DigestReq(digest.clone())));
                    }
                }
                _ => {}
            }
            return;
        }
        if self.door.is_crashed() {
            return; // a crashed node neither serves nor replicates
        }
        match msg {
            NetMsg::Request { req_id, op } => {
                if let Some(op) = self.door.admit(ctx, from, req_id, op) {
                    self.handle_request(ctx, from, req_id, op);
                }
            }
            NetMsg::Repl(ReplMsg::Push(posts)) => {
                if self.absorb(ctx, posts) && self.params.canonicalize_on_push {
                    self.core.resequence_canonical();
                }
            }
            NetMsg::Repl(ReplMsg::DigestReq(digest)) => {
                let missing = self.core.missing_from(&digest);
                ctx.send_ordered(from, NetMsg::Repl(ReplMsg::DigestResp(missing)));
            }
            NetMsg::Repl(ReplMsg::DigestResp(posts)) => {
                self.absorb(ctx, posts);
                if self.params.canonicalize_on_anti_entropy {
                    self.core.resequence_canonical();
                }
            }
            // Majority quorums, state transfer and ordered-log consensus
            // are the strong arms' protocols
            // ([`crate::quorum::QuorumReplica`],
            // [`crate::pbft::PbftReplica`]); the weak catalog replicas
            // recover via anti-entropy instead and ignore them.
            NetMsg::Repl(_) => {}
            // A response reaching a replica is the primary answering a
            // forwarded write: relay it to the original client.
            NetMsg::Response { req_id, result } => {
                if let Some((client, orig_req)) = self.forwarded_writes.remove(&req_id) {
                    self.door.respond(ctx, client, orig_req, result);
                }
            }
            // App traffic (and Control, handled above) is not for replicas.
            NetMsg::App(_) | NetMsg::Control(_) => {}
        }
        self.door.set_applied(self.core.len());
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, NetMsg<A>>, token: u64) {
        if self.door.is_crashed() {
            // Keep the anti-entropy heartbeat alive so recovery works.
            if token == TOKEN_ANTI_ENTROPY {
                if let Some(period) = self.params.anti_entropy {
                    ctx.set_timer(period, TOKEN_ANTI_ENTROPY);
                }
            }
            return;
        }
        if token == TOKEN_ANTI_ENTROPY {
            if let Some(obs) = &self.obs {
                obs.anti_entropy_rounds.inc();
            }
            // Borrow the peer list: the per-tick clone was pure overhead.
            let digest = self.core.digest();
            for &peer in &self.peers {
                ctx.send(peer, NetMsg::Repl(ReplMsg::DigestReq(digest.clone())));
            }
            if let Some(period) = self.params.anti_entropy {
                ctx.set_timer(period, TOKEN_ANTI_ENTROPY);
            }
            return;
        }
        match token & TOKEN_KIND_MASK {
            TOKEN_KIND_APPLY => {
                if let Some((post, server_ts)) = self.pending_apply.remove(&token) {
                    self.apply_and_replicate(ctx, post, server_ts);
                }
            }
            TOKEN_KIND_PUSH => {
                if let Some((peer, posts)) = self.pending_push.remove(&token) {
                    ctx.send_ordered(peer, NetMsg::Repl(ReplMsg::Push(posts)));
                }
            }
            _ => {
                if let Some((client, req_id, op)) = self.door.release(token) {
                    self.handle_request(ctx, client, req_id, op);
                }
            }
        }
        self.door.set_applied(self.core.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{at, post, req, Msg, Script};
    use conprobe_sim::net::Region;
    use conprobe_sim::{LocalClock, World, WorldConfig};
    use conprobe_store::AuthorId;

    fn world() -> World<Msg> {
        World::new(WorldConfig::default(), 11)
    }

    fn add_replica(w: &mut World<Msg>, region: Region, params: ReplicaParams) -> NodeId {
        w.add_node_with_clock(region, LocalClock::perfect(), Box::new(ReplicaNode::new(params)))
    }

    #[test]
    fn write_then_read_round_trip() {
        let mut w = world();
        let replica = add_replica(&mut w, Region::Virginia, ReplicaParams::default());
        let client = w.add_node(
            Region::Oregon,
            Box::new(Script::new(vec![
                (at(0), replica, req(0, ClientOp::Write(post(1, 1)))),
                (at(500), replica, req(1, ClientOp::Read)),
            ])),
        );
        w.run_until_idle();
        let s = w.node_as::<Script>(client).unwrap();
        assert_eq!(s.responses.len(), 2);
        assert_eq!(s.responses[0].1, OpResult::WriteAck(PostId::new(AuthorId(1), 1)));
        assert_eq!(s.responses[1].1, OpResult::ReadOk(vec![PostId::new(AuthorId(1), 1)].into()));
    }

    #[test]
    fn duplicate_write_is_idempotent() {
        let mut w = world();
        let replica = add_replica(&mut w, Region::Virginia, ReplicaParams::default());
        let client = w.add_node(
            Region::Oregon,
            Box::new(Script::new(vec![
                (at(0), replica, req(0, ClientOp::Write(post(1, 1)))),
                (at(200), replica, req(1, ClientOp::Write(post(1, 1)))),
                (at(500), replica, req(2, ClientOp::Read)),
            ])),
        );
        w.run_until_idle();
        let s = w.node_as::<Script>(client).unwrap();
        let last = &s.responses.last().unwrap().1;
        assert_eq!(*last, OpResult::ReadOk(vec![PostId::new(AuthorId(1), 1)].into()));
    }

    #[test]
    fn delayed_apply_causes_read_your_writes_gap() {
        let mut w = world();
        let params = ReplicaParams {
            apply_delay: DelayDist::Fixed(SimDuration::from_secs(2)),
            ..ReplicaParams::default()
        };
        let replica = add_replica(&mut w, Region::Virginia, params);
        let client = w.add_node(
            Region::Oregon,
            Box::new(Script::new(vec![
                (at(0), replica, req(0, ClientOp::Write(post(1, 1)))),
                (at(500), replica, req(1, ClientOp::Read)), // too early
                (at(4_000), replica, req(2, ClientOp::Read)), // after apply
            ])),
        );
        w.run_until_idle();
        let s = w.node_as::<Script>(client).unwrap();
        assert_eq!(s.responses[1].1, OpResult::ReadOk(vec![].into()), "write acked but invisible");
        assert_eq!(s.responses[2].1, OpResult::ReadOk(vec![PostId::new(AuthorId(1), 1)].into()));
    }

    #[test]
    fn push_replication_propagates_to_peer() {
        let mut w = world();
        let params = ReplicaParams {
            repl_delay: DelayDist::Fixed(SimDuration::from_millis(100)),
            ..ReplicaParams::default()
        };
        let r0 = add_replica(&mut w, Region::Virginia, params.clone());
        let r1 = add_replica(&mut w, Region::Tokyo, params);
        w.node_as_mut::<ReplicaNode>(r0).unwrap().set_peers(vec![r1]);
        w.node_as_mut::<ReplicaNode>(r1).unwrap().set_peers(vec![r0]);
        let _client = w.add_node(
            Region::Oregon,
            Box::new(Script::new(vec![(at(0), r0, req(0, ClientOp::Write(post(1, 1))))])),
        );
        w.run_until_idle();
        assert_eq!(w.node_as::<ReplicaNode>(r1).unwrap().applied(), 1);
    }

    #[test]
    fn anti_entropy_repairs_missing_posts() {
        let mut w = world();
        // No push replication at all: only anti-entropy moves data.
        let params = ReplicaParams {
            repl_delay: DelayDist::Fixed(SimDuration::from_secs(3600)), // effectively never
            anti_entropy: Some(SimDuration::from_secs(1)),
            ..ReplicaParams::default()
        };
        let r0 = add_replica(&mut w, Region::Virginia, params.clone());
        let r1 = add_replica(&mut w, Region::Tokyo, params);
        w.node_as_mut::<ReplicaNode>(r0).unwrap().set_peers(vec![r1]);
        w.node_as_mut::<ReplicaNode>(r1).unwrap().set_peers(vec![r0]);
        let _client = w.add_node(
            Region::Oregon,
            Box::new(Script::new(vec![(at(0), r0, req(0, ClientOp::Write(post(1, 1))))])),
        );
        w.run_until(SimTime::from_secs(5));
        assert_eq!(w.node_as::<ReplicaNode>(r1).unwrap().applied(), 1);
    }

    #[test]
    fn cached_reads_lag_behind_applies() {
        let mut w = world();
        let params = ReplicaParams {
            read_path: ReadPath::Caches { count: 1, refresh: SimDuration::from_secs(10) },
            ..ReplicaParams::default()
        };
        let replica = add_replica(&mut w, Region::Virginia, params);
        let client = w.add_node(
            Region::Oregon,
            Box::new(Script::new(vec![
                (at(0), replica, req(0, ClientOp::Read)), // warms the cache (empty)
                (at(500), replica, req(1, ClientOp::Write(post(1, 1)))),
                (at(2_000), replica, req(2, ClientOp::Read)), // cache still fresh → stale data
                (at(15_000), replica, req(3, ClientOp::Read)), // cache expired → sees post
            ])),
        );
        w.run_until_idle();
        let s = w.node_as::<Script>(client).unwrap();
        assert_eq!(s.responses[2].1, OpResult::ReadOk(vec![].into()), "served from stale cache");
        assert_eq!(s.responses[3].1, OpResult::ReadOk(vec![PostId::new(AuthorId(1), 1)].into()));
    }

    #[test]
    fn ranked_reads_hide_unindexed_posts() {
        let mut w = world();
        let params = ReplicaParams {
            read_path: ReadPath::Ranked(RankingConfig {
                noise_std_secs: 0.0,
                top_k: 10,
                omit_prob: 0.0,
                index_delay: SimDuration::from_secs(2),
            }),
            ..ReplicaParams::default()
        };
        let replica = add_replica(&mut w, Region::Virginia, params);
        let client = w.add_node(
            Region::Oregon,
            Box::new(Script::new(vec![
                (at(0), replica, req(0, ClientOp::Write(post(1, 1)))),
                (at(500), replica, req(1, ClientOp::Read)), // not yet indexed
                (at(5_000), replica, req(2, ClientOp::Read)), // indexed
            ])),
        );
        w.run_until_idle();
        let s = w.node_as::<Script>(client).unwrap();
        assert_eq!(s.responses[1].1, OpResult::ReadOk(vec![].into()));
        assert_eq!(s.responses[2].1, OpResult::ReadOk(vec![PostId::new(AuthorId(1), 1)].into()));
    }

    #[test]
    fn facebook_group_ordering_reverses_same_second_pair() {
        let mut w = world();
        let params = ReplicaParams {
            ordering: OrderingPolicy::facebook_group(),
            ..ReplicaParams::default()
        };
        let replica = add_replica(&mut w, Region::Virginia, params);
        let client = w.add_node(
            Region::Oregon,
            Box::new(Script::new(vec![
                // Both writes land within the same wall-clock second.
                (at(100), replica, req(0, ClientOp::Write(post(1, 1)))),
                (at(400), replica, req(1, ClientOp::Write(post(1, 2)))),
                (at(2_000), replica, req(2, ClientOp::Read)),
            ])),
        );
        w.run_until_idle();
        let s = w.node_as::<Script>(client).unwrap();
        assert_eq!(
            s.responses[2].1,
            OpResult::ReadOk(vec![PostId::new(AuthorId(1), 2), PostId::new(AuthorId(1), 1)].into()),
            "same-second writes appear reversed — the paper's FB Group quirk"
        );
    }

    #[test]
    fn delay_dist_sampling() {
        let mut rng = SimRng::new(1);
        assert!(DelayDist::Zero.sample(&mut rng).is_zero());
        assert_eq!(
            DelayDist::Fixed(SimDuration::from_millis(5)).sample(&mut rng),
            SimDuration::from_millis(5)
        );
        let exp = DelayDist::Exp {
            base: SimDuration::from_millis(10),
            mean: SimDuration::from_millis(5),
        };
        for _ in 0..100 {
            assert!(exp.sample(&mut rng) >= SimDuration::from_millis(10));
        }
        let bimodal = DelayDist::Bimodal {
            fast: SimDuration::from_millis(1),
            slow_prob: 0.5,
            slow_base: SimDuration::from_secs(1),
            slow_mean: SimDuration::from_millis(100),
        };
        let samples: Vec<_> = (0..200).map(|_| bimodal.sample(&mut rng)).collect();
        let slow = samples.iter().filter(|d| **d >= SimDuration::from_secs(1)).count();
        assert!(slow > 50 && slow < 150, "slow path taken {slow}/200");
    }
}

#[cfg(test)]
mod crash_tests {
    use super::*;
    use crate::fault_driver::FaultDriver;
    use conprobe_sim::net::Region;
    use conprobe_sim::{FaultEvent, FaultPlan, LocalClock, LocalTime, SimTime, World, WorldConfig};
    use conprobe_store::AuthorId;

    type Msg = NetMsg<()>;

    /// One crash/recover window as a declarative plan (target index 0).
    fn crash_window(crash_at: SimDuration, recover_at: SimDuration) -> FaultPlan {
        FaultPlan::new(0).with(FaultEvent::CrashCycle {
            target: 0,
            at: SimTime::ZERO + crash_at,
            down_for: recover_at - crash_at,
            up_for: SimDuration::ZERO,
            cycles: 1,
        })
    }

    struct Writer {
        target: NodeId,
    }
    impl Node<Msg> for Writer {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            let post = Post::new(PostId::new(AuthorId(1), 1), "durable?", LocalTime::from_nanos(0));
            ctx.send(self.target, NetMsg::Request { req_id: 0, op: ClientOp::Write(post) });
        }
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        fn on_timer(&mut self, _: &mut Context<'_, Msg>, _: u64) {}
    }

    fn replicated_params() -> ReplicaParams {
        ReplicaParams {
            repl_delay: DelayDist::Fixed(SimDuration::from_millis(50)),
            anti_entropy: Some(SimDuration::from_secs(1)),
            ..ReplicaParams::default()
        }
    }

    #[test]
    fn crashed_replica_ignores_requests_and_loses_state() {
        let mut w = World::new(WorldConfig::default(), 3);
        let replica = w.add_node_with_clock(
            Region::Virginia,
            LocalClock::perfect(),
            Box::new(ReplicaNode::new(ReplicaParams::default())),
        );
        let _writer = w.add_node(Region::Oregon, Box::new(Writer { target: replica }));
        // Recovery at 3600 s: never within the run.
        let plan = crash_window(SimDuration::from_secs(2), SimDuration::from_secs(3600));
        let _faults =
            w.add_node(Region::Virginia, Box::new(FaultDriver::new(&plan, vec![replica])));
        w.run_until(conprobe_sim::SimTime::from_secs(10));
        let node = w.node_as::<ReplicaNode>(replica).unwrap();
        assert!(node.is_crashed());
        assert_eq!(node.applied(), 0, "volatile state lost on crash");
    }

    #[test]
    fn recovered_replica_is_refilled_by_anti_entropy() {
        let mut w = World::new(WorldConfig::default(), 4);
        let r0 = w.add_node_with_clock(
            Region::Virginia,
            LocalClock::perfect(),
            Box::new(ReplicaNode::new(replicated_params())),
        );
        let r1 = w.add_node_with_clock(
            Region::Ireland,
            LocalClock::perfect(),
            Box::new(ReplicaNode::new(replicated_params())),
        );
        w.node_as_mut::<ReplicaNode>(r0).unwrap().set_peers(vec![r1]);
        w.node_as_mut::<ReplicaNode>(r1).unwrap().set_peers(vec![r0]);
        let _writer = w.add_node(Region::Oregon, Box::new(Writer { target: r0 }));
        let plan = crash_window(SimDuration::from_secs(2), SimDuration::from_secs(4));
        let _faults = w.add_node(Region::Virginia, Box::new(FaultDriver::new(&plan, vec![r1])));
        // Let replication, the crash, the recovery and one repair round run.
        w.run_until(conprobe_sim::SimTime::from_secs(8));
        let survivor = w.node_as::<ReplicaNode>(r0).unwrap();
        assert_eq!(survivor.applied(), 1);
        let recovered = w.node_as::<ReplicaNode>(r1).unwrap();
        assert!(!recovered.is_crashed());
        assert_eq!(recovered.applied(), 1, "anti-entropy refilled the recovered node");
        assert_eq!(recovered.snapshot(), survivor.snapshot());
    }

    #[test]
    fn single_replica_crash_means_data_loss() {
        // Blogger-style: no peers, no anti-entropy — a crash is permanent
        // data loss (the durability/consistency trade-off made visible).
        let mut w = World::new(WorldConfig::default(), 5);
        let replica = w.add_node_with_clock(
            Region::Virginia,
            LocalClock::perfect(),
            Box::new(ReplicaNode::new(ReplicaParams::default())),
        );
        let _writer = w.add_node(Region::Oregon, Box::new(Writer { target: replica }));
        let plan = crash_window(SimDuration::from_secs(2), SimDuration::from_secs(3));
        let _faults =
            w.add_node(Region::Virginia, Box::new(FaultDriver::new(&plan, vec![replica])));
        w.run_until(conprobe_sim::SimTime::from_secs(10));
        let node = w.node_as::<ReplicaNode>(replica).unwrap();
        assert!(!node.is_crashed());
        assert_eq!(node.applied(), 0, "no peers to recover from");
    }
}
