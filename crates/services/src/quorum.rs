//! Majority-quorum replica with crash-recovery state transfer — the
//! strong-consistency control arm the measured services lack.
//!
//! Every [`QuorumReplica`] is both a front door and a storage replica:
//!
//! * **writes** apply locally and replicate synchronously
//!   ([`ReplMsg::SyncPush`]); the client is acknowledged only once a
//!   majority of replicas (this one included) holds the post.
//! * **reads** collect snapshots from a majority
//!   ([`ReplMsg::SnapshotReq`]) and present the merged set in canonical
//!   timestamp order, so overlapping quorums guarantee read-your-writes
//!   and no two front doors ever disagree on order. There is no read
//!   repair.
//! * **crash recovery** is an explicit state-transfer protocol: a
//!   recovering replica broadcasts [`ReplMsg::CatchupReq`] and peers
//!   stream their state back as `cpj1` length-prefixed, checksummed
//!   records ([`conprobe_json::frame`] — the campaign journal's format),
//!   each carrying one stored post, plus a *commit watermark* (the
//!   responder's applied-post count).
//!
//! **Read-fencing invariant.** From the instant a replica recovers until
//! it has (a) verified and applied catch-up streams from enough peers
//! that any write quorum is intersected (`⌈n/2⌉` of its peers) and (b)
//! reached a local state at or past the highest watermark heard, it
//! serves **no reads**: client reads are queued behind the fence and
//! answered after catch-up, and the replica ignores peer
//! [`ReplMsg::SnapshotReq`]s so its incomplete state can never count
//! toward someone else's read quorum. Writes keep flowing (a fresh write
//! needs no history), as do inbound [`ReplMsg::SyncPush`]es — they only
//! make the fence lift sooner.
//!
//! **Measured profile** (200 seeds a cell, clean and under the chaos
//! plans): the five session/order checkers — read-your-writes, monotonic
//! writes, monotonic reads, writes-follow-reads, order divergence — never
//! fire. Test 2 shows a brief *content divergence* in ≈ 5–8 % of
//! instances. White-box samples explain it
//! (`quorum_divergence_is_one_majority_read_at_two_instants` in
//! `tests/quorum_replica.rs`): two agents write and read at two doors at
//! once, and each read merges its door's store, taken before that door's
//! write lands, with the other door's snapshot, taken after. Both reads
//! consult the same majority at different instants and each sees only
//! the other agent's write, an order no single history allows. The read
//! has one phase and no write-back, so this arm is not linearizable.
//!
//! The node is [`FaultDriver`](crate::fault_driver::FaultDriver)-aware
//! through the same front-door shell as
//! [`ReplicaNode`](crate::replica_node::ReplicaNode) and
//! [`PbftReplica`](crate::pbft::PbftReplica) (crash, restart, brownout),
//! so `conprobe chaos` drives it unchanged; this is the simulator's one
//! majority-quorum implementation.

use crate::api::{ClientOp, NetMsg, OpResult, ReplMsg};
use crate::shell::{
    metric_prefix, Catchup, FrontDoor, Hosted, Transfers, Transition, TOKEN_CATCHUP_RETRY,
};
use conprobe_core::ReadView;
use conprobe_json::{frame, read_members, FastMap, JsonError, JsonReader, JsonWriter};
use conprobe_obs::{Counter, Gauge};
use conprobe_sim::{Context, LocalTime, Node, NodeId, SimTime};
use conprobe_store::{OrderingPolicy, Post, PostId, ReplicaCore, StoredPost};
use std::collections::HashSet;
use std::sync::Arc;

/// Serializes one stored post as the compact-JSON payload of a catch-up
/// frame. Field order is fixed, so the encoding — and therefore the
/// framed stream and its hash — is byte-deterministic. The ordered-log
/// arm embeds the same payload in its write records.
pub(crate) fn stored_post_to_payload(p: &StoredPost) -> String {
    JsonWriter::object(|w| {
        w.member("author", &p.post.id.author);
        w.member("seq", &p.post.id.seq);
        w.member("content", &*p.post.content);
        w.member("client_ts", &p.post.client_ts.as_nanos());
        w.member("server_ts", &p.server_ts.as_nanos());
        w.member("arrival", &p.arrival_index);
    })
}

/// Parses a catch-up frame payload back into a stored post.
pub(crate) fn stored_post_from_payload(payload: &str) -> Result<StoredPost, JsonError> {
    let r = &mut JsonReader::new(payload);
    read_members!(r => author, seq, content, client_ts, server_ts, arrival);
    r.finish()?;
    Ok(StoredPost {
        post: Post::new(
            PostId::new(author, seq),
            String::into_boxed_str(content),
            LocalTime::from_nanos(client_ts),
        ),
        server_ts: SimTime::from_nanos(server_ts),
        arrival_index: arrival,
    })
}

/// Decodes one catch-up frame: `cpj1` length and checksum, then the
/// stored-post payload.
fn decode_post_frame(line: &str) -> Result<StoredPost, String> {
    let payload = frame::decode_record(line).map_err(|e| e.to_string())?;
    stored_post_from_payload(payload).map_err(|e| e.to_string())
}

/// Canonical presentation order for quorum reads: exact server timestamp,
/// ties by post id — identical at every coordinator, so quorum systems
/// never exhibit order divergence.
///
/// `local` is this replica's snapshot, taken whole; a post of a peer's
/// snapshot joins only under an id not met before.
fn quorum_order(local: &[StoredPost], peers: &[Arc<[StoredPost]>]) -> ReadView<PostId> {
    let mut merged: Vec<&StoredPost> =
        Vec::with_capacity(local.len() + peers.iter().map(|posts| posts.len()).sum::<usize>());
    merged.extend(local);
    if !peers.is_empty() {
        // RandomState: a serve client picks post ids.
        let mut seen = HashSet::with_capacity(merged.capacity());
        seen.extend(local.iter().map(StoredPost::id));
        for posts in peers {
            merged.extend(posts.iter().filter(|p| seen.insert(p.id())));
        }
    }
    let order = OrderingPolicy::exact_timestamp();
    merged.sort_by_key(|p| order.sort_key(p));
    merged.into_iter().map(StoredPost::id).collect()
}

/// A client write waiting for majority acknowledgement.
struct PendingWrite {
    client: NodeId,
    req_id: u64,
    post_id: PostId,
    acks_remaining: usize,
}

/// A client read waiting for a majority of snapshots.
struct PendingRead {
    client: NodeId,
    req_id: u64,
    responses_remaining: usize,
    /// This replica's snapshot when the read arrived, shared.
    local: Arc<[StoredPost]>,
    /// The peers' snapshots answered so far, shared, in arrival order.
    peers: Vec<Arc<[StoredPost]>>,
}

/// This arm's own metrics, next to the [`FrontDoor`]'s common ones.
/// Instrumentation only: no randomness, no messages.
struct QuorumObs {
    fenced: Gauge,
    state_transfers: Counter,
    protocol_anomalies: Counter,
}

/// A majority-quorum replica (see the module docs for the protocol).
pub struct QuorumReplica {
    core: ReplicaCore,
    peers: Vec<NodeId>,
    /// Crash flag, brownout gate, request counters, timer tokens and the
    /// common metrics — the shell shared with the other replica types.
    door: FrontDoor,
    /// The read fence: `Some` while recovering, cleared on completion.
    catchup: Option<Catchup<StoredPost>>,
    /// Client reads queued behind the read fence: `(client, req_id)`.
    fenced_reads: Vec<(NodeId, u64)>,
    pending_writes: FastMap<u64, PendingWrite>,
    pending_reads: FastMap<u64, PendingRead>,
    /// Malformed or replayed peer frames ignored-and-counted instead of
    /// panicking (`services.*.protocol_anomalies`).
    anomalies: u64,
    transfers: Transfers,
    obs: Option<QuorumObs>,
}

impl std::fmt::Debug for QuorumReplica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuorumReplica")
            .field("posts", &self.core.len())
            .field("peers", &self.peers)
            .field("fenced", &self.is_fenced())
            .field("stats", &self.door.stats())
            .finish()
    }
}

impl Default for QuorumReplica {
    fn default() -> Self {
        Self::new()
    }
}

impl QuorumReplica {
    /// Creates a replica with no peers (install them with
    /// [`QuorumReplica::set_peers`] once ids are known).
    pub fn new() -> Self {
        QuorumReplica {
            core: ReplicaCore::new(OrderingPolicy::exact_timestamp()),
            peers: Vec::new(),
            door: FrontDoor::new(1, false),
            catchup: None,
            fenced_reads: Vec::new(),
            pending_writes: FastMap::default(),
            pending_reads: FastMap::default(),
            anomalies: 0,
            transfers: Transfers::default(),
            obs: None,
        }
    }

    /// Installs the peer replica set.
    pub fn set_peers(&mut self, peers: Vec<NodeId>) {
        self.peers = peers;
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

    /// Whether the read fence is up (recovering, not yet caught up).
    pub fn is_fenced(&self) -> bool {
        self.catchup.is_some()
    }

    /// `(writes, reads, throttled)` request counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        self.door.stats()
    }

    /// Malformed or replayed peer frames ignored-and-counted.
    pub fn protocol_anomalies(&self) -> u64 {
        self.anomalies
    }

    /// Counts one inconsistent peer frame instead of panicking on it.
    fn note_anomaly(&mut self) {
        self.anomalies += 1;
        if let Some(obs) = &self.obs {
            obs.protocol_anomalies.inc();
        }
    }

    /// Completed state transfers as `(frames, watermark, stream_hash)`
    /// tuples, in completion order — the byte-determinism witness.
    pub fn state_transfers(&self) -> &[(u64, u64, u64)] {
        &self.transfers.records
    }

    /// Majority size over peers + self (write/read quorum).
    fn majority(&self) -> usize {
        self.peers.len().div_ceil(2) + 1
    }

    /// Catch-up quorum: how many *peers* must stream state before the
    /// fence lifts. A crashed replica restarts empty, so its recovered
    /// state must cover every write quorum that committed without it:
    /// with `n = peers + 1` replicas and writes at `majority(n)`, any
    /// `⌈n/2⌉` peers intersect every write quorum.
    fn catchup_quorum(&self) -> usize {
        (self.peers.len() + 1).div_ceil(2)
    }

    /// This replica's commit watermark: how many posts it has applied.
    fn watermark(&self) -> u64 {
        self.core.len() as u64
    }

    /// Majority write: apply locally, sync-push to every peer, ack the
    /// client once `majority - 1` peers acked. Duplicate deliveries (the
    /// agent RPC layer retransmits lost requests) re-run the whole
    /// protocol so a lost `PushAck` or response can always be recovered.
    fn quorum_write<A>(
        &mut self,
        ctx: &mut Context<'_, NetMsg<A>>,
        client: NodeId,
        req_id: u64,
        post: Post,
    ) {
        let server_ts = ctx.true_now();
        let post_id = post.id;
        let stored = match self.core.apply_new(post, server_ts).cloned() {
            Some(stored) => stored,
            None => {
                // Duplicate: find the original record so the re-push
                // carries identical bytes. A dedupe hit whose record is
                // missing from the store is an inconsistency a peer
                // frame must never turn into a panic: count it and ack
                // the duplicate (the id is committed either way).
                match self.core.snapshot_posts().iter().find(|p| p.id() == post_id).cloned() {
                    Some(stored) => stored,
                    None => {
                        self.note_anomaly();
                        self.door.respond(ctx, client, req_id, OpResult::WriteAck(post_id));
                        return;
                    }
                }
            }
        };
        let acks_remaining = self.majority().saturating_sub(1);
        if acks_remaining == 0 {
            self.door.respond(ctx, client, req_id, OpResult::WriteAck(post_id));
            return;
        }
        let token = self.door.fresh_token(0);
        self.pending_writes.insert(token, PendingWrite { client, req_id, post_id, acks_remaining });
        for &peer in &self.peers {
            ctx.send_ordered(
                peer,
                NetMsg::Repl(ReplMsg::SyncPush { token, posts: vec![stored.clone()] }),
            );
        }
    }

    /// Quorum read: merge this replica's snapshot with `majority - 1`
    /// peer snapshots, answer in canonical timestamp order.
    fn quorum_read<A>(&mut self, ctx: &mut Context<'_, NetMsg<A>>, client: NodeId, req_id: u64) {
        let responses_remaining = self.majority().saturating_sub(1);
        let local = self.core.snapshot_posts();
        if responses_remaining == 0 {
            self.door.respond(ctx, client, req_id, OpResult::ReadOk(quorum_order(&local, &[])));
            return;
        }
        let token = self.door.fresh_token(0);
        let peers = Vec::with_capacity(responses_remaining);
        self.pending_reads
            .insert(token, PendingRead { client, req_id, responses_remaining, local, peers });
        for &peer in &self.peers {
            ctx.send(peer, NetMsg::Repl(ReplMsg::SnapshotReq { token }));
        }
    }

    fn on_snapshot_resp<A>(
        &mut self,
        ctx: &mut Context<'_, NetMsg<A>>,
        token: u64,
        posts: Arc<[StoredPost]>,
    ) {
        let done = {
            let Some(pending) = self.pending_reads.get_mut(&token) else {
                return; // answered with an earlier majority
            };
            pending.peers.push(posts);
            pending.responses_remaining = pending.responses_remaining.saturating_sub(1);
            pending.responses_remaining == 0
        };
        if done {
            let Some(p) = self.pending_reads.remove(&token) else {
                // The entry vanished between the borrow above and here —
                // a replayed token, not a reason to die.
                self.note_anomaly();
                return;
            };
            let view = quorum_order(&p.local, &p.peers);
            self.door.respond(ctx, p.client, p.req_id, OpResult::ReadOk(view));
        }
    }

    /// Asks every peer that has not streamed state yet (all of them when
    /// the round begins), and re-arms the retry timer.
    fn solicit_catchup<A>(&self, ctx: &mut Context<'_, NetMsg<A>>) {
        if let Some(round) = &self.catchup {
            round.solicit(ctx, self.peers.iter().copied(), |token| ReplMsg::CatchupReq { token });
        }
    }

    /// Applies one verified catch-up stream; lifts the fence when the
    /// catch-up quorum has reported and the watermark is reached.
    fn on_catchup_resp<A>(
        &mut self,
        ctx: &mut Context<'_, NetMsg<A>>,
        from: NodeId,
        token: u64,
        watermark: u64,
        frames: Vec<String>,
    ) {
        let Some(round) = self.catchup.as_mut() else { return };
        let Some(Ok(posts)) = round.accept(&self.door, ctx, from, token, watermark, &frames) else {
            return;
        };
        for post in posts {
            self.core.apply_replicated(post);
        }
        let (quorum, local) = (self.catchup_quorum(), self.watermark());
        let Some(round) = self.catchup.take_if(|r| r.caught_up(quorum, local)) else { return };
        let applied = self.core.len();
        self.transfers.push(round.finish(&self.door, ctx, || format!("{applied} post(s)")));
        if let Some(obs) = &self.obs {
            obs.fenced.set(0.0);
            obs.state_transfers.inc();
        }
        // The fence is down: serve every read queued behind it.
        for (client, req_id) in std::mem::take(&mut self.fenced_reads) {
            self.quorum_read(ctx, client, req_id);
        }
    }

    /// Serves one client request (or queues a read behind the fence).
    /// Called on receipt and when a brownout hold expires.
    fn handle_request<A>(
        &mut self,
        ctx: &mut Context<'_, NetMsg<A>>,
        from: NodeId,
        req_id: u64,
        op: ClientOp,
    ) {
        // Reads behind the fence, reads and writes short of a majority.
        let held = self.fenced_reads.len() + self.pending_reads.len() + self.pending_writes.len();
        if self.door.refuse_if_full(ctx, held, from, req_id) {
            return;
        }
        match op {
            ClientOp::Write(post) => {
                self.door.count_write();
                self.quorum_write(ctx, from, req_id, post);
            }
            ClientOp::Read => {
                self.door.count_read();
                if self.is_fenced() {
                    // Read fence: no reads until caught up past the
                    // rejoin watermark. Duplicate queue entries (RPC
                    // retransmits) are collapsed.
                    if !self.fenced_reads.contains(&(from, req_id)) {
                        self.fenced_reads.push((from, req_id));
                    }
                } else {
                    self.quorum_read(ctx, from, req_id);
                }
            }
        }
    }

    /// Follows up a crash or restart the [`FrontDoor`] just recorded.
    fn on_transition<A>(&mut self, ctx: &mut Context<'_, NetMsg<A>>, transition: Transition) {
        match transition {
            Transition::Crashed => {
                // Volatile state is lost wholesale.
                self.core = ReplicaCore::new(OrderingPolicy::exact_timestamp());
                self.catchup = None;
                self.fenced_reads.clear();
                self.pending_writes.clear();
                self.pending_reads.clear();
                if let Some(obs) = &self.obs {
                    obs.fenced.set(0.0);
                }
            }
            // Begin recovery: raise the read fence and ask every peer for
            // a checksummed state stream.
            Transition::Recovered => {
                let token = self.door.fresh_token(0);
                self.catchup = Some(Catchup::new(token, decode_post_frame));
                if let Some(obs) = &self.obs {
                    obs.fenced.set(1.0);
                }
                self.solicit_catchup(ctx);
            }
        }
    }
}

impl Hosted for QuorumReplica {
    fn applied(&self) -> usize {
        self.core.len()
    }

    fn transfers(&self) -> &Transfers {
        &self.transfers
    }
}

impl<A: Send + 'static> Node<NetMsg<A>> for QuorumReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg<A>>) {
        self.door.start(ctx);
        self.obs = ctx.obs().map(|sink| {
            let prefix = metric_prefix(ctx.node_id());
            let m = &sink.metrics;
            QuorumObs {
                fenced: m.gauge(&format!("{prefix}.fenced")),
                state_transfers: m.counter(&format!("{prefix}.state_transfers")),
                protocol_anomalies: m.counter(&format!("{prefix}.protocol_anomalies")),
            }
        });
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
            NetMsg::Repl(repl) => match repl {
                ReplMsg::SyncPush { token, posts } => {
                    // Applied even behind the fence: inbound committed
                    // writes only bring the replica closer to caught-up.
                    for stored in posts {
                        self.core.apply_replicated(stored);
                    }
                    ctx.send_ordered(from, NetMsg::Repl(ReplMsg::PushAck { token }));
                }
                ReplMsg::PushAck { token } => {
                    let done = {
                        let Some(w) = self.pending_writes.get_mut(&token) else { return };
                        w.acks_remaining = w.acks_remaining.saturating_sub(1);
                        w.acks_remaining == 0
                    };
                    if done {
                        let Some(w) = self.pending_writes.remove(&token) else {
                            // Replayed ack for a token already answered.
                            self.note_anomaly();
                            return;
                        };
                        self.door.respond(ctx, w.client, w.req_id, OpResult::WriteAck(w.post_id));
                    }
                }
                ReplMsg::SnapshotReq { token } => {
                    // Read-fencing, peer side: a fenced replica's state
                    // must never count toward a read quorum.
                    if !self.is_fenced() {
                        let posts = self.core.snapshot_posts();
                        ctx.send(from, NetMsg::Repl(ReplMsg::SnapshotResp { token, posts }));
                    }
                }
                ReplMsg::SnapshotResp { token, posts } => {
                    self.on_snapshot_resp(ctx, token, posts);
                }
                ReplMsg::CatchupReq { token } => {
                    // Only a caught-up replica streams state; a fenced
                    // one stays silent and the requester retries.
                    if !self.is_fenced() {
                        let frames = self
                            .core
                            .snapshot_posts()
                            .iter()
                            .map(|p| frame::encode_record(&stored_post_to_payload(p)))
                            .collect();
                        let watermark = self.watermark();
                        ctx.send_ordered(
                            from,
                            NetMsg::Repl(ReplMsg::CatchupResp { token, watermark, frames }),
                        );
                    }
                }
                ReplMsg::CatchupResp { token, watermark, frames } => {
                    self.on_catchup_resp(ctx, from, token, watermark, frames);
                }
                // Anti-entropy is the weak replicas' repair channel and
                // the ordered-log traffic belongs to the pbft arm; the
                // quorum family repairs via state transfer instead.
                ReplMsg::Push(_)
                | ReplMsg::DigestReq(_)
                | ReplMsg::DigestResp(_)
                | ReplMsg::Pbft(_) => {}
            },
            // Responses and harness traffic are not addressed to a
            // storage replica.
            NetMsg::Response { .. } | NetMsg::App(_) | NetMsg::Control(_) => {}
        }
        self.door.set_applied(self.core.len());
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, NetMsg<A>>, token: u64) {
        if self.door.is_crashed() {
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
    use conprobe_sim::{LocalClock, World, WorldConfig};
    use conprobe_store::AuthorId;

    fn build_cluster(world: &mut World<Msg>, n: usize) -> Vec<NodeId> {
        let regions = [Region::Oregon, Region::Tokyo, Region::Ireland];
        let ids: Vec<NodeId> = (0..n)
            .map(|i| {
                world.add_node_with_clock(
                    regions[i % regions.len()],
                    LocalClock::perfect(),
                    Box::new(QuorumReplica::new()),
                )
            })
            .collect();
        for &id in &ids {
            let peers: Vec<NodeId> = ids.iter().copied().filter(|p| *p != id).collect();
            world.node_as_mut::<QuorumReplica>(id).unwrap().set_peers(peers);
        }
        ids
    }

    #[test]
    fn write_commits_through_majority_and_read_sees_it() {
        let mut world: World<Msg> = World::new(WorldConfig::default(), 11);
        let replicas = build_cluster(&mut world, 3);
        let client = world.add_node(
            Region::Virginia,
            Box::new(Script::new(vec![
                (at(10), replicas[0], req(0, ClientOp::Write(post(1, 1)))),
                (at(800), replicas[1], req(1, ClientOp::Read)),
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
    }

    #[test]
    fn duplicate_write_is_idempotent_and_reacked() {
        let mut world: World<Msg> = World::new(WorldConfig::default(), 12);
        let replicas = build_cluster(&mut world, 3);
        let client = world.add_node(
            Region::Virginia,
            Box::new(Script::new(vec![
                (at(10), replicas[0], req(0, ClientOp::Write(post(1, 1)))),
                // A retransmit of the same write (same post id, new
                // req_id) must be re-acknowledged, not applied twice.
                (at(300), replicas[0], req(1, ClientOp::Write(post(1, 1)))),
                (at(900), replicas[2], req(2, ClientOp::Read)),
            ])),
        );
        run(&mut world, at(2_000));
        let script = world.node_as::<Script>(client).unwrap();
        assert_eq!(script.responses.len(), 3, "both write deliveries are acknowledged");
        assert_eq!(world.node_as::<QuorumReplica>(replicas[0]).unwrap().applied(), 1);
        match &script.responses[2].1 {
            OpResult::ReadOk(ids) => assert_eq!(ids, &[PostId::new(AuthorId(1), 1)]),
            other => panic!("expected ReadOk, got {other:?}"),
        }
    }

    #[test]
    fn crash_wipes_state_and_recovery_transfers_it_back() {
        let mut world: World<Msg> = World::new(WorldConfig::default(), 13);
        let replicas = build_cluster(&mut world, 3);
        let faulty = replicas[2];
        world.add_node(
            Region::Virginia,
            Box::new(Script::new(vec![
                (at(10), replicas[0], req(0, ClientOp::Write(post(1, 1)))),
                (at(20), replicas[1], req(1, ClientOp::Write(post(2, 1)))),
                (at(900), faulty, NetMsg::Control(ControlMsg::Crash)),
                (at(1_500), faulty, NetMsg::Control(ControlMsg::Recover)),
            ])),
        );
        run(&mut world, at(1_200));
        // Crashed: state gone.
        assert!(world.node_as::<QuorumReplica>(faulty).unwrap().is_crashed());
        assert_eq!(world.node_as::<QuorumReplica>(faulty).unwrap().applied(), 0);

        // Recover: explicit catch-up stream restores both posts.
        run(&mut world, at(4_000));
        let rep = world.node_as::<QuorumReplica>(faulty).unwrap();
        assert!(!rep.is_crashed());
        assert!(!rep.is_fenced(), "catch-up must complete");
        assert_eq!(rep.applied(), 2, "state transfer restores the full set");
        assert_eq!(rep.state_transfers().len(), 1);
        let (frames, watermark, _) = rep.state_transfers()[0];
        assert_eq!(watermark, 2);
        assert!(frames >= 2, "both peers stream both posts");
    }

    #[test]
    fn state_transfer_stream_hash_is_deterministic() {
        let run_once = || {
            let mut world: World<Msg> = World::new(WorldConfig::default(), 21);
            let replicas = build_cluster(&mut world, 3);
            world.add_node(
                Region::Virginia,
                Box::new(Script::new(vec![
                    (at(10), replicas[0], req(0, ClientOp::Write(post(1, 1)))),
                    (at(20), replicas[1], req(1, ClientOp::Write(post(2, 1)))),
                    (at(900), replicas[2], NetMsg::Control(ControlMsg::Crash)),
                    (at(1_500), replicas[2], NetMsg::Control(ControlMsg::Recover)),
                ])),
            );
            run(&mut world, at(4_000));
            world.node_as::<QuorumReplica>(replicas[2]).unwrap().state_transfers().to_vec()
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.len(), 1, "exactly one completed transfer");
        assert_eq!(a, b, "same seed, same catch-up stream bytes");
    }

    #[test]
    fn fenced_replica_queues_reads_until_caught_up() {
        let mut world: World<Msg> = World::new(WorldConfig::default(), 14);
        let replicas = build_cluster(&mut world, 3);
        let faulty = replicas[2];
        let client = world.add_node(
            Region::Virginia,
            Box::new(Script::new(vec![
                (at(10), replicas[0], req(0, ClientOp::Write(post(1, 1)))),
                (at(20), replicas[0], req(1, ClientOp::Write(post(1, 2)))),
                (at(900), faulty, NetMsg::Control(ControlMsg::Crash)),
                (at(1_000), faulty, NetMsg::Control(ControlMsg::Recover)),
                // Sent right as `faulty` recovers (fenced — catch-up
                // needs at least one WAN round trip): the response must
                // carry the *complete* post set, never the empty
                // post-crash state. The unordered network can deliver a
                // copy before the recover signal (dropped by the crashed
                // process), so the client retransmits like the agent RPC
                // layer does; the fence queue collapses duplicates.
                (at(1_001), faulty, req(4, ClientOp::Read)),
                (at(1_051), faulty, req(4, ClientOp::Read)),
                (at(1_101), faulty, req(4, ClientOp::Read)),
            ])),
        );
        run(&mut world, at(5_000));
        let script = world.node_as::<Script>(client).unwrap();
        let reads: Vec<_> = script.responses.iter().filter(|(id, _)| *id == 4).collect();
        assert!(!reads.is_empty(), "the read must be answered");
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
        assert_eq!(world.node_as::<QuorumReplica>(faulty).unwrap().state_transfers().len(), 1);
    }

    #[test]
    fn fenced_replica_does_not_serve_peer_read_quorums() {
        let mut world: World<Msg> = World::new(WorldConfig::default(), 15);
        let replicas = build_cluster(&mut world, 3);
        // Crash replica 2, recover it with both peers also crashed —
        // the fence can never lift, and a SnapshotReq against the
        // fenced replica must go unanswered.
        world.add_node(
            Region::Virginia,
            Box::new(Script::new(vec![
                (at(10), replicas[2], NetMsg::Control(ControlMsg::Crash)),
                (at(20), replicas[0], NetMsg::Control(ControlMsg::Crash)),
                (at(30), replicas[1], NetMsg::Control(ControlMsg::Crash)),
                (at(40), replicas[2], NetMsg::Control(ControlMsg::Recover)),
                (at(1_000), replicas[2], NetMsg::Repl(ReplMsg::SnapshotReq { token: 9 })),
            ])),
        );
        run(&mut world, at(3_000));
        let rep = world.node_as::<QuorumReplica>(replicas[2]).unwrap();
        assert!(rep.is_fenced(), "no live peer can stream state; the fence stays up");
    }

    #[test]
    fn corrupt_catchup_frame_is_refused() {
        let good = frame::encode_record(&stored_post_to_payload(&StoredPost {
            post: post(1, 1),
            server_ts: SimTime::from_nanos(5),
            arrival_index: 0,
        }));
        let corrupt = good.replace("post", "pXst"); // checksum now wrong
        let mut world: World<Msg> = World::new(WorldConfig::default(), 16);
        let replicas = build_cluster(&mut world, 3);
        // Crash every replica, recover replica 2 with no live peer, then
        // forge a corrupt catch-up response. The round token is
        // deterministic: the replica issued no tokens before recovery,
        // so `begin_catchup` draws token 1.
        world.add_node(
            Region::Virginia,
            Box::new(Script::new(vec![
                (at(10), replicas[0], NetMsg::Control(ControlMsg::Crash)),
                (at(10), replicas[1], NetMsg::Control(ControlMsg::Crash)),
                (at(10), replicas[2], NetMsg::Control(ControlMsg::Crash)),
                (at(20), replicas[2], NetMsg::Control(ControlMsg::Recover)),
                (
                    at(200),
                    replicas[2],
                    NetMsg::Repl(ReplMsg::CatchupResp {
                        token: 1,
                        watermark: 1,
                        frames: vec![corrupt],
                    }),
                ),
            ])),
        );
        run(&mut world, at(2_000));
        let rep = world.node_as::<QuorumReplica>(replicas[2]).unwrap();
        assert_eq!(rep.applied(), 0, "a corrupt stream must not be applied");
        assert!(rep.is_fenced(), "a refused stream does not count toward the catch-up quorum");
    }

    #[test]
    fn single_byte_mutations_of_a_catchup_stream_are_refused_whole() {
        let frames: Vec<String> = (1..=3u32)
            .map(|seq| {
                let (server_ts, arrival_index) = (SimTime::from_nanos(5), u64::from(seq));
                let stored = StoredPost { post: post(1, seq), server_ts, arrival_index };
                frame::encode_record(&stored_post_to_payload(&stored))
            })
            .collect();
        crate::shell::tests::damaged_streams_are_refused_whole(decode_post_frame, &frames);
    }

    /// Value mode on a catch-up stream: an admitted stream merges into
    /// quorum read order — server time, then post id — for every id,
    /// the ones at and past 2^63 included.
    #[test]
    fn hostile_values_in_a_catchup_stream_are_refused_whole_or_admitted() {
        let frames: Vec<String> = (1..=3u32)
            .map(|seq| {
                let (server_ts, arrival_index) = (SimTime::from_nanos(5), u64::from(seq));
                let stored = StoredPost { post: post(1, seq), server_ts, arrival_index };
                frame::encode_record(&stored_post_to_payload(&stored))
            })
            .collect();
        let mut round = Catchup::new(1, decode_post_frame);
        let verdicts =
            crate::shell::tests::hostile_values_are_refused_whole_or_admitted(&mut round, &frames);
        for (_, verdict) in verdicts {
            let Ok(posts) = verdict else { continue };
            let mut keys: Vec<(SimTime, u64)> =
                posts.iter().map(|p| (p.server_ts, p.post.id.as_u64())).collect();
            keys.sort_unstable();
            let order: Vec<u64> = quorum_order(&posts, &[]).iter().map(|id| id.as_u64()).collect();
            assert_eq!(order, keys.iter().map(|key| key.1).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn stored_post_payload_round_trips() {
        let original = StoredPost {
            post: Post::new(
                PostId::new(AuthorId(7), 3),
                "body with spaces and \"quotes\"",
                LocalTime::from_nanos(-42),
            ),
            server_ts: SimTime::from_nanos(123_456_789),
            arrival_index: 9,
        };
        let payload = stored_post_to_payload(&original);
        let decoded = stored_post_from_payload(&payload).unwrap();
        assert_eq!(decoded, original);
        // And the framed record decodes through the journal's codec.
        let line = frame::encode_record(&payload);
        assert_eq!(frame::decode_record(&line).unwrap(), payload);
    }
}
