//! The wall-clock driver for the message-passing arms: the sim's own
//! replica nodes, as [`deploy`] builds them, in a [`World`] fed real time.
//!
//! A `World` is an I/O-free mailbox, timer heap and node table that
//! believes whatever time it is told, so hosting an arm live needs no
//! second event queue: links are instant and lossless ([`instant_net`])
//! and one [`Port`] node stands where the sim's agents stand. Serving an
//! operation is one *pump* — run what is due, post the request, run again
//! — and with no link delay the whole exchange it starts completes inside
//! it. An operation the group cannot answer at that instant (no reachable
//! quorum, a fenced door, a dead leader) leaves the port empty: that *is*
//! the answer, "unavailable", and a reply that turns up later is dropped.
//! The group keeps working on it all the same — a stalled operation is what
//! an ordered-log door's suspicion timer runs on — and the caller's retry,
//! a new request, finds the write de-duplicated on its `PostId`.
//!
//! The arms are single-object and the live plane is keyed, so a shard
//! hosts one [`Group`] per key: each its own consensus instance, with its
//! own log and its own view. Nothing here knows a protocol;
//! [`replica`] names the replica types, to read their counters.

use crate::api::{ClientOp, ControlMsg, NetMsg, OpResult};
use crate::catalog::{deploy, ServiceCluster, ServiceKind};
use crate::live::RejoinReport;
use crate::pbft::PbftReplica;
use crate::quorum::QuorumReplica;
use crate::shell::Hosted;
use conprobe_json::frame;
use conprobe_sim::net::{LatencyMatrix, Region};
use conprobe_sim::{Context, LocalClock, Node, NodeId, SimDuration, SimTime, World, WorldConfig};
use std::collections::BTreeMap;

type Msg = NetMsg<()>;

/// A world in which every message arrives the instant it is sent.
pub(crate) fn instant_net() -> WorldConfig {
    WorldConfig { matrix: LatencyMatrix::instant(), ..WorldConfig::default() }
}

/// Node `id` of a hosted arm, for its counters: the one place a replica
/// type is named.
fn replica(world: &World<Msg>, id: NodeId) -> &dyn Hosted {
    let quorum = world.node_as::<QuorumReplica>(id).map(|r| r as &dyn Hosted);
    quorum
        .or_else(|| world.node_as::<PbftReplica>(id).map(|r| r as &dyn Hosted))
        .expect("deploy built a hosted arm's replicas")
}

/// The driver's seat in the world: requests leave from it, and it keeps
/// the reply to the one it awaits (any other is late: see above).
#[derive(Default)]
struct Port {
    awaiting: u64,
    reply: Option<OpResult>,
}

impl Node<Msg> for Port {
    fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, msg: Msg) {
        if let NetMsg::Response { req_id, result } = msg {
            if req_id == self.awaiting {
                self.reply = Some(result);
            }
        }
    }

    fn on_timer(&mut self, _: &mut Context<'_, Msg>, _: u64) {}
}

/// One key's replica group: the arm as `deploy` builds it, plus the port.
pub(crate) struct Group {
    world: World<Msg>,
    cluster: ServiceCluster,
    port: NodeId,
    requests: u64,
}

impl Group {
    fn new(kind: ServiceKind, seed: u64) -> Self {
        let mut world = World::new(instant_net(), seed);
        let cluster = deploy(&mut world, kind);
        let port = Box::new(Port::default());
        let port = world.add_node_with_clock(Region::Virginia, LocalClock::perfect(), port);
        Group { world, cluster, port, requests: 0 }
    }

    /// One pump, at one instant. Callers race, so `now` is clamped to the
    /// group's own clock — and to strictly later than any instant it has
    /// seen: a FIFO link delivers the second message sent at one instant a
    /// nanosecond late, which would strand an exchange past its pump.
    fn pump(&mut self, dst: NodeId, msg: Msg, now: u64) {
        let at = SimTime::from_nanos(now).max(self.world.now() + SimDuration::from_nanos(1));
        self.world.run_until(at);
        self.world.post(self.port, dst, msg);
        self.world.run_until(at);
    }

    fn port(&mut self) -> &mut Port {
        self.world.node_as_mut(self.port).expect("the port is this group's own node")
    }

    /// Serves `op` through `door`'s replica; `None` is "unavailable".
    pub(crate) fn request(&mut self, door: Region, op: ClientOp, now: u64) -> Option<OpResult> {
        self.requests += 1;
        let req_id = self.requests;
        *self.port() = Port { awaiting: req_id, reply: None };
        self.pump(self.cluster.entry_for(door), NetMsg::Request { req_id, op }, now);
        self.port().reply.take()
    }

    fn control(&mut self, idx: usize, msg: ControlMsg) {
        self.pump(self.cluster.replicas[idx], NetMsg::Control(msg), 0);
    }

    fn replica(&self, idx: usize) -> &dyn Hosted {
        replica(&self.world, self.cluster.replicas[idx])
    }
}

/// The groups of one keyspace shard, behind that shard's one lock.
pub(crate) struct HostedShard {
    kind: ServiceKind,
    seed: u64,
    /// By key, so that a sweep — and a rejoin's stream hash — is ordered.
    groups: BTreeMap<u32, Group>,
}

impl HostedShard {
    pub(crate) fn new(kind: ServiceKind, seed: u64) -> Self {
        HostedShard { kind, seed, groups: BTreeMap::new() }
    }

    /// `key`'s group, created on first touch with the replicas in `down`
    /// crashed: a group born during an outage is born into it.
    pub(crate) fn open(&mut self, key: u32, down: impl Iterator<Item = usize>) -> &mut Group {
        self.groups.entry(key).or_insert_with(|| {
            let mut group = Group::new(self.kind, self.seed);
            down.for_each(|idx| group.control(idx, ControlMsg::Crash));
            group
        })
    }

    /// Fires every group's due timers (a fenced replica's catch-up
    /// retries, the ordered log's pulses: re-forwarding, suspicion, view
    /// changes); a `now` behind a group's clock is a no-op.
    pub(crate) fn tick(&mut self, now: u64) {
        let now = SimTime::from_nanos(now);
        self.groups.values_mut().for_each(|group| group.world.run_until(now));
    }

    pub(crate) fn crash(&mut self, idx: usize) {
        self.groups.values_mut().for_each(|group| group.control(idx, ControlMsg::Crash));
    }

    /// Restarts replica `idx` of every group and adds each completed
    /// transfer to `report`. A replica that cannot hear a catch-up quorum
    /// adds none and stays read-fenced.
    pub(crate) fn recover(&mut self, idx: usize, report: &mut RejoinReport) {
        for group in self.groups.values_mut() {
            let before = group.replica(idx).transfers().records.len();
            group.control(idx, ControlMsg::Recover);
            let replica = group.replica(idx);
            report.applied += replica.applied() as u64;
            let transfers = replica.transfers();
            if let Some(&(frames, watermark, hash)) = transfers.records.get(before) {
                report.frames += frames;
                report.watermark += watermark;
                report.peers = report.peers.max(transfers.donors as u64);
                report.stream_hash = frame::fnv64_fold(report.stream_hash, &hash.to_le_bytes());
            }
        }
    }

    /// Posts held by replica `idx`, summed over this shard's groups.
    pub(crate) fn replica_len(&self, idx: usize) -> usize {
        self.groups.values().map(|group| group.replica(idx).applied()).sum()
    }

    /// The highest view installed at a running replica of `key`'s group,
    /// as `(view, leader, views entered)`; `None` on an arm without views.
    pub(crate) fn view_status(&self, key: u32) -> Option<(u64, usize, u64)> {
        let group = self.groups.get(&key)?;
        (0..group.cluster.replicas.len()).filter_map(|idx| group.replica(idx).view_status()).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shell::MAX_WAITING_OPS;
    use crate::testkit::{at, post, req, Script};
    use ClientOp::{Read, Write};
    use Region::{Ireland, Oregon, Tokyo};

    enum Step {
        Op(Region, ClientOp),
        Control(usize, ControlMsg),
    }
    use Step::{Control, Op};

    /// One history (`(ms, step)`, instants ascending) through both drivers
    /// of the one node set: a plain `World` with a scripted client on
    /// virtual time, and a hosted group pumped at the same instants.
    /// Every reply the hosted group gives is the sim's reply to that
    /// request; the sim answers what hosted refused, but late — at or
    /// after `late_from_ms`; and the replicas end in the same state, down
    /// to the state-transfer bytes. Returns the hosted group and how many
    /// operations it refused.
    fn agree(kind: ServiceKind, history: &[(u64, Step)], late_from_ms: u64) -> (Group, usize) {
        let mut world: World<Msg> = World::new(instant_net(), 5);
        let cluster = deploy(&mut world, kind);
        let schedule = history
            .iter()
            .enumerate()
            .map(|(i, (ms, step))| match step {
                Op(region, op) => (at(*ms), cluster.entry_for(*region), req(i, op.clone())),
                Control(idx, msg) => (at(*ms), cluster.replicas[*idx], NetMsg::Control(*msg)),
            })
            .collect();
        let client = world.add_node(Region::Virginia, Box::new(Script::new(schedule)));
        // Replies come in arrival order, which for a late one is not the
        // order asked in; running a millisecond at a time dates them.
        let mut answered_at = BTreeMap::new();
        let mut sim_replies = BTreeMap::new();
        for ms in 1..=10_000 {
            world.run_until(SimTime::ZERO + at(ms));
            let script = world.node_as::<Script>(client).expect("the scripted client");
            for (req_id, result) in &script.responses[sim_replies.len()..] {
                answered_at.insert(*req_id, ms);
                sim_replies.insert(*req_id, result.clone());
            }
        }

        let mut group = Group::new(kind, 5);
        let mut refused = 0;
        for (i, (ms, step)) in history.iter().enumerate() {
            match step {
                Op(region, op) => match group.request(*region, op.clone(), at(*ms).as_nanos()) {
                    Some(reply) => {
                        assert_eq!(Some(&reply), sim_replies.get(&(i as u64)), "step {i}");
                        assert_eq!(answered_at[&(i as u64)], *ms, "step {i}: answered at once");
                    }
                    None => {
                        refused += 1;
                        assert!(answered_at[&(i as u64)] >= late_from_ms, "step {i}: sim was late");
                    }
                },
                Control(idx, msg) => group.control(*idx, *msg),
            }
        }
        group.world.run_until(SimTime::ZERO + at(10_000));

        let ops = history.iter().filter(|(_, step)| matches!(step, Op(..))).count();
        assert_eq!(sim_replies.len(), ops, "the sim answers every operation, sooner or later");
        for idx in 0..cluster.replicas.len() {
            let (sim, hosted) = (replica(&world, cluster.replicas[idx]), group.replica(idx));
            assert_eq!(sim.applied(), hosted.applied(), "replica {idx}");
            assert_eq!(sim.view_status(), hosted.view_status(), "replica {idx}");
            assert_eq!(sim.transfers().records, hosted.transfers().records, "replica {idx}");
        }
        (group, refused)
    }

    #[test]
    fn the_sim_and_the_hosted_driver_agree_on_a_scripted_history() {
        let crash = |idx| Control(idx, ControlMsg::Crash);
        let recover = |idx| Control(idx, ControlMsg::Recover);
        let quorum = [
            (10, Op(Oregon, Write(post(0, 1)))),
            (20, Op(Tokyo, Write(post(1, 1)))),
            (30, Op(Ireland, Write(post(2, 1)))),
            (40, Op(Tokyo, Read)),
            (50, Op(Oregon, Read)),
            (60, crash(1)),
            (70, Op(Oregon, Write(post(0, 2)))),
            (80, Op(Ireland, Write(post(2, 2)))),
            (90, Op(Ireland, Read)),
            (100, recover(1)),
            (110, Op(Tokyo, Read)),
            (120, Op(Tokyo, Write(post(1, 2)))),
            (130, Op(Oregon, Read)),
        ];
        let (group, refused) = agree(ServiceKind::Quorum, &quorum, u64::MAX);
        assert_eq!(refused, 0, "a majority is up throughout");
        assert_eq!(group.replica(1).transfers().records.len(), 1, "one transfer, hash and all");
        assert_eq!(group.replica(1).transfers().donors, 2);

        // The ordered log: a non-leader's crash and rejoin, then the leader
        // (n1, Tokyo's door) down for 2.5 s with retries at two doors, which
        // is what it takes to replace it; then its rejoin into view 2.
        let pbft = [
            (10, Op(Oregon, Write(post(0, 1)))),
            (20, Op(Tokyo, Write(post(1, 1)))),
            (30, Op(Ireland, Read)),
            (40, crash(3)),
            (50, Op(Ireland, Write(post(2, 1)))),
            (60, recover(3)),
            (70, Op(Oregon, Read)),
            (1_000, crash(1)),
            (1_010, Op(Oregon, Write(post(0, 2)))),
            (1_020, Op(Ireland, Read)),
            (1_600, Op(Oregon, Write(post(0, 2)))),
            (1_610, Op(Ireland, Read)),
            (3_400, Op(Oregon, Write(post(0, 2)))),
            (3_410, Op(Ireland, Read)),
            (3_500, recover(1)),
            (3_600, Op(Tokyo, Write(post(1, 2)))),
            (3_700, Op(Oregon, Read)),
            (3_800, Op(Tokyo, Read)),
        ];
        let (group, refused) = agree(ServiceKind::Pbft, &pbft, 2_210);
        assert_eq!(refused, 4, "the operations of the first 1.2 s of the outage, no others");
        for idx in 0..4 {
            assert_eq!(group.replica(idx).view_status(), Some((2, 2, 1)), "replica {idx}");
            assert_eq!(group.replica(idx).applied(), 5, "replica {idx}");
        }
        assert_eq!(group.replica(3).transfers().records.len(), 1);
        assert_eq!(group.replica(1).transfers().records.len(), 1);
        assert!(group.replica(1).transfers().donors >= 2);
    }

    /// A door that cannot answer is retried with a fresh request each
    /// time; what it holds waiting stays bounded, and past the bound it
    /// says "throttled" (which the live plane reports as unavailable).
    #[test]
    fn a_door_that_cannot_answer_holds_a_bounded_number_of_operations() {
        // Quorum: replicas 1 and 2 crash with amnesia, replica 1 returns
        // and stays read-fenced for good.
        let mut group = Group::new(ServiceKind::Quorum, 5);
        group.control(1, ControlMsg::Crash);
        group.control(2, ControlMsg::Crash);
        group.control(1, ControlMsg::Recover);
        // Ordered log: two of four down, no certificate quorum.
        let mut log = Group::new(ServiceKind::Pbft, 5);
        log.control(1, ControlMsg::Crash);
        log.control(3, ControlMsg::Crash);
        for i in 0..10_000u64 {
            let full = (i >= MAX_WAITING_OPS as u64).then_some(OpResult::Throttled);
            assert_eq!(group.request(Tokyo, Read, i * 1_000), full);
            assert_eq!(log.request(Oregon, Read, i * 1_000), full);
            assert_eq!(log.request(Ireland, Write(post(2, 1)), i * 1_000), full);
        }
        // What was not refused is what waits: the bound, at each door.
        let refused = 10_000 - MAX_WAITING_OPS as u64;
        let fenced: &QuorumReplica = group.world.node_as(group.cluster.replicas[1]).unwrap();
        assert_eq!(fenced.stats(), (0, MAX_WAITING_OPS as u64, refused));
        for idx in [0, 2] {
            let door: &PbftReplica = log.world.node_as(log.cluster.replicas[idx]).unwrap();
            assert_eq!(door.stats().2, refused, "door {idx}");
            assert_eq!(door.applied(), 0, "nothing commits, so nothing was acked");
        }
    }
}
