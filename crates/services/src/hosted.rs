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
//! majority, a read-fenced door) leaves the port empty: that *is* the
//! answer, "unavailable", and a reply that turns up later is dropped.
//!
//! The arms are single-object and the live plane is keyed, so a shard
//! hosts one [`Group`] per key. Nothing here knows a protocol;
//! [`Group::replica`] names a replica type only to read its counters.

use crate::api::{ClientOp, ControlMsg, NetMsg, OpResult};
use crate::catalog::{deploy, ServiceCluster, ServiceKind};
use crate::live::RejoinReport;
use crate::quorum::QuorumReplica;
use conprobe_json::frame;
use conprobe_sim::net::{LatencyMatrix, NetworkConfig, Region};
use conprobe_sim::{Context, LocalClock, Node, NodeId, SimDuration, SimTime, World, WorldConfig};
use std::collections::BTreeMap;

type Msg = NetMsg<()>;

/// A world in which every message arrives the instant it is sent.
pub(crate) fn instant_net() -> WorldConfig {
    WorldConfig { net: NetworkConfig::new(LatencyMatrix::instant()), ..WorldConfig::default() }
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

    /// Replica `idx`, for its counters. Hosting the ordered-log arm
    /// (ROADMAP item 1, stage 2) widens this and nothing else.
    fn replica(&self, idx: usize) -> &QuorumReplica {
        self.world.node_as(self.cluster.replicas[idx]).expect("deploy built this arm's replicas")
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
    /// retries); a `now` behind a group's clock is a no-op.
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
            let before = group.replica(idx).state_transfers().len();
            group.control(idx, ControlMsg::Recover);
            let replica = group.replica(idx);
            report.applied += replica.applied() as u64;
            if let Some(&(frames, watermark, hash)) = replica.state_transfers().get(before) {
                report.frames += frames;
                report.watermark += watermark;
                report.peers = report.peers.max(replica.transfer_donors() as u64);
                report.stream_hash = frame::fnv64_fold(report.stream_hash, &hash.to_le_bytes());
            }
        }
    }

    /// Posts held by replica `idx`, summed over this shard's groups.
    pub(crate) fn replica_len(&self, idx: usize) -> usize {
        self.groups.values().map(|group| group.replica(idx).applied()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{at, post, req, run, Script};

    /// One scripted history through both drivers of the one node set: a
    /// plain `World` with a scripted client on virtual time, and a hosted
    /// group pumped at the same instants. Same replies, same replica
    /// state, same state-transfer bytes.
    #[test]
    fn the_sim_and_the_hosted_driver_agree_on_a_scripted_history() {
        use ClientOp::{Read, Write};
        use Region::{Ireland, Oregon, Tokyo};
        enum Step {
            Op(Region, ClientOp),
            Control(usize, ControlMsg),
        }
        let history = [
            Step::Op(Oregon, Write(post(0, 1))),
            Step::Op(Tokyo, Write(post(1, 1))),
            Step::Op(Ireland, Write(post(2, 1))),
            Step::Op(Tokyo, Read),
            Step::Op(Oregon, Read),
            Step::Control(1, ControlMsg::Crash),
            Step::Op(Oregon, Write(post(0, 2))),
            Step::Op(Ireland, Write(post(2, 2))),
            Step::Op(Ireland, Read),
            Step::Control(1, ControlMsg::Recover),
            Step::Op(Tokyo, Read),
            Step::Op(Tokyo, Write(post(1, 2))),
            Step::Op(Oregon, Read),
        ];
        let instant = |step: usize| at(10 * (step as u64 + 1));

        let mut world: World<Msg> = World::new(instant_net(), 5);
        let cluster = deploy(&mut world, ServiceKind::Quorum);
        let schedule = history
            .iter()
            .enumerate()
            .map(|(i, step)| match step {
                Step::Op(region, op) => {
                    (instant(i), cluster.entry_for(*region), req(i, op.clone()))
                }
                Step::Control(idx, msg) => {
                    (instant(i), cluster.replicas[*idx], NetMsg::Control(*msg))
                }
            })
            .collect();
        let client = world.add_node(Region::Virginia, Box::new(Script::new(schedule)));
        run(&mut world, at(10_000));
        let sim_replies: Vec<OpResult> = world
            .node_as::<Script>(client)
            .expect("the scripted client")
            .responses
            .iter()
            .map(|(_, result)| result.clone())
            .collect();

        let mut group = Group::new(ServiceKind::Quorum, 5);
        let mut hosted_replies = Vec::new();
        for (i, step) in history.iter().enumerate() {
            match step {
                Step::Op(region, op) => hosted_replies.push(
                    group
                        .request(*region, op.clone(), instant(i).as_nanos())
                        .expect("a majority is up throughout"),
                ),
                Step::Control(idx, msg) => group.control(*idx, *msg),
            }
        }

        assert_eq!(sim_replies.len(), 11, "every operation of the history is answered");
        assert_eq!(sim_replies, hosted_replies);
        for idx in 0..3 {
            let sim = world.node_as::<QuorumReplica>(cluster.replicas[idx]).expect("a replica");
            let hosted = group.replica(idx);
            assert_eq!(sim.applied(), hosted.applied(), "replica {idx}");
            assert_eq!(sim.state_transfers(), hosted.state_transfers(), "replica {idx}");
        }
        assert_eq!(group.replica(1).state_transfers().len(), 1, "one transfer, hash and all");
        assert_eq!(group.replica(1).transfer_donors(), 2);
    }
}
