//! # conprobe-services — simulated stand-ins for the paper's four services
//!
//! The measurement study probed **Google+** (moments), **Blogger**,
//! **Facebook Feed** and **Facebook Group** through their public web APIs.
//! Those APIs no longer exist (Google+ retired moments and Facebook removed
//! news-feed reads from the Graph API — as the paper itself notes), so this
//! crate builds behavioural models of the four back-ends on top of
//! `conprobe-sim` + `conprobe-store`, exposing the same black-box surface
//! the paper's agents saw: opaque `write(content)` / `read() → sequence`
//! requests over the (simulated) network.
//!
//! Each model is a configuration of one generic [`replica_node::ReplicaNode`]:
//!
//! | Service | Model (mechanism → paper finding) |
//! |---|---|
//! | **Blogger** | Single synchronous replica, reads hit it directly → zero anomalies ("appears to be offering a form of strong consistency"). |
//! | **Google+** | Two multi-master replicas (Oregon+Tokyo share one, per the paper's inference), asynchronous apply + slow inter-DC propagation, arrival-order reads through per-DC front-end caches, periodic anti-entropy with canonical re-sequencing → RYW/MR/MW at moderate rates, content divergence up to ~85 %, multi-second windows, OR–JP pair converging much faster. |
//! | **Facebook Feed** | One replica per agent region, fast propagation, **interest-ranked** reads (noise + top-K + omissions + index lag) → RYW ≈ 99 %, MW ≈ 89 %, MR ≈ 46 %, order divergence ≈ 100 % with most tests never converging. |
//! | **Facebook Group** | Main replica + Tokyo replica, synchronous local apply, fast replication, **1-second timestamp ordering with reversed tie-break** → MW ≈ 93 % observed identically by everyone, RYW = 0, divergence only under (injected) transient Tokyo partitions. |
//!
//! See [`catalog`] for the tuned parameter presets and [`catalog::deploy`]
//! for wiring a service into a [`conprobe_sim::World`].

//! ## Example: deploying a service into a world
//!
//! ```
//! use conprobe_services::{deploy, NetMsg, ServiceKind};
//! use conprobe_sim::net::Region;
//! use conprobe_sim::{World, WorldConfig};
//!
//! let mut world: World<NetMsg<()>> = World::new(WorldConfig::default(), 1);
//! let cluster = deploy(&mut world, ServiceKind::GooglePlus);
//! // Oregon and Tokyo share a front door (the paper's inference);
//! // Ireland gets the other datacenter.
//! assert_eq!(cluster.entry_for(Region::Oregon), cluster.entry_for(Region::Tokyo));
//! assert_ne!(cluster.entry_for(Region::Oregon), cluster.entry_for(Region::Ireland));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod catalog;
pub mod fault_driver;
mod hosted;
pub mod live;
pub mod pbft;
pub mod quorum;
pub mod replica_node;
pub mod shard;
mod shell;

pub use api::{ClientOp, ControlMsg, NetMsg, OpResult, ReplMsg};
pub use catalog::{deploy, ServiceCluster, ServiceKind};
pub use fault_driver::{ExecutedAction, FaultDriver};
pub use live::{LiveCluster, LiveConfig, LiveReply, StaleWindow};
pub use pbft::{PbftMsg, PbftReplica};
pub use quorum::QuorumReplica;
pub use replica_node::{DelayDist, ReadPath, ReplicaNode, ReplicaParams};
pub use shard::ShardRing;

/// The scripted sim driver and small constructors the replica unit tests
/// share.
#[cfg(test)]
pub(crate) mod testkit {
    use crate::api::{ClientOp, NetMsg, OpResult};
    use conprobe_sim::{Context, LocalTime, Node, NodeId, SimDuration, SimTime, World};
    use conprobe_store::{AuthorId, Post, PostId};

    pub(crate) type Msg = NetMsg<()>;

    /// Sends a fixed schedule of messages (client ops, fault controls,
    /// forged replication traffic) and records the responses it gets.
    pub(crate) struct Script {
        schedule: Vec<(SimDuration, NodeId, Msg)>,
        pub(crate) responses: Vec<(u64, OpResult)>,
    }

    impl Script {
        pub(crate) fn new(schedule: Vec<(SimDuration, NodeId, Msg)>) -> Self {
            Script { schedule, responses: Vec::new() }
        }
    }

    impl Node<Msg> for Script {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            for (i, (at, _, _)) in self.schedule.iter().enumerate() {
                ctx.set_timer(*at, i as u64);
            }
        }

        fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
            if let NetMsg::Response { req_id, result } = msg {
                self.responses.push((req_id, result));
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, token: u64) {
            let (_, target, msg) = self.schedule[token as usize].clone();
            ctx.send(target, msg);
        }
    }

    pub(crate) fn post(author: u32, seq: u32) -> Post {
        let id = PostId::new(AuthorId(author), seq);
        Post::new(id, format!("post {id}"), LocalTime::from_nanos(0))
    }

    /// A client request; by convention `index` is its place in the
    /// schedule, so responses can be matched to what was sent.
    pub(crate) fn req(index: usize, op: ClientOp) -> Msg {
        NetMsg::Request { req_id: index as u64, op }
    }

    /// Steps the world until `until` (sim time) or the queue drains —
    /// bounded, because a fenced replica's retry timer and the pbft pulse
    /// re-arm forever and `run_until_idle` would never return.
    pub(crate) fn run(world: &mut World<Msg>, until: SimDuration) {
        let deadline = SimTime::ZERO + until;
        while world.now() < deadline && world.step() {}
    }

    pub(crate) fn at(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }
}
