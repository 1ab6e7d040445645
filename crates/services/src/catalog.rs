//! Service presets and deployment.
//!
//! [`ServiceKind`] enumerates the four services the paper measured;
//! [`deploy`] instantiates the corresponding replica topology inside a
//! [`World`] and returns a [`ServiceCluster`] describing where each client
//! region's front door is.
//!
//! The preset parameters are *calibrated*, not measured: they were tuned so
//! that the full measurement campaign (see `conprobe-harness`) reproduces
//! the qualitative shape of the paper's Figures 3–10 (which anomalies appear
//! where, at roughly which rates, with which convergence-time ordering).
//! EXPERIMENTS.md records the paper-vs-measured comparison.

use crate::api::NetMsg;
use crate::pbft::PbftReplica;
use crate::quorum::QuorumReplica;
use crate::replica_node::{DelayDist, ReadPath, ReplicaNode, ReplicaParams};
use conprobe_sim::net::Region;
use conprobe_sim::{LocalClock, Node, NodeId, SimDuration, World};
use conprobe_store::{AffinityMap, OrderingPolicy, PostId, RankingConfig, TieBreak};
use std::fmt;

/// The four services of the measurement study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServiceKind {
    /// Blogger — strongly consistent blog service.
    Blogger,
    /// Google+ "moments".
    GooglePlus,
    /// Facebook user news feed (Graph API).
    FacebookFeed,
    /// Facebook group feed (Graph API).
    FacebookGroup,
    /// Majority-quorum replication with crash-recovery state transfer
    /// ([`crate::quorum`]) — not one of the paper's measured services, but
    /// the repo's strong-consistency control arm, run under the same
    /// workloads and fault plans that expose the four above. Measured
    /// profile: the five session/order checkers come back clean; Test 2
    /// shows a brief *content divergence* in ≈ 5–8 % of instances, which
    /// the module docs of [`crate::quorum`] explain.
    Quorum,
    /// PBFT-style ordered-log replication ([`crate::pbft`]) — the second
    /// strong control arm: a replicated state machine where partitions
    /// and crashes force view changes instead of quorum waits. Zero
    /// anomalies expected; its latency-under-faults profile is the
    /// head-to-head comparison against [`ServiceKind::Quorum`].
    Pbft,
}

impl ServiceKind {
    /// The paper's measured services, in the paper's table order. The
    /// campaign matrix, golden fingerprints and figure reproduction
    /// iterate this set; reference designs like [`ServiceKind::Quorum`]
    /// are deliberately excluded (see [`ServiceKind::CATALOG`]).
    pub const ALL: [ServiceKind; 4] = [
        ServiceKind::GooglePlus,
        ServiceKind::Blogger,
        ServiceKind::FacebookFeed,
        ServiceKind::FacebookGroup,
    ];

    /// Every deployable service: the paper's four plus the two strong
    /// control arms. Existing entries keep their positions — tooling and
    /// golden fingerprints index into this order.
    pub const CATALOG: [ServiceKind; 6] = [
        ServiceKind::GooglePlus,
        ServiceKind::Blogger,
        ServiceKind::FacebookFeed,
        ServiceKind::FacebookGroup,
        ServiceKind::Quorum,
        ServiceKind::Pbft,
    ];

    /// Whether `serve` hosts the nodes [`deploy`] builds for this arm
    /// instead of serving it from stored replica cores: the two arms whose
    /// protocol *is* their message exchange.
    pub fn hosted_live(&self) -> bool {
        matches!(self, ServiceKind::Quorum | ServiceKind::Pbft)
    }

    /// Whether a read returns the arm's whole state, so that a content
    /// divergence refutes every single-order model (`core::verdict`).
    /// FB Feed's reads are the ranked top 25 of `store::ranking`, which
    /// may omit any post.
    pub fn reads_whole_state(&self) -> bool {
        !matches!(self, ServiceKind::FacebookFeed)
    }

    /// Human-readable name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            ServiceKind::Blogger => "Blogger",
            ServiceKind::GooglePlus => "Google+",
            ServiceKind::FacebookFeed => "FB Feed",
            ServiceKind::FacebookGroup => "FB Group",
            ServiceKind::Quorum => "Quorum",
            ServiceKind::Pbft => "PBFT",
        }
    }
}

impl fmt::Display for ServiceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deployed service: replica node ids plus client routing.
#[derive(Debug, Clone)]
pub struct ServiceCluster {
    /// Which service this is.
    pub kind: ServiceKind,
    /// The replica node ids, indexed as the affinity map references them.
    pub replicas: Vec<NodeId>,
    /// Client-region → replica-index routing.
    pub affinity: AffinityMap,
}

impl ServiceCluster {
    /// The front-door node a client in `region` talks to.
    pub fn entry_for(&self, region: Region) -> NodeId {
        self.replicas[self.affinity.replica_for(region)]
    }
}

/// The replica topology of a service: (region, parameters) per replica,
/// plus the affinity map.
#[derive(Debug, Clone)]
pub struct Topology {
    /// One entry per replica.
    pub replicas: Vec<(Region, ReplicaParams)>,
    /// Client routing into `replicas`.
    pub affinity: AffinityMap,
}

/// The calibrated topology for `kind` (see module docs).
pub fn topology(kind: ServiceKind) -> Topology {
    match kind {
        // Single synchronous replica, zero anomalies: linearizable by
        // construction; the oracle in `tests/linearizability.rs` accepts
        // its Test 2 traces for seeds 0–59.
        ServiceKind::Blogger => Topology {
            replicas: vec![(Region::Virginia, ReplicaParams::default())],
            affinity: AffinityMap::with_fallback(0),
        },
        // Two DCs (Oregon+Tokyo share DC-West), slow asynchronous
        // propagation, occasional slow write-apply, a stale secondary read
        // path, coarse timestamps broken by per-replica arrival, and
        // anti-entropy every few seconds with canonical re-sequencing.
        //
        // Mechanism → finding map:
        //  * slow write-applies + stale reads → RYW ≈ 22 %, MR ≈ 25 %;
        //  * a slow-applied first write surfaces after its successor →
        //    MW ≈ 6 %, observed repeatedly until re-sequencing;
        //  * near-simultaneous cross-DC writes collide in a timestamp
        //    bucket and tie-break by *local arrival* → order divergence
        //    between cross-DC pairs (OR–JP share a replica → < 1 %);
        //  * seconds-scale propagation → content divergence with
        //    seconds-scale windows, fast for OR–JP.
        ServiceKind::GooglePlus => {
            let base = ReplicaParams {
                ordering: OrderingPolicy::Timestamp {
                    precision: SimDuration::from_millis(6),
                    tie: TieBreak::Arrival,
                },
                read_path: ReadPath::SecondaryIndex {
                    stale_prob: 0.10,
                    lag: DelayDist::Bimodal {
                        fast: SimDuration::from_millis(220),
                        slow_prob: 0.04,
                        slow_base: SimDuration::from_millis(1500),
                        slow_mean: SimDuration::from_millis(2500),
                    },
                },
                apply_delay: DelayDist::Bimodal {
                    fast: SimDuration::from_millis(25),
                    slow_prob: 0.02,
                    slow_base: SimDuration::from_millis(600),
                    slow_mean: SimDuration::from_millis(1200),
                },
                repl_delay: DelayDist::Exp {
                    base: SimDuration::from_millis(350),
                    mean: SimDuration::from_millis(1400),
                },
                anti_entropy: Some(SimDuration::from_secs(6)),
                canonicalize_on_anti_entropy: true,
                canonicalize_on_push: false,
                write_mode: Default::default(),
            };
            // DC-West (serving Oregon and Tokyo) runs hotter: its slow
            // write path fires more often, matching the paper's higher
            // RYW/MW incidence at those two locations.
            let west = ReplicaParams {
                apply_delay: DelayDist::Bimodal {
                    fast: SimDuration::from_millis(25),
                    slow_prob: 0.045,
                    slow_base: SimDuration::from_millis(600),
                    slow_mean: SimDuration::from_millis(1200),
                },
                // DC-West acts as the order authority: remote posts land in
                // canonical position instantly, so its two agents (Oregon,
                // Tokyo) essentially never observe order divergence between
                // themselves — the paper's "< 1 %".
                canonicalize_on_push: true,
                ..base.clone()
            };
            Topology {
                replicas: vec![(Region::Oregon, west), (Region::Ireland, base)],
                affinity: AffinityMap::gplus_paper(),
            }
        }
        // One replica per agent region, fast propagation, interest-ranked
        // reads.
        ServiceKind::FacebookFeed => {
            let params = ReplicaParams {
                ordering: OrderingPolicy::exact_timestamp(),
                read_path: ReadPath::Ranked(RankingConfig {
                    noise_std_secs: 1.6,
                    top_k: 25,
                    omit_prob: 0.012,
                    index_delay: SimDuration::from_millis(500),
                }),
                apply_delay: DelayDist::Zero,
                repl_delay: DelayDist::Exp {
                    base: SimDuration::from_millis(60),
                    mean: SimDuration::from_millis(120),
                },
                anti_entropy: Some(SimDuration::from_secs(2)),
                canonicalize_on_anti_entropy: false,
                canonicalize_on_push: false,
                write_mode: Default::default(),
            };
            Topology {
                replicas: vec![
                    (Region::Oregon, params.clone()),
                    (Region::Tokyo, params.clone()),
                    (Region::Ireland, params),
                ],
                affinity: AffinityMap::one_per_agent(),
            }
        }
        // A single consistent main store (everyone normally routes to it —
        // hence zero RYW and near-zero divergence), with second-granularity
        // timestamps and reversed tie-break (the MW ≈ 93 % quirk). A Tokyo
        // replica exists but serves the Tokyo agent only during transient
        // fault episodes (see `conprobe-harness`'s partition plan), which
        // reproduces the paper's 15 content-divergence occurrences.
        ServiceKind::FacebookGroup => {
            let params = ReplicaParams {
                ordering: OrderingPolicy::facebook_group(),
                read_path: ReadPath::Snapshot,
                apply_delay: DelayDist::Zero,
                repl_delay: DelayDist::Exp {
                    base: SimDuration::from_millis(20),
                    mean: SimDuration::from_millis(20),
                },
                anti_entropy: Some(SimDuration::from_secs(2)),
                canonicalize_on_anti_entropy: false,
                canonicalize_on_push: false,
                write_mode: Default::default(),
            };
            Topology {
                replicas: vec![(Region::Virginia, params.clone()), (Region::Tokyo, params)],
                affinity: AffinityMap::with_fallback(0),
            }
        }
        // The strong control arms. Their presets carry regions, routing
        // and ordering only; [`deploy`] instantiates dedicated node types
        // that own the protocol (majority quorums, ordered-log consensus,
        // crash-recovery state transfer).
        ServiceKind::Quorum => topology_quorum(),
        ServiceKind::Pbft => topology_pbft(),
    }
}

/// The regions, routing and ordering of a strong arm: one replica per
/// `regions` entry in canonical timestamp order, each agent region routed
/// to its own front door. The protocol lives in the dedicated node type.
fn strong_topology(regions: &[Region]) -> Topology {
    let params =
        ReplicaParams { ordering: OrderingPolicy::exact_timestamp(), ..ReplicaParams::default() };
    Topology {
        replicas: regions.iter().map(|r| (*r, params.clone())).collect(),
        affinity: AffinityMap::one_per_agent(),
    }
}

/// The majority-quorum arm's topology: three replicas, one per agent
/// region. Majority writes and majority reads intersect, which gives
/// read-your-writes and one canonical order without any master.
pub fn topology_quorum() -> Topology {
    strong_topology(&Region::AGENTS)
}

/// The PBFT-style ordered-log arm's topology: four replicas (`n = 3f+1`
/// with `f = 1`) — one per agent region plus a North Virginia witness
/// that never fronts clients. Writes and reads are both sequenced
/// through the leader's log (ordered reads are what make the arm
/// linearizable by construction; the oracle in `tests/linearizability.rs`
/// accepts its Test 2 traces for seeds 0–59).
pub fn topology_pbft() -> Topology {
    strong_topology(&[Region::Oregon, Region::Tokyo, Region::Ireland, Region::Virginia])
}

/// A reference topology beyond the paper's four services: one primary
/// (North Virginia) with a read-only backup in every agent region. Writes
/// are forwarded to the primary and replicated back asynchronously; reads
/// are served by the local backup. The only anomaly this design admits is
/// read-your-writes staleness (plus its monotonic-writes shadow while a
/// client's second write outruns the first's replication): a single writer
/// order means no order divergence, and backups apply the primary's FIFO
/// stream, so views never mutually diverge.
pub fn topology_primary_backup(repl_delay_ms: u64) -> Topology {
    let primary = ReplicaParams {
        ordering: OrderingPolicy::Arrival,
        read_path: ReadPath::Snapshot,
        write_mode: crate::replica_node::WriteMode::LocalAck,
        apply_delay: DelayDist::Zero,
        repl_delay: DelayDist::Exp {
            base: SimDuration::from_millis(repl_delay_ms),
            mean: SimDuration::from_millis(repl_delay_ms / 2 + 1),
        },
        anti_entropy: Some(SimDuration::from_secs(2)),
        canonicalize_on_anti_entropy: false,
        canonicalize_on_push: false,
    };
    let backup = ReplicaParams {
        write_mode: crate::replica_node::WriteMode::ForwardToPrimary,
        // Backups never originate posts; replication flows from the
        // primary. Their own repl/anti-entropy stays quiet but harmless.
        ..primary.clone()
    };
    let mut affinity = AffinityMap::with_fallback(1);
    affinity.assign(Region::Oregon, 1).assign(Region::Tokyo, 2).assign(Region::Ireland, 3);
    Topology {
        replicas: vec![
            (Region::Virginia, primary),
            (Region::Oregon, backup.clone()),
            (Region::Tokyo, backup.clone()),
            (Region::Ireland, backup),
        ],
        affinity,
    }
}

/// Deploys the calibrated topology for `kind` into `world`.
///
/// Replica nodes get perfect clocks (service infrastructure is internally
/// time-synchronized; only measurement agents have drifting clocks).
pub fn deploy<A: Send + 'static>(
    world: &mut World<NetMsg<A>>,
    kind: ServiceKind,
) -> ServiceCluster {
    deploy_topology(world, kind, topology(kind))
}

/// Deploys an explicit topology (for ablations and custom services): one
/// node per replica, in order, with a perfect clock, then each wired to
/// the others. A strong arm's replicas are its dedicated node type —
/// [`QuorumReplica`] (majority writes and reads) or [`PbftReplica`] (the
/// full ordered member list, which leader rotation indexes into) — and
/// own the protocol; every other kind deploys a parameterized
/// [`ReplicaNode`].
pub fn deploy_topology<A: Send + 'static>(
    world: &mut World<NetMsg<A>>,
    kind: ServiceKind,
    topo: Topology,
) -> ServiceCluster {
    let mut ids = Vec::with_capacity(topo.replicas.len());
    for (region, params) in &topo.replicas {
        let node: Box<dyn Node<NetMsg<A>>> = match kind {
            ServiceKind::Quorum => Box::new(QuorumReplica::new()),
            ServiceKind::Pbft => Box::new(PbftReplica::new()),
            _ => Box::new(ReplicaNode::new(params.clone())),
        };
        ids.push(world.add_node_with_clock(*region, LocalClock::perfect(), node));
    }
    for (i, &id) in ids.iter().enumerate() {
        let peers: Vec<NodeId> = ids.iter().copied().filter(|&p| p != id).collect();
        let wired = match kind {
            ServiceKind::Quorum => {
                world.node_as_mut::<QuorumReplica>(id).map(|n| n.set_peers(peers))
            }
            ServiceKind::Pbft => {
                world.node_as_mut::<PbftReplica>(id).map(|n| n.set_members(ids.clone(), i))
            }
            _ => world.node_as_mut::<ReplicaNode>(id).map(|n| n.set_peers(peers)),
        };
        wired.expect("the node type just added");
    }
    ServiceCluster { kind, replicas: ids, affinity: topo.affinity }
}

/// Reads replica `idx` in place: its applied state, past every read path,
/// fence and brownout, or `None` while crashed. It sends and draws nothing,
/// so the run it observes is the run without it.
pub fn replica_state<A: Send + 'static>(
    world: &World<NetMsg<A>>,
    cluster: &ServiceCluster,
    idx: usize,
) -> Option<std::sync::Arc<[PostId]>> {
    let id = cluster.replicas[idx];
    match cluster.kind {
        ServiceKind::Quorum => {
            world.node_as::<QuorumReplica>(id).filter(|n| !n.is_crashed()).map(|n| n.snapshot())
        }
        ServiceKind::Pbft => {
            world.node_as::<PbftReplica>(id).filter(|n| !n.is_crashed()).map(|n| n.snapshot())
        }
        _ => world.node_as::<ReplicaNode>(id).filter(|n| !n.is_crashed()).map(|n| n.snapshot()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conprobe_sim::WorldConfig;

    fn world() -> World<NetMsg<()>> {
        World::new(WorldConfig::default(), 5)
    }

    #[test]
    fn blogger_is_a_single_replica() {
        let mut w = world();
        let cluster = deploy(&mut w, ServiceKind::Blogger);
        assert_eq!(cluster.replicas.len(), 1);
        for region in Region::AGENTS {
            assert_eq!(cluster.entry_for(region), cluster.replicas[0]);
        }
    }

    #[test]
    fn gplus_routing_matches_paper_inference() {
        let mut w = world();
        let cluster = deploy(&mut w, ServiceKind::GooglePlus);
        assert_eq!(cluster.replicas.len(), 2);
        assert_eq!(cluster.entry_for(Region::Oregon), cluster.entry_for(Region::Tokyo));
        assert_ne!(cluster.entry_for(Region::Oregon), cluster.entry_for(Region::Ireland));
    }

    #[test]
    fn fbfeed_has_one_replica_per_agent() {
        let mut w = world();
        let cluster = deploy(&mut w, ServiceKind::FacebookFeed);
        assert_eq!(cluster.replicas.len(), 3);
        let entries: std::collections::HashSet<_> =
            Region::AGENTS.iter().map(|r| cluster.entry_for(*r)).collect();
        assert_eq!(entries.len(), 3);
    }

    #[test]
    fn fbgroup_normally_routes_everyone_to_main() {
        let mut w = world();
        let cluster = deploy(&mut w, ServiceKind::FacebookGroup);
        assert_eq!(cluster.replicas.len(), 2, "a Tokyo replica exists for fault episodes");
        for region in Region::AGENTS {
            assert_eq!(cluster.entry_for(region), cluster.replicas[0]);
        }
    }

    #[test]
    fn peers_are_fully_meshed() {
        let mut w = world();
        let cluster = deploy(&mut w, ServiceKind::FacebookFeed);
        for id in &cluster.replicas {
            let node = w.node_as::<ReplicaNode>(*id).unwrap();
            let peers = node.peers();
            assert_eq!(peers.len(), 2);
            assert!(!peers.contains(id), "a replica must not peer with itself");
            for p in peers {
                assert!(cluster.replicas.contains(p));
            }
        }
    }

    #[test]
    fn names_and_display() {
        assert_eq!(ServiceKind::GooglePlus.name(), "Google+");
        assert_eq!(ServiceKind::FacebookGroup.to_string(), "FB Group");
        assert_eq!(ServiceKind::ALL.len(), 4, "the campaign matrix covers the paper's services");
    }

    #[test]
    fn catalog_is_the_paper_services_plus_control_arms() {
        assert_eq!(ServiceKind::CATALOG.len(), 6);
        for kind in ServiceKind::ALL {
            assert!(ServiceKind::CATALOG.contains(&kind));
        }
        assert!(ServiceKind::CATALOG.contains(&ServiceKind::Quorum));
        assert!(ServiceKind::CATALOG.contains(&ServiceKind::Pbft));
        assert!(!ServiceKind::ALL.contains(&ServiceKind::Quorum));
        assert!(!ServiceKind::ALL.contains(&ServiceKind::Pbft));
        assert_eq!(ServiceKind::Quorum.name(), "Quorum");
        assert_eq!(ServiceKind::Pbft.name(), "PBFT");
    }

    #[test]
    fn pbft_deploys_dedicated_replicas_with_a_witness() {
        let mut w = world();
        let cluster = deploy(&mut w, ServiceKind::Pbft);
        assert_eq!(cluster.kind, ServiceKind::Pbft);
        assert_eq!(cluster.replicas.len(), 4, "n = 3f+1 with f = 1");
        let entries: std::collections::HashSet<_> =
            Region::AGENTS.iter().map(|r| cluster.entry_for(*r)).collect();
        assert_eq!(entries.len(), 3, "each agent region has its own front door");
        assert!(
            !entries.contains(&cluster.replicas[3]),
            "the Virginia witness never fronts clients"
        );
        for id in &cluster.replicas {
            assert!(
                w.node_as::<crate::pbft::PbftReplica>(*id).is_some(),
                "the pbft service runs dedicated PbftReplica nodes"
            );
        }
    }

    #[test]
    fn quorum_deploys_dedicated_replicas_one_per_agent() {
        let mut w = world();
        let cluster = deploy(&mut w, ServiceKind::Quorum);
        assert_eq!(cluster.kind, ServiceKind::Quorum);
        assert_eq!(cluster.replicas.len(), 3);
        let entries: std::collections::HashSet<_> =
            Region::AGENTS.iter().map(|r| cluster.entry_for(*r)).collect();
        assert_eq!(entries.len(), 3, "each agent region has its own front door");
        for id in &cluster.replicas {
            assert!(
                w.node_as::<crate::quorum::QuorumReplica>(*id).is_some(),
                "the quorum service runs dedicated QuorumReplica nodes"
            );
        }
    }
}
