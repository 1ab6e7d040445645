//! The strong arms' protocol invariants, probed between world steps.
//!
//! Each probe reads the replicas in place — through
//! `catalog::replica_state` and the replicas' read-only accessors — after
//! every event the world runs, so a violation is caught at the step that
//! makes it, not only in the trace the agents see:
//!
//! * pbft: no two replicas ever commit different digests at one slot, and
//!   every replica's applied log (the digests of the slots below its apply
//!   point, none missing) is a prefix of every other's;
//! * quorum: every acknowledged write's holders meet every majority of
//!   replicas that could answer a read (a crashed or fenced replica
//!   cannot), so the ack and read quorums intersect;
//! * both: a fenced replica answers no client read and no `SnapshotReq`.
//!   When a replica is first seen fenced, a spy sends it one of each; no
//!   answer may arrive before the step that lifts the fence.
//!
//! The chaos runs drive three clients through the level 0–3 plans of
//! `conprobe chaos`; level 3 crashes and restarts replica 1, so its fence
//! is probed. The pbft log probe finds forks: the test pins one in the
//! level-3 run at seed 42, after the restart, and one in a level-1 run
//! at seed 3, where no replica crashes. A fix to the arm must remove
//! both pins. The value-mode runs feed a recovering replica each hostile
//! catch-up or backlog stream of the mutation harness
//! (`conprobe_json::testkit::record_values`) from a lying peer while its
//! honest peers are down, so the fence cannot lift whatever the stream.

use conprobe::cli::chaos_plan;
use conprobe::json::{frame, testkit};
use conprobe::services::catalog::{deploy, replica_state};
use conprobe::services::{
    ClientOp, ControlMsg, FaultDriver, NetMsg, OpResult, PbftMsg, PbftReplica, QuorumReplica,
    ReplMsg, ServiceCluster, ServiceKind,
};
use conprobe::sim::{
    Context, LatencyMatrix, Node, NodeId, Region, SimDuration, SimTime, World, WorldConfig,
};
use conprobe::store::{AuthorId, Post, PostId};
use std::collections::BTreeMap;

type Msg = NetMsg<()>;

/// How long a chaos run lasts: past the level-3 crash cycle and its
/// recovery.
const HORIZON: SimTime = SimTime::from_millis(20_000);

/// A client of one front door: every 250 ms it sends a read, and every
/// fourth time a write instead, and it keeps the instant each write's
/// acknowledgement arrived.
struct Client {
    index: u32,
    door: NodeId,
    sent: u64,
    acked: Vec<(SimTime, PostId)>,
}

impl Node<Msg> for Client {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        ctx.set_timer(SimDuration::from_millis(300 + 40 * u64::from(self.index)), 0);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        if let NetMsg::Response { result: OpResult::WriteAck(id), .. } = msg {
            self.acked.push((ctx.true_now(), id));
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _token: u64) {
        self.sent += 1;
        let op = if self.sent % 4 == 1 {
            let id = PostId::new(AuthorId(self.index), self.sent as u32);
            ClientOp::Write(Post::new(id, "probe", ctx.now_local()))
        } else {
            ClientOp::Read
        };
        ctx.send(self.door, NetMsg::Request { req_id: self.sent, op });
        if ctx.true_now() < HORIZON {
            ctx.set_timer(SimDuration::from_millis(250), 0);
        }
    }
}

/// What a spy heard: `(arrival, sender, request id or token)` of every
/// read answer and every `SnapshotResp`.
#[derive(Default)]
struct Spy {
    heard: Vec<(SimTime, NodeId, u64)>,
}

impl Node<Msg> for Spy {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        let id = match msg {
            NetMsg::Response { req_id, result: OpResult::ReadOk(_) } => req_id,
            NetMsg::Repl(ReplMsg::SnapshotResp { token, .. }) => token,
            _ => return,
        };
        self.heard.push((ctx.true_now(), from, id));
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, _token: u64) {}
}

/// A replica as a probe sees it between two steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Door {
    Down,
    Fenced,
    Serving,
}

fn door(world: &World<Msg>, cluster: &ServiceCluster, idx: usize) -> Door {
    let id = cluster.replicas[idx];
    let fenced = match cluster.kind {
        ServiceKind::Quorum => world.node_as::<QuorumReplica>(id).map(QuorumReplica::is_fenced),
        ServiceKind::Pbft => world.node_as::<PbftReplica>(id).map(PbftReplica::is_fenced),
        other => panic!("{other:?} has no fence"),
    };
    match (replica_state(world, cluster, idx), fenced) {
        (None, _) => Door::Down,
        (Some(_), Some(true)) => Door::Fenced,
        _ => Door::Serving,
    }
}

/// The fence probe: one client read and one `SnapshotReq` sent to a
/// replica just seen fenced, both carrying `id`, and the first instant
/// after that the replica was seen serving.
struct FenceProbe {
    replica: usize,
    id: u64,
    lifted: Option<SimTime>,
}

/// Fence probes of one world: sends them, follows each fence to its lift,
/// and checks the spy's log.
struct FenceProbes {
    spy: NodeId,
    last: Vec<Door>,
    probes: Vec<FenceProbe>,
}

impl FenceProbes {
    fn new(world: &mut World<Msg>, cluster: &ServiceCluster) -> Self {
        let spy = world.add_node(Region::Virginia, Box::new(Spy::default()));
        FenceProbes { spy, last: vec![Door::Serving; cluster.replicas.len()], probes: Vec::new() }
    }

    /// Runs after every step.
    fn step(&mut self, world: &mut World<Msg>, cluster: &ServiceCluster) {
        let now = world.now();
        for idx in 0..cluster.replicas.len() {
            let door = door(world, cluster, idx);
            if door == Door::Fenced && self.last[idx] != Door::Fenced {
                let id = 1_000_000 + self.probes.len() as u64;
                let to = cluster.replicas[idx];
                world.post(self.spy, to, NetMsg::Request { req_id: id, op: ClientOp::Read });
                world.post(self.spy, to, NetMsg::Repl(ReplMsg::SnapshotReq { token: id }));
                self.probes.push(FenceProbe { replica: idx, id, lifted: None });
            }
            if door == Door::Serving {
                for probe in self.probes.iter_mut().filter(|p| p.replica == idx) {
                    probe.lifted.get_or_insert(now);
                }
            }
            self.last[idx] = door;
        }
    }

    /// No answer to a probe arrived before its replica's fence lifted;
    /// returns how many probes were sent.
    fn check(&self, world: &World<Msg>, cluster: &ServiceCluster, case: &str) -> usize {
        let heard = &world.node_as::<Spy>(self.spy).expect("the spy").heard;
        for probe in &self.probes {
            let from = cluster.replicas[probe.replica];
            for &(at, _, _) in heard.iter().filter(|h| h.1 == from && h.2 == probe.id) {
                assert!(
                    probe.lifted.is_some_and(|lift| at >= lift),
                    "{case}: fenced replica {} answered probe {} at {at:?}, fence lifted at {:?}",
                    probe.replica,
                    probe.id,
                    probe.lifted
                );
            }
        }
        self.probes.len()
    }
}

/// A chaos-level world: the arm's replicas, a client per agent region,
/// the level's fault plan and its driver.
fn chaos_world(kind: ServiceKind, level: u32, seed: u64) -> (World<Msg>, ServiceCluster) {
    let plan = chaos_plan(level, seed);
    let config = WorldConfig {
        matrix: LatencyMatrix::paper_wan(),
        plan: plan.clone(),
        ..Default::default()
    };
    let mut world: World<Msg> = World::new(config, seed);
    let cluster = deploy(&mut world, kind);
    for (index, &region) in (0..).zip(&Region::AGENTS) {
        let door = cluster.entry_for(region);
        world.add_node(region, Box::new(Client { index, door, sent: 0, acked: Vec::new() }));
    }
    if !plan.is_empty() {
        world.add_node(
            Region::Virginia,
            Box::new(FaultDriver::new(&plan, cluster.replicas.clone())),
        );
    }
    (world, cluster)
}

/// Steps `world` to `until`, calling `probe` after every step.
fn step_until(world: &mut World<Msg>, until: SimTime, mut probe: impl FnMut(&mut World<Msg>)) {
    while world.next_event_at().is_some_and(|at| at <= until) {
        world.step();
        probe(world);
    }
}

/// The pbft probes' memory: the one digest committed at each slot so far,
/// and each replica's committed log as last read.
#[derive(Default)]
struct PbftLogs {
    digests: BTreeMap<u64, u64>,
    seen: Vec<(usize, u64)>,
    applied: Vec<Vec<u64>>,
    /// The first violation: when, and what.
    broken: Option<(SimTime, String)>,
}

impl PbftLogs {
    /// Reads every running replica whose log moved: its commits agree
    /// with every commit seen at that slot, its applied slots are all
    /// committed, and the applied logs are prefixes of one another. Keeps
    /// the first violation.
    fn step(&mut self, world: &World<Msg>, cluster: &ServiceCluster) {
        if self.broken.is_none() {
            self.broken = self.check(world, cluster).err().map(|what| (world.now(), what));
        }
    }

    fn check(&mut self, world: &World<Msg>, cluster: &ServiceCluster) -> Result<(), String> {
        let n = cluster.replicas.len();
        self.seen.resize(n, (0, 0));
        self.applied.resize(n, Vec::new());
        let mut moved = false;
        for (idx, &id) in cluster.replicas.iter().enumerate() {
            let Some(r) = world.node_as::<PbftReplica>(id).filter(|r| !r.is_crashed()) else {
                self.applied[idx].clear();
                continue;
            };
            let (committed, applied) = (r.committed_log().count(), r.applied_slots());
            if (committed, applied) == self.seen[idx] {
                continue;
            }
            self.seen[idx] = (committed, applied);
            moved = true;
            let log: BTreeMap<_, _> = r.committed_log().collect();
            for (&slot, op) in &log {
                let digest = op.digest();
                if *self.digests.entry(slot).or_insert(digest) != digest {
                    return Err(format!("replica {idx} commits another digest at slot {slot}"));
                }
            }
            self.applied[idx] = (0..applied)
                .map(|slot| log.get(&slot).map(|op| op.digest()))
                .collect::<Option<_>>()
                .ok_or_else(|| format!("replica {idx} applied a slot it never committed"))?;
        }
        for (i, a) in self.applied.iter().enumerate().filter(|_| moved) {
            for (j, b) in self.applied.iter().enumerate() {
                let common = a.len().min(b.len());
                if a[..common] != b[..common] {
                    return Err(format!("the applied logs of replicas {i} and {j} fork"));
                }
            }
        }
        Ok(())
    }
}

/// Whether every majority of the quorum arm's replicas holds `id` at some
/// member or has a member that cannot answer a read (down or fenced).
fn every_majority_meets(world: &World<Msg>, cluster: &ServiceCluster, id: PostId) -> bool {
    let n = cluster.replicas.len();
    let majority = n / 2 + 1;
    let covers: Vec<bool> = (0..n)
        .map(|idx| match replica_state(world, cluster, idx) {
            Some(state) => door(world, cluster, idx) == Door::Fenced || state.contains(&id),
            None => true,
        })
        .collect();
    (0u32..1 << n)
        .filter(|set| set.count_ones() as usize == majority)
        .all(|set| (0..n).any(|idx| set & (1 << idx) != 0 && covers[idx]))
}

#[test]
fn pbft_log_probes_pin_two_forks_and_fenced_replicas_stay_silent_at_chaos_levels_0_to_3() {
    // Level 3 at seed 42 forks after the restart: replica 1, restarted,
    // commits a no-op at a slot where replica 0 committed a write. Level
    // 1 at seed 3 crashes no replica and still forks, so a fix to the
    // restart path alone leaves its pin standing. The probe pins what it
    // finds; a pbft fix turns both into `None`.
    let restart_fork = (13_003_202_851, "replica 1 commits another digest at slot 70");
    let lossy_fork = (13_582_972_142, "replica 1 commits another digest at slot 186");
    let cases = [
        (0, 42, None),
        (1, 42, None),
        (2, 42, None),
        (3, 42, Some(restart_fork)),
        (1, 3, Some(lossy_fork)),
    ];
    for (level, seed, fork) in cases {
        let case = format!("pbft level {level} seed {seed}");
        let (mut world, cluster) = chaos_world(ServiceKind::Pbft, level, seed);
        let (mut logs, mut fences) = (PbftLogs::default(), FenceProbes::new(&mut world, &cluster));
        step_until(&mut world, HORIZON, |world| {
            logs.step(world, &cluster);
            fences.step(world, &cluster);
        });
        let probes = fences.check(&world, &cluster, &case);
        // The probe must have had something to read.
        assert!(logs.digests.len() > 40, "{case}: {} slots committed", logs.digests.len());
        assert_eq!(probes, usize::from(level == 3), "{case}: fence probes");
        let want = fork.map(|(at, what)| (SimTime::from_nanos(at), what.to_string()));
        assert_eq!(logs.broken, want, "{case}");
    }
}

#[test]
fn quorum_acks_meet_every_read_quorum_and_fenced_replicas_stay_silent_at_chaos_levels_0_to_3() {
    for level in 0..=3 {
        let case = format!("quorum level {level}");
        let (mut world, cluster) = chaos_world(ServiceKind::Quorum, level, 42);
        let clients: Vec<NodeId> =
            (cluster.replicas.len()..cluster.replicas.len() + 3).map(NodeId).collect();
        let mut fences = FenceProbes::new(&mut world, &cluster);
        // A majority only moves when a replica's door or state moves, or
        // a new acknowledgement arrives.
        let mut last = (0, Vec::new());
        let mut checks = 0;
        step_until(&mut world, HORIZON, |world| {
            fences.step(world, &cluster);
            let acked: Vec<PostId> = clients
                .iter()
                .flat_map(|&c| world.node_as::<Client>(c).expect("a client").acked.clone())
                .map(|(_, id)| id)
                .collect();
            let now: Vec<_> = (0..cluster.replicas.len())
                .map(|idx| (door(world, &cluster, idx), replica_state(world, &cluster, idx)))
                .collect();
            let key =
                (acked.len(), now.iter().map(|(d, s)| (*d, s.as_ref().map(|s| s.len()))).collect());
            if key == last {
                return;
            }
            last = key;
            for &id in &acked {
                checks += 1;
                assert!(
                    every_majority_meets(world, &cluster, id),
                    "{case}: acknowledged {id:?} misses a read quorum at {:?}",
                    world.now()
                );
            }
        });
        let probes = fences.check(&world, &cluster, &case);
        assert!(checks > 100, "{case}: {checks} acknowledged-write checks");
        assert_eq!(probes, usize::from(level == 3), "{case}: fence probes");
    }
}

/// A peer that answers every catch-up or backlog request with one fixed
/// stream.
struct Liar(Vec<String>);

impl Node<Msg> for Liar {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        let frames = self.0.clone();
        let resp = match msg {
            NetMsg::Repl(ReplMsg::CatchupReq { token }) => {
                ReplMsg::CatchupResp { token, watermark: 0, frames }
            }
            NetMsg::Repl(ReplMsg::Pbft(PbftMsg::StateReq { token })) => {
                ReplMsg::Pbft(PbftMsg::StateResp { token, view: 1, watermark: 0, frames })
            }
            _ => return,
        };
        ctx.send(from, NetMsg::Repl(resp));
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, _token: u64) {}
}

/// One stored post as a catch-up payload (`quorum.rs`'s field order).
fn post_payload(seq: u32) -> String {
    format!(
        r#"{{"author":1,"seq":{seq},"content":"x","client_ts":0,"server_ts":5,"arrival":{seq}}}"#
    )
}

/// Feeds every value-mode variant of `frames` from a lying peer to a
/// recovering replica (the last honest one) whose honest peers are down,
/// probing the fence between every step. `build` deploys the replicas
/// and the liar and returns the cluster of honest replicas. Returns how
/// many streams the replica admitted and how many it refused.
fn hostile_streams_meet_a_silent_fence(
    frames: &[String],
    build: impl Fn(&mut World<Msg>, Vec<String>) -> ServiceCluster,
) -> (usize, usize) {
    let (mut admitted, mut refused) = (0, 0);
    for (i, line) in frames.iter().enumerate() {
        for hostile in testkit::record_values(line) {
            let mut stream = frames.to_vec();
            stream[i] = hostile;
            let case = format!("{stream:?}");
            let mut world: World<Msg> = World::new(WorldConfig::default(), 45);
            let cluster = build(&mut world, stream);
            let mut fences = FenceProbes::new(&mut world, &cluster);
            let (last, spy) = (cluster.replicas.len() - 1, fences.spy);
            for (at, idx, control) in [
                (10, 0, ControlMsg::Crash),
                (10, 1, ControlMsg::Crash),
                (20, last, ControlMsg::Crash),
                (40, last, ControlMsg::Recover),
            ] {
                step_until(&mut world, SimTime::from_millis(at), |_| {});
                world.post(spy, cluster.replicas[idx], NetMsg::Control(control));
            }
            step_until(&mut world, SimTime::from_millis(3_000), |world| {
                fences.step(world, &cluster);
            });
            assert_eq!(fences.check(&world, &cluster, &case), 1, "{case}");
            let heard = &world.node_as::<Spy>(spy).expect("the spy").heard;
            assert!(heard.is_empty(), "{case}: the fence never lifts, yet {heard:?}");
            assert_eq!(door(&world, &cluster, last), Door::Fenced, "{case}");
            // An admitted stream is applied (quorum) or committed (pbft)
            // behind the fence; a refused one leaves no trace.
            let id = cluster.replicas[last];
            let took = match cluster.kind {
                ServiceKind::Quorum => world.node_as::<QuorumReplica>(id).unwrap().applied(),
                _ => world.node_as::<PbftReplica>(id).unwrap().committed_log().count(),
            };
            *(if took > 0 { &mut admitted } else { &mut refused }) += 1;
        }
    }
    (admitted, refused)
}

#[test]
fn hostile_catchup_streams_leave_a_fenced_quorum_replica_silent() {
    let frames: Vec<String> = (1..=2).map(|seq| frame::encode_record(&post_payload(seq))).collect();
    let (admitted, refused) = hostile_streams_meet_a_silent_fence(&frames, |world, stream| {
        let regions = [Region::Oregon, Region::Tokyo, Region::Ireland];
        let ids: Vec<NodeId> =
            regions.iter().map(|&r| world.add_node(r, Box::new(QuorumReplica::new()))).collect();
        let liar = world.add_node(Region::Virginia, Box::new(Liar(stream)));
        for (i, &id) in ids.iter().enumerate() {
            let peers = if i == 2 { vec![ids[0], liar] } else { vec![ids[1 - i], ids[2]] };
            world.node_as_mut::<QuorumReplica>(id).unwrap().set_peers(peers);
        }
        ServiceCluster { kind: ServiceKind::Quorum, replicas: ids, affinity: Default::default() }
    });
    assert!(admitted > 0 && refused > 0, "{admitted} admitted, {refused} refused");
}

#[test]
fn hostile_backlog_streams_leave_a_fenced_pbft_replica_silent() {
    // A record's op, and a write op's post, are JSON text in a string.
    let write = format!(r#"{{"kind":"write","origin":0,"post":{:?}}}"#, post_payload(1));
    let frames: Vec<String> = [r#"{"kind":"noop","slot":0}"#, &write]
        .iter()
        .enumerate()
        .map(|(slot, op)| frame::encode_record(&format!(r#"{{"slot":{slot},"op":{op:?}}}"#)))
        .collect();
    let (admitted, refused) = hostile_streams_meet_a_silent_fence(&frames, |world, stream| {
        let regions = [Region::Oregon, Region::Tokyo, Region::Ireland];
        let mut ids: Vec<NodeId> =
            regions.iter().map(|&r| world.add_node(r, Box::new(PbftReplica::new()))).collect();
        ids.push(world.add_node(Region::Virginia, Box::new(Liar(stream))));
        for i in 0..3 {
            world.node_as_mut::<PbftReplica>(ids[i]).unwrap().set_members(ids.clone(), i);
        }
        ids.pop();
        ServiceCluster { kind: ServiceKind::Pbft, replicas: ids, affinity: Default::default() }
    });
    assert!(admitted > 0 && refused > 0, "{admitted} admitted, {refused} refused");
}
