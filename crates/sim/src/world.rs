//! The deterministic event loop: nodes, messages, timers.
//!
//! A [`World`] owns a set of [`Node`]s, each placed in a [`Region`] and
//! equipped with a [`LocalClock`]. Nodes interact with the world only through
//! the [`Context`] handed to their callbacks: they can send messages (which
//! arrive after a sampled network delay, or never, if a window of the
//! world's [`FaultPlan`] cuts, blocks or loses them), set and cancel
//! timers, read their local clock, and draw from a private random stream.
//! The plan in [`WorldConfig`] is the one way network faults enter a
//! world. The loop pops events in `(time, sequence)` order, so runs are
//! exactly reproducible for a given configuration and seed.

use crate::clock::{ClockConfig, LocalClock, LocalTime};
use crate::faults::{judge_link, FaultNetStats, FaultPlan, LinkEffect, LinkVerdict};
use crate::net::{LatencyMatrix, LinkSpec, Region};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use conprobe_obs::{Counter, ObsSink, Severity};
use std::any::Any;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::fmt;

/// What happened in one simulator event: what the world counts and, with
/// an [`ObsSink`] installed (see [`World::install_obs`]), logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEventKind {
    /// A message was delivered from the contained node.
    Delivered {
        /// Sender.
        src: NodeId,
    },
    /// A message from `src` was lost to a fault-plan window.
    Dropped {
        /// Sender.
        src: NodeId,
    },
    /// A timer with the contained token fired.
    Timer(u64),
    /// The node's `on_start` ran.
    Started,
}

/// Identifies a node within one [`World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A participant in the simulation.
///
/// Implementations must be `'static` (so the world can downcast them back to
/// their concrete type after a run via [`World::node_as`]) and `Send` (so a
/// whole world can be run on a worker thread by the parallel campaign
/// runner).
pub trait Node<M>: Any + Send {
    /// Called once when the simulation first runs this node.
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }

    /// Called when a message from `from` is delivered.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M);

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, M>, token: u64);
}

/// Configuration for a [`World`].
#[derive(Debug, Clone, Default)]
pub struct WorldConfig {
    /// Link delays between regions (the paper's WAN by default).
    pub matrix: LatencyMatrix,
    /// Every network fault the world applies: the plan's network effects
    /// are judged on each send, drawing from a stream split from the
    /// plan's seed. Its service actions are a deployment layer's to run.
    pub plan: FaultPlan,
    /// Distribution from which node clocks are sampled.
    pub clocks: ClockConfig,
}

enum EventKind<M> {
    Start,
    Deliver { src: NodeId, msg: M },
    Timer { token: u64 },
}

/// A queued event in its slab slot. `seq` is its key's sequence number:
/// a key whose `seq` differs from its slot's (or whose slot is empty) is
/// the leftover of a cancelled timer.
struct Queued<M> {
    seq: u64,
    dst: NodeId,
    kind: EventKind<M>,
}

/// A handle to a timer set through [`Context::set_timer`], for
/// [`Context::cancel_timer`]: the timer's slab slot and its sequence
/// number, which no other event of the world ever carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId {
    slot: u32,
    seq: u64,
}

/// A queue key. The event it schedules waits in `WorldCore::events[slot]`,
/// so the heap sifts a key, not a message. `key` packs `(at, seq)` as
/// `(at << 64) | seq`, so one `u128` comparison orders events as the
/// pair does; `seq` is unique, so no two keys tie. The order reads `key`
/// alone: a derived one also compares `slot`, which never decides and
/// made a heap pop-and-push about 40 % slower in a micro-benchmark.
struct Scheduled {
    key: u128,
    slot: u32,
}

impl Scheduled {
    fn new(at: SimTime, seq: u64, slot: u32) -> Self {
        Scheduled { key: (u128::from(at.as_nanos()) << 64) | u128::from(seq), slot }
    }

    fn at(&self) -> SimTime {
        SimTime::from_nanos((self.key >> 64) as u64)
    }

    fn seq(&self) -> u64 {
        self.key as u64
    }
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// What `send` needs to know of one ordered (src, dst) node pair.
#[derive(Clone, Copy)]
struct Channel {
    link: LinkSpec,
    /// Last arrival scheduled through [`Context::send_ordered`].
    last_ordered: SimTime,
}

/// Per-link observability counters (one pair of regions).
struct LinkObs {
    delivered: Counter,
    dropped: Counter,
}

/// Pre-resolved metric handles for one world, created when a sink is
/// installed via [`World::install_obs`]. Handles are cached here so the hot
/// path touches atomics, never the registry's name map.
struct WorldObs {
    sink: ObsSink,
    delivered: Counter,
    dropped: Counter,
    timers: Counter,
    fault_blocked: Counter,
    fault_dropped: Counter,
    fault_delayed: Counter,
    links: std::collections::HashMap<(Region, Region), LinkObs>,
}

impl WorldObs {
    fn new(sink: ObsSink) -> Self {
        let m = &sink.metrics;
        WorldObs {
            delivered: m.counter("sim.delivered"),
            dropped: m.counter("sim.dropped"),
            timers: m.counter("sim.timers"),
            fault_blocked: m.counter("sim.fault.blocked"),
            fault_dropped: m.counter("sim.fault.dropped"),
            fault_delayed: m.counter("sim.fault.delayed"),
            links: std::collections::HashMap::new(),
            sink,
        }
    }

    fn link(&mut self, src: Region, dst: Region) -> &LinkObs {
        let WorldObs { links, sink, .. } = self;
        links.entry((src, dst)).or_insert_with(|| {
            let name = format!("sim.link.{}-{}", src.short(), dst.short());
            LinkObs {
                delivered: sink.metrics.counter(&format!("{name}.delivered")),
                dropped: sink.metrics.counter(&format!("{name}.dropped")),
            }
        })
    }
}

/// Internal world state shared with [`Context`] during dispatch.
struct WorldCore<M> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<Scheduled>>,
    /// The queued events, by slot; `free` lists the empty slots.
    events: Vec<Option<Queued<M>>>,
    free: Vec<u32>,
    /// Keys in `queue` whose timer was cancelled. They are dropped when
    /// they reach the head, so the head is always a live event.
    cancelled: usize,
    regions: Vec<Region>,
    /// `channels[src][dst]`, one entry per node pair.
    channels: Vec<Vec<Channel>>,
    clocks: Vec<LocalClock>,
    node_rngs: Vec<SimRng>,
    matrix: LatencyMatrix,
    /// The plan's compiled network windows.
    effects: Vec<LinkEffect>,
    net_rng: SimRng,
    /// Dedicated stream for fault-plan loss/delay sampling, split from the
    /// plan's own seed so an empty plan perturbs nothing.
    fault_rng: SimRng,
    delivered: u64,
    fault_stats: FaultNetStats,
    /// Observability sink + cached handles (None = observability off).
    /// Recording mutates atomics and a bounded log only — it never draws
    /// randomness or schedules events, so it cannot perturb determinism.
    obs: Option<WorldObs>,
}

impl<M> WorldCore<M> {
    fn record(&mut self, node: NodeId, kind: SimEventKind) {
        if let Some(obs) = &mut self.obs {
            match kind {
                SimEventKind::Delivered { src } => {
                    let (ra, rb) = (self.regions[src.0], self.regions[node.0]);
                    obs.delivered.inc();
                    obs.link(ra, rb).delivered.inc();
                    if obs.sink.log.enabled(Severity::Debug, "sim") {
                        obs.sink.log.record(
                            self.now.as_nanos(),
                            Severity::Debug,
                            "sim",
                            format!("deliver {src} -> {node}"),
                        );
                    }
                }
                SimEventKind::Dropped { src } => {
                    let (ra, rb) = (self.regions[src.0], self.regions[node.0]);
                    obs.dropped.inc();
                    obs.link(ra, rb).dropped.inc();
                    if obs.sink.log.enabled(Severity::Warn, "sim") {
                        obs.sink.log.record(
                            self.now.as_nanos(),
                            Severity::Warn,
                            "sim",
                            format!("drop {src} -> {node}"),
                        );
                    }
                }
                SimEventKind::Timer(_) => obs.timers.inc(),
                SimEventKind::Started => {
                    if obs.sink.log.enabled(Severity::Info, "sim") {
                        obs.sink.log.record(
                            self.now.as_nanos(),
                            Severity::Info,
                            "sim",
                            format!("node {node} started"),
                        );
                    }
                }
            }
        }
    }
}

impl<M> WorldCore<M> {
    fn push(&mut self, at: SimTime, dst: NodeId, kind: EventKind<M>) -> TimerId {
        let seq = self.seq;
        self.seq += 1;
        let event = Some(Queued { seq, dst, kind });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.events[slot as usize] = event;
                slot
            }
            None => {
                self.events.push(event);
                u32::try_from(self.events.len() - 1).expect("fewer than 2^32 queued events")
            }
        };
        self.queue.push(Reverse(Scheduled::new(at, seq, slot)));
        TimerId { slot, seq }
    }

    /// Pops the earliest event, by `(at, seq)`.
    fn pop(&mut self) -> Option<(SimTime, NodeId, EventKind<M>)> {
        let Reverse(ev) = self.queue.pop()?;
        let q = self.events[ev.slot as usize].take().expect("the head key has its event");
        self.free.push(ev.slot);
        self.drop_cancelled_head();
        Some((ev.at(), q.dst, q.kind))
    }

    /// Removes `node`'s pending timer `id` from the queue. A handle whose
    /// timer fired or was cancelled finds its slot empty or holding an
    /// event of another `seq`, and cancels nothing. (Only `set_timer`
    /// hands out a `TimerId`, so a live `seq` names a timer.)
    fn cancel(&mut self, node: NodeId, id: TimerId) -> bool {
        let Some(entry) = self.events.get_mut(id.slot as usize) else {
            return false;
        };
        let live = entry.as_ref().is_some_and(|q| q.seq == id.seq && q.dst == node);
        if live {
            *entry = None;
            self.free.push(id.slot);
            self.cancelled += 1;
            self.drop_cancelled_head();
        }
        live
    }

    /// Pops cancelled keys off the head until it is a live event (or the
    /// queue is empty), so a peek at the head reads the next due event.
    fn drop_cancelled_head(&mut self) {
        while self.cancelled > 0 {
            let Some(Reverse(head)) = self.queue.peek() else { break };
            let slot = &self.events[head.slot as usize];
            if slot.as_ref().is_some_and(|q| q.seq == head.seq()) {
                break;
            }
            self.queue.pop();
            self.cancelled -= 1;
        }
    }

    fn send(&mut self, src: NodeId, dst: NodeId, msg: M, ordered: bool) {
        // Neither fault check may cross the link-delay draw. A cut message
        // takes no draw (checked after it, the pinned partition traces
        // break); a region window is judged after the draw (judged before
        // it, every later delay shifts and the pinned quorum traces break).
        if self.effects.iter().any(|e| e.cuts(src, dst, self.now)) {
            self.fault_stats.blocked += 1;
            return self.lost(src, dst, LinkVerdict::Blocked);
        }
        let (ra, rb) = (self.regions[src.0], self.regions[dst.0]);
        let mut delay = self.channels[src.0][dst.0].link.sample_delay(&mut self.net_rng);
        // Region windows draw from their own stream. The guard keeps
        // configurations without a plan on byte-identical replay.
        if !self.effects.is_empty() {
            let verdict = judge_link(
                &self.effects,
                ra,
                rb,
                self.now,
                &mut self.fault_rng,
                &mut self.fault_stats,
            );
            let LinkVerdict::Deliver(extra) = verdict else {
                return self.lost(src, dst, verdict);
            };
            if let (Some(obs), false) = (&self.obs, extra.is_zero()) {
                obs.fault_delayed.inc();
            }
            delay += extra;
        }
        let mut at = self.now + delay;
        if ordered {
            let last = &mut self.channels[src.0][dst.0].last_ordered;
            if at <= *last {
                at = *last + SimDuration::from_nanos(1);
            }
            *last = at;
        }
        self.push(at, dst, EventKind::Deliver { src, msg });
    }

    /// Counts and records a message a fault verdict lost.
    fn lost(&mut self, src: NodeId, dst: NodeId, verdict: LinkVerdict) {
        if let Some(obs) = &self.obs {
            let blocked = verdict == LinkVerdict::Blocked;
            if blocked { &obs.fault_blocked } else { &obs.fault_dropped }.inc();
        }
        self.record(dst, SimEventKind::Dropped { src });
    }
}

/// The callback interface a [`Node`] uses to act on the world.
pub struct Context<'a, M> {
    core: &'a mut WorldCore<M>,
    node: NodeId,
}

impl<'a, M> Context<'a, M> {
    /// This node's id.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// This node's region.
    pub fn region(&self) -> Region {
        self.core.regions[self.node.0]
    }

    /// Reads this node's **local** clock. This is the only notion of time a
    /// node may base decisions or log entries on.
    pub fn now_local(&self) -> LocalTime {
        self.core.clocks[self.node.0].read(self.core.now)
    }

    /// True simulation time. **Instrumentation/ablation only** — production
    /// node logic must use [`Context::now_local`], exactly as the paper's
    /// agents could only read their VM clocks.
    pub fn true_now(&self) -> SimTime {
        self.core.now
    }

    /// Sends `msg` to `dst`. Delivery is asynchronous with a sampled network
    /// delay; a fault-plan window may cut, block or lose it. Messages on
    /// the same (src, dst) pair may be reordered by jitter — use
    /// [`Context::send_ordered`] for FIFO semantics.
    pub fn send(&mut self, dst: NodeId, msg: M) {
        self.core.send(self.node, dst, msg, false);
    }

    /// Like [`Context::send`], but deliveries from this node to `dst` issued
    /// through this method never overtake one another (a TCP-like FIFO
    /// channel). Used by replication streams, whose real-world counterparts
    /// run over connections that preserve order.
    pub fn send_ordered(&mut self, dst: NodeId, msg: M) {
        self.core.send(self.node, dst, msg, true);
    }

    /// Schedules [`Node::on_timer`] on this node after `delay`, carrying
    /// `token`, and returns its handle. The timer fires exactly once,
    /// unless [`Context::cancel_timer`] removes it first; a node that no
    /// longer wants a timer should cancel it rather than ignore its
    /// firing.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        let at = self.core.now + delay;
        self.core.push(at, self.node, EventKind::Timer { token })
    }

    /// Cancels this node's timer `id`: it will never fire, and the events
    /// left in the queue keep their `(at, seq)` order. Returns whether a
    /// pending timer was removed. A handle whose timer already fired or
    /// was cancelled, or that names another node's timer, cancels nothing,
    /// even when its queue slot now holds a newer event.
    pub fn cancel_timer(&mut self, id: TimerId) -> bool {
        self.core.cancel(self.node, id)
    }

    /// This node's private deterministic random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.core.node_rngs[self.node.0]
    }

    /// The world's observability sink, when one is installed.
    /// **Instrumentation only**: nodes may record metrics/events through it
    /// but must never base behaviour on what they read back — that would
    /// make the simulation depend on whether telemetry is on.
    pub fn obs(&self) -> Option<&ObsSink> {
        self.core.obs.as_ref().map(|o| &o.sink)
    }
}

/// A complete simulated world: nodes + network + event queue.
pub struct World<M> {
    core: WorldCore<M>,
    nodes: Vec<Box<dyn Node<M>>>,
    rng_root: SimRng,
    clock_config: ClockConfig,
}

impl<M: 'static> World<M> {
    /// Creates an empty world from a configuration and a seed.
    pub fn new(config: WorldConfig, seed: u64) -> Self {
        let rng_root = SimRng::new(seed);
        let fault_rng = rng_root.split_indexed("faults", config.plan.seed());
        World {
            core: WorldCore {
                now: SimTime::ZERO,
                seq: 0,
                queue: BinaryHeap::new(),
                events: Vec::new(),
                free: Vec::new(),
                cancelled: 0,
                regions: Vec::new(),
                channels: Vec::new(),
                clocks: Vec::new(),
                node_rngs: Vec::new(),
                matrix: config.matrix,
                effects: config.plan.network_effects(),
                net_rng: rng_root.split("net"),
                fault_rng,
                delivered: 0,
                fault_stats: FaultNetStats::default(),
                obs: None,
            },
            nodes: Vec::new(),
            rng_root,
            clock_config: config.clocks,
        }
    }

    /// Adds a node in `region` with a clock sampled from the world's
    /// [`ClockConfig`]. Returns its id. The node's `on_start` runs at the
    /// current simulation time once the loop is driven.
    pub fn add_node(&mut self, region: Region, node: Box<dyn Node<M>>) -> NodeId {
        let idx = self.nodes.len() as u64;
        let mut clock_rng = self.rng_root.split_indexed("clock", idx);
        let clock = LocalClock::sample(&self.clock_config, &mut clock_rng);
        self.add_node_with_clock(region, clock, node)
    }

    /// Adds a node with an explicit clock (e.g. [`LocalClock::perfect`]).
    pub fn add_node_with_clock(
        &mut self,
        region: Region,
        clock: LocalClock,
        node: Box<dyn Node<M>>,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        let core = &mut self.core;
        let channel = |a, b| Channel { link: core.matrix.link(a, b), last_ordered: SimTime::ZERO };
        for (row, &src) in core.channels.iter_mut().zip(&core.regions) {
            row.push(channel(src, region));
        }
        let row = core.regions.iter().chain([&region]).map(|&dst| channel(region, dst)).collect();
        core.channels.push(row);
        core.regions.push(region);
        core.clocks.push(clock);
        core.node_rngs.push(self.rng_root.split_indexed("node", id.0 as u64));
        core.push(core.now, id, EventKind::Start);
        self.nodes.push(node);
        id
    }

    /// Current true simulation time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Number of messages delivered so far: deliveries only, not timer
    /// firings or node starts, so not the number of events dispatched.
    pub fn delivered(&self) -> u64 {
        self.core.delivered
    }

    /// Counters of fault-plan network interference (the network half of a
    /// fault ledger). Links lose nothing on their own, so `blocked +
    /// dropped` is every message the world lost. All zero when the plan
    /// has no network effects.
    pub fn fault_stats(&self) -> FaultNetStats {
        self.core.fault_stats
    }

    /// The region a node was placed in.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this world.
    pub fn region_of(&self, id: NodeId) -> Region {
        self.core.regions[id.0]
    }

    /// The true clock of a node — for ablations comparing estimated clock
    /// deltas against ground truth.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this world.
    pub fn clock_of(&self, id: NodeId) -> &LocalClock {
        &self.core.clocks[id.0]
    }

    /// Borrows a node back as its concrete type (post-run result
    /// extraction).
    pub fn node_as<T: 'static>(&self, id: NodeId) -> Option<&T> {
        let node: &dyn Node<M> = self.nodes.get(id.0)?.as_ref();
        (node as &dyn Any).downcast_ref::<T>()
    }

    /// Mutably borrows a node back as its concrete type.
    pub fn node_as_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        let node: &mut dyn Node<M> = self.nodes.get_mut(id.0)?.as_mut();
        (node as &mut dyn Any).downcast_mut::<T>()
    }

    /// Processes a single event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        let Some((at, dst, kind)) = self.core.pop() else {
            return false;
        };
        debug_assert!(at >= self.core.now, "time went backwards");
        self.core.now = at;
        let node = &mut self.nodes[dst.0];
        let mut ctx = Context { core: &mut self.core, node: dst };
        match kind {
            EventKind::Start => {
                ctx.core.record(dst, SimEventKind::Started);
                node.on_start(&mut ctx);
            }
            EventKind::Deliver { src, msg } => {
                ctx.core.delivered += 1;
                ctx.core.record(dst, SimEventKind::Delivered { src });
                node.on_message(&mut ctx, src, msg);
            }
            EventKind::Timer { token } => {
                ctx.core.record(dst, SimEventKind::Timer(token));
                node.on_timer(&mut ctx, token);
            }
        }
        true
    }

    /// When the next queued event is due, if any: a read-only peek that
    /// lets a driver act between events without moving the clock.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.core.queue.peek().map(|Reverse(ev)| ev.at())
    }

    /// Processes every event due at or before `deadline` and leaves the
    /// clock at `max(now, deadline)`: a deadline already in the past (a
    /// wall-clock caller that lost a race) never moves time backwards.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.next_event_at().is_some_and(|at| at <= deadline) {
            self.step();
        }
        self.core.now = self.core.now.max(deadline);
    }

    /// Sends `msg` from `src` to `dst` at the current instant, exactly as
    /// if node `src` had called [`Context::send`]: an external driver's
    /// way into the world.
    pub fn post(&mut self, src: NodeId, dst: NodeId, msg: M) {
        self.core.send(src, dst, msg, false);
    }

    /// Runs until no events remain.
    ///
    /// # Panics
    ///
    /// Panics after 500 million events, which indicates a livelock (e.g. a
    /// node rescheduling a timer unconditionally forever).
    pub fn run_until_idle(&mut self) {
        assert!(
            self.run_capped(500_000_000),
            "simulation did not quiesce within 500M events — livelock?"
        );
    }

    /// Runs until idle or until `max_events` have been processed. Returns
    /// `true` if the world went idle.
    pub fn run_capped(&mut self, max_events: u64) -> bool {
        for _ in 0..max_events {
            if !self.step() {
                return true;
            }
        }
        self.core.queue.is_empty()
    }

    /// Runs until `predicate` returns true (checked after every event) or the
    /// queue drains. Returns `true` if the predicate fired.
    pub fn run_while<F: FnMut(&World<M>) -> bool>(&mut self, mut keep_going: F) -> bool {
        loop {
            if !keep_going(self) {
                return true;
            }
            if !self.step() {
                return false;
            }
        }
    }
}

impl<M: 'static> World<M> {
    /// Installs an observability sink: global and per-region-link
    /// delivery/drop counters, fault-interference counters, timer counts,
    /// and the structured event log (all under the `sim.` namespace; nodes
    /// reach the same sink through [`Context::obs`]). Recording draws no
    /// randomness and schedules nothing, so an instrumented run is
    /// byte-identical to an uninstrumented one; leave uninstalled for zero
    /// overhead beyond one branch per event.
    pub fn install_obs(&mut self, sink: ObsSink) {
        self.core.obs = Some(WorldObs::new(sink));
    }
}

/// A world configuration in which every message on every link is lost
/// with probability `p`: one fault-plan `Loss` window over the whole run.
#[cfg(test)]
fn lossy_config(p: f64) -> WorldConfig {
    use crate::faults::{FaultEvent, LinkScope};
    let plan = FaultPlan::new(0).with(FaultEvent::LossBurst {
        scope: LinkScope::All,
        at: SimTime::ZERO,
        duration: SimDuration::from_nanos(u64::MAX),
        loss: p,
    });
    WorldConfig { plan, ..WorldConfig::default() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::LatencyMatrix;

    type Msg = &'static str;

    /// Echoes each message back `bounces` times.
    struct Echo {
        bounces: u32,
        received: Vec<(NodeId, Msg)>,
        local_stamps: Vec<LocalTime>,
    }
    impl Echo {
        fn new(bounces: u32) -> Self {
            Echo { bounces, received: Vec::new(), local_stamps: Vec::new() }
        }
    }
    impl Node<Msg> for Echo {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
            self.received.push((from, msg));
            self.local_stamps.push(ctx.now_local());
            if self.bounces > 0 {
                self.bounces -= 1;
                ctx.send(from, "pong");
            }
        }
        fn on_timer(&mut self, _: &mut Context<'_, Msg>, _: u64) {}
    }

    struct Kick {
        target: NodeId,
    }
    impl Node<Msg> for Kick {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.send(self.target, "ping");
        }
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        fn on_timer(&mut self, _: &mut Context<'_, Msg>, _: u64) {}
    }

    fn two_node_world() -> (World<Msg>, NodeId, NodeId) {
        let mut w = World::new(WorldConfig::default(), 1);
        let echo = w.add_node(Region::Tokyo, Box::new(Echo::new(0)));
        let kick = w.add_node(Region::Oregon, Box::new(Kick { target: echo }));
        (w, echo, kick)
    }

    #[test]
    fn message_arrives_after_link_latency() {
        let (mut w, echo, kick) = two_node_world();
        w.run_until_idle();
        let e = w.node_as::<Echo>(echo).unwrap();
        assert_eq!(e.received, vec![(kick, "ping")]);
        // Oregon→Tokyo base one-way is 48 ms in the paper WAN.
        assert!(w.now() >= SimTime::from_millis(48));
        assert_eq!(w.delivered(), 1);
    }

    #[test]
    fn downcast_wrong_type_is_none() {
        let (w, echo, _) = two_node_world();
        assert!(w.node_as::<Kick>(echo).is_none());
        assert!(w.node_as::<Echo>(NodeId(99)).is_none());
    }

    #[test]
    fn deterministic_replay() {
        let run = |seed| {
            let mut w = World::new(WorldConfig::default(), seed);
            let echo = w.add_node(Region::Tokyo, Box::new(Echo::new(5)));
            let _kick = w.add_node(Region::Oregon, Box::new(Echo::new(5)));
            let kick = w.add_node(Region::Ireland, Box::new(Kick { target: echo }));
            let _ = kick;
            w.run_until_idle();
            w.now()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl Node<Msg> for TimerNode {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(SimDuration::from_millis(30), 3);
                ctx.set_timer(SimDuration::from_millis(10), 1);
                ctx.set_timer(SimDuration::from_millis(20), 2);
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
            fn on_timer(&mut self, _: &mut Context<'_, Msg>, token: u64) {
                self.fired.push(token);
            }
        }
        let mut w = World::new(WorldConfig::default(), 1);
        let id = w.add_node(Region::Oregon, Box::new(TimerNode { fired: vec![] }));
        w.run_until_idle();
        assert_eq!(w.node_as::<TimerNode>(id).unwrap().fired, vec![1, 2, 3]);
        assert_eq!(w.now(), SimTime::from_millis(30));
    }

    #[test]
    fn equal_deadline_events_fire_in_schedule_order() {
        struct Multi {
            fired: Vec<u64>,
        }
        impl Node<Msg> for Multi {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                for token in [9, 4, 7] {
                    ctx.set_timer(SimDuration::from_millis(5), token);
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
            fn on_timer(&mut self, _: &mut Context<'_, Msg>, token: u64) {
                self.fired.push(token);
            }
        }
        let mut w = World::new(WorldConfig::default(), 1);
        let id = w.add_node(Region::Oregon, Box::new(Multi { fired: vec![] }));
        w.run_until_idle();
        // FIFO among same-time events, by insertion sequence.
        assert_eq!(w.node_as::<Multi>(id).unwrap().fired, vec![9, 4, 7]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let (mut w, _, _) = two_node_world();
        w.run_until(SimTime::from_millis(1));
        assert_eq!(w.now(), SimTime::from_millis(1));
        assert_eq!(w.delivered(), 0);
        w.run_until(SimTime::from_secs(10));
        assert_eq!(w.delivered(), 1);
        assert_eq!(w.now(), SimTime::from_secs(10));
    }

    #[test]
    fn a_stale_deadline_never_moves_time_backwards() {
        /// Holds a far-future timer (so the queue is never empty) and
        /// answers every message with a 10 ms timer.
        struct Sleeper {
            fired: Vec<(u64, SimTime)>,
        }
        impl Node<Msg> for Sleeper {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(SimDuration::from_secs(1), 1);
            }
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: NodeId, _: Msg) {
                ctx.set_timer(SimDuration::from_millis(10), 2);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, token: u64) {
                self.fired.push((token, ctx.true_now()));
            }
        }
        let cfg = WorldConfig { matrix: LatencyMatrix::instant(), ..WorldConfig::default() };
        let mut w = World::new(cfg, 1);
        let id = w.add_node(Region::Oregon, Box::new(Sleeper { fired: vec![] }));
        w.run_until(SimTime::from_millis(100));
        // A caller that lost a race passes a deadline already behind the
        // clock, with the 1 s timer still queued.
        w.run_until(SimTime::from_millis(50));
        assert_eq!(w.now(), SimTime::from_millis(100));
        w.post(id, id, "wake");
        w.run_until(SimTime::from_millis(200));
        let fired = &w.node_as::<Sleeper>(id).unwrap().fired;
        assert_eq!(fired, &[(2, SimTime::from_millis(110))], "old now + delay");
    }

    #[test]
    fn partition_drops_messages() {
        use crate::faults::{FaultEvent, LinkScope};
        let plan = FaultPlan::new(0).with(FaultEvent::LinkFlap {
            scope: LinkScope::Nodes(NodeId(0), NodeId(1)),
            at: SimTime::ZERO,
            down_for: SimDuration::from_secs(60),
            up_for: SimDuration::ZERO,
            flaps: 1,
        });
        let mut w = World::new(WorldConfig { plan, ..WorldConfig::default() }, 1);
        let sink = ObsSink::new();
        w.install_obs(sink.clone());
        let echo = w.add_node(Region::Tokyo, Box::new(Echo::new(0)));
        let _kick = w.add_node(Region::Oregon, Box::new(Kick { target: echo }));
        w.run_until_idle();
        assert_eq!(w.fault_stats(), FaultNetStats { blocked: 1, dropped: 0, delayed: 0 });
        assert!(w.node_as::<Echo>(echo).unwrap().received.is_empty());
        for name in ["sim.dropped", "sim.fault.blocked", "sim.link.OR-JP.dropped"] {
            assert_eq!(sink.metrics.counter(name).get(), 1, "{name}");
        }
    }

    #[test]
    fn local_clock_visible_and_offset() {
        let mut w = World::new(WorldConfig::default(), 1);
        let echo = w.add_node_with_clock(
            Region::Tokyo,
            LocalClock::new(1_000_000_000, 0.0),
            Box::new(Echo::new(0)),
        );
        let _kick = w.add_node(Region::Oregon, Box::new(Kick { target: echo }));
        w.run_until_idle();
        let e = w.node_as::<Echo>(echo).unwrap();
        let stamp = e.local_stamps[0];
        // Reading = true delivery time + 1 s offset.
        assert_eq!(stamp.as_nanos(), w.now().as_nanos() as i64 + 1_000_000_000);
    }

    #[test]
    fn run_while_predicate_stops_early() {
        let (mut w, _, _) = two_node_world();
        let stopped = w.run_while(|w| w.delivered() == 0);
        assert!(stopped);
        assert_eq!(w.delivered(), 1);
    }

    #[test]
    fn run_capped_reports_livelock() {
        struct Loop;
        impl Node<Msg> for Loop {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: u64) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
        }
        let mut w = World::new(WorldConfig::default(), 1);
        w.add_node(Region::Oregon, Box::new(Loop));
        assert!(!w.run_capped(1000));
    }

    #[test]
    fn ordered_sends_never_overtake() {
        struct Collector {
            got: Vec<Msg>,
        }
        impl Node<Msg> for Collector {
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, msg: Msg) {
                self.got.push(msg);
            }
            fn on_timer(&mut self, _: &mut Context<'_, Msg>, _: u64) {}
        }
        struct Burst {
            target: NodeId,
            ordered: bool,
        }
        impl Node<Msg> for Burst {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                let labels: [Msg; 5] = ["a", "b", "c", "d", "e"];
                for m in labels {
                    if self.ordered {
                        ctx.send_ordered(self.target, m);
                    } else {
                        ctx.send(self.target, m);
                    }
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
            fn on_timer(&mut self, _: &mut Context<'_, Msg>, _: u64) {}
        }
        // Across many seeds, ordered bursts always arrive in send order;
        // unordered bursts get reordered by jitter at least once.
        let mut unordered_scrambled = false;
        for seed in 0..20 {
            for ordered in [true, false] {
                let mut w = World::new(WorldConfig::default(), seed);
                let sink = w.add_node(Region::Tokyo, Box::new(Collector { got: vec![] }));
                let _src = w.add_node(Region::Oregon, Box::new(Burst { target: sink, ordered }));
                w.run_until_idle();
                let got = &w.node_as::<Collector>(sink).unwrap().got;
                assert_eq!(got.len(), 5);
                let in_order = got == &["a", "b", "c", "d", "e"];
                if ordered {
                    assert!(in_order, "ordered send scrambled at seed {seed}: {got:?}");
                } else if !in_order {
                    unordered_scrambled = true;
                }
            }
        }
        assert!(unordered_scrambled, "jitter should scramble some unordered burst");
    }

    #[test]
    fn the_queue_pops_in_time_then_schedule_order_across_slot_reuse() {
        use std::sync::{Arc, Mutex};

        /// Every event the world queued, in the order it numbered them
        /// (`seq` = position), and every event it dispatched, in order.
        #[derive(Default)]
        struct Ledger {
            scheduled: Vec<(SimTime, u64)>,
            popped: Vec<(SimTime, u64)>,
        }
        const CAP: usize = 5_000;

        /// On each event schedules one or two more, until the ledger is
        /// full: timers 0–2 ms out or instant sends, so many share an
        /// instant and pops and pushes interleave (slots are reused).
        struct Churn {
            ledger: Arc<Mutex<Ledger>>,
            token: u64,
            peers: usize,
        }
        impl Churn {
            fn fired(&mut self, ctx: &mut Context<'_, u64>, token: u64) {
                let mut ledger = self.ledger.lock().unwrap();
                ledger.popped.push((ctx.true_now(), token));
                for _ in 0..ctx.rng().gen_range(0..=2u32) {
                    if ledger.scheduled.len() >= CAP {
                        return;
                    }
                    let token = ledger.scheduled.len() as u64;
                    let now = ctx.true_now();
                    if ctx.rng().gen_bool(0.5) {
                        let delay = SimDuration::from_millis(ctx.rng().gen_range(0..4u64));
                        ledger.scheduled.push((now + delay, token));
                        ctx.set_timer(delay, token);
                    } else {
                        let dst = NodeId(ctx.rng().gen_range(0..self.peers));
                        ledger.scheduled.push((now, token));
                        ctx.send(dst, token);
                    }
                }
            }
        }
        impl Node<u64> for Churn {
            fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
                self.fired(ctx, self.token);
            }
            fn on_message(&mut self, ctx: &mut Context<'_, u64>, _: NodeId, token: u64) {
                self.fired(ctx, token);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_, u64>, token: u64) {
                self.fired(ctx, token);
            }
        }

        for seed in 0..4 {
            let ledger = Arc::new(Mutex::new(Ledger::default()));
            let cfg = WorldConfig { matrix: LatencyMatrix::instant(), ..WorldConfig::default() };
            let mut w = World::new(cfg, seed);
            let peers = 4;
            for _ in 0..peers {
                let mut l = ledger.lock().unwrap();
                let token = l.scheduled.len() as u64;
                l.scheduled.push((w.now(), token));
                drop(l);
                w.add_node(
                    Region::Oregon,
                    Box::new(Churn { ledger: ledger.clone(), token, peers }),
                );
            }
            // The test posts between steps too, from outside any node,
            // and revives the churn whenever it dies out.
            let mut outside = SimRng::new(seed);
            loop {
                let mut l = ledger.lock().unwrap();
                let idle = w.core.queue.is_empty();
                if l.scheduled.len() < CAP && (idle || outside.gen_bool(0.05)) {
                    let token = l.scheduled.len() as u64;
                    l.scheduled.push((w.now(), token));
                    drop(l);
                    let (src, dst) = (outside.gen_range(0..peers), outside.gen_range(0..peers));
                    w.post(NodeId(src), NodeId(dst), token);
                } else {
                    drop(l);
                    if !w.step() {
                        break;
                    }
                }
            }
            let l = ledger.lock().unwrap();
            assert_eq!(l.scheduled.len(), CAP, "seed {seed}: the churn filled the ledger");
            let mut expected = l.scheduled.clone();
            expected.sort_by_key(|&(at, token)| (at, token)); // token = seq
            assert_eq!(l.popped, expected, "seed {seed}");
            assert!(w.core.events.len() < CAP / 10, "slots were reused: {}", w.core.events.len());
            let instants: std::collections::BTreeSet<_> = l.popped.iter().map(|e| e.0).collect();
            assert!((2..CAP / 10).contains(&instants.len()), "most events share an instant");
        }
    }

    #[test]
    fn a_node_added_mid_run_gets_its_links_and_fifo_channels() {
        /// Records arrivals; answers a "ping" with a "pong".
        struct Recorder {
            got: Vec<(Msg, SimTime)>,
        }
        impl Node<Msg> for Recorder {
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
                self.got.push((msg, ctx.true_now()));
                if msg == "ping" {
                    ctx.send(from, "pong");
                }
            }
            fn on_timer(&mut self, _: &mut Context<'_, Msg>, _: u64) {}
        }
        /// Pings `target`, then sends it an ordered burst.
        struct Late {
            target: NodeId,
            got: Vec<(Msg, SimTime)>,
        }
        const BURST: [Msg; 8] = ["a", "b", "c", "d", "e", "f", "g", "h"];
        impl Node<Msg> for Late {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.send(self.target, "ping");
                for m in BURST {
                    ctx.send_ordered(self.target, m);
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: NodeId, msg: Msg) {
                self.got.push((msg, ctx.true_now()));
            }
            fn on_timer(&mut self, _: &mut Context<'_, Msg>, _: u64) {}
        }

        let base = LatencyMatrix::paper_wan().link(Region::Virginia, Region::Tokyo).base;
        for seed in 0..10 {
            let mut w = World::new(WorldConfig::default(), seed);
            let tokyo = w.add_node(Region::Tokyo, Box::new(Recorder { got: vec![] }));
            w.add_node(Region::Ireland, Box::new(Echo::new(0)));
            w.run_until(SimTime::from_secs(1));
            let joined = w.now();
            let late = w.add_node(Region::Virginia, Box::new(Late { target: tokyo, got: vec![] }));
            w.run_until_idle();

            let got = &w.node_as::<Recorder>(tokyo).unwrap().got;
            let (_, ping_at) = *got.iter().find(|(m, _)| *m == "ping").expect("ping arrived");
            assert!(ping_at >= joined + base, "seed {seed}: ping beat the link's base delay");
            let burst: Vec<Msg> = got.iter().map(|(m, _)| *m).filter(|m| *m != "ping").collect();
            assert_eq!(burst, BURST, "seed {seed}: the ordered burst was scrambled");
            assert!(got.iter().all(|(_, at)| *at >= joined + base), "seed {seed}");

            let back = &w.node_as::<Late>(late).unwrap().got;
            assert_eq!(back.len(), 1, "seed {seed}: the pong came back");
            assert!(back[0].1 >= ping_at + base, "seed {seed}: pong beat the base delay");
        }
    }

    #[test]
    fn worlds_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<World<String>>();
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::faults::{FaultEvent, FaultPlan, LinkScope};

    type Msg = &'static str;

    /// Sends one "ping" to `target` every 100 ms, `count` times.
    struct Pinger {
        target: NodeId,
        count: u32,
    }
    impl Node<Msg> for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.set_timer(SimDuration::from_millis(100), 0);
        }
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: u64) {
            if self.count > 0 {
                self.count -= 1;
                ctx.send(self.target, "ping");
                ctx.set_timer(SimDuration::from_millis(100), 0);
            }
        }
    }

    struct Sink {
        got: u32,
    }
    impl Node<Msg> for Sink {
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {
            self.got += 1;
        }
        fn on_timer(&mut self, _: &mut Context<'_, Msg>, _: u64) {}
    }

    fn pinger_world(plan: FaultPlan, seed: u64) -> (World<Msg>, NodeId) {
        let mut w = World::new(WorldConfig { plan, ..WorldConfig::default() }, seed);
        let sink = w.add_node(Region::Tokyo, Box::new(Sink { got: 0 }));
        let _src = w.add_node(Region::Oregon, Box::new(Pinger { target: sink, count: 50 }));
        (w, sink)
    }

    #[test]
    fn block_window_drops_and_is_counted() {
        let plan = FaultPlan::new(1).with(FaultEvent::LinkFlap {
            scope: LinkScope::Between(Region::Oregon, Region::Tokyo),
            at: SimTime::from_secs(1),
            down_for: SimDuration::from_secs(1),
            up_for: SimDuration::from_secs(1),
            flaps: 1,
        });
        let (mut w, sink) = pinger_world(plan.clone(), 3);
        w.run_until_idle();
        let stats = w.fault_stats();
        // Sends at 1.0 s..1.9 s fall inside the block window (10 of 50).
        assert_eq!(stats.blocked, 10);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.delayed, 0);
        assert_eq!(w.node_as::<Sink>(sink).unwrap().got, 40);
    }

    #[test]
    fn loss_burst_drops_probabilistically_and_deterministically() {
        let plan = FaultPlan::new(7).with(FaultEvent::LossBurst {
            scope: LinkScope::All,
            at: SimTime::ZERO,
            duration: SimDuration::from_secs(60),
            loss: 0.5,
        });
        let run = |seed| {
            let (mut w, sink) = pinger_world(plan.clone(), seed);
            w.run_until_idle();
            (w.fault_stats(), w.node_as::<Sink>(sink).unwrap().got)
        };
        let (stats, got) = run(5);
        assert!(stats.dropped > 10 && stats.dropped < 40, "~half of 50: {stats:?}");
        assert_eq!(got, 50 - stats.dropped as u32);
        assert_eq!(run(5), (stats, got), "same seed + plan replays identically");
        assert_ne!(run(6).0, stats, "a different world seed makes different drops");
    }

    #[test]
    fn degraded_link_adds_delay_without_dropping() {
        let plan = FaultPlan::new(2).with(FaultEvent::DegradedLink {
            scope: LinkScope::Touching(Region::Tokyo),
            at: SimTime::ZERO,
            duration: SimDuration::from_secs(60),
            extra_base: SimDuration::from_secs(1),
            extra_jitter: SimDuration::from_millis(10),
        });
        let (mut w, sink) = pinger_world(plan.clone(), 4);
        let (mut base, base_sink) = pinger_world(FaultPlan::default(), 4);
        w.run_until_idle();
        base.run_until_idle();
        assert_eq!(w.fault_stats().delayed, 50);
        assert_eq!(w.node_as::<Sink>(sink).unwrap().got, 50, "nothing dropped");
        assert_eq!(base.node_as::<Sink>(base_sink).unwrap().got, 50);
        // The last ping leaves at 5.0 s and gains ≥ 1 s extra delay, so the
        // degraded world's final delivery lands past 6.0 s; the baseline
        // world is fully idle well before that.
        assert!(w.now() >= SimTime::from_secs(6));
        assert!(base.now() < SimTime::from_secs(6));
    }

    #[test]
    fn empty_effects_leave_existing_streams_untouched() {
        // A world with no effects must behave exactly like one built before
        // the fault engine existed: same deliveries, same finish time.
        let (mut a, sink_a) = pinger_world(FaultPlan::default(), 9);
        // A different fault stream, unused.
        let cfg = WorldConfig { plan: FaultPlan::new(0xDEAD_BEEF), ..WorldConfig::default() };
        let mut b = World::new(cfg, 9);
        let sink_b = b.add_node(Region::Tokyo, Box::new(Sink { got: 0 }));
        let _src = b.add_node(Region::Oregon, Box::new(Pinger { target: sink_b, count: 50 }));
        a.run_until_idle();
        b.run_until_idle();
        assert_eq!(a.now(), b.now());
        assert_eq!(a.node_as::<Sink>(sink_a).unwrap().got, b.node_as::<Sink>(sink_b).unwrap().got);
        assert_eq!(a.fault_stats(), FaultNetStats::default());
    }

    #[test]
    fn expired_effect_has_no_influence() {
        // An effect entirely in the past still exercises the effects path
        // (fault_rng exists) but changes nothing observable.
        let plan = FaultPlan::new(0).with(FaultEvent::LinkFlap {
            scope: LinkScope::All,
            at: SimTime::ZERO,
            down_for: SimDuration::from_millis(1),
            up_for: SimDuration::ZERO,
            flaps: 1,
        });
        let (mut w, sink) = pinger_world(plan, 11);
        w.run_until_idle();
        assert_eq!(w.fault_stats(), FaultNetStats::default());
        assert_eq!(w.node_as::<Sink>(sink).unwrap().got, 50);
    }

    #[test]
    fn without_a_partition_every_drop_is_a_plan_drop() {
        // Links lose nothing on their own: what a sink misses is exactly
        // what the plan's block and loss windows account for (a node-pair
        // cut is a plan window too; `partition_drops_messages` counts one).
        let plan = FaultPlan::new(3)
            .with(FaultEvent::LinkFlap {
                scope: LinkScope::Between(Region::Oregon, Region::Tokyo),
                at: SimTime::from_secs(1),
                down_for: SimDuration::from_millis(500),
                up_for: SimDuration::from_millis(500),
                flaps: 2,
            })
            .with(FaultEvent::LossBurst {
                scope: LinkScope::All,
                at: SimTime::from_secs(2),
                duration: SimDuration::from_secs(2),
                loss: 0.5,
            });
        for seed in 0..4 {
            let (mut w, sink) = pinger_world(plan.clone(), seed);
            w.run_until_idle();
            let stats = w.fault_stats();
            assert!(stats.blocked > 0 && stats.dropped > 0, "seed {seed}: {stats:?}");
            let got = u64::from(w.node_as::<Sink>(sink).unwrap().got);
            assert_eq!(got, 50 - stats.blocked - stats.dropped, "seed {seed}");
        }
        // With no plan at all, nothing is ever lost.
        let (mut w, sink) = pinger_world(FaultPlan::default(), 0);
        w.run_until_idle();
        assert_eq!(
            (w.fault_stats(), w.node_as::<Sink>(sink).unwrap().got),
            (Default::default(), 50)
        );
    }
}

#[cfg(test)]
mod trace_tests {
    //! The sim events `conprobe trace` prints: the obs event log the world
    //! writes, stamped in simulated time.
    use super::*;
    use crate::net::Region;
    use conprobe_obs::{EventLog, ObsEvent};

    type Msg = u32;

    struct Echo;
    impl Node<Msg> for Echo {
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        fn on_timer(&mut self, _: &mut Context<'_, Msg>, _: u64) {}
    }
    struct Kick {
        target: NodeId,
    }
    impl Node<Msg> for Kick {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.set_timer(SimDuration::from_millis(5), 9);
        }
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: u64) {
            ctx.send(self.target, 1);
        }
    }

    /// Runs a kick (Oregon) at an echo (Tokyo) with a log at `min`; returns
    /// the drained events, the sink, and the echo and kick ids.
    fn traced(cfg: WorldConfig, min: Severity) -> (Vec<ObsEvent>, ObsSink, NodeId, NodeId) {
        let sink = ObsSink::with_log(EventLog::new(64).with_min_severity(min));
        let mut w = World::new(cfg, 2);
        w.install_obs(sink.clone());
        let echo = w.add_node(Region::Tokyo, Box::new(Echo));
        let kick = w.add_node(Region::Oregon, Box::new(Kick { target: echo }));
        w.run_until_idle();
        (sink.log.drain(), sink, echo, kick)
    }

    #[test]
    fn tracing_records_starts_timers_and_deliveries() {
        let (events, sink, echo, kick) = traced(WorldConfig::default(), Severity::Debug);
        let messages: Vec<&str> = events.iter().map(|e| e.message.as_str()).collect();
        assert!(messages.contains(&format!("node {kick} started").as_str()), "{messages:?}");
        assert_eq!(sink.metrics.counter("sim.timers").get(), 1, "the kick's one timer");
        let delivered: Vec<_> = messages.iter().filter(|m| m.starts_with("deliver ")).collect();
        assert_eq!(delivered, [&format!("deliver {kick} -> {echo}")]);
        // Times are monotone.
        for w in events.windows(2) {
            assert!(w[0].at_nanos <= w[1].at_nanos);
        }
        // Drained: the second drain is empty.
        assert!(sink.log.drain().is_empty());
    }

    #[test]
    fn tracing_off_records_nothing() {
        // Below the log's floor nothing is kept; the counters still count.
        let (events, sink, _, _) = traced(WorldConfig::default(), Severity::Error);
        assert!(events.is_empty(), "{events:?}");
        assert_eq!(sink.metrics.counter("sim.delivered").get(), 1);
    }

    #[test]
    fn drops_are_traced() {
        let (events, _, echo, kick) = traced(lossy_config(1.0), Severity::Warn);
        let drop = format!("drop {kick} -> {echo}");
        assert!(events.iter().any(|e| e.message == drop && e.severity == Severity::Warn));
    }
}

#[cfg(test)]
mod obs_tests {
    use super::*;
    use conprobe_obs::{EventLog, Severity};

    type Msg = u32;

    struct Echo;
    impl Node<Msg> for Echo {
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        fn on_timer(&mut self, _: &mut Context<'_, Msg>, _: u64) {}
    }
    struct Kick {
        target: NodeId,
        shots: u32,
    }
    impl Node<Msg> for Kick {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.set_timer(SimDuration::from_millis(5), 9);
        }
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: u64) {
            ctx.send(self.target, 1);
            if self.shots > 1 {
                self.shots -= 1;
                ctx.set_timer(SimDuration::from_millis(5), 9);
            }
        }
    }

    fn drive(cfg: WorldConfig, sink: Option<ObsSink>) -> (World<Msg>, NodeId) {
        let mut w = World::new(cfg, 2);
        if let Some(sink) = sink {
            w.install_obs(sink);
        }
        let echo = w.add_node(Region::Tokyo, Box::new(Echo));
        let _kick = w.add_node(Region::Oregon, Box::new(Kick { target: echo, shots: 3 }));
        w.run_until_idle();
        (w, echo)
    }

    #[test]
    fn counters_match_world_totals() {
        let sink = ObsSink::new();
        let (w, _) = drive(WorldConfig::default(), Some(sink.clone()));
        assert_eq!(sink.metrics.counter("sim.delivered").get(), w.delivered());
        assert_eq!(sink.metrics.counter("sim.dropped").get(), 0);
        // 3 timer firings from Kick plus its start event; the per-link
        // Oregon→Tokyo counter sees every delivery.
        assert_eq!(sink.metrics.counter("sim.timers").get(), 3);
        assert_eq!(sink.metrics.counter("sim.link.OR-JP.delivered").get(), 3);
    }

    #[test]
    fn drops_and_faults_are_counted() {
        let sink = ObsSink::new();
        let (w, _) = drive(lossy_config(1.0), Some(sink.clone()));
        assert_eq!(w.delivered(), 0);
        let dropped = w.fault_stats().dropped;
        assert_eq!(dropped, 3, "every shot lost");
        assert_eq!(sink.metrics.counter("sim.dropped").get(), dropped);
        assert_eq!(sink.metrics.counter("sim.fault.dropped").get(), dropped);
        assert_eq!(sink.metrics.counter("sim.link.OR-JP.dropped").get(), dropped);
    }

    #[test]
    fn event_log_records_sim_time_stamped_events() {
        let sink = ObsSink::with_log(EventLog::new(64).with_min_severity(Severity::Debug));
        let (w, echo) = drive(WorldConfig::default(), Some(sink.clone()));
        let events = sink.log.drain();
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.target == "sim"));
        assert!(events.iter().any(|e| e.message.contains(&format!("-> {echo}"))));
        // Stamped in sim time, not wall time: last event at final sim now.
        assert!(events.iter().all(|e| e.at_nanos <= w.now().as_nanos()));
    }

    #[test]
    fn observability_does_not_perturb_the_schedule() {
        // Same seed, a whole-run loss window (exercises fault_rng), with and without a
        // sink installed: final sim time and delivery totals must agree.
        let sink = ObsSink::with_log(EventLog::new(16));
        let (plain, _) = drive(lossy_config(0.5), None);
        let (observed, _) = drive(lossy_config(0.5), Some(sink));
        assert_eq!(plain.now(), observed.now());
        assert_eq!(plain.delivered(), observed.delivered());
        assert_eq!(plain.fault_stats(), observed.fault_stats());
    }
}

#[cfg(test)]
mod cancel_tests {
    use super::*;

    type Msg = ();

    /// Runs a script of timer actions from `on_start` and logs firings.
    struct Timers {
        on_start: fn(&mut Timers, &mut Context<'_, Msg>),
        on_fire: fn(&mut Timers, &mut Context<'_, Msg>, u64),
        ids: Vec<TimerId>,
        cancels: Vec<bool>,
        fired: Vec<(u64, SimTime)>,
    }

    impl Timers {
        fn new(
            on_start: fn(&mut Timers, &mut Context<'_, Msg>),
            on_fire: fn(&mut Timers, &mut Context<'_, Msg>, u64),
        ) -> Box<Self> {
            Box::new(Timers { on_start, on_fire, ids: vec![], cancels: vec![], fired: vec![] })
        }
    }

    impl Node<Msg> for Timers {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            (self.on_start)(self, ctx);
        }
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, token: u64) {
            self.fired.push((token, ctx.true_now()));
            (self.on_fire)(self, ctx, token);
        }
    }

    fn world_with(
        on_start: fn(&mut Timers, &mut Context<'_, Msg>),
        on_fire: fn(&mut Timers, &mut Context<'_, Msg>, u64),
    ) -> (World<Msg>, NodeId) {
        let mut w = World::new(WorldConfig::default(), 1);
        let id = w.add_node(Region::Oregon, Timers::new(on_start, on_fire));
        (w, id)
    }

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn a_cancelled_timer_never_fires() {
        let (mut w, id) = world_with(
            |n, ctx| {
                n.ids = [10, 20, 30].map(|t| ctx.set_timer(ms(t), t)).to_vec();
                n.cancels.push(ctx.cancel_timer(n.ids[1]));
                n.cancels.push(ctx.cancel_timer(n.ids[1]));
            },
            |_, _, _| {},
        );
        w.run_until_idle();
        let n = w.node_as::<Timers>(id).unwrap();
        let tokens: Vec<u64> = n.fired.iter().map(|f| f.0).collect();
        assert_eq!(tokens, [10, 30]);
        assert_eq!(n.cancels, [true, false], "the second cancel finds nothing");
        assert_eq!(w.now(), SimTime::from_millis(30));
    }

    #[test]
    fn a_stale_timer_id_cancels_nothing_after_its_timer_fired_and_its_slot_was_reused() {
        let (mut w, id) = world_with(
            |n, ctx| n.ids.push(ctx.set_timer(ms(10), 1)),
            |n, ctx, token| {
                if token == 1 {
                    // The fired timer's slot is free again: the next event
                    // takes it.
                    n.ids.push(ctx.set_timer(ms(10), 2));
                    n.cancels.push(ctx.cancel_timer(n.ids[0]));
                }
            },
        );
        w.run_until_idle();
        let n = w.node_as::<Timers>(id).unwrap();
        assert_eq!(n.ids[0].slot, n.ids[1].slot, "the slot was reused");
        assert_eq!(n.cancels, [false]);
        assert_eq!(n.fired, [(1, SimTime::from_millis(10)), (2, SimTime::from_millis(20))]);
    }

    #[test]
    fn a_stale_timer_id_cancels_nothing_after_a_cancel_freed_its_slot() {
        let (mut w, id) = world_with(
            |n, ctx| {
                n.ids.push(ctx.set_timer(ms(10), 1));
                n.cancels.push(ctx.cancel_timer(n.ids[0]));
                n.ids.push(ctx.set_timer(ms(5), 2));
                n.cancels.push(ctx.cancel_timer(n.ids[0]));
            },
            |_, _, _| {},
        );
        w.run_until_idle();
        let n = w.node_as::<Timers>(id).unwrap();
        assert_eq!(n.ids[0].slot, n.ids[1].slot, "the slot was reused");
        assert_eq!(n.cancels, [true, false]);
        assert_eq!(n.fired, [(2, SimTime::from_millis(5))]);
        assert_eq!(w.now(), SimTime::from_millis(5), "the cancelled key moved no clock");
    }

    #[test]
    fn a_node_cannot_cancel_another_nodes_timer() {
        use std::sync::Mutex;
        static SHARED: Mutex<Option<TimerId>> = Mutex::new(None);
        let mut w: World<Msg> = World::new(WorldConfig::default(), 1);
        let setter = Timers::new(
            |_, ctx| *SHARED.lock().unwrap() = Some(ctx.set_timer(ms(10), 7)),
            |_, _, _| {},
        );
        let thief = Timers::new(
            |n, ctx| {
                let id = SHARED.lock().unwrap().expect("the setter started first");
                n.cancels.push(ctx.cancel_timer(id));
            },
            |_, _, _| {},
        );
        let a = w.add_node(Region::Oregon, setter);
        let b = w.add_node(Region::Oregon, thief);
        w.run_until_idle();
        assert_eq!(w.node_as::<Timers>(b).unwrap().cancels, [false]);
        assert_eq!(w.node_as::<Timers>(a).unwrap().fired, [(7, SimTime::from_millis(10))]);
    }

    #[test]
    fn cancelling_the_earliest_event_leaves_next_event_at_and_run_until_exact() {
        let (mut w, id) = world_with(
            |n, ctx| {
                n.ids = [10, 20, 50].map(|t| ctx.set_timer(ms(t), t)).to_vec();
                // Cancel the head, then the new head: both sit at the top
                // of the queue when cancelled.
                n.cancels.push(ctx.cancel_timer(n.ids[0]));
                n.cancels.push(ctx.cancel_timer(n.ids[1]));
            },
            |_, _, _| {},
        );
        assert!(w.step(), "the node starts");
        assert_eq!(w.next_event_at(), Some(SimTime::from_millis(50)));
        w.run_until(SimTime::from_millis(30));
        assert_eq!(w.now(), SimTime::from_millis(30), "no step past the deadline");
        assert!(w.node_as::<Timers>(id).unwrap().fired.is_empty());
        w.run_until(SimTime::from_millis(50));
        let n = w.node_as::<Timers>(id).unwrap();
        assert_eq!(n.fired, [(50, SimTime::from_millis(50))]);
        assert_eq!(n.cancels, [true, true]);
        assert_eq!(w.next_event_at(), None);
        assert!(w.run_capped(1), "an empty queue is idle");
    }

    #[test]
    fn cancelling_keeps_the_order_of_the_remaining_events() {
        // Equal deadlines fire in schedule order with or without a cancel
        // between them.
        let (mut w, id) = world_with(
            |n, ctx| {
                n.ids = [1, 2, 3, 4, 5].map(|t| ctx.set_timer(ms(5), t)).to_vec();
                n.cancels.push(ctx.cancel_timer(n.ids[2]));
            },
            |_, _, _| {},
        );
        w.run_until_idle();
        let tokens: Vec<u64> = w.node_as::<Timers>(id).unwrap().fired.iter().map(|f| f.0).collect();
        assert_eq!(tokens, [1, 2, 4, 5]);
    }
}
