//! Declarative, composable fault plans.
//!
//! A [`FaultPlan`] is a timed script of [`FaultEvent`]s — link flaps, loss
//! bursts, degraded links, replica crash/restart cycles, front-door
//! brownouts — that can be attached to a simulated world. The plan is pure
//! data: it compiles into
//!
//! * **network effects** ([`FaultPlan::network_effects`]) — [`LinkEffect`]
//!   windows scoped to regions or to one node pair. One function,
//!   [`judge_link`], decides what region windows do to a message:
//!   [`crate::world::World`] calls it on every send, drawing from a
//!   dedicated `"faults"` random stream (so an empty plan leaves every
//!   existing random stream untouched and replays remain byte-identical),
//!   and chaosd calls it on every frame it forwards. Both count its
//!   verdicts in one [`FaultNetStats`]. A node-pair window is a cut
//!   ([`LinkEffect::cuts`]) that only a world can judge: chaosd sees
//!   regions, not nodes;
//! * **service actions** ([`FaultPlan::service_actions`]) — a time-sorted
//!   list of crash/recover/brownout transitions against abstract target
//!   indices, which a deployment layer (that knows the real node ids) turns
//!   into control messages.
//!
//! Everything is deterministic: the same seed and plan produce the same
//! fault timeline, drop decisions and delay samples on every run.

use crate::net::{LinkSpec, Region};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::world::NodeId;
use conprobe_json::{member, FromJson, JsonError, JsonValue};
use std::fmt;

/// Which links a network-level fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkScope {
    /// Every link in the world, including intra-region ones.
    All,
    /// Links between the two regions, in both directions.
    Between(Region, Region),
    /// Every link with at least one endpoint in the region.
    Touching(Region),
    /// The link between two simulated nodes, in both directions. No
    /// region pair is covered by it: only [`LinkEffect::cuts`] sees it.
    Nodes(NodeId, NodeId),
}

impl LinkScope {
    /// Whether a message between regions `a` and `b` is covered.
    pub fn covers(&self, a: Region, b: Region) -> bool {
        match self {
            LinkScope::All => true,
            LinkScope::Between(x, y) => (a == *x && b == *y) || (a == *y && b == *x),
            LinkScope::Touching(r) => a == *r || b == *r,
            LinkScope::Nodes(..) => false,
        }
    }
}

/// What an active [`LinkEffect`] does to covered traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EffectKind {
    /// Drop every covered message (a hard outage).
    Block,
    /// Drop each covered message with this probability.
    Loss(f64),
    /// Add `base + Exp(jitter_mean)` of extra one-way delay.
    ExtraDelay {
        /// Minimum extra delay.
        base: SimDuration,
        /// Mean of the exponential tail added on top of `base`.
        jitter_mean: SimDuration,
    },
}

/// One compiled network-fault window: during `[start, end)`, traffic
/// covered by `scope` suffers `kind`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkEffect {
    /// The links affected.
    pub scope: LinkScope,
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// The fault behaviour while active.
    pub kind: EffectKind,
}

impl LinkEffect {
    /// Whether this effect applies to an `a → b` message sent at `at`.
    pub fn applies(&self, a: Region, b: Region, at: SimTime) -> bool {
        at >= self.start && at < self.end && self.scope.covers(a, b)
    }

    /// Whether this is a [`EffectKind::Block`] window on the node pair
    /// `src`–`dst` (either direction) that is open at `at`.
    pub fn cuts(&self, src: NodeId, dst: NodeId, at: SimTime) -> bool {
        let LinkScope::Nodes(x, y) = self.scope else { return false };
        let pair = (src == x && dst == y) || (src == y && dst == x);
        pair && self.kind == EffectKind::Block && at >= self.start && at < self.end
    }
}

/// What [`judge_link`] decided for one message or frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkVerdict {
    /// A [`EffectKind::Block`] window covers it: lost, nothing drawn.
    Blocked,
    /// The strongest [`EffectKind::Loss`] window's draw lost it.
    Dropped,
    /// It goes through this much later than the link alone would carry
    /// it: the sum of the covering [`EffectKind::ExtraDelay`] windows.
    Deliver(SimDuration),
}

/// The one link-fault judge: decides one `a → b` message or frame sent
/// at `at` against compiled `effects`, draws from `rng` (the fault
/// stream), and counts the verdict into `stats`. The simulator judges
/// every send with it and chaosd every frame, so both arms follow the
/// same three rules with the same draws:
///
/// 1. any covering `Block` window blocks it, and nothing is drawn;
/// 2. otherwise the strongest covering `Loss` window takes one
///    `gen_bool(p)` — overlapping windows do not compound;
/// 3. otherwise each covering `ExtraDelay` window, in effect order, adds
///    `base + round(Exp(jitter_mean))`. Only a non-zero sum counts as
///    `delayed`.
///
/// A [`LinkScope::Nodes`] window covers no region pair, so the judge
/// passes it by: a world checks it with [`LinkEffect::cuts`].
pub fn judge_link(
    effects: &[LinkEffect],
    a: Region,
    b: Region,
    at: SimTime,
    rng: &mut SimRng,
    stats: &mut FaultNetStats,
) -> LinkVerdict {
    let active = || effects.iter().filter(move |e| e.applies(a, b, at));
    if active().any(|e| e.kind == EffectKind::Block) {
        stats.blocked += 1;
        return LinkVerdict::Blocked;
    }
    let strongest_loss = active()
        .filter_map(|e| match e.kind {
            EffectKind::Loss(p) => Some(p),
            _ => None,
        })
        .reduce(f64::max);
    if strongest_loss.is_some_and(|p| rng.gen_bool(p)) {
        stats.dropped += 1;
        return LinkVerdict::Dropped;
    }
    let mut extra = SimDuration::ZERO;
    for e in active() {
        if let EffectKind::ExtraDelay { base, jitter_mean } = e.kind {
            extra += LinkSpec { base, jitter_mean }.sample_delay(rng);
        }
    }
    stats.delayed += u64::from(!extra.is_zero());
    LinkVerdict::Deliver(extra)
}

/// How a browned-out front door mistreats client requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrownoutMode {
    /// Answer every client request with a throttle rejection — the
    /// "`Throttled`-storm" failure mode of an overloaded rate limiter.
    ThrottleStorm,
    /// Hold every client request for this long before serving it.
    Delay(SimDuration),
}

/// One timed fault in a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// The covered links flap: starting at `at`, they go down for
    /// `down_for`, come back up for `up_for`, and repeat `flaps` times.
    LinkFlap {
        /// The links affected.
        scope: LinkScope,
        /// First outage start.
        at: SimTime,
        /// Outage length per flap.
        down_for: SimDuration,
        /// Healthy gap between consecutive outages.
        up_for: SimDuration,
        /// Number of down/up cycles.
        flaps: u32,
    },
    /// A burst of heavy random loss on the covered links.
    LossBurst {
        /// The links affected.
        scope: LinkScope,
        /// Burst start.
        at: SimTime,
        /// Burst length.
        duration: SimDuration,
        /// Per-message drop probability during the burst.
        loss: f64,
    },
    /// A latency spike: covered links gain `extra_base + Exp(extra_jitter)`
    /// of one-way delay.
    DegradedLink {
        /// The links affected.
        scope: LinkScope,
        /// Degradation start.
        at: SimTime,
        /// Degradation length.
        duration: SimDuration,
        /// Minimum extra one-way delay.
        extra_base: SimDuration,
        /// Mean of the exponential extra jitter.
        extra_jitter: SimDuration,
    },
    /// A service target crashes and restarts repeatedly: `cycles` rounds of
    /// down `down_for`, then up `up_for`, starting at `at`.
    CrashCycle {
        /// Abstract target index (resolved against the deployed replica
        /// list by the layer that executes the plan).
        target: usize,
        /// First crash instant.
        at: SimTime,
        /// Downtime per cycle.
        down_for: SimDuration,
        /// Uptime between recoveries and the next crash.
        up_for: SimDuration,
        /// Number of crash/restart rounds.
        cycles: u32,
    },
    /// A front-door brownout: the target mistreats client requests per
    /// `mode` for the duration of the window.
    Brownout {
        /// Abstract target index.
        target: usize,
        /// Brownout start.
        at: SimTime,
        /// Brownout length.
        duration: SimDuration,
        /// The misbehaviour.
        mode: BrownoutMode,
    },
}

/// A service-level state transition compiled from a plan, to be executed
/// against target `target` at time `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceAction {
    /// Abstract target index.
    pub target: usize,
    /// When the transition happens.
    pub at: SimTime,
    /// The transition.
    pub action: ServiceActionKind,
}

/// The service-level transitions a plan can schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceActionKind {
    /// Crash the target (volatile state lost).
    Crash,
    /// Restart the target with empty state.
    Recover,
    /// Begin a brownout in the given mode.
    BrownoutStart(BrownoutMode),
    /// End the brownout.
    BrownoutEnd,
}

impl fmt::Display for ServiceActionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceActionKind::Crash => f.write_str("crash"),
            ServiceActionKind::Recover => f.write_str("recover"),
            ServiceActionKind::BrownoutStart(BrownoutMode::ThrottleStorm) => {
                f.write_str("brownout(throttle-storm)")
            }
            ServiceActionKind::BrownoutStart(BrownoutMode::Delay(d)) => {
                write!(f, "brownout(delay {d})")
            }
            ServiceActionKind::BrownoutEnd => f.write_str("brownout-end"),
        }
    }
}

/// Network-fault counters, as [`judge_link`] counts them: how many
/// messages or frames a plan's effects blocked, probabilistically dropped,
/// or delayed. The network half of both a world's fault ledger and
/// chaosd's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultNetStats {
    /// Messages dropped by a [`EffectKind::Block`] window.
    pub blocked: u64,
    /// Messages dropped by a [`EffectKind::Loss`] sample.
    pub dropped: u64,
    /// Messages that picked up [`EffectKind::ExtraDelay`].
    pub delayed: u64,
}

impl FaultNetStats {
    /// Total messages the plan interfered with.
    pub fn total(&self) -> u64 {
        self.blocked + self.dropped + self.delayed
    }
}

/// The most flaps one outage-trace `partition` incident may ask for. Each
/// flap compiles to its own [`LinkEffect`], and [`judge_link`] scans every
/// effect for every message, so a trace may not ask for billions.
pub const MAX_TRACE_FLAPS: u32 = 10_000;

/// A deterministic script of composable fault events.
///
/// Build one with [`FaultPlan::new`] and the [`FaultPlan::with`] builder,
/// then hand it to the harness (or compile it yourself via
/// [`FaultPlan::network_effects`] / [`FaultPlan::service_actions`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new(0)
    }
}

impl FaultPlan {
    /// An empty plan. `seed` feeds the world's dedicated fault random
    /// stream, so two plans with the same events but different seeds make
    /// different (but individually reproducible) drop/delay decisions.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, events: Vec::new() }
    }

    /// Builder-style event append.
    pub fn with(mut self, event: FaultEvent) -> Self {
        self.push(event);
        self
    }

    /// Appends an event.
    ///
    /// # Panics
    ///
    /// Panics if a loss probability is outside `[0, 1]`.
    pub fn push(&mut self, event: FaultEvent) {
        if let FaultEvent::LossBurst { loss, .. } = event {
            assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        }
        self.events.push(event);
    }

    /// The plan's fault-stream seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Compiles the network-level events into [`LinkEffect`] windows.
    pub fn network_effects(&self) -> Vec<LinkEffect> {
        let mut out = Vec::new();
        for ev in &self.events {
            match *ev {
                FaultEvent::LinkFlap { scope, at, down_for, up_for, flaps } => {
                    let period = down_for + up_for;
                    for k in 0..flaps as u64 {
                        let start = at + period.saturating_mul(k);
                        out.push(LinkEffect {
                            scope,
                            start,
                            end: start + down_for,
                            kind: EffectKind::Block,
                        });
                    }
                }
                FaultEvent::LossBurst { scope, at, duration, loss } => {
                    out.push(LinkEffect {
                        scope,
                        start: at,
                        end: at + duration,
                        kind: EffectKind::Loss(loss),
                    });
                }
                FaultEvent::DegradedLink { scope, at, duration, extra_base, extra_jitter } => {
                    out.push(LinkEffect {
                        scope,
                        start: at,
                        end: at + duration,
                        kind: EffectKind::ExtraDelay {
                            base: extra_base,
                            jitter_mean: extra_jitter,
                        },
                    });
                }
                FaultEvent::CrashCycle { .. } | FaultEvent::Brownout { .. } => {}
            }
        }
        out
    }

    /// Compiles the service-level events into a time-sorted action list
    /// (stable under equal times, so composition order breaks ties).
    pub fn service_actions(&self) -> Vec<ServiceAction> {
        let mut out = Vec::new();
        for ev in &self.events {
            match *ev {
                FaultEvent::CrashCycle { target, at, down_for, up_for, cycles } => {
                    let period = down_for + up_for;
                    for k in 0..cycles as u64 {
                        let crash_at = at + period.saturating_mul(k);
                        out.push(ServiceAction {
                            target,
                            at: crash_at,
                            action: ServiceActionKind::Crash,
                        });
                        out.push(ServiceAction {
                            target,
                            at: crash_at + down_for,
                            action: ServiceActionKind::Recover,
                        });
                    }
                }
                FaultEvent::Brownout { target, at, duration, mode } => {
                    out.push(ServiceAction {
                        target,
                        at,
                        action: ServiceActionKind::BrownoutStart(mode),
                    });
                    out.push(ServiceAction {
                        target,
                        at: at + duration,
                        action: ServiceActionKind::BrownoutEnd,
                    });
                }
                FaultEvent::LinkFlap { .. }
                | FaultEvent::LossBurst { .. }
                | FaultEvent::DegradedLink { .. } => {}
            }
        }
        out.sort_by_key(|a| a.at);
        out
    }

    /// Compiles a Cloud-Uptime-Archive-style outage-shape document into
    /// a fault plan, so chaos sweeps replay *measured* production
    /// incidents instead of synthetic flaps.
    ///
    /// Expected shape — a `seed` plus a list of timed incidents:
    ///
    /// ```json
    /// {"seed": 42, "incidents": [
    ///   {"kind": "partition", "start_ms": 4000, "duration_ms": 2000,
    ///    "regions": ["tokyo", "ireland"], "flaps": 2, "gap_ms": 1500},
    ///   {"kind": "loss",      "start_ms": 4000, "duration_ms": 9000,
    ///    "severity": 0.25},
    ///   {"kind": "degraded",  "start_ms": 5000, "duration_ms": 8000,
    ///    "regions": ["tokyo"], "extra_ms": 80, "jitter_ms": 20},
    ///   {"kind": "outage",    "start_ms": 7000, "duration_ms": 4000,
    ///    "target": 1},
    ///   {"kind": "brownout",  "start_ms": 8000, "duration_ms": 5000,
    ///    "target": 0, "mode": "throttle"}
    /// ]}
    /// ```
    ///
    /// `regions` scopes network incidents: absent or empty means every
    /// link, one region means every link touching it, two means the
    /// link between them. `severity` is the loss probability; an
    /// `outage` is one crash/restart cycle of the target replica; a
    /// `brownout` mode is `"throttle"` or `{"delay_ms": N}`. `flaps`
    /// (default 1, at most [`MAX_TRACE_FLAPS`]) repeats a partition with
    /// `gap_ms` of healthy time between outages.
    pub fn from_outage_trace(json: &str) -> Result<FaultPlan, JsonError> {
        let doc = conprobe_json::parse(json)?;
        let seed = u64::from_json(member(&doc, "seed")?)?;
        let mut plan = FaultPlan::new(seed);
        let JsonValue::Array(incidents) = member(&doc, "incidents")? else {
            return Err(JsonError::schema("`incidents` must be an array"));
        };
        for incident in incidents {
            let kind = String::from_json(member(incident, "kind")?)?;
            let at = SimTime::ZERO + millis(incident, "start_ms")?;
            let duration = millis(incident, "duration_ms")?;
            // How long after `at` the incident's last window closes.
            let mut span = Some(duration.as_nanos());
            let event = match kind.as_str() {
                "partition" => {
                    let flaps = match incident.get("flaps") {
                        Some(v) => u32::from_json(v)?,
                        None => 1,
                    };
                    if flaps > MAX_TRACE_FLAPS {
                        return Err(JsonError::schema(format!(
                            "`flaps` is {flaps}, above the cap of {MAX_TRACE_FLAPS} per incident"
                        )));
                    }
                    let up_for = match incident.get("gap_ms") {
                        Some(_) => millis(incident, "gap_ms")?,
                        None => SimDuration::ZERO,
                    };
                    span = duration
                        .as_nanos()
                        .checked_add(up_for.as_nanos())
                        .and_then(|period| period.checked_mul(u64::from(flaps.saturating_sub(1))))
                        .and_then(|last_start| last_start.checked_add(duration.as_nanos()));
                    FaultEvent::LinkFlap {
                        scope: incident_scope(incident)?,
                        at,
                        down_for: duration,
                        up_for,
                        flaps,
                    }
                }
                "loss" => {
                    let loss = f64::from_json(member(incident, "severity")?)?;
                    if !(0.0..=1.0).contains(&loss) {
                        return Err(JsonError::schema("`severity` must be a probability"));
                    }
                    FaultEvent::LossBurst { scope: incident_scope(incident)?, at, duration, loss }
                }
                "degraded" => FaultEvent::DegradedLink {
                    scope: incident_scope(incident)?,
                    at,
                    duration,
                    extra_base: millis(incident, "extra_ms")?,
                    extra_jitter: match incident.get("jitter_ms") {
                        Some(_) => millis(incident, "jitter_ms")?,
                        None => SimDuration::ZERO,
                    },
                },
                "outage" => FaultEvent::CrashCycle {
                    target: usize::from_json(member(incident, "target")?)?,
                    at,
                    down_for: duration,
                    up_for: SimDuration::ZERO,
                    cycles: 1,
                },
                "brownout" => FaultEvent::Brownout {
                    target: usize::from_json(member(incident, "target")?)?,
                    at,
                    duration,
                    mode: match member(incident, "mode")? {
                        JsonValue::Str(s) if s == "throttle" => BrownoutMode::ThrottleStorm,
                        v => BrownoutMode::Delay(millis(v, "delay_ms")?),
                    },
                },
                other => return Err(JsonError::schema(format!("unknown incident kind `{other}`"))),
            };
            if span.and_then(|span| at.as_nanos().checked_add(span)).is_none() {
                return Err(JsonError::schema(format!(
                    "a `{kind}` incident ends past the end of the simulated clock"
                )));
            }
            plan.push(event);
        }
        Ok(plan)
    }

    /// The instant after which the plan schedules nothing (the latest
    /// window end / last action time); [`SimTime::ZERO`] for an empty plan.
    pub fn end_time(&self) -> SimTime {
        let net = self.network_effects().into_iter().map(|e| e.end);
        let svc = self.service_actions().into_iter().map(|a| a.at);
        net.chain(svc).max().unwrap_or(SimTime::ZERO)
    }
}

/// Reads a millisecond member of `value` as a duration. A count of
/// milliseconds the simulated clock cannot hold is a schema error.
fn millis(value: &JsonValue, name: &str) -> Result<SimDuration, JsonError> {
    u64::from_json(member(value, name)?)?
        .checked_mul(1_000_000)
        .map(SimDuration::from_nanos)
        .ok_or_else(|| JsonError::schema(format!("`{name}` overflows the simulated clock")))
}

/// Parses an incident's optional `regions` list into a [`LinkScope`].
fn incident_scope(incident: &JsonValue) -> Result<LinkScope, JsonError> {
    let Some(regions) = incident.get("regions") else {
        return Ok(LinkScope::All);
    };
    let JsonValue::Array(items) = regions else {
        return Err(JsonError::schema("`regions` must be an array"));
    };
    let mut parsed = Vec::with_capacity(items.len());
    for item in items {
        let name = String::from_json(item)?;
        parsed.push(match name.to_ascii_lowercase().as_str() {
            "oregon" => Region::Oregon,
            "tokyo" => Region::Tokyo,
            "ireland" => Region::Ireland,
            "virginia" => Region::Virginia,
            other => return Err(JsonError::schema(format!("unknown region `{other}`"))),
        });
    }
    match parsed.as_slice() {
        [] => Ok(LinkScope::All),
        [one] => Ok(LinkScope::Touching(*one)),
        [a, b] => Ok(LinkScope::Between(*a, *b)),
        _ => Err(JsonError::schema("`regions` takes at most two entries")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_coverage() {
        let or = Region::Oregon;
        let jp = Region::Tokyo;
        let ir = Region::Ireland;
        assert!(LinkScope::All.covers(or, jp));
        assert!(LinkScope::Between(or, jp).covers(jp, or), "symmetric");
        assert!(!LinkScope::Between(or, jp).covers(or, ir));
        assert!(LinkScope::Touching(jp).covers(or, jp));
        assert!(LinkScope::Touching(jp).covers(jp, jp));
        assert!(!LinkScope::Touching(jp).covers(or, ir));
        for (a, b) in [(or, jp), (jp, jp)] {
            assert!(!LinkScope::Nodes(NodeId(0), NodeId(1)).covers(a, b), "no region pair");
        }
    }

    fn window(scope: LinkScope, start: SimTime, end: SimTime, kind: EffectKind) -> LinkEffect {
        LinkEffect { scope, start, end, kind }
    }

    #[test]
    fn node_pair_cuts_block_both_directions_within_window() {
        // Node 0 cut off from nodes 1 and 2: one flap per pair.
        let flap = |other| FaultEvent::LinkFlap {
            scope: LinkScope::Nodes(NodeId(0), NodeId(other)),
            at: SimTime::from_secs(10),
            down_for: SimDuration::from_secs(10),
            up_for: SimDuration::ZERO,
            flaps: 1,
        };
        let effects = FaultPlan::new(0).with(flap(1)).with(flap(2)).network_effects();
        let cut = |src, dst, at| effects.iter().any(|e| e.cuts(NodeId(src), NodeId(dst), at));
        let mid = SimTime::from_secs(15);
        assert!(cut(0, 1, mid));
        assert!(cut(2, 0, mid));
        assert!(!cut(1, 2, mid)); // same side
        assert!(!cut(0, 1, SimTime::from_secs(9)));
        assert!(!cut(0, 1, SimTime::from_secs(20))); // end exclusive
    }

    #[test]
    fn only_a_node_pair_block_window_cuts_and_the_judge_passes_it_by() {
        let (s0, s1) = (SimTime::ZERO, SimTime::from_secs(1));
        let pair = LinkScope::Nodes(NodeId(3), NodeId(4));
        let mid = SimTime::from_millis(500);
        assert!(window(pair, s0, s1, EffectKind::Block).cuts(NodeId(3), NodeId(4), mid));
        assert!(!window(pair, s0, s1, EffectKind::Block).cuts(NodeId(3), NodeId(5), mid));
        assert!(!window(pair, s0, s1, EffectKind::Loss(1.0)).cuts(NodeId(3), NodeId(4), mid));
        assert!(!window(LinkScope::All, s0, s1, EffectKind::Block).cuts(NodeId(3), NodeId(4), mid));
        // The region judge sees no window at all: nothing blocked, drawn
        // or counted.
        let effects =
            [window(pair, s0, s1, EffectKind::Block), window(pair, s0, s1, EffectKind::Loss(1.0))];
        let (mut rng, mut twin) = (SimRng::new(2), SimRng::new(2));
        let mut stats = FaultNetStats::default();
        let verdict =
            judge_link(&effects, Region::Tokyo, Region::Virginia, mid, &mut rng, &mut stats);
        assert_eq!(verdict, LinkVerdict::Deliver(SimDuration::ZERO));
        assert_eq!(stats, FaultNetStats::default());
        assert!(in_step(&mut rng, &mut twin));
    }

    /// Judges an Oregon → Tokyo message sent at time zero.
    fn judge_or_jp(
        effects: &[LinkEffect],
        rng: &mut SimRng,
        stats: &mut FaultNetStats,
    ) -> LinkVerdict {
        judge_link(effects, Region::Oregon, Region::Tokyo, SimTime::ZERO, rng, stats)
    }

    /// Whether `rng` and `twin` are at the same point of one stream.
    fn in_step(rng: &mut SimRng, twin: &mut SimRng) -> bool {
        rng.gen_u64() == twin.gen_u64()
    }

    #[test]
    fn judge_windows_are_scoped_timed_and_take_the_strongest_loss() {
        let (or, jp, ir) = (Region::Oregon, Region::Tokyo, Region::Ireland);
        let (s1, s2, s3) = (SimTime::from_secs(1), SimTime::from_secs(2), SimTime::from_secs(3));
        let mut effects = vec![
            window(LinkScope::Between(or, jp), s1, s2, EffectKind::Block),
            window(LinkScope::Touching(jp), s1, s3, EffectKind::Loss(0.25)),
            window(LinkScope::All, s1, s3, EffectKind::Loss(0.75)),
        ];
        let (mut rng, mut twin) = (SimRng::new(1), SimRng::new(1));
        let mut stats = FaultNetStats::default();
        let mid = SimTime::from_millis(1_500);
        let mut judge = |effects: &[LinkEffect], a, b, at, rng: &mut SimRng| {
            judge_link(effects, a, b, at, rng, &mut stats)
        };
        assert_eq!(judge(&effects, or, jp, mid, &mut rng), LinkVerdict::Blocked);
        assert_eq!(judge(&effects, jp, or, mid, &mut rng), LinkVerdict::Blocked, "symmetric");
        // The block window is end-exclusive and scoped; the strongest of
        // the overlapping loss windows judges what it leaves.
        let mut dropped = 0;
        for (a, b, at) in [(or, jp, s2), (or, ir, mid)] {
            let lost = twin.gen_bool(0.75);
            dropped += u64::from(lost);
            let verdict = judge(&effects, a, b, at, &mut rng);
            assert_eq!(verdict == LinkVerdict::Dropped, lost, "{a} -> {b} at {at}");
            if !lost {
                assert_eq!(verdict, LinkVerdict::Deliver(SimDuration::ZERO), "no delay window");
            }
        }
        // Past every window: delivered on time, nothing drawn.
        let late = SimTime::from_secs(4);
        assert_eq!(
            judge(&effects, or, jp, late, &mut rng),
            LinkVerdict::Deliver(SimDuration::ZERO)
        );
        assert!(in_step(&mut rng, &mut twin));
        // Extra delay comes only from ExtraDelay windows.
        effects.push(window(
            LinkScope::All,
            SimTime::ZERO,
            SimTime::from_secs(10),
            EffectKind::ExtraDelay {
                base: SimDuration::from_millis(100),
                jitter_mean: SimDuration::from_millis(10),
            },
        ));
        let LinkVerdict::Deliver(d) = judge(&effects, or, jp, late, &mut rng) else {
            panic!("only a delay window covers {late}");
        };
        assert!(d >= SimDuration::from_millis(100));
        assert_eq!(stats, FaultNetStats { blocked: 2, dropped, delayed: 1 });
    }

    #[test]
    fn a_block_window_takes_no_draw() {
        let all = |kind| window(LinkScope::All, SimTime::ZERO, SimTime::from_secs(1), kind);
        let effects = [
            all(EffectKind::Loss(0.5)),
            all(EffectKind::ExtraDelay {
                base: SimDuration::from_millis(1),
                jitter_mean: SimDuration::from_millis(1),
            }),
            all(EffectKind::Block),
        ];
        let (mut rng, mut twin) = (SimRng::new(5), SimRng::new(5));
        let mut stats = FaultNetStats::default();
        for _ in 0..10 {
            let verdict = judge_or_jp(&effects, &mut rng, &mut stats);
            assert_eq!(verdict, LinkVerdict::Blocked);
        }
        assert!(in_step(&mut rng, &mut twin), "ten blocked messages drew nothing");
        assert_eq!(stats, FaultNetStats { blocked: 10, ..FaultNetStats::default() });
    }

    #[test]
    fn overlapping_loss_windows_take_one_draw_at_the_larger_p() {
        let until = SimTime::from_secs(1);
        let effects = [
            window(LinkScope::All, SimTime::ZERO, until, EffectKind::Loss(0.3)),
            window(
                LinkScope::Touching(Region::Oregon),
                SimTime::ZERO,
                until,
                EffectKind::Loss(0.6),
            ),
        ];
        let (mut rng, mut twin) = (SimRng::new(9), SimRng::new(9));
        let mut stats = FaultNetStats::default();
        let mut lost = 0;
        for _ in 0..200 {
            let verdict = judge_or_jp(&effects, &mut rng, &mut stats);
            let expected = twin.gen_bool(0.6);
            lost += u64::from(expected);
            assert_eq!(verdict == LinkVerdict::Dropped, expected);
        }
        assert!(in_step(&mut rng, &mut twin), "exactly one draw a message");
        assert_eq!(stats, FaultNetStats { dropped: lost, ..FaultNetStats::default() });
        assert!(lost > 90 && lost < 150, "~60 % of 200, not the compound 72 %: {lost}");
    }

    #[test]
    fn extra_delay_windows_add_up_in_effect_order_with_rounded_jitter() {
        let until = SimTime::from_secs(1);
        let delay = |base_ms, jitter_nanos| EffectKind::ExtraDelay {
            base: SimDuration::from_millis(base_ms),
            jitter_mean: SimDuration::from_nanos(jitter_nanos),
        };
        // A nanosecond-scale jitter rounds differently from a truncated one
        // about half the time; a thousandfold gap tells the means apart.
        let effects = [
            window(LinkScope::All, SimTime::ZERO, until, delay(5, 3)),
            window(LinkScope::All, SimTime::ZERO, until, EffectKind::Loss(0.0)),
            window(LinkScope::Touching(Region::Tokyo), SimTime::ZERO, until, delay(1, 3_000)),
            window(LinkScope::Touching(Region::Ireland), SimTime::ZERO, until, delay(50, 9)),
        ];
        let (mut rng, mut twin) = (SimRng::new(4), SimRng::new(4));
        let mut stats = FaultNetStats::default();
        for _ in 0..50 {
            let verdict = judge_or_jp(&effects, &mut rng, &mut stats);
            twin.gen_bool(0.0);
            let first = twin.gen_exp(3.0).round() as u64;
            let second = twin.gen_exp(3_000.0).round() as u64;
            let expected = SimDuration::from_nanos(6_000_000 + first + second);
            assert_eq!(verdict, LinkVerdict::Deliver(expected));
        }
        assert!(in_step(&mut rng, &mut twin));
        assert_eq!(stats, FaultNetStats { delayed: 50, ..FaultNetStats::default() });
        // A window that adds nothing delays nothing.
        let idle = [window(LinkScope::All, SimTime::ZERO, until, delay(0, 0))];
        let verdict = judge_or_jp(&idle, &mut rng, &mut stats);
        assert_eq!(verdict, LinkVerdict::Deliver(SimDuration::ZERO));
        assert_eq!(stats.delayed, 50);
    }

    #[test]
    fn link_flap_compiles_to_block_windows() {
        let plan = FaultPlan::new(1).with(FaultEvent::LinkFlap {
            scope: LinkScope::All,
            at: SimTime::from_secs(10),
            down_for: SimDuration::from_secs(2),
            up_for: SimDuration::from_secs(3),
            flaps: 3,
        });
        let effects = plan.network_effects();
        assert_eq!(effects.len(), 3);
        for (k, e) in effects.iter().enumerate() {
            assert_eq!(e.kind, EffectKind::Block);
            assert_eq!(e.start, SimTime::from_secs(10 + 5 * k as u64));
            assert_eq!(e.end, SimTime::from_secs(12 + 5 * k as u64));
        }
        // Windows are end-exclusive and scoped.
        assert!(effects[0].applies(Region::Oregon, Region::Tokyo, SimTime::from_secs(10)));
        assert!(!effects[0].applies(Region::Oregon, Region::Tokyo, SimTime::from_secs(12)));
        assert_eq!(plan.end_time(), SimTime::from_secs(22));
    }

    #[test]
    fn crash_cycle_compiles_to_paired_actions() {
        let plan = FaultPlan::new(1).with(FaultEvent::CrashCycle {
            target: 1,
            at: SimTime::from_secs(5),
            down_for: SimDuration::from_secs(1),
            up_for: SimDuration::from_secs(4),
            cycles: 2,
        });
        let actions = plan.service_actions();
        assert_eq!(actions.len(), 4);
        assert_eq!(actions[0].action, ServiceActionKind::Crash);
        assert_eq!(actions[0].at, SimTime::from_secs(5));
        assert_eq!(actions[1].action, ServiceActionKind::Recover);
        assert_eq!(actions[1].at, SimTime::from_secs(6));
        assert_eq!(actions[2].at, SimTime::from_secs(10));
        assert_eq!(actions[3].at, SimTime::from_secs(11));
        assert!(actions.iter().all(|a| a.target == 1));
    }

    #[test]
    fn brownout_compiles_to_start_end_pair() {
        let plan = FaultPlan::new(1).with(FaultEvent::Brownout {
            target: 0,
            at: SimTime::from_secs(3),
            duration: SimDuration::from_secs(7),
            mode: BrownoutMode::ThrottleStorm,
        });
        let actions = plan.service_actions();
        assert_eq!(
            actions[0].action,
            ServiceActionKind::BrownoutStart(BrownoutMode::ThrottleStorm)
        );
        assert_eq!(actions[1].action, ServiceActionKind::BrownoutEnd);
        assert_eq!(actions[1].at, SimTime::from_secs(10));
        assert_eq!(plan.end_time(), SimTime::from_secs(10));
    }

    #[test]
    fn composed_plans_interleave_actions_in_time_order() {
        let plan = FaultPlan::new(9)
            .with(FaultEvent::Brownout {
                target: 0,
                at: SimTime::from_secs(8),
                duration: SimDuration::from_secs(4),
                mode: BrownoutMode::Delay(SimDuration::from_millis(500)),
            })
            .with(FaultEvent::CrashCycle {
                target: 1,
                at: SimTime::from_secs(9),
                down_for: SimDuration::from_secs(1),
                up_for: SimDuration::ZERO,
                cycles: 1,
            })
            .with(FaultEvent::LossBurst {
                scope: LinkScope::All,
                at: SimTime::from_secs(1),
                duration: SimDuration::from_secs(2),
                loss: 0.5,
            });
        let actions = plan.service_actions();
        let times: Vec<u64> = actions.iter().map(|a| a.at.as_nanos()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "actions are time-sorted");
        assert_eq!(actions.len(), 4);
        assert_eq!(plan.network_effects().len(), 1);
        assert!(!plan.is_empty());
        assert_eq!(plan.seed(), 9);
    }

    #[test]
    fn empty_plan_compiles_to_nothing() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert!(plan.network_effects().is_empty());
        assert!(plan.service_actions().is_empty());
        assert_eq!(plan.end_time(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn loss_burst_validates_probability() {
        let _ = FaultPlan::new(0).with(FaultEvent::LossBurst {
            scope: LinkScope::All,
            at: SimTime::ZERO,
            duration: SimDuration::from_secs(1),
            loss: 1.5,
        });
    }

    /// One incident of every kind, every optional member present.
    const OUTAGE_TRACE: &str = r#"{"seed": 42, "incidents": [
        {"kind": "partition", "start_ms": 4000, "duration_ms": 2000,
         "regions": ["tokyo", "ireland"], "flaps": 2, "gap_ms": 1500},
        {"kind": "loss", "start_ms": 4000, "duration_ms": 9000, "severity": 0.25},
        {"kind": "degraded", "start_ms": 5000, "duration_ms": 8000,
         "regions": ["Tokyo"], "extra_ms": 80, "jitter_ms": 20},
        {"kind": "outage", "start_ms": 7000, "duration_ms": 4000, "target": 1},
        {"kind": "brownout", "start_ms": 8000, "duration_ms": 5000,
         "target": 0, "mode": "throttle"},
        {"kind": "brownout", "start_ms": 9000, "duration_ms": 1000,
         "target": 0, "mode": {"delay_ms": 40}}
    ]}"#;

    #[test]
    fn outage_trace_compiles_to_a_plan() {
        let plan = FaultPlan::from_outage_trace(OUTAGE_TRACE).expect("well-formed trace");
        assert_eq!(plan.seed(), 42);

        let effects = plan.network_effects();
        // Two flap windows + one loss window + one degraded window.
        assert_eq!(effects.len(), 4);
        assert_eq!(effects[0].kind, EffectKind::Block);
        assert_eq!(effects[0].scope, LinkScope::Between(Region::Tokyo, Region::Ireland));
        assert_eq!(effects[0].start, SimTime::from_secs(4));
        assert_eq!(effects[0].end, SimTime::from_secs(6));
        assert_eq!(effects[1].start, SimTime::from_millis(7500), "gap_ms spaces the flaps");
        assert_eq!(effects[2].kind, EffectKind::Loss(0.25));
        assert_eq!(effects[2].scope, LinkScope::All);
        assert_eq!(
            effects[3].kind,
            EffectKind::ExtraDelay {
                base: SimDuration::from_millis(80),
                jitter_mean: SimDuration::from_millis(20),
            }
        );
        assert_eq!(effects[3].scope, LinkScope::Touching(Region::Tokyo));

        let actions = plan.service_actions();
        // Crash + recover + two brownout start/end pairs.
        assert_eq!(actions.len(), 6);
        let crash = actions.iter().find(|a| a.action == ServiceActionKind::Crash).unwrap();
        assert_eq!((crash.target, crash.at), (1, SimTime::from_secs(7)));
        let recover = actions.iter().find(|a| a.action == ServiceActionKind::Recover).unwrap();
        assert_eq!(recover.at, SimTime::from_secs(11));
        assert!(actions.iter().any(|a| {
            a.action
                == ServiceActionKind::BrownoutStart(BrownoutMode::Delay(SimDuration::from_millis(
                    40,
                )))
        }));
    }

    #[test]
    fn outage_trace_rejects_malformed_documents() {
        let cases = [
            ("[1, 2]", "missing member `seed`"),
            (r#"{"seed": 1, "incidents": 3}"#, "must be an array"),
            (
                r#"{"seed": 1, "incidents": [{"kind": "meteor", "start_ms": 0, "duration_ms": 1}]}"#,
                "unknown incident kind",
            ),
            (
                r#"{"seed": 1, "incidents": [{"kind": "loss", "start_ms": 0,
                   "duration_ms": 1, "severity": 1.5}]}"#,
                "probability",
            ),
            (
                r#"{"seed": 1, "incidents": [{"kind": "partition", "start_ms": 0,
                   "duration_ms": 1, "regions": ["atlantis"]}]}"#,
                "unknown region",
            ),
            (
                r#"{"seed": 1, "incidents": [{"kind": "partition", "start_ms": 0,
                   "duration_ms": 1, "regions": ["oregon", "tokyo", "ireland"]}]}"#,
                "at most two",
            ),
        ];
        for (doc, needle) in cases {
            let err = FaultPlan::from_outage_trace(doc).expect_err(doc);
            assert!(err.to_string().contains(needle), "{doc}: {err}");
        }
    }

    #[test]
    fn outage_trace_rejects_times_past_the_end_of_the_clock() {
        let cases = [
            // The duration alone overflows the nanosecond clock.
            (
                r#"{"seed": 1, "incidents": [{"kind": "loss", "start_ms": 4000,
                   "duration_ms": 18446744073710, "severity": 0.25}]}"#,
                "`duration_ms` overflows",
            ),
            // So does the start.
            (
                r#"{"seed": 1, "incidents": [{"kind": "loss", "start_ms": 18446744073710,
                   "duration_ms": 1000, "severity": 0.25}]}"#,
                "`start_ms` overflows",
            ),
            // Each fits, but the window would end before it starts.
            (
                r#"{"seed": 1, "incidents": [{"kind": "brownout", "start_ms": 8000,
                   "duration_ms": 18446744073709, "target": 0, "mode": "throttle"}]}"#,
                "a `brownout` incident ends past the end",
            ),
            // The last of many flaps ends past the clock.
            (
                r#"{"seed": 1, "incidents": [{"kind": "partition", "start_ms": 0,
                   "duration_ms": 5000000000, "gap_ms": 5000000000, "flaps": 10000}]}"#,
                "a `partition` incident ends past the end",
            ),
            (
                r#"{"seed": 1, "incidents": [{"kind": "degraded", "start_ms": 0,
                   "duration_ms": 1000, "extra_ms": 18446744073710}]}"#,
                "`extra_ms` overflows",
            ),
            (
                r#"{"seed": 1, "incidents": [{"kind": "brownout", "start_ms": 0,
                   "duration_ms": 1000, "target": 0, "mode": {"delay_ms": 18446744073710}}]}"#,
                "`delay_ms` overflows",
            ),
        ];
        for (doc, needle) in cases {
            let err = FaultPlan::from_outage_trace(doc).expect_err(doc);
            assert!(err.to_string().contains(needle), "{doc}: {err}");
        }
        // The largest window that still fits compiles, and ends after it starts.
        let edge = r#"{"seed": 1, "incidents": [{"kind": "loss", "start_ms": 0,
            "duration_ms": 18446744073709, "severity": 0.25}]}"#;
        let effect = FaultPlan::from_outage_trace(edge).unwrap().network_effects()[0];
        assert!(effect.end > effect.start);
    }

    #[test]
    fn outage_trace_caps_flaps_per_incident() {
        // Fits the clock, but would compile four billion windows.
        let doc = r#"{"seed":1,"incidents":[{"kind":"partition","start_ms":0,"duration_ms":1,"flaps":4000000000}]}"#;
        let err = FaultPlan::from_outage_trace(doc).expect_err("four billion flaps");
        assert!(err.to_string().contains("`flaps`"), "{err}");
        let at_cap = doc.replace("4000000000", &MAX_TRACE_FLAPS.to_string());
        let plan = FaultPlan::from_outage_trace(&at_cap).expect("the cap itself is allowed");
        assert_eq!(plan.network_effects().len(), MAX_TRACE_FLAPS as usize);
    }

    /// Value mode on an outage trace: each integer — seed, instants,
    /// durations, flaps, gaps, targets, delays — set to its edge values.
    /// Each document is refused with a schema error or compiles to a plan
    /// of at most `MAX_TRACE_FLAPS` windows an incident, no window ending
    /// before it starts.
    #[test]
    fn hostile_values_in_an_outage_trace_are_refused_or_compiled() {
        let doc = conprobe_json::parse(OUTAGE_TRACE).unwrap();
        let (mut refused, mut compiled) = (0, 0);
        for hostile in conprobe_json::testkit::json_values(&doc) {
            let Ok(plan) = FaultPlan::from_outage_trace(&hostile.to_compact()) else {
                refused += 1;
                continue;
            };
            compiled += 1;
            let effects = plan.network_effects();
            assert!(effects.len() <= 6 * MAX_TRACE_FLAPS as usize, "{}", hostile.to_compact());
            assert!(effects.iter().all(|e| e.end >= e.start), "{}", hostile.to_compact());
            let actions = plan.service_actions();
            assert!(actions.iter().all(|a| a.at <= plan.end_time()), "{}", hostile.to_compact());
        }
        assert!(refused > 50 && compiled > 50, "{refused} refused, {compiled} compiled");
    }

    #[test]
    fn outage_trace_empty_regions_means_every_link() {
        let trace = r#"{"seed": 7, "incidents": [
            {"kind": "loss", "start_ms": 0, "duration_ms": 1000,
             "severity": 0.1, "regions": []}
        ]}"#;
        let plan = FaultPlan::from_outage_trace(trace).expect("well-formed trace");
        assert_eq!(plan.network_effects()[0].scope, LinkScope::All);
    }
}
