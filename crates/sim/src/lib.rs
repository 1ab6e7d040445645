//! # conprobe-sim — deterministic discrete-event simulation substrate
//!
//! This crate provides the virtual world in which the `conprobe` measurement
//! study runs. The original paper ("Characterizing the Consistency of Online
//! Services", DSN 2016) deployed agents on Amazon EC2 instances in Oregon,
//! Tokyo and Ireland, plus a coordinator in North Virginia, all talking to
//! live web services over the WAN. None of those services still exposes the
//! APIs the paper used, so this crate substitutes a *discrete-event
//! simulator*: nodes exchange messages over a latency-modelled network, own
//! drifting local clocks, and are driven by a single deterministic event
//! loop.
//!
//! The simulator is intentionally service-agnostic: it knows nothing about
//! posts, feeds or consistency. Higher layers (`conprobe-store`,
//! `conprobe-services`, `conprobe-harness`) build replicated services and
//! measurement agents out of [`Node`] implementations.
//!
//! ## Design highlights
//!
//! * **Determinism** — every run is a pure function of the configuration and
//!   a 64-bit seed. The event heap breaks timestamp ties with a monotonically
//!   increasing sequence number, and all randomness flows from [`SimRng`],
//!   which supports labelled splitting so that adding a consumer does not
//!   perturb unrelated streams.
//! * **Opaque clocks** — nodes cannot read true simulation time; they only
//!   see their [`clock::LocalClock`], which has a fixed offset and a drift
//!   rate. This forces the harness to implement the paper's Cristian-style
//!   clock synchronization for real, and lets tests quantify its error.
//! * **WAN model** — [`net::LatencyMatrix`] captures one-way delays with
//!   jitter between [`net::Region`]s, seeded from the RTTs the paper
//!   measured (136 ms Virginia–Oregon, 218 ms Virginia–Tokyo, 172 ms
//!   Virginia–Ireland). Every cut, loss, block or extra delay comes from
//!   the world's [`FaultPlan`]: node-pair cuts through
//!   [`LinkEffect::cuts`], region windows through the one link judge,
//!   [`faults::judge_link`].
//!
//! ## Example
//!
//! ```
//! use conprobe_sim::{World, WorldConfig, Node, Context, NodeId, SimDuration};
//! use conprobe_sim::net::Region;
//!
//! struct Ping { peer: Option<NodeId>, got: u32 }
//! impl Node<u32> for Ping {
//!     fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
//!         if let Some(p) = self.peer { ctx.send(p, 1); }
//!     }
//!     fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: NodeId, msg: u32) {
//!         self.got += msg;
//!         if msg < 3 { ctx.send(from, msg + 1); }
//!     }
//!     fn on_timer(&mut self, _: &mut Context<'_, u32>, _: u64) {}
//! }
//!
//! let mut world = World::new(WorldConfig::default(), 42);
//! let a = world.add_node(Region::Oregon, Box::new(Ping { peer: None, got: 0 }));
//! let b = world.add_node(Region::Tokyo, Box::new(Ping { peer: Some(a), got: 0 }));
//! # let _ = b;
//! world.run_until_idle();
//! assert!(world.now() > conprobe_sim::SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod faults;
pub mod net;
pub mod rng;
pub mod time;
pub mod world;

pub use clock::{ClockConfig, LocalClock, LocalTime};
pub use faults::{
    judge_link, BrownoutMode, EffectKind, FaultEvent, FaultNetStats, FaultPlan, LinkEffect,
    LinkScope, LinkVerdict, ServiceAction, ServiceActionKind,
};
pub use net::{LatencyMatrix, LinkSpec, Region};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use world::{Context, Node, NodeId, SimEventKind, TimerId, World, WorldConfig};

/// Re-export of the observability sink so downstream crates can install
/// and share one without depending on `conprobe-obs` directly.
pub use conprobe_obs::ObsSink;
