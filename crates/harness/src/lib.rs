//! # conprobe-harness — the measurement methodology of §IV–V
//!
//! This crate implements the paper's measurement machinery end to end:
//!
//! * [`clocksync`] — the custom Cristian-style clock synchronization: the
//!   coordinator probes each agent's local clock over the (simulated) WAN,
//!   estimates per-agent deltas by assuming symmetric one-way delays, and
//!   carries an uncertainty of half the RTT. NTP is "disabled" by
//!   construction: agents' clocks drift freely.
//! * [`script`] — the two test designs as one I/O-free state machine:
//!   Test 1 (staggered write pairs triggered by observing the
//!   predecessor's last write, continuous background reads) and Test 2
//!   (one synchronized write, adaptive-rate background reads).
//! * [`agent`] — the deployed agents (Oregon, Tokyo, Ireland): the
//!   script's driver inside the simulator, logging every operation with
//!   local invocation/response times. [`transport`] holds its blocking
//!   driver for live endpoints. With `TestConfig::use_guard` each agent
//!   logs the view of a private session guard (`guard.rs`, extension A3):
//!   acked own writes injected, nothing once shown dropped, each author's
//!   posts held back until their predecessors are shown.
//! * [`coordinator`] — the North Virginia coordinator: runs clock sync
//!   before each test, schedules a synchronized start, detects completion
//!   (Test 1: all agents saw M6; Test 2: all agents hit their read quota),
//!   collects the agents' logs, and maps them onto its own timeline using
//!   the estimated deltas.
//! * [`runner`] — builds one complete world (service + coordinator +
//!   agents), runs a single test instance, and analyzes the resulting trace
//!   with `conprobe-core`'s checkers.
//! * [`campaign`] — repeats tests with fresh worlds/seeds (optionally in
//!   parallel across OS threads), applying the configuration of the paper's
//!   Tables I and II, including the transient Tokyo partition episodes
//!   inferred for Facebook Group.
//! * [`stats`] / [`figures`] — aggregates campaign results into exactly the
//!   quantities the paper plots, and renders each table/figure as text and
//!   CSV.
//! * [`whitebox`] — the paper's future-work extension: probe replica state
//!   directly to separate true replica divergence from read-path artifacts.

//! ## Example: one paper test, end to end
//!
//! ```
//! use conprobe_harness::proto::TestKind;
//! use conprobe_harness::runner::{run_one_test, TestConfig};
//! use conprobe_services::ServiceKind;
//! use conprobe_core::AnomalyKind;
//!
//! let config = TestConfig::paper(ServiceKind::FacebookGroup, TestKind::Test1);
//! let result = run_one_test(&config, 7);
//! assert!(result.completed);
//! // The same-second reversal shows up as monotonic-writes violations…
//! assert!(result.analysis.has(AnomalyKind::MonotonicWrites));
//! // …and nothing else that FB Group doesn't exhibit.
//! assert!(!result.analysis.has(AnomalyKind::ReadYourWrites));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod campaign;
pub mod clocksync;
pub mod coordinator;
pub mod figures;
mod guard;
pub mod journal;
pub mod proto;
pub mod report;
pub mod runner;
pub mod schedule;
pub mod script;
pub mod stats;
pub mod transport;
pub mod whitebox;

pub use agent::RpcStats;
pub use campaign::{run_campaign, run_campaign_with_progress, CampaignConfig, CampaignResult};
pub use coordinator::AgentHealth;
pub use journal::{Journal, JournalError, Recovery};
pub use proto::{HarnessMsg, Msg, TestKind};
pub use runner::{run_one_test, TestConfig, TestResult};
pub use transport::{EndpointError, ServiceEndpoint};
